"""Energy functionals and energy-exact time integration.

The trapezoidal (Crank-Nicolson) step

    (B - dt/2 K) y+ = (B + dt/2 K) y

inherits the dissipation identity of the pencil exactly: with the midpoint
ym = (y + y+)/2 one has E(y+) - E(y) = dt * dissipation(ym) up to solver
roundoff, for every dt. It is the only scheme. A step is solved in the
reduced N x N midpoint form of the second-order system (see
_trapezoidal_step), never on the 2N x 2N pencil, and on the bands the
pencil stores: the step matrix is an entrywise combination of the bands of
S, M and D, factored once by banded Cholesky, and every mat-vec of
simulate's energy record and of the energy functionals is a banded BLAS
call. simulate is the one driver, and it runs forward in time (dt > 0),
as the damped semigroup does. The record's [S p; M q] comes from one
product over blockdiag(S, M), written into one array the run owns, and
is also the step's right-hand side. A step is one banded solve plus that
product, and, when the run records the rate columns (dissipation and
cross term) on a pencil whose D band is not all zero, one more product
D q, in a new array; an energy-only run, the decay certificate's, makes
none, and its step allocates no array of length N. A step costs O(N b)
and forms no N x N matrix. Bands are stored in Fortran order, the layout
BLAS and LAPACK read, so no call copies a real band, and a run's dtype
(real or complex) is fixed from its initial state before the first step,
so each product and the solve bind one routine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fem import RecordTooLarge, StateVector, SystemPencil
from .model import BsblabError, StructureConfig


class DimensionMismatch(BsblabError, ValueError):
    """State length does not match the pencil."""


class SolveFailure(BsblabError, RuntimeError):
    """An implicit solve failed or returned non-finite values."""


@dataclass
class EnergyTrace:
    """Per-step scalars of a simulation.

    energy[i] is E(y(t_i)), dissipation[i] the instantaneous (nonpositive)
    energy rate, cross[i] the position-velocity cross term p^T M q (the F
    column of energy.csv). dissipation and cross, the rate columns, are
    None for a run that recorded the energy only. The energy is
    nonincreasing in a damped regime and conserved without damping, up to
    roundoff that grows with the mesh: each step sums terms of size
    T = (|p|^T |S| |p| + |q|^T |M| |q|)/2, and T/E grows about 16x per
    mesh doubling. A conservative run drifts by about 1e-9 relative at 80
    elements per member, 1e-8 at 160 and 1e-6 at 640.
    """

    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray | None
    cross: np.ndarray | None


@dataclass
class SimOutput:
    trace: EnergyTrace
    snapshots: list  # list of (time, StateVector), empty unless requested
    final_state: StateVector


def _require_match(pencil: SystemPencil, y: StateVector) -> None:
    if y.p.shape[0] != pencil.n_positions:
        raise DimensionMismatch(
            f"state has {y.p.shape[0]} position DOFs, pencil has {pencil.n_positions}"
        )


def _times(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The band ab times x, by banded BLAS in x's dtype."""
    return _band_product(ab, x.dtype)(x)


def energy(pencil: SystemPencil, y: StateVector) -> float:
    """E(y) = (1/2)(p^H S p + q^H M q), always real and >= 0."""
    _require_match(pencil, y)
    return 0.5 * (np.vdot(y.p, _times(pencil.s_band, y.p)).real
                  + np.vdot(y.q, _times(pencil.m_band, y.q)).real)


def dissipation(pencil: SystemPencil, y: StateVector) -> float:
    """Instantaneous energy rate -q^H D q, always real and <= 0."""
    _require_match(pencil, y)
    return -np.vdot(y.q, _times(pencil.d_band, y.q)).real


# simulate's run length when none is given, and the cap on the default
# run length of decay and verify
DEFAULT_T_FINAL = 10.0


def default_dt(cfg: StructureConfig) -> float:
    """1e-3 times the period of the slowest string mode.

    The slowest mode of the pinned string on (l1, l2) has angular frequency
    pi/(l2 - l1) when undamped, hence period 2(l2 - l1). The undamped value
    is used for every regime; it is deterministic and stays defined past
    critical damping.
    """
    return 2e-3 * (cfg.l2 - cfg.l1)


def _band_product(ab: np.ndarray, dtype, out: np.ndarray | None = None):
    """Return x -> a @ x by banded BLAS in the run's dtype.

    ab is the general band (kl = ku = b) of a. dtype (float64 or
    complex128) is fixed here, so the closure binds one of dgbmv and zgbmv
    and holds the band in that dtype (a real band is not copied); x should
    have it too, or the wrapper casts it on every call. scipy's gbmv
    wrappers want at least kl + ku + 1 rows, so a band wider than that
    (2b + 1 > N, dense test pencils) runs as an m x N product whose extra
    rows are zero, cut back to N. Each call returns a new array, or, given
    out (m entries of dtype), writes the product into out and returns its
    first N entries: gbmv runs with beta = 0, so what out held does not
    reach the result.
    """
    b, n = ab.shape[0] // 2, ab.shape[1]
    m = max(n, 2 * b + 1)
    ab = ab.astype(dtype, copy=False)
    gbmv = scipy.linalg.blas.zgbmv if ab.dtype == np.complex128 else scipy.linalg.blas.dgbmv

    def product(x: np.ndarray) -> np.ndarray:
        return gbmv(m, n, b, b, 1.0, ab, x, beta=0.0, y=out, overwrite_y=1)[:n]

    return product


def _state_product(pencil: SystemPencil, out: np.ndarray):
    """Return y -> [S p; M q] for a state y = [p; q], by one banded product
    written into out (2N entries, in the run's dtype), which every call
    overwrites and returns.

    The bands of S and M side by side are the general band (kl = ku = b)
    of blockdiag(S, M) on the 2N state: column N - 1 of S's band and
    column 0 of M's band hold zeros where they reach past their block. Each
    entry is the sum of the separate products plus exact zero terms, so
    the result equals S p and M q computed apart. np.hstack keeps the
    bands' Fortran order. 2b + 1 < 2N, so the product needs no extra rows.
    """
    return _band_product(np.hstack([pencil.s_band, pencil.m_band]), out.dtype, out)


def _trapezoidal_step(pencil: SystemPencil, dt: float, dtype):
    """Factor the trapezoidal step matrix; return the step (y, S p, M q) that
    advances the state y = [p; q] in place.

    The step (B - dt/2 K) y+ = (B + dt/2 K) y has the first block row
    S (p+ - p) = dt S qm with the midpoint velocity qm = (q + q+)/2. S is
    SPD, so p+ = p + dt qm, and eliminating p+ from the second block row
    leaves one N x N system for qm:

        A qm = M q - dt/2 S p,    A = M + dt/2 D + dt^2/4 S,
        q+ = 2 qm - q,            p+ = p + dt qm.

    A is formed entrywise on the bands of S, M and D, with their
    half-bandwidth b. For dt > 0, the only dt simulate accepts, A is SPD
    (M and S are SPD, D is PSD) and is factored once by banded Cholesky
    (dpbtrf on its upper band, the first b + 1 rows of the general band);
    each step is one dpbtrs, or one zpbtrs on the complex cast of the real
    factor for a complex run. S p and M q are the caller's: simulate
    computes them for the energy record anyway, so a step makes no banded
    product of its own and costs O(N b). The step consumes M q: the
    right-hand side is built in its array by one axpy and solved there,
    and p and q are updated in y by axpy and scal, in the run's dtype too.
    The step does not test y for finite values; simulate tests the
    energy it records.
    """
    n, b = pencil.n_positions, pencil.bandwidth
    a = pencil.m_band + (0.5 * dt) * pencil.d_band + (0.5 * dt) ** 2 * pencil.s_band
    lapack = scipy.linalg.lapack
    axpy, scal = scipy.linalg.blas.get_blas_funcs(("axpy", "scal"), dtype=dtype)
    factor, info = lapack.dpbtrf(a[:b + 1])
    if info != 0:
        raise SolveFailure(f"trapezoidal factorization failed: dpbtrf info = {info}")
    factor = factor.astype(dtype, copy=False)
    pbtrs = lapack.zpbtrs if np.dtype(dtype) == np.complex128 else lapack.dpbtrs

    def step(y: np.ndarray, sp: np.ndarray, mq: np.ndarray) -> None:
        q_mid = pbtrs(factor, axpy(sp, mq, a=-0.5 * dt), overwrite_b=1)[0]
        axpy(q_mid, y[:n], a=dt)
        scal(-1.0, axpy(q_mid, y[n:], a=-2.0))

    return step


def simulate(
    pencil: SystemPencil,
    y0: StateVector,
    dt: float,
    t_final: float,
    snapshot_every: int = 0,
    *,
    energy_only: bool = False,
) -> SimOutput:
    """Trapezoidal time integration with the implicit matrix factored once.

    Runs round(t_final/dt) steps (at least one). The trace records the
    energy at every step and, unless energy_only, the rate columns
    dissipation and cross term too; an energy-only run makes no D q
    product and leaves both None. On a pencil whose D band is all zero
    the dissipation column is zeros and no D q product is made either.
    An energy-only run's energy is bitwise the full run's,
    as both take it from the same 2 x 2 product. States are stored every
    snapshot_every steps (plus the initial and final one) when
    snapshot_every > 0. A step count whose record cannot be allocated
    raises RecordTooLarge before the step matrix is factored. A step whose
    recorded energy is not finite raises SolveFailure: S and M have
    positive diagonals, so a non-finite entry of p or q makes it so.
    """
    _require_match(pencil, y0)
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not np.isfinite(t_final) or t_final <= 0:
        raise ValueError(f"t_final must be finite and > 0, got {t_final}")
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")

    steps = max(1, int(round(t_final / dt)))
    try:
        # np.empty refuses a count np.arange would turn into an empty array
        e_arr = np.empty(steps + 1)
        d_arr, c_arr = (None, None) if energy_only else (np.zeros(steps + 1), np.empty(steps + 1))
        times = dt * np.arange(steps + 1)
    except (ValueError, MemoryError) as exc:
        raise RecordTooLarge(
            f"the energy record of {steps:.6g} steps does not fit in memory") from exc
    y = y0.to_array()  # the run's state, real or complex throughout; steps update it in place
    step = _trapezoidal_step(pencil, dt, y.dtype)
    n = pencil.n_positions
    spmq = np.empty(2 * n, y.dtype)  # [S p; M q], rewritten by every record
    state_times = _state_product(pencil, spmq)
    # -q^H D q is 0 on a zero D band, which the zeros of d_arr already hold
    damped = not energy_only and pencil.d_band.any()
    d_times = _band_product(pencil.d_band, y.dtype) if damped else None

    p, q, sp, mq = y[:n], y[n:], spmq[:n], spmq[n:]
    # Re(u^H v) is the real dot of the float64 views, so the rows [p; q] of
    # y's view against those of [S p; M q] give p.Sp, p.Mq and q.Mq at once
    pq = y.view(np.float64).reshape(2, -1)
    spmq_t = spmq.view(np.float64).reshape(2, -1).T
    snapshots = []

    def record(i):
        state_times(y)
        gram = np.dot(pq, spmq_t)
        e_arr[i] = 0.5 * (gram[0, 0] + gram[1, 1])
        if c_arr is not None:
            c_arr[i] = gram[0, 1]
        if d_times is not None:
            d_arr[i] = -np.vdot(q, d_times(q)).real

    record(0)
    if snapshot_every > 0:
        snapshots.append((0.0, StateVector(p.copy(), q.copy())))
    for i in range(1, steps + 1):
        step(y, sp, mq)
        record(i)
        if not math.isfinite(e_arr[i]):
            raise SolveFailure("trapezoidal step produced non-finite values")
        if snapshot_every > 0 and (i % snapshot_every == 0 or i == steps):
            snapshots.append((float(times[i]), StateVector(p.copy(), q.copy())))

    return SimOutput(
        trace=EnergyTrace(times=times, energy=e_arr, dissipation=d_arr, cross=c_arr),
        snapshots=snapshots,
        final_state=StateVector(p, q),
    )
