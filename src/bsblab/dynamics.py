"""Energy functionals and energy-exact time integration.

The trapezoidal (Crank-Nicolson) step

    (B - dt/2 K) y+ = (B + dt/2 K) y

inherits the dissipation identity of the pencil exactly: with the midpoint
ym = (y + y+)/2 one has E(y+) - E(y) = dt * dissipation(ym) up to solver
roundoff, for every dt. It is the only scheme. A step is solved in the
reduced N x N midpoint form of the second-order system (see
_trapezoidal_step), never on the 2N x 2N pencil, and on the bands the
pencil stores: the step matrix is an entrywise combination of the bands of
S, M and D, factored once by banded LU in the run's dtype, and every
mat-vec of simulate's energy record and of the energy functionals is a
banded BLAS call. The record's S p and M q are also the step's right-hand
side, so a step is one banded solve plus the record's three products,
costs O(N b), and no N x N matrix is formed. Bands are stored in Fortran
order, the layout BLAS and LAPACK read, so no call copies a real band, and
a run's dtype (real or complex) is fixed from its initial state before the
first step, so each product and the solve bind one routine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fem import StateVector, SystemPencil, _lu_band
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
    column of energy.csv). The energy is nonincreasing in a damped regime
    and conserved without damping, up to roundoff that grows with the mesh:
    each step sums terms of size T = (|p|^T |S| |p| + |q|^T |M| |q|)/2, and
    T/E grows about 16x per mesh doubling. A conservative run drifts by
    about 1e-9 relative at 80 elements per member, 1e-8 at 160 and 1e-6 at
    640.
    """

    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    cross: np.ndarray


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


def cross_functional(pencil: SystemPencil, y: StateVector) -> float:
    """The cross term Re(p^H M q), the L2 pairing of position and velocity."""
    _require_match(pencil, y)
    return np.vdot(y.p, _times(pencil.m_band, y.q)).real


def default_dt(cfg: StructureConfig) -> float:
    """1e-3 times the period of the slowest string mode.

    The slowest mode of the pinned string on (l1, l2) has angular frequency
    pi/(l2 - l1) when undamped, hence period 2(l2 - l1). The undamped value
    is used for every regime; it is deterministic and stays defined past
    critical damping.
    """
    return 2e-3 * (cfg.l2 - cfg.l1)


def _band_product(ab: np.ndarray, dtype):
    """Return x -> a @ x, a new array, by banded BLAS in the run's dtype.

    ab is the general band (kl = ku = b) of a. dtype (float64 or
    complex128) is fixed here, so the closure binds one of dgbmv and zgbmv
    and holds the band in that dtype (a real band is not copied); x should
    have it too, or the wrapper casts it on every call. scipy's gbmv
    wrappers want at least kl + ku + 1 rows, so a band wider than that
    (2b + 1 > N, dense test pencils) runs as an m x N product whose extra
    rows are zero, cut back to N.
    """
    b, n = ab.shape[0] // 2, ab.shape[1]
    m = max(n, 2 * b + 1)
    ab = ab.astype(dtype, copy=False)
    gbmv = scipy.linalg.blas.zgbmv if ab.dtype == np.complex128 else scipy.linalg.blas.dgbmv

    def product(x: np.ndarray) -> np.ndarray:
        return gbmv(m, n, b, b, 1.0, ab, x)[:n]

    return product


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
    half-bandwidth b, and factored once by banded LU in the run's dtype (y's,
    float64 or complex128): dgbtrf for a real run, zgbtrf for a complex one,
    so each step is one banded solve (dgbtrs or zgbtrs) in that dtype. LU
    rather than banded Cholesky because A can be indefinite for negative dt
    with damping. S p and M q are the caller's: simulate computes them for
    the energy record anyway, so a step makes no banded product of its own
    and costs O(N b). The step consumes M q: the right-hand side is built in
    its array by one axpy and solved there, and p and q are updated in y by
    axpy and scal, in the run's dtype too.
    """
    n, b = pencil.n_positions, pencil.bandwidth
    a = pencil.m_band + (0.5 * dt) * pencil.d_band + (0.5 * dt) ** 2 * pencil.s_band
    lapack = scipy.linalg.lapack
    gbtrf, gbtrs = ((lapack.zgbtrf, lapack.zgbtrs) if np.dtype(dtype) == np.complex128
                    else (lapack.dgbtrf, lapack.dgbtrs))
    axpy, scal = scipy.linalg.blas.get_blas_funcs(("axpy", "scal"), dtype=dtype)
    lu, piv, info = gbtrf(_lu_band(a.astype(dtype, copy=False)), b, b)
    if info != 0:
        raise SolveFailure(f"trapezoidal factorization failed: {gbtrf.__name__} info = {info}")

    def step(y: np.ndarray, sp: np.ndarray, mq: np.ndarray) -> None:
        q_mid = gbtrs(lu, b, b, axpy(sp, mq, a=-0.5 * dt), piv, overwrite_b=1)[0]
        axpy(q_mid, y[:n], a=dt)
        scal(-1.0, axpy(q_mid, y[n:], a=-2.0))
        if not np.isfinite(y).all():
            raise SolveFailure("trapezoidal step produced non-finite values")

    return step


def step_trapezoidal(pencil: SystemPencil, y: StateVector, dt: float) -> StateVector:
    """One trapezoidal step. Negative dt runs the scheme backward in time."""
    _require_match(pencil, y)
    if not np.isfinite(dt) or dt == 0:
        raise ValueError(f"dt must be finite and nonzero, got {dt}")
    y_next = y.to_array()
    dtype = y_next.dtype
    step = _trapezoidal_step(pencil, dt, dtype)
    step(y_next, _band_product(pencil.s_band, dtype)(y.p), _band_product(pencil.m_band, dtype)(y.q))
    return StateVector.from_array(y_next)


def simulate(
    pencil: SystemPencil,
    y0: StateVector,
    dt: float,
    t_final: float,
    snapshot_every: int = 0,
) -> SimOutput:
    """Trapezoidal time integration with the implicit matrix factored once.

    Runs round(t_final/dt) steps (at least one). The trace records energy,
    dissipation and the cross term at every step; states are stored every
    snapshot_every steps (plus the initial and final one) when
    snapshot_every > 0.
    """
    _require_match(pencil, y0)
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not np.isfinite(t_final) or t_final <= 0:
        raise ValueError(f"t_final must be finite and > 0, got {t_final}")
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")

    steps = max(1, int(round(t_final / dt)))
    y = y0.to_array()  # the run's state, real or complex throughout; steps update it in place
    step = _trapezoidal_step(pencil, dt, y.dtype)
    s_times, m_times, d_times = (_band_product(ab, y.dtype)
                                 for ab in (pencil.s_band, pencil.m_band, pencil.d_band))

    p, q = y[:pencil.n_positions], y[pencil.n_positions:]
    times = dt * np.arange(steps + 1)
    e_arr = np.empty(steps + 1)
    d_arr = np.empty(steps + 1)
    c_arr = np.empty(steps + 1)
    snapshots = []

    def record(i, p, q):
        sp = s_times(p)
        mq = m_times(q)
        e_arr[i] = 0.5 * (np.vdot(p, sp).real + np.vdot(q, mq).real)
        d_arr[i] = -np.vdot(q, d_times(q)).real
        c_arr[i] = np.vdot(p, mq).real
        return sp, mq

    sp, mq = record(0, p, q)
    if snapshot_every > 0:
        snapshots.append((0.0, StateVector(p.copy(), q.copy())))
    for i in range(1, steps + 1):
        step(y, sp, mq)
        sp, mq = record(i, p, q)
        if snapshot_every > 0 and (i % snapshot_every == 0 or i == steps):
            snapshots.append((float(times[i]), StateVector(p.copy(), q.copy())))

    return SimOutput(
        trace=EnergyTrace(times=times, energy=e_arr, dissipation=d_arr, cross=c_arr),
        snapshots=snapshots,
        final_state=StateVector(p, q),
    )
