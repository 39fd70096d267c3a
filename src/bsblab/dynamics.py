"""Energy functionals and energy-exact time integration.

The trapezoidal (Crank-Nicolson) step

    (B - dt/2 K) y+ = (B + dt/2 K) y

inherits the dissipation identity of the pencil exactly: with the midpoint
ym = (y + y+)/2 one has E(y+) - E(y) = dt * dissipation(ym) up to solver
roundoff, for every dt. It is the only scheme. A step is solved in the
reduced N x N form of the second-order system (see _trapezoidal_step),
never on the 2N x 2N pencil, and on its band: the half-bandwidth b is
read off the nonzeros of S, M and D (3 on assembled meshes), the step
matrix is factored once by banded LU, and every mat-vec of a step and of
simulate's energy record is a banded BLAS call, so a step costs O(N b).
Bands are stored in Fortran order, the layout BLAS and LAPACK read, so
no call copies them, and a run's dtype (real or complex) is fixed from
its initial state before the first step, so each product binds one BLAS
routine and a complex right-hand side is solved in a buffer the step
owns (see _trapezoidal_step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fem import StateVector, SystemPencil
from .model import StructureConfig


class DimensionMismatch(ValueError):
    """State length does not match the pencil."""


class SolveFailure(RuntimeError):
    """An implicit solve failed or returned non-finite values."""


@dataclass
class EnergyTrace:
    """Per-step scalars of a simulation.

    energy[i] is E(y(t_i)), dissipation[i] the instantaneous (nonpositive)
    energy rate, cross[i] the position-velocity cross term p^T M q (the F
    column of energy.csv). In a damped regime the energy is nonincreasing
    up to a 1e-9 relative uptick; without damping it is conserved to the
    same tolerance.
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


def energy(pencil: SystemPencil, y: StateVector) -> float:
    """E(y) = (1/2)(p^H S p + q^H M q), always real and >= 0."""
    _require_match(pencil, y)
    return 0.5 * (np.vdot(y.p, pencil.S @ y.p).real + np.vdot(y.q, pencil.M @ y.q).real)


def dissipation(pencil: SystemPencil, y: StateVector) -> float:
    """Instantaneous energy rate -q^H D q, always real and <= 0."""
    _require_match(pencil, y)
    return -np.vdot(y.q, pencil.D @ y.q).real


def cross_functional(pencil: SystemPencil, y: StateVector) -> float:
    """The cross term Re(p^H M q), the L2 pairing of position and velocity."""
    _require_match(pencil, y)
    return np.vdot(y.p, pencil.M @ y.q).real


def default_dt(cfg: StructureConfig) -> float:
    """1e-3 times the period of the slowest string mode.

    The slowest mode of the pinned string on (l1, l2) has angular frequency
    pi/(l2 - l1) when undamped, hence period 2(l2 - l1). The undamped value
    is used for every regime; it is deterministic and stays defined past
    critical damping.
    """
    return 2e-3 * (cfg.l2 - cfg.l1)


def _half_bandwidth(pencil: SystemPencil) -> int:
    """Largest |i - j| over the nonzeros of S, M and D (3 on assembled meshes)."""
    rows, cols = np.nonzero((pencil.S != 0) | (pencil.M != 0) | (pencil.D != 0))
    return int(np.abs(rows - cols).max(initial=0))


def _band(a: np.ndarray, b: int, pad: int = 0) -> np.ndarray:
    """a in LAPACK general-band storage with kl = ku = b, in a's dtype: a[i, j]
    sits in row pad + b + i - j, column j. ?gbtrf needs pad = b fill-in rows.

    The band is allocated in Fortran order, the column-major layout BLAS and
    LAPACK read, so the wrappers pass it through without copying it.
    """
    n = a.shape[0]
    ab = np.zeros((pad + 2 * b + 1, n), dtype=a.dtype, order="F")
    for k in range(-b, b + 1):  # k = j - i
        ab[pad + b - k, max(k, 0):n + min(k, 0)] = np.diagonal(a, k)
    return ab


def _band_product(a: np.ndarray, b: int, dtype):
    """Return x, y, beta -> a @ x + beta * y by banded BLAS in the run's dtype.

    dtype (float64 or complex128) is fixed here, so the closure binds one
    of dgbmv and zgbmv and holds the band in that dtype; x and y should
    have it too, or the wrapper casts them on every call. scipy's gbmv
    wrappers want at least kl + ku + 1 rows, so a band wider than that
    (2b + 1 > N, dense test pencils) runs as an m x N product whose extra
    rows are zero, cut back to N.
    """
    n = a.shape[0]
    m = max(n, 2 * b + 1)
    ab = _band(a, b).astype(dtype, copy=False)
    gbmv = scipy.linalg.blas.zgbmv if ab.dtype == np.complex128 else scipy.linalg.blas.dgbmv

    def product(x: np.ndarray, y: np.ndarray | None = None, beta: float = 0.0) -> np.ndarray:
        if y is not None and m > n:
            y = np.concatenate([y, np.zeros(m - n, y.dtype)])
        return gbmv(m, n, b, b, 1.0, ab, x, beta=beta, y=y)[:n]

    return product


def _run_dtype(y: StateVector):
    """complex128 when either half of the state is complex, else float64."""
    return np.complex128 if np.iscomplexobj(y.p) or np.iscomplexobj(y.q) else np.float64


def _trapezoidal_step(pencil: SystemPencil, dt: float, b: int, dtype):
    """Factor the trapezoidal step matrix; return the step (p, q, S p) -> (p+, q+).

    The step (B - dt/2 K) y+ = (B + dt/2 K) y has the first block row
    S (p+ - p) = dt S (q + q+)/2. S is SPD, so p+ = p + dt (q + q+)/2, and
    eliminating p+ from the second block row leaves one N x N system for q+:

        A q+ = (M - dt/2 D - dt^2/4 S) q - dt S p,
        A = M + dt/2 D + dt^2/4 S.

    Both matrices have the half-bandwidth b of S, M and D
    (_half_bandwidth). A is factored once by banded LU (dgbtrf) rather than
    banded Cholesky because it can be indefinite for negative dt with
    damping. The factor stays real. dtype is the run's (_run_dtype): the
    explicit product binds its gbmv once, and for a complex run the step
    owns a (2, N) float buffer whose transpose is a Fortran-ordered N x 2
    array; each right-hand side is split into its real and imaginary rows
    there and solved in place as one two-column real system (dgbtrs), and
    q+ is assembled by assigning .real and .imag, which keeps signed zeros.
    Each step then costs O(N b). The caller passes S p since simulate
    already computes it for the energy record.
    """
    n = pencil.n_positions
    a = pencil.M + (0.5 * dt) * pencil.D + (0.5 * dt) ** 2 * pencil.S
    explicit = _band_product(pencil.M - (0.5 * dt) * pencil.D
                             - (0.25 * dt * dt) * pencil.S, b, dtype)
    lu, piv, info = scipy.linalg.lapack.dgbtrf(_band(a, b, pad=b), b, b)
    if info != 0:
        raise SolveFailure(f"trapezoidal factorization failed: dgbtrf info = {info}")
    dgbtrs = scipy.linalg.lapack.dgbtrs

    if np.dtype(dtype) == np.complex128:
        parts = np.empty((2, n))
        columns = parts.T

        def solve(rhs):
            parts[0] = rhs.real
            parts[1] = rhs.imag
            dgbtrs(lu, b, b, columns, piv, overwrite_b=1)
            q_next = np.empty(n, np.complex128)
            q_next.real = parts[0]
            q_next.imag = parts[1]
            return q_next
    else:
        def solve(rhs):
            return dgbtrs(lu, b, b, rhs, piv, overwrite_b=1)[0]

    def step(p: np.ndarray, q: np.ndarray, sp: np.ndarray):
        q_next = solve(explicit(q, sp, -dt))
        p_next = p + dt * (0.5 * q + 0.5 * q_next)
        # dt is finite and nonzero, so a non-finite entry of q+ makes the
        # same entry of p+ non-finite: one test covers both halves
        if not np.isfinite(p_next).all():
            raise SolveFailure("trapezoidal step produced non-finite values")
        return p_next, q_next

    return step


def step_trapezoidal(pencil: SystemPencil, y: StateVector, dt: float) -> StateVector:
    """One trapezoidal step. Negative dt runs the scheme backward in time."""
    _require_match(pencil, y)
    if not np.isfinite(dt) or dt == 0:
        raise ValueError(f"dt must be finite and nonzero, got {dt}")
    step = _trapezoidal_step(pencil, dt, _half_bandwidth(pencil), _run_dtype(y))
    return StateVector(*step(y.p, y.q, pencil.S @ y.p))


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
    b = _half_bandwidth(pencil)
    dtype = _run_dtype(y0)
    step = _trapezoidal_step(pencil, dt, b, dtype)
    s_times, m_times, d_times = (_band_product(a, b, dtype) for a in (pencil.S, pencil.M, pencil.D))

    p, q = y0.p, y0.q
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
        return sp

    sp = record(0, p, q)
    if snapshot_every > 0:
        snapshots.append((0.0, StateVector(p.copy(), q.copy())))
    for i in range(1, steps + 1):
        p, q = step(p, q, sp)
        sp = record(i, p, q)
        if snapshot_every > 0 and (i % snapshot_every == 0 or i == steps):
            snapshots.append((float(times[i]), StateVector(p.copy(), q.copy())))

    return SimOutput(
        trace=EnergyTrace(times=times, energy=e_arr, dissipation=d_arr, cross=c_arr),
        snapshots=snapshots,
        final_state=StateVector(p, q),
    )
