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


class NonpositiveWeight(ValueError):
    """The energy weight in the Lyapunov functional must be > 0."""


@dataclass
class EnergyTrace:
    """Per-step scalars of a simulation.

    energy[i] is E(y(t_i)), dissipation[i] the instantaneous (nonpositive)
    energy rate, cross[i] the position-velocity cross term p^T M q that
    enters the Lyapunov functional. In a damped regime the energy is
    nonincreasing up to a 1e-9 relative uptick; without damping it is
    conserved to the same tolerance.
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


def lyapunov_functional(pencil: SystemPencil, y: StateVector, energy_weight: float) -> float:
    """Perturbed energy  L(y) = energy_weight * E(y) + cross(y).

    For energy_weight at least twice the supremum of |cross|/E the sandwich
    (energy_weight/2) E <= L <= (3 energy_weight/2) E holds.
    """
    if not np.isfinite(energy_weight) or energy_weight <= 0:
        raise NonpositiveWeight(f"energy_weight must be finite and > 0, got {energy_weight}")
    return energy_weight * energy(pencil, y) + cross_functional(pencil, y)


def cross_term_bound_constant(pencil: SystemPencil) -> float:
    """The certified c with |cross(y)| <= c E(y) for every state.

    From Cauchy-Schwarz in the M inner product and p^H M p <= gamma p^H S p,
    c = max(1, gamma) works, where gamma is the largest eigenvalue of the
    symmetric-definite pair (M, S).
    """
    gamma = float(scipy.linalg.eigh(pencil.M, pencil.S, eigvals_only=True)[-1])
    return max(1.0, gamma)


def default_energy_weight(pencil: SystemPencil) -> float:
    """Twice the certified cross-term constant.

    With w = 2c and |cross| <= c E the sandwich (w/2) E <= w E + cross <=
    (3w/2) E holds for every state, not just sampled ones. Random-state
    sampling is useless here: rough states have huge bending energy and a
    tiny |cross|/E quotient, while the supremum is approached on the
    smoothest modes.
    """
    return 2.0 * cross_term_bound_constant(pencil)


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
    """a in LAPACK general-band storage with kl = ku = b: a[i, j] sits in
    row pad + b + i - j, column j. dgbtrf needs pad = b rows of fill-in room."""
    n = a.shape[0]
    ab = np.zeros((pad + 2 * b + 1, n))
    for k in range(-b, b + 1):  # k = j - i
        ab[pad + b - k, max(k, 0):n + min(k, 0)] = np.diagonal(a, k)
    return ab


def _band_product(a: np.ndarray, b: int):
    """Return x, y, beta -> a @ x + beta * y by banded BLAS, for real or complex x.

    scipy's gbmv wrappers want at least kl + ku + 1 rows, so a band wider
    than that (2b + 1 > N, dense test pencils) runs as an m x N product
    whose extra rows are zero, cut back to N.
    """
    n = a.shape[0]
    m = max(n, 2 * b + 1)
    ab = _band(a, b)
    abz = ab.astype(np.complex128)
    dgbmv, zgbmv = scipy.linalg.blas.dgbmv, scipy.linalg.blas.zgbmv

    def product(x: np.ndarray, y: np.ndarray | None = None, beta: float = 0.0) -> np.ndarray:
        if y is not None and m > n:
            y = np.concatenate([y, np.zeros(m - n, y.dtype)])
        if np.iscomplexobj(x):
            return zgbmv(m, n, b, b, 1.0, abz, x, beta=beta, y=y)[:n]
        return dgbmv(m, n, b, b, 1.0, ab, x, beta=beta, y=y)[:n]

    return product


def _trapezoidal_step(pencil: SystemPencil, dt: float, b: int):
    """Factor the trapezoidal step matrix; return the step (p, q, S p) -> (p+, q+).

    The step (B - dt/2 K) y+ = (B + dt/2 K) y has the first block row
    S (p+ - p) = dt S (q + q+)/2. S is SPD, so p+ = p + dt (q + q+)/2, and
    eliminating p+ from the second block row leaves one N x N system for q+:

        A q+ = (M - dt/2 D - dt^2/4 S) q - dt S p,
        A = M + dt/2 D + dt^2/4 S.

    Both matrices have the half-bandwidth b of S, M and D
    (_half_bandwidth). A is factored once by banded LU (dgbtrf) rather than
    banded Cholesky because it can be indefinite for negative dt with
    damping; the factor stays real and a complex right-hand side is solved
    as one two-column real system (dgbtrs). Each step then costs O(N b).
    The caller passes S p since simulate already computes it for the
    energy record.
    """
    n = pencil.n_positions
    a = pencil.M + (0.5 * dt) * pencil.D + (0.5 * dt) ** 2 * pencil.S
    explicit = _band_product(pencil.M - (0.5 * dt) * pencil.D
                             - (0.25 * dt * dt) * pencil.S, b)
    lu, piv, info = scipy.linalg.lapack.dgbtrf(_band(a, b, pad=b), b, b)
    if info != 0:
        raise SolveFailure(f"trapezoidal factorization failed: dgbtrf info = {info}")
    dgbtrs = scipy.linalg.lapack.dgbtrs

    def step(p: np.ndarray, q: np.ndarray, sp: np.ndarray):
        if np.iscomplexobj(sp):
            q = np.asarray(q, np.complex128)
        rhs = explicit(q, sp, -dt)
        if np.iscomplexobj(rhs):
            x, _ = dgbtrs(lu, b, b, rhs.view(np.float64).reshape(n, 2), piv)
            q_next = np.ascontiguousarray(x).view(np.complex128)[:, 0]
        else:
            q_next, _ = dgbtrs(lu, b, b, rhs, piv, overwrite_b=1)
        p_next = p + dt * (0.5 * q + 0.5 * q_next)
        if not (np.isfinite(p_next).all() and np.isfinite(q_next).all()):
            raise SolveFailure("trapezoidal step produced non-finite values")
        return p_next, q_next

    return step


def step_trapezoidal(pencil: SystemPencil, y: StateVector, dt: float) -> StateVector:
    """One trapezoidal step. Negative dt runs the scheme backward in time."""
    _require_match(pencil, y)
    if not np.isfinite(dt) or dt == 0:
        raise ValueError(f"dt must be finite and nonzero, got {dt}")
    step = _trapezoidal_step(pencil, dt, _half_bandwidth(pencil))
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
    step = _trapezoidal_step(pencil, dt, b)
    s_times, m_times, d_times = (_band_product(a, b) for a in (pencil.S, pencil.M, pencil.D))

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
