"""Energy functionals and energy-exact time integration.

The trapezoidal (Crank-Nicolson) step

    (B - dt/2 K) y+ = (B + dt/2 K) y

inherits the dissipation identity of the pencil exactly: with the midpoint
ym = (y + y+)/2 one has E(y+) - E(y) = dt * dissipation(ym) up to solver
roundoff, for every dt. Backward Euler is kept alongside as the blunt
first-order cross-check; it over-damps and is never energy-exact. Both are
solved in the reduced N x N form of the second-order system (see
_theta_step), never on the 2N x 2N pencil.
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


def _solve_factored(lu_piv, rhs: np.ndarray) -> np.ndarray:
    # real factors; complex right-hand sides split into two real solves
    if np.iscomplexobj(rhs):
        return (scipy.linalg.lu_solve(lu_piv, rhs.real)
                + 1j * scipy.linalg.lu_solve(lu_piv, rhs.imag))
    return scipy.linalg.lu_solve(lu_piv, rhs)


def _theta_step(pencil: SystemPencil, dt: float, theta: float, scheme: str):
    """Factor one theta-scheme step matrix; return the step (p, q, S p) -> (p+, q+).

    The theta-scheme (B - theta dt K) y+ = (B + (1 - theta) dt K) y has the
    first block row S (p+ - p) = dt S ((1 - theta) q + theta q+). S is SPD,
    so p+ = p + dt ((1 - theta) q + theta q+), and eliminating p+ from the
    second block row leaves one N x N system for q+:

        A q+ = (M - (1 - theta) dt D - theta (1 - theta) dt^2 S) q - dt S p,
        A = M + theta dt D + theta^2 dt^2 S.

    A is LU-factored rather than Cholesky-factored because it can be
    indefinite for negative dt with damping. The caller passes S p since
    simulate already computes it for the energy record.
    """
    a = pencil.M + (theta * dt) * pencil.D + (theta * dt) ** 2 * pencil.S
    explicit = (pencil.M - ((1.0 - theta) * dt) * pencil.D
                - (theta * (1.0 - theta) * dt * dt) * pencil.S)
    try:
        lu_piv = scipy.linalg.lu_factor(a)
    except scipy.linalg.LinAlgError as exc:
        raise SolveFailure(f"{scheme} factorization failed: {exc}") from exc

    def step(p: np.ndarray, q: np.ndarray, sp: np.ndarray):
        q_next = _solve_factored(lu_piv, explicit @ q - dt * sp)
        p_next = p + dt * ((1.0 - theta) * q + theta * q_next)
        for part in (p_next, q_next):
            if not np.all(np.isfinite(part.real)) or not np.all(np.isfinite(part.imag)):
                raise SolveFailure(f"{scheme} step produced non-finite values")
        return p_next, q_next

    return step


def step_trapezoidal(pencil: SystemPencil, y: StateVector, dt: float) -> StateVector:
    """One trapezoidal step. Negative dt runs the scheme backward in time."""
    _require_match(pencil, y)
    if not np.isfinite(dt) or dt == 0:
        raise ValueError(f"dt must be finite and nonzero, got {dt}")
    step = _theta_step(pencil, dt, 0.5, "trapezoidal")
    return StateVector(*step(y.p, y.q, pencil.S @ y.p))


def step_backward_euler(pencil: SystemPencil, y: StateVector, dt: float) -> StateVector:
    """One backward Euler step (B - dt K) y+ = B y; first order, over-damps."""
    _require_match(pencil, y)
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    step = _theta_step(pencil, dt, 1.0, "backward Euler")
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
    step = _theta_step(pencil, dt, 0.5, "trapezoidal")

    p, q = y0.p, y0.q
    times = dt * np.arange(steps + 1)
    e_arr = np.empty(steps + 1)
    d_arr = np.empty(steps + 1)
    c_arr = np.empty(steps + 1)
    snapshots = []

    def record(i, p, q):
        sp = pencil.S @ p
        mq = pencil.M @ q
        e_arr[i] = 0.5 * (np.vdot(p, sp).real + np.vdot(q, mq).real)
        d_arr[i] = -np.vdot(q, pencil.D @ q).real
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
