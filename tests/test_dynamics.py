import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsblab as bb
from bsblab import dynamics, fem
from bsblab.model import DampingCase

from conftest import random_state


def plateau(system):
    cfg, mesh, dofs, _ = system
    return fem.interpolate(bb.default_initial_data(cfg), mesh, dofs)


def test_energy_of_plateau_state(ddd_system):
    """The canonical plateau has bending energy 2 per unit beam, 0 in the string.

    Each beam ramp is ((x - end)/len)^2 with second derivative 2, so the
    bending integral is 4 per beam and the total energy 4. The string is
    flat and everything is at rest.
    """
    _, _, _, pencil = ddd_system
    e = bb.energy(pencil, plateau(ddd_system))
    assert e == pytest.approx(4.0, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_energy_is_positive(ddd_system, seed):
    _, _, _, pencil = ddd_system
    y = random_state(pencil, seed)
    assert bb.energy(pencil, y) > 0.0
    zero = bb.StateVector(np.zeros(pencil.n_positions), np.zeros(pencil.n_positions))
    assert bb.energy(pencil, zero) == 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dissipation_is_nonpositive(ddd_system, seed):
    _, _, _, pencil = ddd_system
    y = random_state(pencil, seed, complex_valued=True)
    assert bb.dissipation(pencil, y) <= 0.0


def test_trapezoidal_step_energy_balance(ddd_system):
    """E(y+) - E(y) = dt * dissipation(midpoint), exactly, step by step."""
    _, _, _, pencil = ddd_system
    y = plateau(ddd_system)
    dt = 1e-3
    worst = 0.0
    for _ in range(100):
        y_next = bb.step_trapezoidal(pencil, y, dt)
        mid = bb.StateVector(0.5 * (y.p + y_next.p), 0.5 * (y.q + y_next.q))
        gap = (bb.energy(pencil, y_next) - bb.energy(pencil, y)
               - dt * bb.dissipation(pencil, mid))
        worst = max(worst, abs(gap) / bb.energy(pencil, y))
        y = y_next
    assert worst <= 1e-9


def test_conservative_run_preserves_energy(cons_system):
    _, _, _, pencil = cons_system
    y0 = plateau(cons_system)
    sim = bb.simulate(pencil, y0, 1e-3, 0.2)
    e = sim.trace.energy
    assert np.abs(e / e[0] - 1.0).max() <= 1e-9


def test_damped_run_loses_energy_monotonically(ddd_system):
    _, _, _, pencil = ddd_system
    sim = bb.simulate(pencil, plateau(ddd_system), 1e-3, 0.5)
    diffs = np.diff(sim.trace.energy)
    assert diffs.max() <= 1e-9 * sim.trace.energy[0]
    assert sim.trace.energy[-1] < 0.9 * sim.trace.energy[0]


def test_step_with_negative_dt_inverts_the_step(ddd_system):
    """The trapezoidal map with -dt is the exact inverse, damping included."""
    _, _, _, pencil = ddd_system
    y0 = plateau(ddd_system)
    dt = 2e-3
    y1 = bb.step_trapezoidal(pencil, y0, dt)
    back = bb.step_trapezoidal(pencil, y1, -dt)
    scale = np.abs(y0.to_array()).max()
    assert np.abs(back.to_array() - y0.to_array()).max() <= 1e-8 * scale


def test_backward_euler_is_first_order_trapezoidal_second(ddd_system):
    """Richardson check of the convergence orders at a fixed time.

    Halving dt should shrink the backward Euler error by about 2 and the
    trapezoidal error by about 4. The run starts on the slowest mode: a
    rough state would excite frequencies far beyond 1/dt, where both
    schemes are outside their asymptotic regime.
    """
    _, _, _, pencil = ddd_system
    _, y0, _ = bb.slowest_mode(pencil)
    t_end = 0.08

    def final_state(stepper, dt):
        y = y0
        for _ in range(int(round(t_end / dt))):
            y = stepper(pencil, y, dt)
        return y.to_array()

    ref = final_state(bb.step_trapezoidal, t_end / 512)
    for stepper, expected_order in ((bb.step_backward_euler, 1), (bb.step_trapezoidal, 2)):
        err_coarse = np.linalg.norm(final_state(stepper, t_end / 16) - ref)
        err_fine = np.linalg.norm(final_state(stepper, t_end / 32) - ref)
        order = np.log2(err_coarse / err_fine)
        assert order == pytest.approx(expected_order, abs=0.35)


def theta_reference(pencil, y, dt, theta):
    """(B - theta dt K) y+ = (B + (1 - theta) dt K) y, solved on the 2N pencil."""
    B, K = pencil.B, pencil.K
    return np.linalg.solve(B - (theta * dt) * K, (B + ((1 - theta) * dt) * K) @ y.to_array())


def close(got, want):
    return np.linalg.norm(got.to_array() - want) <= 1e-12 * np.linalg.norm(want)


def dense_pencil(damping, seed=5, n=6):
    """Random SPD S and M and a rank-3 PSD D scaled by damping: every
    entry is nonzero, so the half-bandwidth is n - 1."""
    rng = np.random.default_rng(seed)

    def spd():
        g = rng.standard_normal((n, n))
        return g @ g.T + n * np.eye(n)

    g = rng.standard_normal((n, 3))
    return fem.SystemPencil(S=spd(), M=spd(), D=damping * (g @ g.T), regime=DampingCase.OTHER)


@pytest.mark.parametrize("complex_valued", [False, True])
def test_reduced_steps_match_the_first_order_pencil(ddd_system, complex_valued):
    """The N x N step reproduces the 2N x 2N theta-scheme on (B, K).

    The reference solves the first-order systems directly:
    (B - dt/2 K) y+ = (B + dt/2 K) y for the trapezoidal step, forward and
    backward in time, and (B - dt K) y+ = B y for backward Euler.
    """
    _, _, _, pencil = ddd_system
    y = random_state(pencil, 7, complex_valued=complex_valued)
    for dt in (1e-3, -1e-3):
        assert close(bb.step_trapezoidal(pencil, y, dt), theta_reference(pencil, y, dt, 0.5))
    dt = 1e-3
    assert close(bb.step_backward_euler(pencil, y, dt), theta_reference(pencil, y, dt, 1.0))


@pytest.mark.parametrize("complex_valued", [False, True])
def test_banded_steps_on_a_full_bandwidth_pencil(complex_valued):
    """A dense pencil is a band of half-width N - 1 and steps like any other."""
    pencil = dense_pencil(damping=1.0)
    assert dynamics._half_bandwidth(pencil) == pencil.n_positions - 1
    y = random_state(pencil, 11, complex_valued=complex_valued)
    for dt in (1e-2, -1e-2):
        assert close(bb.step_trapezoidal(pencil, y, dt), theta_reference(pencil, y, dt, 0.5))
    assert close(bb.step_backward_euler(pencil, y, 1e-2), theta_reference(pencil, y, 1e-2, 1.0))


@pytest.mark.parametrize("complex_valued", [False, True])
def test_backward_step_with_an_indefinite_step_matrix(complex_valued):
    """Negative dt against strong damping makes A = M + dt/2 D + dt^2/4 S
    indefinite, which no Cholesky factor admits; the LU step still matches."""
    pencil = dense_pencil(damping=50.0)
    dt = -1.0
    a = pencil.M + (dt / 2) * pencil.D + (dt / 2) ** 2 * pencil.S
    eig = np.linalg.eigvalsh(a)
    assert eig[0] < 0.0 < eig[-1]
    y = random_state(pencil, 13, complex_valued=complex_valued)
    assert close(bb.step_trapezoidal(pencil, y, dt), theta_reference(pencil, y, dt, 0.5))


def test_step_failures_raise_solve_failure():
    """A singular step matrix fails the factorization; overflow fails the step."""
    zero = np.zeros((3, 3))
    singular = fem.SystemPencil(S=zero, M=zero, D=zero, regime=DampingCase.OTHER)
    y = bb.StateVector(np.ones(3), np.ones(3))
    with pytest.raises(dynamics.SolveFailure, match="factorization"):
        bb.step_trapezoidal(singular, y, 1e-3)
    eye = np.eye(3)
    huge = fem.SystemPencil(S=1e300 * eye, M=eye, D=zero, regime=DampingCase.OTHER)
    with pytest.raises(dynamics.SolveFailure, match="non-finite"):
        bb.simulate(huge, bb.StateVector(1e300 * np.ones(3), np.ones(3)), 1e-3, 1e-3)


def test_simulate_trace_matches_its_snapshots(ddd_system):
    """The banded energy record equals the dense functionals on the states,
    and the run equals a chain of single trapezoidal steps."""
    _, _, _, pencil = ddd_system
    assert dynamics._half_bandwidth(pencil) == 3
    y0 = random_state(pencil, 17, complex_valued=True)
    dt, steps = 1e-3, 30
    sim = bb.simulate(pencil, y0, dt, steps * dt, snapshot_every=1)
    states = [y for _, y in sim.snapshots]
    assert len(states) == steps + 1
    for got, functional in ((sim.trace.energy, bb.energy),
                            (sim.trace.dissipation, bb.dissipation),
                            (sim.trace.cross, bb.cross_functional)):
        want = np.array([functional(pencil, y) for y in states])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    y = y0
    for _ in range(steps):
        y = bb.step_trapezoidal(pencil, y, dt)
    assert close(sim.final_state, y.to_array())


def test_step_input_validation(ddd_system):
    _, _, _, pencil = ddd_system
    y = plateau(ddd_system)
    with pytest.raises(ValueError):
        bb.step_trapezoidal(pencil, y, 0.0)
    with pytest.raises(ValueError):
        bb.step_backward_euler(pencil, y, -1e-3)
    tiny = bb.StateVector(np.ones(2), np.ones(2))
    with pytest.raises(dynamics.DimensionMismatch):
        bb.step_trapezoidal(pencil, tiny, 1e-3)


def test_simulate_trace_and_snapshots(ddd_system):
    _, _, _, pencil = ddd_system
    y0 = plateau(ddd_system)
    sim = bb.simulate(pencil, y0, 1e-3, 5e-3, snapshot_every=2)
    tr = sim.trace
    assert tr.times.shape == (6,)
    assert np.allclose(np.diff(tr.times), 1e-3)
    assert tr.energy.shape == tr.dissipation.shape == tr.cross.shape == (6,)
    # snapshots at steps 0, 2, 4 plus the final step
    assert [t for t, _ in sim.snapshots] == pytest.approx([0.0, 2e-3, 4e-3, 5e-3])
    assert np.array_equal(sim.final_state.to_array(), sim.snapshots[-1][1].to_array())
    plain = bb.simulate(pencil, y0, 1e-3, 5e-3)
    assert plain.snapshots == []
    assert np.array_equal(plain.final_state.to_array(), sim.final_state.to_array())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cross_term_bound(ddd_system, seed):
    """|cross(y)| <= c E(y) with the certified constant c."""
    _, _, _, pencil = ddd_system
    c = bb.cross_term_bound_constant(pencil)
    y = random_state(pencil, seed)
    assert abs(bb.cross_functional(pencil, y)) <= c * bb.energy(pencil, y) * (1 + 1e-12)


def test_lyapunov_functional_definition(ddd_system):
    _, _, _, pencil = ddd_system
    y = plateau(ddd_system)
    w = 3.7
    want = w * bb.energy(pencil, y) + bb.cross_functional(pencil, y)
    assert bb.lyapunov_functional(pencil, y, w) == pytest.approx(want, rel=1e-14)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(dynamics.NonpositiveWeight):
            bb.lyapunov_functional(pencil, y, bad)


def test_lyapunov_audit_sandwich_and_monotonicity(ddd_system):
    _, _, _, pencil = ddd_system
    sim = bb.simulate(pencil, plateau(ddd_system), 1e-3, 1.0)
    w = 2.0 * bb.cross_term_bound_constant(pencil)
    audit = bb.lyapunov_audit(sim, w)
    assert audit.sandwich_ok
    assert audit.nonincreasing
    assert audit.margin_low.min() >= -1e-12 * w * audit.energy[0]
    # a hopelessly small weight must break the sandwich on some state
    rng = np.random.default_rng(3)
    n = pencil.n_positions
    y = bb.StateVector(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
    tiny = 1e-6
    val = bb.lyapunov_functional(pencil, y, tiny)
    low = val - 0.5 * tiny * bb.energy(pencil, y)
    high = 1.5 * tiny * bb.energy(pencil, y) - val
    assert min(low, high) < 0.0


def test_default_dt_follows_the_string_span():
    cfg = bb.validate_config(bb.StructureConfig(0.0, 1.0, 6.0, 7.0, 1.0, 1.0, 1.0))
    assert bb.default_dt(cfg) == pytest.approx(0.002 * 5.0, rel=1e-15)


def test_default_energy_weight_certifies_the_sandwich(ddd_system):
    _, _, _, pencil = ddd_system
    w1 = bb.default_energy_weight(pencil)
    w2 = bb.default_energy_weight(pencil)
    assert w1 == w2
    assert w1 == 2.0 * bb.cross_term_bound_constant(pencil)
    # with this weight the sandwich holds even on the slowest mode, the
    # state family that maximizes |cross|/E
    _, y_re, y_im = bb.slowest_mode(pencil)
    for y in (y_re, y_im):
        e = bb.energy(pencil, y)
        val = bb.lyapunov_functional(pencil, y, w1)
        assert 0.5 * w1 * e - 1e-12 <= val <= 1.5 * w1 * e + 1e-12


def test_complex_states_simulate(udu_system):
    """Complex initial data propagates; energy decays like the real parts."""
    _, _, _, pencil = udu_system
    mu, y_re, y_im = bb.slowest_mode(pencil)
    y0 = bb.StateVector(y_re.p + 1j * y_im.p, y_re.q + 1j * y_im.q)
    sim = bb.simulate(pencil, y0, 1e-3, 0.1)
    assert np.iscomplexobj(sim.final_state.p)
    assert sim.trace.energy[-1] < sim.trace.energy[0]
    assert np.all(np.isfinite(sim.trace.energy))
