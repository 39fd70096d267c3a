import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import bsblab as bb
from bsblab import dynamics, fem
from conftest import random_state
import oracles


def plateau(system):
    cfg, mesh, _ = system
    return fem.interpolate(cfg, mesh)


def test_energy_of_plateau_state(ddd_system):
    """The canonical plateau has bending energy 2 per unit beam, 0 in the string.

    Each beam ramp is ((x - end)/len)^2 with second derivative 2, so the
    bending integral is 4 per beam and the total energy 4. The string is
    flat and everything is at rest.
    """
    _, _, pencil = ddd_system
    e = bb.energy(pencil, plateau(ddd_system))
    assert e == pytest.approx(4.0, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_energy_is_positive(ddd_system, seed):
    _, _, pencil = ddd_system
    y = random_state(pencil, seed)
    assert bb.energy(pencil, y) > 0.0
    zero = bb.StateVector(np.zeros(pencil.n_positions), np.zeros(pencil.n_positions))
    assert bb.energy(pencil, zero) == 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dissipation_is_nonpositive(ddd_system, seed):
    _, _, pencil = ddd_system
    y = random_state(pencil, seed, complex_valued=True)
    assert bb.dissipation(pencil, y) <= 0.0


def test_trapezoidal_step_energy_balance(ddd_system):
    """E(y+) - E(y) = dt * dissipation(midpoint), exactly, step by step."""
    _, _, pencil = ddd_system
    dt = 1e-3
    sim = bb.simulate(pencil, plateau(ddd_system), dt, 100 * dt, snapshot_every=1)
    states = [y for _, y in sim.snapshots]
    assert len(states) == 101
    worst = 0.0
    for y, y_next in zip(states, states[1:]):
        mid = bb.StateVector(0.5 * (y.p + y_next.p), 0.5 * (y.q + y_next.q))
        gap = (bb.energy(pencil, y_next) - bb.energy(pencil, y)
               - dt * bb.dissipation(pencil, mid))
        worst = max(worst, abs(gap) / bb.energy(pencil, y))
    assert worst <= 1e-9


def test_conservative_run_preserves_energy(cons_system):
    _, _, pencil = cons_system
    y0 = plateau(cons_system)
    sim = bb.simulate(pencil, y0, 1e-3, 0.2)
    e = sim.trace.energy
    assert np.abs(e / e[0] - 1.0).max() <= 1e-9


def test_damped_run_loses_energy_monotonically(ddd_system):
    _, _, pencil = ddd_system
    sim = bb.simulate(pencil, plateau(ddd_system), 1e-3, 0.5)
    diffs = np.diff(sim.trace.energy)
    assert diffs.max() <= 1e-9 * sim.trace.energy[0]
    assert sim.trace.energy[-1] < 0.9 * sim.trace.energy[0]


def test_step_with_negative_dt_inverts_the_step(ddd_system, cons_cfg):
    """The trapezoidal map with -dt is the exact inverse, damping included:
    a forward step of simulate, undone by the dense 2N reference step with
    -dt, gives back the initial state. The undamped pencil is stepped at
    default_dt up to n = 160, where the round trip reads 4.7e-9 relative."""
    _, _, pencil = ddd_system
    y0 = plateau(ddd_system)
    dt = 2e-3
    y1 = one_step(pencil, y0, dt)
    back = trapezoidal_reference(pencil, y1, -dt)
    scale = np.abs(y0.to_array()).max()
    assert np.abs(back - y0.to_array()).max() <= 1e-8 * scale
    dt = bb.default_dt(cons_cfg)
    for n in (10, 40, 160):
        mesh, pencil = bb.discretize(cons_cfg, n, n, n)
        y0 = plateau((cons_cfg, mesh, pencil))
        y1 = one_step(pencil, y0, dt)
        gap = trapezoidal_reference(pencil, y1, -dt) - y0.to_array()
        assert np.linalg.norm(gap) <= 1e-8 * np.linalg.norm(y0.to_array()), n


def test_trapezoidal_is_second_order(ddd_system):
    """Richardson check of the convergence order at a fixed time.

    Halving dt should shrink the trapezoidal error by about 4. The run
    starts on the slowest mode: a rough state would excite frequencies far
    beyond 1/dt, where the scheme is outside its asymptotic regime.
    """
    _, _, pencil = ddd_system
    mode = bb.eigenmode(pencil, bb.eigenvalues(pencil).eigenvalues[-1])
    y0 = bb.StateVector(mode.p.real.copy(), mode.q.real.copy())
    t_end = 0.08

    def final_state(dt):
        return bb.simulate(pencil, y0, dt, t_end).final_state.to_array()

    ref = final_state(t_end / 512)
    err_coarse = np.linalg.norm(final_state(t_end / 16) - ref)
    err_fine = np.linalg.norm(final_state(t_end / 32) - ref)
    order = np.log2(err_coarse / err_fine)
    assert order == pytest.approx(2, abs=0.35)


def trapezoidal_reference(pencil, y, dt):
    """(B - dt/2 K) y+ = (B + dt/2 K) y, solved on the 2N pencil."""
    B, K = oracles.first_order(pencil)
    return np.linalg.solve(B - (dt / 2) * K, (B + (dt / 2) * K) @ y.to_array())


def one_step(pencil, y, dt):
    """One trapezoidal step, as simulate takes it."""
    return bb.simulate(pencil, y, dt, dt).final_state


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
    return oracles.pencil_from_dense(S=spd(), M=spd(), D=damping * (g @ g.T))


@pytest.mark.parametrize("complex_valued", [False, True])
def test_reduced_steps_match_the_first_order_pencil(ddd_system, complex_valued):
    """The N x N step reproduces the 2N x 2N trapezoidal step on (B, K).

    The reference solves (B - dt/2 K) y+ = (B + dt/2 K) y directly.
    """
    _, _, pencil = ddd_system
    y = random_state(pencil, 7, complex_valued=complex_valued)
    dt = 1e-3
    assert close(one_step(pencil, y, dt), trapezoidal_reference(pencil, y, dt))


@pytest.mark.parametrize("complex_valued", [False, True])
def test_banded_steps_on_a_full_bandwidth_pencil(complex_valued):
    """A dense pencil is a band of half-width N - 1 and steps like any other."""
    pencil = dense_pencil(damping=1.0)
    assert pencil.bandwidth == pencil.n_positions - 1
    y = random_state(pencil, 11, complex_valued=complex_valued)
    dt = 1e-2
    assert close(one_step(pencil, y, dt), trapezoidal_reference(pencil, y, dt))


def test_step_failures_raise_solve_failure():
    """A singular step matrix fails the factorization; overflow fails the step."""
    zero = np.zeros((3, 3))
    singular = oracles.pencil_from_dense(S=zero, M=zero, D=zero)
    y = bb.StateVector(np.ones(3), np.ones(3))
    with pytest.raises(bb.NumericalError, match="^trapezoidal factorization failed: dpbtrf"):
        bb.simulate(singular, y, 1e-3, 1e-3)
    eye = np.eye(3)
    huge = oracles.pencil_from_dense(S=1e300 * eye, M=eye, D=zero)
    with pytest.raises(bb.NumericalError, match="^trapezoidal step produced non-finite values$"):
        bb.simulate(huge, bb.StateVector(1e300 * np.ones(3), np.ones(3)), 1e-3, 1e-3)
    # complex arithmetic on the overflowed values meets inf * 0
    with np.errstate(invalid="ignore"), pytest.raises(bb.NumericalError, match="non-finite"):
        bb.simulate(huge, bb.StateVector(1e300j * np.ones(3), 1j * np.ones(3)), 1e-3, 1e-3)


def test_simulate_trace_matches_its_snapshots(ddd_system):
    """The banded energy record, and the banded energy and dissipation
    functionals, equal products with the dense S, M and D on the states,
    and each step of the run is the trapezoidal step on (B, K)."""
    _, _, pencil = ddd_system
    assert pencil.bandwidth == 3
    y0 = random_state(pencil, 17, complex_valued=True)
    dt, steps = 1e-3, 30
    sim = bb.simulate(pencil, y0, dt, steps * dt, snapshot_every=1)
    states = [y for _, y in sim.snapshots]
    assert len(states) == steps + 1
    S, M, D = oracles.matrices(pencil)
    for got, functional, dense in (
            (sim.trace.energy, bb.energy,
             lambda y: 0.5 * (np.vdot(y.p, S @ y.p).real + np.vdot(y.q, M @ y.q).real)),
            (sim.trace.dissipation, bb.dissipation, lambda y: -np.vdot(y.q, D @ y.q).real)):
        want = np.array([dense(y) for y in states])
        banded = np.array([functional(pencil, y) for y in states])
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * scale
        assert np.abs(banded - want).max() <= 1e-12 * scale
    want = np.array([oracles.cross_functional(pencil, y) for y in states])
    assert np.abs(sim.trace.cross - want).max() <= 1e-12 * np.abs(want).max()
    for y, y_next in zip(states, states[1:]):
        assert close(y_next, trapezoidal_reference(pencil, y, dt))


def test_band_storage_is_fortran_ordered():
    """The band is column-major, as BLAS and LAPACK read it, and a[i, j]
    sits in row pad + b + i - j of column j, in a's dtype; pad = b is the
    LU layout, with b zero rows on top."""
    a = np.arange(1.0, 37.0).reshape(6, 6)
    a[np.abs(np.subtract.outer(np.arange(6), np.arange(6))) > 2] = 0.0
    for m in (a, a * (1 + 2j)):
        for pad in (0, 2):
            ab = oracles.band(m, 2)
            if pad:
                ab = fem._lu_band(ab)
            assert ab.flags.f_contiguous and ab.dtype == m.dtype
            assert ab.shape == (pad + 5, 6)
            for i, j in zip(*np.nonzero(m)):
                assert ab[pad + 2 + i - j, j] == m[i, j]
            assert np.count_nonzero(ab) == np.count_nonzero(m)
        dense = fem._dense(oracles.band(m, 2), 2)
        assert dense.flags.f_contiguous and np.array_equal(dense, m)


def rounding_bound(pencil, dt, p, q, x):
    """Componentwise first-order bound on the gap between two floating-point
    evaluations of one real midpoint step from (p, q) with midpoint x.

    With u the unit roundoff and gamma_k = k u / (1 - k u): the right-hand
    side M q - dt/2 S p sums 2b + 1 products per row plus a scaling and a
    subtraction, so its error is at most gamma_{2b+5} (|M||q| + dt/2 |S||p|)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.5,
    with two terms for complex products). The banded Cholesky solve
    A = R^T R is backward stable, (A + dA) x = r with
    |dA| <= gamma_{3(b+1)+1} |R^T||R| (10.4; a row of R holds at most b + 1
    entries). Both perturbations reach x through |A^-1|, and q+ = 2x - q
    and p+ = p + dt x add two roundings each. Two evaluations differ by at
    most twice one's error.
    """
    b = pencil.bandwidth
    u = np.finfo(float).eps / 2

    def gamma(k):
        return k * u / (1 - k * u)

    S, M, D = oracles.matrices(pencil)
    a = M + (dt / 2) * D + (dt / 2) ** 2 * S
    r = np.abs(scipy.linalg.cholesky(a))
    dx = np.abs(np.linalg.inv(a)) @ (
        gamma(2 * b + 5) * (np.abs(M) @ np.abs(q) + dt / 2 * np.abs(S) @ np.abs(p))
        + gamma(3 * (b + 1) + 1) * (r.T @ r) @ np.abs(x))
    return (2 * (dt * dx + gamma(2) * (np.abs(p) + dt * np.abs(x))),
            2 * (2 * dx + gamma(2) * (2 * np.abs(x) + np.abs(q))))


def test_complex_step_is_two_real_steps(ddd_system):
    """The complex step (zpbtrs, zgbmv) equals the real step (dpbtrs,
    dgbmv) on the real and on the imaginary part, to within the rounding
    bound of rounding_bound. Not bitwise: the complex BLAS and LAPACK
    kernels round (and fuse) their multiply-adds differently from the real
    ones, so already one zgbmv differs from dgbmv in the last bits."""
    _, _, pencil = ddd_system
    y = random_state(pencil, 19, complex_valued=True)
    for dt in (1e-3, 1e-1):
        z = one_step(pencil, y, dt)
        for part in (np.real, np.imag):
            p, q = part(y.p).copy(), part(y.q).copy()
            w = one_step(pencil, bb.StateVector(p, q), dt)
            assert not np.iscomplexobj(w.p) and not np.iscomplexobj(w.q)
            bound_p, bound_q = rounding_bound(pencil, dt, p, q, (w.q + q) / 2)
            assert np.all(np.abs(part(z.p) - w.p) <= bound_p)
            assert np.all(np.abs(part(z.q) - w.q) <= bound_q)


def test_step_buffers_carry_no_state(ddd_system):
    """Two live closures, one closure fed two states in turn, and two
    simulate runs in a row all reproduce the same trajectory bitwise."""
    _, _, pencil = ddd_system
    dt, n = 1e-3, pencil.n_positions
    s_times, m_times = (dynamics._band_product(ab, np.complex128)
                        for ab in (pencil.s_band, pencil.m_band))
    y = random_state(pencil, 23, complex_valued=True)
    z = random_state(pencil, 29, complex_valued=True)

    def advance(step, state):
        step(state, s_times(state[:n]), m_times(state[n:]))

    def run(step, other=None, steps=5):
        state, trail = y.to_array(), []
        for _ in range(steps):
            if other is not None:
                advance(other, z.to_array())
            advance(step, state)
            trail.append(state.copy())
        return trail

    ref = run(dynamics._trapezoidal_step(pencil, dt, np.complex128))
    first = dynamics._trapezoidal_step(pencil, dt, np.complex128)
    second = dynamics._trapezoidal_step(pencil, dt, np.complex128)
    for trail in (run(first, other=second), run(first, other=first)):
        assert all(np.array_equal(got, want) for got, want in zip(trail, ref))
    one, two = (bb.simulate(pencil, y, dt, 20 * dt) for _ in range(2))
    for field in ("energy", "dissipation", "cross"):
        assert np.array_equal(getattr(one.trace, field), getattr(two.trace, field))
    assert np.array_equal(one.final_state.to_array(), two.final_state.to_array())


def test_steps_leave_the_initial_state_alone(ddd_system):
    """The step updates the state in place, in a copy the run owns."""
    _, _, pencil = ddd_system
    for complex_valued in (False, True):
        y = random_state(pencil, 31, complex_valued=complex_valued)
        kept = y.to_array().copy()
        bb.simulate(pencil, y, 1e-3, 5e-3)
        assert np.array_equal(y.to_array(), kept)


@pytest.mark.parametrize("complex_valued", [False, True])
def test_a_step_is_one_solve_and_two_banded_products(ddd_system, cons_system, monkeypatch,
                                                     complex_valued):
    """A k-step forward simulate factors once by banded Cholesky (dpbtrf, a
    complex run too), solves k times and makes 2(k + 1) banded products:
    [S p; M q] and D q at each of the k + 1 records, whose S p and M q are
    also the next step's right-hand side. An energy-only run makes no D q,
    so k + 1 products, and neither does a full run on a pencil whose D band
    is all zero, whose dissipation column is zeros. No banded LU runs."""
    counts = {}
    for module, names in ((scipy.linalg.lapack, ("dpbtrf", "zpbtrf", "dpbtrs", "zpbtrs",
                                                 "dgbtrf", "zgbtrf", "dgbtrs", "zgbtrs")),
                          (scipy.linalg.blas, ("dgbmv", "zgbmv"))):
        for name in names:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    k = 7
    kind = "z" if complex_valued else "d"
    for system, energy_only, products in ((ddd_system, False, 2 * (k + 1)),
                                          (ddd_system, True, k + 1),
                                          (cons_system, False, k + 1)):
        pencil = system[2]
        y = random_state(pencil, 37, complex_valued=complex_valued)
        counts.clear()
        sim = bb.simulate(pencil, y, 1e-3, k * 1e-3, energy_only=energy_only)
        want = {"dpbtrf": 1, f"{kind}pbtrs": k, f"{kind}gbmv": products}
        assert counts == want, (system[0], energy_only)
        if system is cons_system:
            assert np.array_equal(sim.trace.dissipation, np.zeros(k + 1))


def test_an_energy_only_record_is_the_full_records_energy(ddd_system, udu_system, cons_system):
    """Dropping the rate columns changes nothing else: the times, the
    energy and the final state equal the full run's bitwise, on real and
    complex states, on the three regimes and on a dense pencil (b = N - 1),
    whose product over blockdiag(S, M) has the widest band; dissipation
    and cross are None."""
    pencils = [system[2] for system in (ddd_system, udu_system, cons_system)]
    for pencil in pencils + [dense_pencil(damping=1.0)]:
        for complex_valued in (False, True):
            y0 = random_state(pencil, 47, complex_valued=complex_valued)
            full = bb.simulate(pencil, y0, 1e-3, 40e-3)
            lean = bb.simulate(pencil, y0, 1e-3, 40e-3, energy_only=True)
            assert lean.trace.dissipation is None and lean.trace.cross is None
            assert np.array_equal(lean.trace.times, full.trace.times)
            assert np.array_equal(lean.trace.energy, full.trace.energy)
            assert np.array_equal(lean.final_state.to_array(), full.final_state.to_array())


@pytest.mark.parametrize("complex_valued", [False, True])
def test_one_product_gives_s_p_and_m_q(ddd_system, complex_valued):
    """The banded product over blockdiag(S, M) equals S p and M q computed
    apart, bitwise: it adds only exact zeros to each sum. On an assembled
    pencil (b = 3) and on a dense one (b = N - 1). It is written into the
    array it is given, whose earlier NaNs do not reach it."""
    for pencil in (ddd_system[2], dense_pencil(damping=1.0)):
        n = pencil.n_positions
        y = random_state(pencil, 41, complex_valued=complex_valued).to_array()
        out = np.full(2 * n, np.nan, y.dtype)
        got = dynamics._state_product(pencil, out)(y)
        assert np.shares_memory(got, out)
        assert np.array_equal(got[:n], dynamics._band_product(pencil.s_band, y.dtype)(y[:n]))
        assert np.array_equal(got[n:], dynamics._band_product(pencil.m_band, y.dtype)(y[n:]))


@pytest.mark.parametrize("complex_valued", [False, True])
def test_a_non_finite_velocity_fails_the_run_at_its_step(ddd_system, monkeypatch, complex_valued):
    """simulate tests the recorded energy, not the state: a NaN written into
    one entry of q at step 3 makes E non-finite, which raises NumericalError
    at that step."""
    _, _, pencil = ddd_system
    make_step, steps = dynamics._trapezoidal_step, []

    def faulty(pencil, dt, dtype):
        step = make_step(pencil, dt, dtype)

        def nan_at_step_3(y, sp, mq):
            step(y, sp, mq)
            steps.append(None)
            if len(steps) == 3:
                y[pencil.n_positions + 5] = np.nan
        return nan_at_step_3

    monkeypatch.setattr(dynamics, "_trapezoidal_step", faulty)
    y0 = random_state(pencil, 43, complex_valued=complex_valued)
    with pytest.raises(bb.NumericalError, match="^trapezoidal step produced non-finite values$"):
        bb.simulate(pencil, y0, 1e-3, 10e-3)
    assert len(steps) == 3


def test_simulate_input_validation(ddd_system):
    """simulate refuses a step that is not finite and > 0, a run length
    that is not finite and > 0, a negative snapshot interval and a state
    of the wrong length, whatever its caller checked first."""
    _, _, pencil = ddd_system
    y = plateau(ddd_system)
    for dt in (0.0, -1e-3, float("inf"), float("nan")):
        with pytest.raises(bb.ModelError, match=f"^dt must be finite and > 0, got {dt}$"):
            bb.simulate(pencil, y, dt, 1e-2)
    for t_final in (0.0, float("inf")):
        with pytest.raises(bb.ModelError, match=f"^t_final must be finite and > 0, got {t_final}$"):
            bb.simulate(pencil, y, 1e-3, t_final)
    with pytest.raises(bb.ModelError, match="^snapshot_every must be >= 0, got -1$"):
        bb.simulate(pencil, y, 1e-3, 1e-2, snapshot_every=-1)
    short = bb.StateVector(np.ones(2), np.ones(2))
    with pytest.raises(bb.ModelError,
                       match=f"^state has 2 position DOFs, pencil has {pencil.n_positions}$"):
        bb.simulate(pencil, short, 1e-3, 1e-2)


def test_a_record_that_cannot_be_allocated_raises_record_too_large(ddd_system, monkeypatch):
    """numpy refuses 2**63 + 1 samples with ValueError and, when malloc
    fails, a count that fits its index type with MemoryError; both become
    one ModelError naming the step count, before any step is set up."""
    _, _, pencil = ddd_system
    y0 = plateau(ddd_system)

    def refused(*args, **kwargs):
        raise AssertionError("a run that cannot be recorded factors no step matrix")

    monkeypatch.setattr(dynamics, "_trapezoidal_step", refused)
    with pytest.raises(bb.ModelError, match=r"of 9\.22337e\+18 steps") as info:
        bb.simulate(pencil, y0, 1.0, 2.0**63)
    assert isinstance(info.value.__cause__, ValueError)
    empty = np.empty

    def malloc_fails(shape, *args, **kwargs):
        if shape == 10**6 + 1:
            raise MemoryError("no memory")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", malloc_fails)
    with pytest.raises(bb.ModelError, match="of 1e\\+06 steps"):
        bb.simulate(pencil, y0, 1.0, 1e6)


def test_simulate_trace_and_snapshots(ddd_system):
    _, _, pencil = ddd_system
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
    """|cross(y)| <= max(1, gamma) E(y), gamma the top eigenvalue of the pair (M, S).

    Cauchy-Schwarz in the M inner product and p^T M p <= gamma p^T S p.
    """
    _, _, pencil = ddd_system
    S, M, _ = oracles.matrices(pencil)
    gamma = scipy.linalg.eigh(M, S, eigvals_only=True)[-1]
    y = random_state(pencil, seed)
    assert abs(oracles.cross_functional(pencil, y)) <= (
        max(1.0, gamma) * bb.energy(pencil, y) * (1 + 1e-12))


def test_default_dt_follows_the_string_span():
    cfg = bb.validate_config(bb.StructureConfig(0.0, 1.0, 6.0, 7.0, 1.0, 1.0, 1.0))
    assert bb.default_dt(cfg) == pytest.approx(0.002 * 5.0, rel=1e-15)


def test_complex_states_simulate(udu_system):
    """Complex initial data propagates; energy decays like the real parts."""
    _, _, pencil = udu_system
    y0 = bb.eigenmode(pencil, bb.eigenvalues(pencil).eigenvalues[-1])
    sim = bb.simulate(pencil, y0, 1e-3, 0.1)
    assert np.iscomplexobj(sim.final_state.p)
    assert sim.trace.energy[-1] < sim.trace.energy[0]
    assert np.all(np.isfinite(sim.trace.energy))
