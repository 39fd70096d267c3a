import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import bsblab as bb
from bsblab import fem, spectral

import oracles


# --- a 2x2 pencil small enough to do by hand -----------------------------------
#
# B = I, K = [[0, 1], [-1, -1]]: characteristic polynomial z^2 + z + 1,
# eigenvalues (-1 +/- i sqrt(3))/2. The resolvent at lambda = 0 is K^{-1}
# up to sign; its norm is the golden ratio.

def tiny_pencil():
    eye = np.eye(1)
    return oracles.pencil_from_dense(S=eye, M=eye, D=eye)


def test_tiny_pencil_eigenvalues():
    rep = spectral.eigenvalues(tiny_pencil())
    want = np.array([-0.5 - 0.8660254037844386j, -0.5 + 0.8660254037844386j])
    assert np.allclose(rep.eigenvalues, want, atol=1e-14)
    assert rep.abscissa == pytest.approx(-0.5, abs=1e-14)


def test_tiny_pencil_resolvent_norm_is_golden_ratio():
    got = oracles.resolvent_norm(tiny_pencil(), 0.0)
    assert got == pytest.approx(1.618033988749895, abs=1e-13)
    # independent route: direct SVD of i lambda I - K at a few points
    k = np.array([[0.0, 1.0], [-1.0, -1.0]])
    for lam in (0.0, 0.5, -2.0, 11.0):
        a = 1j * lam * np.eye(2) - k
        want = 1.0 / np.linalg.svd(a, compute_uv=False).min()
        assert oracles.resolvent_norm(tiny_pencil(), lam) == pytest.approx(want, rel=1e-12)


def test_tiny_pencil_slowest_mode():
    pencil = tiny_pencil()
    mu = spectral.eigenvalues(pencil).eigenvalues[-1]
    assert mu == pytest.approx(-0.5 + 0.8660254037844386j, abs=1e-14)
    y = spectral.eigenmode(pencil, mu).to_array()
    # eigenpair residual and unit-energy normalization
    B, K = oracles.first_order(pencil)
    assert np.linalg.norm(K @ y - mu * (B @ y)) <= 1e-12
    assert 0.5 * np.vdot(y, B @ y).real == pytest.approx(1.0, rel=1e-12)


# --- coupled system spectra -----------------------------------------------------

def test_whitened_eigenvalues_match_generalized_qz(ddd_cfg, udu_cfg, cons_cfg):
    """Both routes, the Schur form of the damped C and the banded
    eigensolves of the undamped (S, M), against QZ on the first-order pencil."""
    for cfg in (ddd_cfg, udu_cfg, cons_cfg):
        for n in (3, 6):
            _, pencil = fem.discretize(cfg, n, n, n)
            rep = spectral.eigenvalues(pencil)
            B, K = oracles.first_order(pencil)
            qz = scipy.linalg.eigvals(K, B)
            # match as sets, in both directions, so a spectrum collapsed onto
            # a few QZ values fails: element order is not comparable across
            # routes when conjugate pairs differ at rounding level
            gaps = nearest_gaps(rep.eigenvalues, qz)
            assert max(gaps) <= 1e-8 * np.abs(qz).max(), (cfg, n)


def test_spectrum_is_conjugate_symmetric(ddd_system, udu_system):
    for _, _, pencil in (ddd_system, udu_system):
        eig = spectral.eigenvalues(pencil).eigenvalues
        conj = np.conj(eig)
        conj = conj[np.lexsort((conj.imag, conj.real))]
        assert np.abs(eig - conj).max() <= 1e-8 * np.abs(eig).max()


def test_damped_spectrum_lies_in_the_left_half_plane(ddd_system, udu_system):
    for system in (ddd_system, udu_system):
        _, _, pencil = system
        rep = spectral.eigenvalues(pencil)
        assert rep.abscissa < 0.0
        assert np.all(rep.eigenvalues.real < 0.0)


def nearest_gaps(a, b):
    """Largest distance from a point of a to b, and from a point of b to a."""
    gaps = np.abs(a[:, None] - b[None, :])
    return gaps.min(axis=1).max(), gaps.min(axis=0).max()


@pytest.mark.parametrize("n", [6, 20])
@pytest.mark.parametrize("cfg_name", ["ddd_cfg", "udu_cfg"])
def test_damped_spectrum_matches_the_dense_eigensolve_of_c(cfg_name, n, request):
    _, pencil = fem.discretize(request.getfixturevalue(cfg_name), n, n, n)
    rep = spectral.eigenvalues(pencil)
    ref = scipy.linalg.eigvals(spectral._whiten(pencil))
    assert rep.eigenvalues.shape == ref.shape
    scale = np.abs(rep.eigenvalues).max()
    assert max(nearest_gaps(rep.eigenvalues, ref)) <= 1e-12 * scale
    # the report keeps the real Schur factor its eigenvalues came from
    assert rep.schur.shape == (ref.size, ref.size) and rep.schur.dtype == np.float64
    assert not np.tril(rep.schur, -2).any()


@pytest.mark.parametrize("name", ["ddd_system", "udu_system", "cons_system"])
def test_complex_triangle_is_a_unitary_triangularization(request, name):
    _, _, pencil = request.getfixturevalue(name)
    t, mu = spectral._real_schur(spectral._whiten(pencil))
    assert np.diagonal(t, -1).any()  # there are 2 x 2 blocks to rotate
    kept = t.copy()
    u = spectral._complex_triangle(t)
    assert np.array_equal(t, kept)
    assert u.dtype == np.complex128 and u.flags.f_contiguous
    assert not np.tril(u, -1).any()
    scale = np.abs(mu).max()
    assert np.abs(np.diagonal(u) - mu).max() <= 1e-14 * scale
    assert np.linalg.norm(u) == pytest.approx(np.linalg.norm(t), rel=1e-13)


def test_only_a_damped_report_keeps_its_schur_factor(ddd_system, cons_system):
    # only a damped spectrum keeps a Schur factor, and repr and == skip it
    damped = spectral.eigenvalues(ddd_system[2])
    assert spectral.eigenvalues(cons_system[2]).schur is None
    assert "schur" not in repr(damped)
    twin = spectral.SpectrumReport(damped.eigenvalues, damped.abscissa)
    assert twin.schur is None and twin == damped


def quadratic_residual(pencil, mu, p):
    """Backward error ||Q(mu) p|| / ((|mu|^2 ||M|| + |mu| ||D|| + ||S||) ||p||)
    of p as a null vector of Q(mu) = mu^2 M + mu D + S, in 2-norms."""
    S, M, D = oracles.matrices(pencil)
    q = mu * mu * M + mu * D + S
    scale = sum(abs(w) * np.linalg.norm(a, 2) for w, a in ((mu * mu, M), (mu, D), (1.0, S)))
    return np.linalg.norm(q @ p) / (scale * np.linalg.norm(p))


@pytest.mark.parametrize("n", [6, 20])
@pytest.mark.parametrize("cfg_name", ["ddd_cfg", "udu_cfg", "cons_cfg"])
def test_slowest_mode_matches_abscissa(cfg_name, n, request):
    _, pencil = fem.discretize(request.getfixturevalue(cfg_name), n, n, n)
    # the last eigenvalue in canonical order: decay and verify report the
    # spectrum that `spectrum` writes
    mu = spectral.eigenvalues(pencil).eigenvalues[-1]
    y = spectral.eigenmode(pencil, mu)
    p, q = y.p, y.q
    assert quadratic_residual(pencil, mu, p) <= 1e-13
    assert np.linalg.norm(q - mu * p) <= 1e-12 * np.linalg.norm(q)
    assert bb.energy(pencil, bb.StateVector(p, q)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("s_diag,mu_want,p_want", [
    ([1.0], 1j, [1.0]),           # Q(i) = 0
    ([1.0, 4.0], 2j, [0.0, 1.0]),  # Q(2i) = diag(-3, 0), mode e_2
], ids=["q-zero", "q-diag"])
def test_slowest_mode_when_q_is_exactly_singular(s_diag, mu_want, p_want):
    s = np.diag(s_diag)
    eye = np.eye(s.shape[0])
    pencil = oracles.pencil_from_dense(S=s, M=eye, D=0.0 * eye)
    mu = spectral.eigenvalues(pencil).eigenvalues[-1]
    assert mu == pytest.approx(mu_want, abs=1e-14)
    y = spectral.eigenmode(pencil, mu)
    p, q = y.p, y.q
    # p is a unit multiple of e_k
    assert abs(abs(np.vdot(p_want, p)) - np.linalg.norm(p)) <= 1e-14 * np.linalg.norm(p)
    assert np.linalg.norm(q - mu * p) <= 1e-12 * np.linalg.norm(q)
    assert bb.energy(pencil, bb.StateVector(p, q)) == pytest.approx(1.0, rel=1e-12)


def test_eigenmode_rejects_a_vanishing_first_iterate_before_dividing(ddd_cfg):
    """rho1 = 1e150 at n = 4 swamps Q(mu) so that the first inverse
    iterate underflows to zero; eigenmode raises on its norm without a
    numpy divide-by-zero warning."""
    cfg = dataclasses.replace(ddd_cfg, rho1=1e150)
    _, pencil = bb.discretize(cfg, 4, 4, 4)
    mu = complex(bb.eigenvalues(pencil).eigenvalues[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = "inverse iteration on Q(mu) gave no eigenvector (norm 0.0)"
        with pytest.raises(bb.NumericalError, match=f"^{re.escape(message)}$"):
            spectral.eigenmode(pencil, mu)


def dense_whitened_reference(pencil):
    """Eigenvalues of the 2N x 2N whitened matrix by dense eigvals, built
    here from the Cholesky factors rather than by spectral._whiten."""
    S, M, _ = oracles.matrices(pencil)
    ls = scipy.linalg.cholesky(S, lower=True)
    lm = scipy.linalg.cholesky(M, lower=True)
    x = scipy.linalg.solve_triangular(lm, ls, lower=True)
    zero = np.zeros_like(x)
    return scipy.linalg.eigvals(np.block([[zero, x.T], [-x, zero]]))


def undamped_pencils(cons_cfg):
    for n in (6, 20):
        yield fem.discretize(cons_cfg, n, n, n)[1]
    yield oracles.assemble_beam_pencil(1.0, 30)
    yield oracles.assemble_string_pencil(math.pi, 0.0, 30)


def test_undamped_spectrum_matches_the_dense_whitened_eigensolve(cons_cfg):
    for pencil in undamped_pencils(cons_cfg):
        assert not pencil.d_band.any()
        eig = spectral.eigenvalues(pencil).eigenvalues
        ref = dense_whitened_reference(pencil)
        assert eig.shape == ref.shape == (2 * pencil.n_positions,)
        scale = np.abs(ref).max()
        gaps = np.abs(eig[:, None] - ref[None, :])
        assert gaps.min(axis=1).max() <= 1e-12 * scale
        assert gaps.min(axis=0).max() <= 1e-12 * scale
        low = np.sort(eig.imag[eig.imag > 0])[:20]
        low_ref = np.sort(ref.imag[ref.imag > 0])[:20]
        assert low.size == low_ref.size == 20
        assert np.max(np.abs(low - low_ref) / low_ref) <= 1e-10


def test_undamped_spectrum_is_exactly_on_the_axis(cons_cfg, cons_system):
    _, _, pencil = cons_system
    for p in (pencil, *undamped_pencils(cons_cfg)):
        rep = spectral.eigenvalues(p)
        eig = rep.eigenvalues
        # +0.0 everywhere: spectrum.csv must not print "-0"
        assert np.all(eig.real == 0.0) and not np.signbit(eig.real).any()
        assert np.all(np.diff(eig.imag) >= 0.0)
        assert np.array_equal(eig[::-1].imag, -eig.imag)
        assert rep.abscissa == 0.0


def test_undamped_spectrum_forms_no_dense_matrix(cons_cfg, monkeypatch):
    """The undamped route solves on the stored bands: densifying a band or
    an SVD raises here."""
    def dense(*args, **kwargs):
        raise AssertionError("an N x N array was formed")

    monkeypatch.setattr(spectral, "_dense", dense)
    monkeypatch.setattr(scipy.linalg, "svdvals", dense)
    for pencil in (fem.discretize(cons_cfg, 20, 20, 20)[1],
                   oracles.assemble_beam_pencil(1.0, 30),
                   oracles.assemble_string_pencil(math.pi, 0.0, 30)):
        assert spectral.eigenvalues(pencil).eigenvalues.size == 2 * pencil.n_positions


@pytest.mark.parametrize("n", [20, 40, 80])
def test_lowest_undamped_frequency_is_within_its_perturbation_bound(cons_cfg, n):
    """The lowest omega against a long-double inverse iteration on the
    stored S and M, to the first-order change of omega under an entrywise
    relative change of gamma_{2b+1} in S and M (the rounding of one banded
    inner product; oracles.frequency_rounding_bound)."""
    pencil = fem.discretize(cons_cfg, n, n, n)[1]
    want, x = oracles.frequency_longdouble(pencil)
    bound = oracles.frequency_rounding_bound(pencil, x, np.finfo(float).eps / 2)
    omega = spectral.eigenvalues(pencil).eigenvalues.imag
    got = np.longdouble(omega[omega > 0][0])
    assert float(abs(got - want) / want) <= bound


def test_both_routes_reject_an_indefinite_pencil():
    eye, indefinite = np.eye(2), np.diag([1.0, -1.0])
    for damping in (np.zeros((2, 2)), eye):
        for s, m in ((indefinite, eye), (eye, indefinite)):
            pencil = oracles.pencil_from_dense(S=s, M=m, D=damping)
            with pytest.raises(bb.NumericalError, match="admits no Cholesky factorization"):
                spectral.eigenvalues(pencil)


# --- closed-form member oracles ---------------------------------------------------

def test_string_modes_closed_form_frozen_case():
    plus, minus = oracles.string_modes_closed_form(1.0, math.pi, 1)
    assert plus == pytest.approx(-0.5 + 0.8660254037844386j, abs=1e-15)
    assert minus == pytest.approx(-0.5 - 0.8660254037844386j, abs=1e-15)
    # overdamped string: two real roots
    plus, minus = oracles.string_modes_closed_form(10.0, math.pi, 1)
    assert plus.imag == 0.0 and minus.imag == 0.0
    assert minus.real < plus.real < 0.0


@given(
    beta=st.floats(0.0, 20.0, allow_nan=False),
    length=st.floats(0.1, 10.0, allow_nan=False),
    k=st.integers(1, 5),
)
def test_string_modes_satisfy_vieta(beta, length, k):
    plus, minus = oracles.string_modes_closed_form(beta, length, k)
    assert plus + minus == pytest.approx(-beta, abs=1e-10 * max(1.0, beta))
    prod = plus * minus
    want = (k * math.pi / length) ** 2
    assert prod.real == pytest.approx(want, rel=1e-10)
    assert abs(prod.imag) <= 1e-10 * want


def test_string_modes_closed_form_rejects_bad_parameters():
    with pytest.raises(bb.ModelError, match="beta must be finite and >= 0, got -1.0"):
        oracles.string_modes_closed_form(-1.0, 1.0, 1)
    with pytest.raises(bb.ModelError, match="length must be > 0, got 0.0"):
        oracles.string_modes_closed_form(1.0, 0.0, 1)


def test_discrete_string_converges_to_closed_form():
    plus, _ = oracles.string_modes_closed_form(1.0, math.pi, 1)
    dists = []
    for n in (50, 100):
        pencil = oracles.assemble_string_pencil(math.pi, 1.0, n)
        eig = spectral.eigenvalues(pencil).eigenvalues
        dists.append(np.abs(eig - plus).min())
    assert dists[1] <= 2e-4
    # P1 eigenvalues converge at second order
    assert dists[0] / dists[1] == pytest.approx(4.0, rel=0.15)


def test_discrete_beam_matches_lowest_frequency():
    pencil = oracles.assemble_beam_pencil(1.0, 20)
    eig = spectral.eigenvalues(pencil).eigenvalues
    w1 = eig[eig.imag > 1e-9].imag.min()
    kappa1 = 1.87510406871196
    assert w1 == pytest.approx(kappa1**2, rel=1e-6)


# --- exclusion determinant --------------------------------------------------------

def test_exclusion_determinant_frozen_value():
    got = oracles.eigenvalue_exclusion_determinant(math.pi**2)
    assert got == pytest.approx(10.591953275521519, abs=1e-12)
    assert got == pytest.approx(10.5920, abs=5e-5)


@given(a=st.floats(1e-12, 1e12, allow_nan=False))
def test_exclusion_determinant_exceeds_one(a):
    # saturates to inf once cosh overflows, which still exceeds 1
    assert oracles.eigenvalue_exclusion_determinant(a) > 1.0


def test_exclusion_determinant_rejects_nonpositive():
    for a in (0.0, -1.0, math.nan):
        with pytest.raises(bb.ModelError, match="a must be finite and > 0"):
            oracles.eigenvalue_exclusion_determinant(a)


# --- resolvent machinery ----------------------------------------------------------

def test_resolvent_norm_lower_bound(ddd_system):
    """1/sigma_min is at least the reciprocal distance to the spectrum."""
    _, _, pencil = ddd_system
    eig = spectral.eigenvalues(pencil).eigenvalues
    for lam in (-7.3, 0.0, 2.0, 19.5):
        dist = np.abs(1j * lam - eig).min()
        assert oracles.resolvent_norm(pencil, lam) >= 1.0 / dist - 1e-12


def test_resolvent_far_field_decay(ddd_cfg):
    _, pencil = fem.discretize(ddd_cfg, 6, 6, 6)
    top = np.abs(spectral.eigenvalues(pencil).eigenvalues).max()
    for lam in (4 * top, 40 * top):
        assert oracles.resolvent_norm(pencil, lam) <= 2.0 / lam


def test_resolvent_blows_up_on_a_conservative_eigenfrequency(cons_system):
    _, _, pencil = cons_system
    spect = spectral.eigenvalues(pencil)
    eig = spect.eigenvalues
    lam0 = float(eig[eig.imag > 1e-6].imag.min())
    assert oracles.resolvent_norm(pencil, lam0) >= 1e5
    # the grid pins its end points, so both land on the eigenfrequency
    table = spectral.resolvent_sweep(spect, spectral.axis_grid(-lam0, lam0, 3))
    assert table.lambdas[0] == -lam0 and table.lambdas[-1] == lam0
    for norm in (table.norms[0], table.norms[-1]):
        assert math.isinf(norm) or norm >= 1e5
    # undamped, the norms are read off the eigenvalues: no Lanczos iteration
    assert np.all(table.iterations == 0)


def test_resolvent_sweep_grid_and_mirror(ddd_system):
    _, _, pencil = ddd_system
    grid = spectral.axis_grid(-10.0, 10.0, 21)
    table = spectral.resolvent_sweep(spectral.eigenvalues(pencil), grid)
    assert table.lambdas.shape == table.norms.shape == (21,)
    assert table.lambdas[0] == -10.0 and table.lambdas[-1] == 10.0
    assert np.allclose(np.diff(table.lambdas), 1.0)
    # the resolvent norm along the axis is even in lambda for a real pencil,
    # and the sweep exploits that: mirrored entries are bitwise equal
    assert np.array_equal(table.norms, table.norms[::-1])
    assert table.sup == table.norms.max()
    assert np.all(np.isfinite(table.norms))


def test_sweep_grid_is_exactly_symmetric():
    # mirrored points must be bitwise negatives so each |lambda| is computed
    # once; np.linspace(-50, 50, 2001) gives 1669 distinct |lambda|
    spect = spectral.eigenvalues(tiny_pencil())
    for steps, distinct in ((301, 151), (2001, 1001)):
        table = spectral.resolvent_sweep(spect, spectral.axis_grid(-50.0, 50.0, steps))
        assert np.array_equal(table.lambdas, -table.lambdas[::-1])
        assert table.distinct_points == distinct
        assert np.max(np.abs(table.lambdas - np.linspace(-50.0, 50.0, steps))) <= 1e-12
    table = spectral.resolvent_sweep(spect, spectral.axis_grid(-3.0, 17.0, 2001))
    assert table.lambdas[0] == -3.0 and table.lambdas[-1] == 17.0
    assert np.max(np.abs(table.lambdas - np.linspace(-3.0, 17.0, 2001))) <= 1e-12


@pytest.mark.parametrize("name", ["ddd_system", "udu_system", "cons_system"])
@pytest.mark.parametrize("lo,hi,steps", [(-50.0, 50.0, 41), (-3.0, 17.0, 21)])
def test_sweep_matches_the_dense_svd_reference(request, name, lo, hi, steps):
    """Schur triangle + Lanczos sweep against one svdvals per point; an
    undamped C is normal, so there the norm is 1/dist(i lambda, spectrum),
    read off the eigenvalues with no Lanczos iteration."""
    _, _, pencil = request.getfixturevalue(name)
    spect = spectral.eigenvalues(pencil)
    eig = spect.eigenvalues
    table = spectral.resolvent_sweep(spect, spectral.axis_grid(lo, hi, steps))
    for lam, norm, its in zip(table.lambdas, table.norms, table.iterations):
        want = oracles.resolvent_norm(pencil, float(lam))
        assert norm == pytest.approx(want, rel=1e-10)
        dist = np.abs(1j * lam - eig).min()
        assert norm * dist >= 1.0 - 1e-9
        if name == "cons_system":
            assert norm * dist == pytest.approx(1.0, abs=1e-12)
            assert its == 0
        else:
            assert 1 <= its <= 2 * pencil.n_positions


def test_lanczos_maps_a_singular_factor_to_inf():
    a = np.asfortranarray(np.triu(np.ones((4, 4), dtype=complex)))
    start = np.ones(4, dtype=complex)
    norm, its = spectral._lanczos_inverse_norm(a, start)
    assert norm == pytest.approx(1.0 / np.linalg.svd(a, compute_uv=False).min(), rel=1e-12)
    assert 1 <= its <= 4
    a[2, 2] = 0.0
    assert spectral._lanczos_inverse_norm(a, start) == (math.inf, 1)


def reference_lanczos_inverse_norm(a, start):
    """The Lanczos loop on scipy's solve_triangular and eigh_tridiagonal
    wrappers; the direct LAPACK loop must reproduce it bit for bit."""
    m = a.shape[0]
    basis = np.empty((m, m), dtype=np.complex128)
    alphas = np.empty(m)
    betas = np.empty(m)
    q = start / np.linalg.norm(start)
    for k in range(m):
        basis[k] = q
        try:
            w = scipy.linalg.solve_triangular(a, q, check_finite=False)
            u = scipy.linalg.solve_triangular(a, w, trans="C", check_finite=False)
        except scipy.linalg.LinAlgError:
            return math.inf, k + 1
        if not np.all(np.isfinite(u)):
            return math.inf, k + 1
        v = basis[: k + 1]
        h = v.conj() @ u
        alphas[k] = h[k].real
        u -= v.T @ h
        u -= v.T @ (v.conj() @ u)
        betas[k] = np.linalg.norm(u)
        theta, s = scipy.linalg.eigh_tridiagonal(
            alphas[: k + 1], betas[:k], select="i", select_range=(k, k)
        )
        theta = float(theta[0])
        if betas[k] * abs(s[-1, 0]) <= spectral.LANCZOS_TOL * theta:
            break
        q = u / betas[k]
    return math.sqrt(theta), k + 1


def shifted_schur_factor(pencil):
    """A = -U for the complex triangle U of the whitened C's real Schur
    form (as resolvent_sweep builds it from a damped spectrum), its unshifted
    diagonal, a start vector."""
    t = spectral._complex_triangle(spectral._real_schur(spectral._whiten(pencil))[0])
    rng = np.random.default_rng(0)
    start = rng.standard_normal(t.shape[0]) + 1j * rng.standard_normal(t.shape[0])
    a = np.negative(t, out=t)
    return a, a.diagonal().copy(), start


@pytest.mark.parametrize("name", ["ddd_system", "udu_system", "cons_system"])
def test_lanczos_matches_the_wrapper_loop_bitwise(request, name):
    _, _, pencil = request.getfixturevalue(name)
    a, diagonal, start = shifted_schur_factor(pencil)
    for lam in (0.0, -3.7, 3.7, 26.9, 50.0):
        np.fill_diagonal(a, diagonal + 1j * abs(lam))
        got = spectral._lanczos_inverse_norm(a, start)
        assert got == reference_lanczos_inverse_norm(a, start), lam
        assert math.isfinite(got[0]) and 1 <= got[1] <= a.shape[0]


def test_lanczos_matches_the_wrapper_loop_on_an_eigenfrequency(cons_system):
    # shift by the Schur diagonal entry of an undamped mode whose real part
    # is smallest (exactly 0 with the reference LAPACK), which zeroes the pivot
    _, _, pencil = cons_system
    a, diagonal, start = shifted_schur_factor(pencil)
    upper = np.flatnonzero(diagonal.imag < 0)
    j = upper[np.argmin(np.abs(diagonal.real[upper]))]
    np.fill_diagonal(a, diagonal - 1j * diagonal[j].imag)
    norm, its = spectral._lanczos_inverse_norm(a, start)
    assert (norm, its) == reference_lanczos_inverse_norm(a, start)
    assert math.isinf(norm) or norm >= 1e10


def test_lanczos_edge_cases_match_the_wrappers():
    # 1 x 1: ||A^{-1}|| = 1/|a| after one iteration
    a = np.array([[3.0 - 4.0j]], order="F")
    start = np.array([1.0j])
    got = spectral._lanczos_inverse_norm(a, start)
    assert got == reference_lanczos_inverse_norm(a, start)
    assert got == (pytest.approx(0.2, rel=1e-15), 1)
    # the first Ritz vector is exactly 1: a residual of 1.5e-12 of the Ritz
    # value misses the 1e-12 stop, and the second iteration finds ||A^{-1}|| = 2
    a = np.asfortranarray(np.diag([1.0, 0.5]).astype(complex))
    start = np.array([1.0, 0.5e-12], dtype=complex)
    got = spectral._lanczos_inverse_norm(a, start)
    assert got == reference_lanczos_inverse_norm(a, start)
    assert got == (pytest.approx(2.0, rel=1e-15), 2)
    # a zero pivot first or last: inf before any Lanczos coefficient
    start = np.ones(4, dtype=complex)
    for j in (0, 3):
        a = np.asfortranarray(np.triu(np.ones((4, 4), dtype=complex)))
        a[j, j] = 0.0
        assert spectral._lanczos_inverse_norm(a, start) == (math.inf, 1)
        assert reference_lanczos_inverse_norm(a, start) == (math.inf, 1)
    # finite solves whose residual norm overflows: beta_0 = inf is caught
    # at the next iteration, as check_finite=True in eigh_tridiagonal did
    a = np.asfortranarray(np.diag([1e-154, 2e-154]).astype(complex))
    start = np.array([1.0, 1.0], dtype=complex)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="infs or NaNs"):
            reference_lanczos_inverse_norm(a, start)
        with pytest.raises(bb.NumericalError,
                           match="^non-finite Lanczos coefficient at iteration 2$"):
            spectral._lanczos_inverse_norm(a, start)


def test_lanczos_takes_only_a_fortran_ordered_factor(ddd_system):
    a = np.triu(np.ones((4, 4), dtype=complex))
    with pytest.raises(ValueError, match="Fortran"):
        spectral._lanczos_inverse_norm(a, np.ones(4, dtype=complex))
    _, _, pencil = ddd_system
    c = spectral._whiten(pencil)
    assert c.flags.f_contiguous
    t = spectral._complex_triangle(spectral.eigenvalues(pencil).schur)
    assert t.flags.f_contiguous and t.dtype == np.complex128


def test_resolvent_parameter_validation(ddd_system):
    _, _, pencil = ddd_system
    with pytest.raises(bb.ModelError, match="steps must be an integer >= 2"):
        spectral.axis_grid(-1.0, 1.0, 1)
    with pytest.raises(bb.ModelError, match="need lambda_min < lambda_max"):
        spectral.axis_grid(1.0, -1.0, 11)
    with pytest.raises(bb.ModelError, match="need lambda_min < lambda_max"):
        spectral.axis_grid(-1.0, math.inf, 11)
    spect = spectral.eigenvalues(pencil)
    for bad in ([0.0, math.inf], [-math.inf, 0.0], [math.nan], []):
        with pytest.raises(bb.ModelError, match="one or more finite axis points"):
            spectral.resolvent_sweep(spect, bad)


def test_eigenvalue_ordering_is_canonical(ddd_system):
    _, _, pencil = ddd_system
    eig = spectral.eigenvalues(pencil).eigenvalues
    order = np.lexsort((eig.imag, eig.real))
    assert np.array_equal(order, np.arange(eig.size))
