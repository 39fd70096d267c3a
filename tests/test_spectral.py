import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import bsblab as bb
from bsblab import fem, spectral
from bsblab.model import DampingCase


# --- a 2x2 pencil small enough to do by hand -----------------------------------
#
# B = I, K = [[0, 1], [-1, -1]]: characteristic polynomial z^2 + z + 1,
# eigenvalues (-1 +/- i sqrt(3))/2. The resolvent at lambda = 0 is K^{-1}
# up to sign; its norm is the golden ratio.

def tiny_pencil():
    eye = np.eye(1)
    return fem.SystemPencil(
        S=eye, M=eye, D=eye,
        regime=DampingCase.OTHER,
    )


def test_tiny_pencil_eigenvalues():
    rep = spectral.eigenvalues(tiny_pencil())
    want = np.array([-0.5 - 0.8660254037844386j, -0.5 + 0.8660254037844386j])
    assert np.allclose(rep.eigenvalues, want, atol=1e-14)
    assert rep.abscissa == pytest.approx(-0.5, abs=1e-14)
    assert rep.min_axis_distance == pytest.approx(0.5, abs=1e-14)


def test_tiny_pencil_resolvent_norm_is_golden_ratio():
    got = spectral.resolvent_norm(tiny_pencil(), 0.0)
    assert got == pytest.approx(1.618033988749895, abs=1e-13)
    # independent route: direct SVD of i lambda I - K at a few points
    k = np.array([[0.0, 1.0], [-1.0, -1.0]])
    for lam in (0.0, 0.5, -2.0, 11.0):
        a = 1j * lam * np.eye(2) - k
        want = 1.0 / np.linalg.svd(a, compute_uv=False).min()
        assert spectral.resolvent_norm(tiny_pencil(), lam) == pytest.approx(want, rel=1e-12)


def test_tiny_pencil_slowest_mode():
    pencil = tiny_pencil()
    mu, y_re, y_im = spectral.slowest_mode(pencil)
    assert mu == pytest.approx(-0.5 + 0.8660254037844386j, abs=1e-14)
    y = y_re.to_array() + 1j * y_im.to_array()
    # eigenpair residual and unit-energy normalization
    assert np.linalg.norm(pencil.K @ y - mu * (pencil.B @ y)) <= 1e-12
    assert 0.5 * np.vdot(y, pencil.B @ y).real == pytest.approx(1.0, rel=1e-12)


# --- coupled system spectra -----------------------------------------------------

def test_whitened_eigenvalues_match_generalized_qz(ddd_cfg):
    _, _, pencil = fem.discretize(ddd_cfg, 6, 6, 6)
    rep = spectral.eigenvalues(pencil)
    qz = scipy.linalg.eigvals(pencil.K, pencil.B)
    scale = np.abs(qz).max()
    # match as sets: element order is not comparable across routes when
    # conjugate pairs differ at rounding level
    gaps = np.abs(rep.eigenvalues[:, None] - qz[None, :])
    assert gaps.min(axis=1).max() <= 1e-8 * scale
    assert gaps.min(axis=0).max() <= 1e-8 * scale


def test_spectrum_is_conjugate_symmetric(ddd_system):
    _, _, _, pencil = ddd_system
    eig = spectral.eigenvalues(pencil).eigenvalues
    conj = np.conj(eig)
    conj = conj[np.lexsort((conj.imag, conj.real))]
    assert np.abs(eig - conj).max() <= 1e-8 * np.abs(eig).max()


def test_damped_spectrum_lies_in_the_left_half_plane(ddd_system, udu_system):
    for system in (ddd_system, udu_system):
        _, _, _, pencil = system
        rep = spectral.eigenvalues(pencil)
        assert rep.abscissa < 0.0
        assert np.all(rep.eigenvalues.real < 0.0)
        assert rep.min_axis_distance > 0.0


def test_spectral_abscissa_shortcut(ddd_system):
    _, _, _, pencil = ddd_system
    assert bb.spectral_abscissa(pencil) == spectral.eigenvalues(pencil).abscissa


def test_slowest_mode_matches_abscissa(ddd_system):
    _, _, _, pencil = ddd_system
    mu, y_re, y_im = spectral.slowest_mode(pencil)
    rep = spectral.eigenvalues(pencil)
    assert mu.real == pytest.approx(rep.abscissa, rel=1e-12)
    y = y_re.to_array() + 1j * y_im.to_array()
    resid = np.linalg.norm(pencil.K @ y - mu * (pencil.B @ y))
    assert resid <= 1e-6 * np.abs(mu) if np.abs(mu) > 1 else 1e-6


# --- closed-form member oracles ---------------------------------------------------

def test_string_modes_closed_form_frozen_case():
    plus, minus = spectral.string_modes_closed_form(1.0, math.pi, 1)
    assert plus == pytest.approx(-0.5 + 0.8660254037844386j, abs=1e-15)
    assert minus == pytest.approx(-0.5 - 0.8660254037844386j, abs=1e-15)
    # overdamped string: two real roots
    plus, minus = spectral.string_modes_closed_form(10.0, math.pi, 1)
    assert plus.imag == 0.0 and minus.imag == 0.0
    assert minus.real < plus.real < 0.0


@given(
    beta=st.floats(0.0, 20.0, allow_nan=False),
    length=st.floats(0.1, 10.0, allow_nan=False),
    k=st.integers(1, 5),
)
def test_string_modes_satisfy_vieta(beta, length, k):
    plus, minus = spectral.string_modes_closed_form(beta, length, k)
    assert plus + minus == pytest.approx(-beta, abs=1e-10 * max(1.0, beta))
    prod = plus * minus
    want = (k * math.pi / length) ** 2
    assert prod.real == pytest.approx(want, rel=1e-10)
    assert abs(prod.imag) <= 1e-10 * want


def test_discrete_string_converges_to_closed_form():
    plus, _ = spectral.string_modes_closed_form(1.0, math.pi, 1)
    dists = []
    for n in (50, 100):
        pencil = fem.assemble_string_pencil(math.pi, 1.0, n)
        eig = spectral.eigenvalues(pencil).eigenvalues
        dists.append(np.abs(eig - plus).min())
    assert dists[1] <= 2e-4
    # P1 eigenvalues converge at second order
    assert dists[0] / dists[1] == pytest.approx(4.0, rel=0.15)


def bisect_beam_root(j):
    """Independent root finder for 1 + cos(k) cosh(k) = 0 near (2j-1) pi/2."""
    f = lambda k: 1.0 + math.cos(k) * math.cosh(k)
    lo = (2 * j - 1) * math.pi / 2 - 1.0
    hi = (2 * j - 1) * math.pi / 2 + 1.0
    assert f(lo) * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_beam_frequencies_match_characteristic_roots():
    freqs = spectral.beam_clamped_free_frequencies(1.0, 5)
    assert freqs.shape == (5,)
    for j, omega in enumerate(freqs, 1):
        kappa = bisect_beam_root(j)
        assert omega == pytest.approx(kappa**2, rel=1e-11)
    # frozen first two roots
    assert freqs[0] == pytest.approx(1.87510406871196**2, rel=1e-12)
    assert freqs[1] == pytest.approx(4.69409113297417**2, rel=1e-12)
    # asymptotics: kappa_5 is within 0.01 of 9 pi / 2
    assert abs(math.sqrt(freqs[4]) - 4.5 * math.pi) <= 0.01
    # length scaling: omega ~ 1/L^2
    doubled = spectral.beam_clamped_free_frequencies(2.0, 5)
    assert np.allclose(doubled, freqs / 4.0, rtol=1e-11)


def test_discrete_beam_matches_lowest_frequency():
    pencil = fem.assemble_beam_pencil(1.0, 20)
    eig = spectral.eigenvalues(pencil).eigenvalues
    w1 = eig[eig.imag > 1e-9].imag.min()
    kappa1 = 1.87510406871196
    assert w1 == pytest.approx(kappa1**2, rel=1e-6)


# --- exclusion determinant --------------------------------------------------------

def test_exclusion_determinant_frozen_value():
    got = spectral.eigenvalue_exclusion_determinant(math.pi**2)
    assert got == pytest.approx(10.591953275521519, abs=1e-12)
    assert got == pytest.approx(10.5920, abs=5e-5)


@given(a=st.floats(1e-12, 1e12, allow_nan=False))
def test_exclusion_determinant_exceeds_one(a):
    # saturates to inf once cosh overflows, which still exceeds 1
    assert spectral.eigenvalue_exclusion_determinant(a) > 1.0


def test_exclusion_determinant_rejects_nonpositive():
    for a in (0.0, -1.0, math.nan):
        with pytest.raises(spectral.NonpositiveParameter):
            spectral.eigenvalue_exclusion_determinant(a)


# --- resolvent machinery ----------------------------------------------------------

def test_resolvent_norm_lower_bound(ddd_system):
    """1/sigma_min is at least the reciprocal distance to the spectrum."""
    _, _, _, pencil = ddd_system
    eig = spectral.eigenvalues(pencil).eigenvalues
    for lam in (-7.3, 0.0, 2.0, 19.5):
        dist = np.abs(1j * lam - eig).min()
        assert spectral.resolvent_norm(pencil, lam) >= 1.0 / dist - 1e-12


def test_resolvent_far_field_decay(ddd_cfg):
    _, _, pencil = fem.discretize(ddd_cfg, 6, 6, 6)
    top = np.abs(spectral.eigenvalues(pencil).eigenvalues).max()
    for lam in (4 * top, 40 * top):
        assert spectral.resolvent_norm(pencil, lam) <= 2.0 / lam


def test_resolvent_blows_up_on_a_conservative_eigenfrequency(cons_system):
    _, _, _, pencil = cons_system
    eig = spectral.eigenvalues(pencil).eigenvalues
    lam0 = eig[eig.imag > 1e-6].imag.min()
    assert spectral.resolvent_norm(pencil, float(lam0)) >= 1e5


def test_resolvent_sweep_grid_and_mirror(ddd_system):
    _, _, _, pencil = ddd_system
    table = spectral.resolvent_sweep(pencil, -10.0, 10.0, 21)
    assert table.lambdas.shape == table.norms.shape == (21,)
    assert table.lambdas[0] == -10.0 and table.lambdas[-1] == 10.0
    assert np.allclose(np.diff(table.lambdas), 1.0)
    # the resolvent norm along the axis is even in lambda for a real pencil,
    # and the sweep exploits that: mirrored entries are bitwise equal
    assert np.array_equal(table.norms, table.norms[::-1])
    assert table.sup == table.norms.max()
    assert np.all(np.isfinite(table.norms))


def test_resolvent_parameter_validation(ddd_system):
    _, _, _, pencil = ddd_system
    with pytest.raises(spectral.NonpositiveParameter):
        spectral.resolvent_sweep(pencil, -1.0, 1.0, 1)
    with pytest.raises(spectral.NonpositiveParameter):
        spectral.resolvent_sweep(pencil, 1.0, -1.0, 11)
    with pytest.raises(spectral.NonpositiveParameter):
        spectral.resolvent_norm(pencil, math.inf)
    with pytest.raises(spectral.NonpositiveParameter):
        spectral.string_modes_closed_form(-1.0, 1.0, 1)
    with pytest.raises(spectral.NonpositiveParameter):
        spectral.string_modes_closed_form(1.0, 0.0, 1)
    with pytest.raises(spectral.NonpositiveParameter):
        spectral.beam_clamped_free_frequencies(0.0, 3)


def test_eigenvalue_ordering_is_canonical(ddd_system):
    _, _, _, pencil = ddd_system
    eig = spectral.eigenvalues(pencil).eigenvalues
    order = np.lexsort((eig.imag, eig.real))
    assert np.array_equal(order, np.arange(eig.size))
