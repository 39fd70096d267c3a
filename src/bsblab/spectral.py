"""Spectrum, resolvent norms and closed-form mode oracles.

The generalized eigenproblem K x = mu B x is whitened through the Cholesky
factor B = G G^T, with G = blockdiag(Ls, Lm) built from S = Ls Ls^T and
M = Lm Lm^T, into the ordinary problem for C = G^{-1} K G^{-T}, which is
similar to the generator restricted to the discrete space and, crucially,
isometric in the energy norm: 2-norms of whitened objects are energy norms
of the originals. The resolvent norm along the imaginary axis is therefore

    R(lambda) = 1 / sigma_min(i lambda I - C).

`resolvent_norm` evaluates one point by a dense SVD of i lambda I - C; it
is the reference. `resolvent_sweep` factors once, C = Z T Z* with T upper
triangular (complex Schur form; Z is never formed, since unitary Z leaves
2-norms alone), and gets R(lambda)^2 at each distinct |lambda| as the
largest eigenvalue of A^{-*} A^{-1}, A = i lambda I - T, by Lanczos with
full reorthogonalization: two triangular solves per iteration. Lanczos
stops once the Ritz residual beta_k |s_k| is at most 1e-12 of the Ritz
value, and after at most dim C iterations, where the Krylov space is
exhausted and the Ritz value is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fem import StateVector, SystemPencil
from .model import DampingCase


class FactorizationFailure(RuntimeError):
    """S or M is not symmetric positive definite to working precision, or
    the Schur form of the whitened matrix did not converge."""


class EmptySpectrum(RuntimeError):
    """The pencil has no eigenvalues (zero-size system)."""


class NonpositiveParameter(ValueError):
    """A closed-form oracle was called outside its domain."""


@dataclass
class SpectrumReport:
    """All 2N eigenvalues plus the two scalars the stability theory cares
    about: the spectral abscissa and the distance of the spectrum to the
    imaginary axis."""

    eigenvalues: np.ndarray
    abscissa: float
    min_axis_distance: float
    regime: DampingCase


@dataclass
class ResolventTable:
    """Axis points, resolvent norms and, per point, the Lanczos iterations
    behind its value (mirrored points share one computation)."""

    lambdas: np.ndarray
    norms: np.ndarray
    iterations: np.ndarray

    @property
    def sup(self) -> float:
        return float(np.max(self.norms))

    @property
    def distinct_points(self) -> int:
        """Number of distinct |lambda|, i.e. of norms actually computed."""
        return int(np.unique(np.abs(self.lambdas)).size)


def _whiten(pencil: SystemPencil):
    """Cholesky factors Ls of S and Lm of M, and the whitened matrix C.

    With G = blockdiag(Ls, Lm) the pencil whitens to C = G^{-1} K G^{-T}
    = [[0, X^T], [-X, -Lm^{-1} D Lm^{-T}]] where X = Lm^{-1} Ls, so C is
    exactly skew when D = 0.
    """
    try:
        ls = scipy.linalg.cholesky(pencil.S, lower=True)
        lm = scipy.linalg.cholesky(pencil.M, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationFailure(f"S or M admits no Cholesky factorization: {exc}") from exc
    x = scipy.linalg.solve_triangular(lm, ls, lower=True)
    dl = scipy.linalg.solve_triangular(lm, pencil.D, lower=True)
    dw = scipy.linalg.solve_triangular(lm, dl.T, lower=True).T
    n = pencil.n_positions
    c = np.zeros((2 * n, 2 * n))
    c[:n, n:] = x.T
    c[n:, :n] = -x
    c[n:, n:] = -dw
    return ls, lm, c


def _sorted_eigenvalues(mu: np.ndarray) -> np.ndarray:
    # canonical order: ascending real part, then ascending imaginary part;
    # LAPACK's native order is implementation-defined and must not leak
    # into reports.
    return mu[np.lexsort((mu.imag, mu.real))]


def _spectrum_report(mu: np.ndarray, regime: DampingCase) -> SpectrumReport:
    mu = _sorted_eigenvalues(mu)
    return SpectrumReport(
        eigenvalues=mu,
        abscissa=float(np.max(mu.real)),
        min_axis_distance=float(np.min(np.abs(mu.real))),
        regime=regime,
    )


def eigenvalues(pencil: SystemPencil) -> SpectrumReport:
    """Whitened eigensolve of the pencil (K, B)."""
    if pencil.n_positions == 0:
        raise EmptySpectrum("pencil has no degrees of freedom")
    *_, c = _whiten(pencil)
    return _spectrum_report(scipy.linalg.eigvals(c), pencil.regime)


def spectral_abscissa(pencil: SystemPencil) -> float:
    return eigenvalues(pencil).abscissa


def slowest_mode(pencil: SystemPencil):
    """Eigenpair with the largest real part, energy-normalized.

    Returns (mu, y_re, y_im) where y_re + i y_im is the eigenvector scaled
    to unit energy. Ties break lexicographically by (Re, Im), so of a
    conjugate pair the upper half-plane member is returned; the phase is
    fixed by rotating the largest-magnitude component onto the positive
    real axis. Meaningful in a dissipative regime; without damping the
    largest real part is numerically zero and the returned mode is simply
    one of the undamped oscillations.
    """
    mu, y_re, y_im, _ = _slowest_mode_and_spectrum(pencil)
    return mu, y_re, y_im


def _slowest_mode_and_spectrum(pencil: SystemPencil):
    """slowest_mode plus the SpectrumReport of the same eigensolve.

    The eigenvalues come from the eig call that picks the mode, so they
    may differ from those of eigenvalues() (eigvals) in the last digits.
    """
    if pencil.n_positions == 0:
        raise EmptySpectrum("pencil has no degrees of freedom")
    ls, lm, c = _whiten(pencil)
    mu, vecs = scipy.linalg.eig(c)
    pick = np.lexsort((mu.imag, mu.real))[-1]
    z = vecs[:, pick].astype(np.complex128)
    n = pencil.n_positions
    xp = scipy.linalg.solve_triangular(ls, z[:n], lower=True, trans="T")
    xq = scipy.linalg.solve_triangular(lm, z[n:], lower=True, trans="T")
    x = np.concatenate([xp, xq])
    e = 0.5 * (np.vdot(xp, pencil.S @ xp).real + np.vdot(xq, pencil.M @ xq).real)
    x = x / math.sqrt(e)
    k = int(np.argmax(np.abs(x)))
    phase = x[k] / abs(x[k])
    x = x / phase
    y_re = StateVector(x[:n].real.copy(), x[n:].real.copy())
    y_im = StateVector(x[:n].imag.copy(), x[n:].imag.copy())
    return complex(mu[pick]), y_re, y_im, _spectrum_report(mu, pencil.regime)


def resolvent_norm(pencil: SystemPencil, lam: float) -> float:
    """Energy-norm of the resolvent at the axis point i*lam.

    Returns +inf (rather than raising) when i*lam is an eigenvalue to
    working precision.
    """
    if not np.isfinite(lam):
        raise NonpositiveParameter(f"lambda must be finite, got {lam}")
    *_, c = _whiten(pencil)
    smin = float(scipy.linalg.svdvals(1j * float(lam) * np.eye(c.shape[0]) - c)[-1])
    return math.inf if smin == 0.0 else 1.0 / smin


# Lanczos stops when the Ritz residual is at most this fraction of the
# Ritz value; the squared norm is then accurate to about that, relative.
LANCZOS_TOL = 1e-12


def _axis_grid(lambda_min: float, lambda_max: float, steps: int) -> np.ndarray:
    """Uniform grid that is bitwise antisymmetric when lambda_min == -lambda_max.

    Point k is mid + half * j / (steps - 1) with the integer
    j = 2k - (steps - 1), so mirrored points differ only in the sign of j.
    np.linspace agrees to rounding but is not symmetric bitwise, which
    would defeat the mirror cache of resolvent_sweep.
    """
    mid = 0.5 * lambda_min + 0.5 * lambda_max
    half = 0.5 * lambda_max - 0.5 * lambda_min
    j = 2.0 * np.arange(steps) - (steps - 1)
    grid = mid + half * (j / (steps - 1))
    grid[0], grid[-1] = lambda_min, lambda_max
    return grid


def _schur_factor(c: np.ndarray) -> np.ndarray:
    """Upper-triangular factor T of the complex Schur form C = Z T Z*.

    LAPACK zgees without Schur vectors, in place on a complex copy of C.
    """
    gees = scipy.linalg.lapack.zgees
    a = np.asfortranarray(c, dtype=np.complex128)
    lwork = int(gees(lambda w: None, a, compute_v=0, lwork=-1)[-2][0].real)
    t, *_, info = gees(lambda w: None, a, compute_v=0, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise FactorizationFailure(f"complex Schur form did not converge (info = {info})")
    return t


def _lanczos_inverse_norm(a: np.ndarray, start: np.ndarray):
    """||A^{-1}||_2 for upper-triangular A, and the Lanczos iterations taken.

    Lanczos with full reorthogonalization on A^{-*} A^{-1}. A singular or
    non-finite triangular solve means A is singular to working precision
    and gives +inf, as in resolvent_norm.
    """
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
        # twice: near convergence u is almost in span(v), and one pass of
        # classical Gram-Schmidt then leaves it visibly non-orthogonal
        u -= v.T @ (v.conj() @ u)
        betas[k] = np.linalg.norm(u)
        theta, s = scipy.linalg.eigh_tridiagonal(
            alphas[: k + 1], betas[:k], select="i", select_range=(k, k)
        )
        theta = float(theta[0])
        if betas[k] * abs(s[-1, 0]) <= LANCZOS_TOL * theta:
            break
        q = u / betas[k]
    # after m iterations the Krylov space is all of C^m and theta is exact
    return math.sqrt(theta), k + 1


def resolvent_sweep(
    pencil: SystemPencil, lambda_min: float, lambda_max: float, steps: int
) -> ResolventTable:
    """Resolvent norms on a uniform grid of axis points.

    The pencil is real, so the norm is even in lambda; it is computed once
    per distinct |lambda| and mirrored, which halves the work on grids
    symmetric about 0 (their points are mirrored bitwise, see _axis_grid).
    Each value comes from the Schur factor of the whitened matrix by
    Lanczos; resolvent_norm is the dense reference for one point.
    """
    if int(steps) != steps or steps < 2:
        raise NonpositiveParameter(f"steps must be an integer >= 2, got {steps}")
    if not (np.isfinite(lambda_min) and np.isfinite(lambda_max)) or lambda_max <= lambda_min:
        raise NonpositiveParameter(
            f"need lambda_min < lambda_max, got [{lambda_min}, {lambda_max}]"
        )
    grid = _axis_grid(float(lambda_min), float(lambda_max), int(steps))
    norms, iterations = _axis_norms(pencil, grid)
    return ResolventTable(lambdas=grid, norms=norms, iterations=iterations)


def _axis_norms(pencil: SystemPencil, lambdas: np.ndarray):
    """Resolvent norms at the axis points i*lambdas, and the Lanczos
    iterations behind each.

    Whitens once, takes the Schur factor T once, and runs Lanczos once per
    distinct |lambda|; mirrored points share that value.
    """
    *_, c = _whiten(pencil)
    t = _schur_factor(c)
    del c
    rng = np.random.default_rng(0)
    start = rng.standard_normal(t.shape[0]) + 1j * rng.standard_normal(t.shape[0])
    # A = i lambda I - T in place of T: only the diagonal changes per point
    a = np.negative(t, out=t)
    diagonal = a.diagonal().copy()
    keys, where = np.unique(np.abs(lambdas), return_inverse=True)
    norms = np.empty(keys.size)
    iterations = np.empty(keys.size, dtype=np.int64)
    for i, key in enumerate(keys):
        np.fill_diagonal(a, diagonal + 1j * key)
        norms[i], iterations[i] = _lanczos_inverse_norm(a, start)
    return norms[where], iterations[where]


# --- closed-form oracles ---------------------------------------------------

def string_modes_closed_form(beta: float, length: float, k: int):
    """Eigenvalue pair of mode k of the pinned damped string.

    Roots of mu^2 + beta*mu + (k*pi/length)^2 = 0; returned as
    (plus-branch, minus-branch).
    """
    if not np.isfinite(length) or length <= 0:
        raise NonpositiveParameter(f"length must be > 0, got {length}")
    if not np.isfinite(beta) or beta < 0:
        raise NonpositiveParameter(f"beta must be finite and >= 0, got {beta}")
    if int(k) != k or k < 1:
        raise NonpositiveParameter(f"mode index must be an integer >= 1, got {k}")
    omega = k * math.pi / length
    disc = 0.25 * beta * beta - omega * omega
    if disc >= 0:
        root = math.sqrt(disc)
        return (complex(-0.5 * beta + root), complex(-0.5 * beta - root))
    root = math.sqrt(-disc)
    return (complex(-0.5 * beta, root), complex(-0.5 * beta, -root))


def beam_clamped_free_frequencies(length: float, count: int) -> np.ndarray:
    """First `count` natural angular frequencies of a clamped-free beam.

    The wavenumbers kappa_j solve 1 + cos(kappa) cosh(kappa) = 0; each is
    bracketed by (2j-1)pi/2 -/+ 1 and bisected to 1e-12. Frequencies are
    (kappa_j / length)^2. The bisection runs on the bounded equivalent
    cos(kappa) + sech(kappa), which has the same sign everywhere.
    """
    if not np.isfinite(length) or length <= 0:
        raise NonpositiveParameter(f"length must be > 0, got {length}")
    if int(count) != count or count < 1:
        raise NonpositiveParameter(f"count must be an integer >= 1, got {count}")

    def g(kappa):
        return math.cos(kappa) + 1.0 / math.cosh(kappa)

    freqs = np.empty(int(count))
    for j in range(1, int(count) + 1):
        lo = (2 * j - 1) * math.pi / 2 - 1.0
        hi = (2 * j - 1) * math.pi / 2 + 1.0
        flo = g(lo)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            fmid = g(mid)
            if (flo > 0) == (fmid > 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        kappa = 0.5 * (lo + hi)
        freqs[j - 1] = (kappa / length) ** 2
    return freqs


def eigenvalue_exclusion_determinant(a: float) -> float:
    """cosh(sqrt(a)) + cos(sqrt(a)) for a > 0.

    This is the boundary determinant of the fourth-order problem
    z'''' = a^2 z with z(0) = z''(0) = z'''(0) = 0 and z(1) = z'(1) = 0,
    up to a positive factor. It exceeds 1 for every a > 0, so that problem
    has only the zero solution; this is what rules out purely imaginary
    generator eigenvalues in the string-damped-only regime.
    """
    if not np.isfinite(a) or a <= 0:
        raise NonpositiveParameter(f"a must be finite and > 0, got {a}")
    r = math.sqrt(a)
    if r > 700.0:
        # cosh overflows past ~710; the sum is astronomically above 1
        return math.inf
    return math.cosh(r) + math.cos(r)
