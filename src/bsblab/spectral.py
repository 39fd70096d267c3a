"""Spectrum and resolvent norms.

The generalized eigenproblem K x = mu B x is whitened through the Cholesky
factor B = G G^T, with G = blockdiag(Ls, Lm) built from S = Ls Ls^T and
M = Lm Lm^T (banded Cholesky, dpbtrf, on the stored bands), into the
ordinary problem for C = G^{-1} K G^{-T}, which is similar to the
generator restricted to the discrete space and, crucially, isometric in
the energy norm: 2-norms of whitened objects are energy norms of the
originals. The resolvent norm along the imaginary axis is therefore

    R(lambda) = 1 / sigma_min(i lambda I - C).

`resolvent_sweep` takes the SpectrumReport that `eigenvalues` returns
and any axis points (`axis_grid` makes a uniform, mirror-symmetric
grid). An undamped C is skew, hence normal, so there
R(lambda) = 1 / dist(i lambda, spectrum), read off the eigenvalues. A
damped one gets R(lambda)^2 at each distinct |lambda| as the largest
eigenvalue of A^{-*} A^{-1}, A = i lambda I - U, by Lanczos with full
reorthogonalization, where C = Q U Q^* is the complex Schur form made
from the report's real Schur factor (Q is never formed: it leaves
2-norms alone). Each iteration calls LAPACK directly: two triangular
solves (ztrtrs) and the largest Ritz pair of the Lanczos tridiagonal
(dstebz + dstein), about 0.12 ms at n = 40. Lanczos stops once the Ritz
residual beta_k |s_k| is at most 1e-12 of the Ritz value, and after at
most dim C iterations, where the Krylov space is exhausted and the Ritz
value is exact.

With X = Lm^{-1} Ls the whitened matrix is

    C = [[0, X^T], [-X, -Lm^{-1} D Lm^{-T}]],

so without damping C is exactly skew and its eigenvalues are +-i omega,
omega^2 the eigenvalues of the banded pencil (S, M). `eigenvalues` uses
that: an undamped pencil (D == 0) never forms X or C. LAPACK dsbgv
(banded split Cholesky, tridiagonal reduction, no vectors) runs twice
on the stored bands, on (S, M) and on (M, S). The first gives omega^2 to
an absolute error of about eps omega_max^2, the second 1/omega^2 to about
eps/omega_min^2, so each frequency above the geometric mean of the ends
comes from the first and each below it from the second: the relative
error is at most about eps omega_max/omega_min, at that mean, and the
low frequencies are as accurate as the high ones. This costs O(N^2 b)
time and O(N b) memory; every real part is exactly 0. A damped pencil
gets its spectrum from the real Schur factor T of C (dgees), kept for
the resolvent: X is formed dense, in place from Ls by banded triangular
solves (dtbtrs), and a dense copy of D gives Lm^{-1} D Lm^{-T}.

`eigenmode` gives the eigenvector (p, mu p) of one of these eigenvalues
from a banded solve on the N x N quadratic Q(mu) = mu^2 M + mu D + S
(Tisseur & Meerbergen, SIAM Review 43, 2001). The decay certificate takes
mu as the last eigenvalue, so `decay` and `verify` report the spectrum
`spectrum` writes.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.cython_lapack

from .dynamics import energy
from .fem import StateVector, SystemPencil, _dense, _lu_band, _require_allocatable
from .model import ModelError, NumericalError


@dataclass
class SpectrumReport:
    """All 2N eigenvalues plus the spectral abscissa, the largest real part,
    whose sign the stability theory cares about (on a dissipative spectrum
    -abscissa is the distance to the imaginary axis); `schur` is the real
    Schur factor of a damped spectrum, for the resolvent, and None for an
    undamped one."""

    eigenvalues: np.ndarray
    abscissa: float
    schur: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass
class ResolventTable:
    """Axis points, resolvent norms and, per point, the Lanczos iterations
    behind its value (mirrored points share one computation); 0 for an
    undamped pencil, whose norms are read off its eigenvalues."""

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

    @property
    def total_iterations(self) -> int:
        """Lanczos iterations the sweep ran: one count per distinct |lambda|."""
        _, first = np.unique(np.abs(self.lambdas), return_index=True)
        return int(self.iterations[first].sum())


def _band_cholesky(ab: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of a symmetric general band (kl = ku = b), in
    LAPACK's lower band storage: rows b..2b of the general band are that
    storage of its lower triangle, and dpbtrf factors a copy of them."""
    b = ab.shape[0] // 2
    factor, info = scipy.linalg.lapack.dpbtrf(ab[b:], lower=1)
    if info != 0:
        raise NumericalError(f"{name} admits no Cholesky factorization: dpbtrf info = {info}")
    return factor


def _lower_solve(lm: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Lm^{-1} rhs for the lower band factor Lm, by dtbtrs, in place on a
    Fortran-ordered rhs."""
    x, info = scipy.linalg.lapack.dtbtrs(lm, rhs, uplo="L", overwrite_b=1)
    if info != 0:
        raise NumericalError(f"triangular solve with Lm failed: dtbtrs info = {info}")
    return x


def _whiten(pencil: SystemPencil) -> np.ndarray:
    """The whitened matrix C.

    With G = blockdiag(Ls, Lm) the pencil whitens to C = G^{-1} K G^{-T}
    = [[0, X^T], [-X, -Lm^{-1} D Lm^{-T}]] where X = Lm^{-1} Ls, so C is
    exactly skew when D = 0, and Fortran-ordered for _real_schur. X is
    formed in place from the dense Ls, and D is made dense for the two
    banded solves of its whitening. S or M not positive definite to working
    precision, or huge damping that overflows C, raises NumericalError.
    """
    ls = _band_cholesky(pencil.s_band, "S")
    lm = _band_cholesky(pencil.m_band, "M")
    x = _lower_solve(lm, _dense(ls, 0))
    dl = _lower_solve(lm, _dense(pencil.d_band, pencil.bandwidth))
    dw = _lower_solve(lm, np.asfortranarray(dl.T)).T
    if not np.isfinite(dw).all():
        raise NumericalError("the whitened damping Lm^{-1} D Lm^{-T} is not finite")
    n = pencil.n_positions
    c = np.zeros((2 * n, 2 * n), order="F")
    c[:n, n:] = x.T
    c[n:, :n] = -x
    c[n:, n:] = -dw
    return c


def _bind_dsbgv():
    """LAPACK dsbgv from scipy's Cython LAPACK table, as a ctypes function
    of its 14 pointer arguments; scipy.linalg.lapack has no wrapper for it."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__["dsbgv"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 14)(pointer(capsule, name(capsule)))


_DSBGV = _bind_dsbgv()


def _band_pencil_eigenvalues(a_band: np.ndarray, b_band: np.ndarray, b_name: str) -> np.ndarray:
    """Ascending eigenvalues of the symmetric-definite pencil (A, B), A x =
    w B x, from two general bands (kl = ku = b), by dsbgv without vectors
    (jobz = 'N', uplo = 'L') on copies of their lower band storage, rows
    b..2b. dsbgv overwrites both copies; info > N means that dpbstf, the
    split Cholesky factorization of B, failed."""
    b, n = a_band.shape[0] // 2, a_band.shape[1]
    ab, bb = (np.array(band[b:], order="F") for band in (a_band, b_band))
    w, work, z = np.empty(n), np.empty(3 * n), np.empty(1)
    size, width, lead, one, info = (np.array([k], dtype=np.intc) for k in (n, b, b + 1, 1, 0))
    _DSBGV(b"N", b"L", size.ctypes.data, width.ctypes.data, width.ctypes.data,
           ab.ctypes.data, lead.ctypes.data, bb.ctypes.data, lead.ctypes.data,
           w.ctypes.data, z.ctypes.data, one.ctypes.data, work.ctypes.data, info.ctypes.data)
    info = int(info[0])
    if info > n:
        raise NumericalError(
            f"{b_name} admits no Cholesky factorization: dpbstf info = {info - n}")
    if info != 0:
        raise NumericalError(f"banded generalized eigensolve failed: dsbgv info = {info}")
    return w


def _undamped_frequencies(pencil: SystemPencil) -> np.ndarray:
    """Ascending omega, omega^2 the eigenvalues of (S, M), from two dsbgv runs.

    dsbgv on (S, M) gives omega^2 to an absolute error of about eps
    omega_max^2, and on (M, S) gives 1/omega^2 to about eps/omega_min^2.
    Each rank takes the list that is accurate there, split at the geometric
    mean of omega_min^2 and omega_max^2 as each list's accurate end gives
    them: the worst relative error is then about eps omega_max/omega_min,
    at the split. (M, S) runs first, so a non-SPD S is reported before a
    non-SPD M.
    """
    inverse = _band_pencil_eigenvalues(pencil.m_band, pencil.s_band, "S")
    squares = _band_pencil_eigenvalues(pencil.s_band, pencil.m_band, "M")
    low = squares < math.sqrt(squares[-1]) / math.sqrt(inverse[-1])
    squares[low] = 1.0 / inverse[::-1][low]
    return np.sqrt(squares)


def eigenvalues(pencil: SystemPencil) -> SpectrumReport:
    """Whitened eigensolve of the pencil (K, B).

    Without damping (D == 0 entry for entry) the spectrum is +-i omega,
    omega^2 the eigenvalues of the banded pencil (S, M), from dsbgv on
    (S, M) for the upper frequencies and on (M, S) for the lower ones
    (see _undamped_frequencies), with every real part exactly 0; the
    canonical order is then ascending frequency and mirrored entries are
    exact negatives. No N x N array is formed. Otherwise the report keeps
    the real Schur factor of the 2N x 2N whitened matrix C it came from.
    S or M not positive definite, C not finite or no Schur form raises
    NumericalError.
    """
    schur = None
    if pencil.d_band.any():
        schur, mu = _real_schur(_whiten(pencil))
    else:
        omega = _undamped_frequencies(pencil)
        # filled in place: 1j * w would give -0.0 real parts where w < 0
        mu = np.zeros(2 * omega.size, dtype=np.complex128)
        mu.imag = np.concatenate([-omega, omega])
    # canonical order: ascending real part, then ascending imaginary part;
    # LAPACK's native order is implementation-defined and must not leak
    # into reports.
    mu = mu[np.lexsort((mu.imag, mu.real))]
    return SpectrumReport(
        eigenvalues=mu,
        abscissa=float(np.max(mu.real)),
        schur=schur,
    )


def slowest_mode_unresolved(spect: SpectrumReport) -> bool:
    """Whether the slowest eigenvalue (the last) is within eps max|mu| of 0,
    roundoff of the spectrum's scale: damping that dwarfs stiffness."""
    mu = spect.eigenvalues
    return bool(abs(mu[-1]) <= np.finfo(float).eps * np.abs(mu).max())


def _real_schur(c: np.ndarray):
    """Quasi-triangular T of C = Z T Z^T and the eigenvalues of C, by LAPACK
    dgees without Schur vectors, in place on the Fortran-ordered C."""
    gees, select = scipy.linalg.lapack.dgees, (lambda wr, wi: None)
    lwork = int(gees(select, c, compute_v=0, lwork=-1, overwrite_a=1)[-2][0])
    t, _, wr, wi, _, _, info = gees(select, c, compute_v=0, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise NumericalError(f"real Schur form did not converge (info = {info})")
    return t, wr + 1j * wi


def _complex_triangle(t: np.ndarray) -> np.ndarray:
    """Upper-triangular U = Q^* T Q, unitary Q, in a new Fortran array:
    rsf2csf without Schur vectors. A standardized block [[a, b], [c, a]]
    has eigenvalue a + i w, w = sqrt|b| sqrt|c|, and eigenvector (b, i w),
    the first column of its rotation."""
    u = np.array(t, dtype=np.complex128, order="F")
    for k in np.flatnonzero(np.diagonal(t, -1)):
        b, w = t[k, k + 1], math.sqrt(abs(t[k, k + 1])) * math.sqrt(abs(t[k + 1, k]))
        x, y = b / math.hypot(b, w), 1j * w / math.hypot(b, w)
        u[k:k + 2, k:] = np.array([[x, -y], [-y, x]]) @ u[k:k + 2, k:]
        u[:k + 2, k:k + 2] = u[:k + 2, k:k + 2] @ np.array([[x, y], [y, x]])
        u[k + 1, k] = 0.0
    return u


def eigenmode(pencil: SystemPencil, mu: complex) -> StateVector:
    """Complex unit-energy eigenvector (p, mu p) for the eigenvalue mu.

    mu must be an eigenvalue of the pencil, as eigenvalues reports it, e.g.
    eigenvalues(pencil).eigenvalues[-1], the slowest mode. The vector's
    largest-magnitude component is real and positive.

    p spans the null space of Q(mu): banded LU (zgbtrf) of the band
    mu^2 M + mu D + S, formed entrywise on the stored bands, then two steps
    of inverse iteration (zgbtrs) from a fixed-seed start. Zero pivots of
    an exactly singular Q(mu) (info > 0) become eps (|mu|^2 |M|_1 +
    |mu| |D|_1 + |S|_1), as in LAPACK's zlaein, with each 1-norm the largest
    column sum of its band; |Q(mu)|_1 itself can be 0. A non-finite or zero
    first iterate, or a non-finite or zero-energy vector (Q(mu) overflowed),
    raises NumericalError before anything divides by it.
    """
    n, b = pencil.n_positions, pencil.bandwidth
    zgbtrf, zgbtrs = scipy.linalg.lapack.zgbtrf, scipy.linalg.lapack.zgbtrs
    q = mu * mu * pencil.m_band + mu * pencil.d_band + pencil.s_band
    lu, piv, info = zgbtrf(_lu_band(q), b, b)
    if info < 0:
        raise NumericalError(f"banded LU of Q(mu) failed: zgbtrf info = {info}")
    if info > 0:
        def norm1(ab):
            return float(np.abs(ab).sum(axis=0).max())

        norm = (abs(mu) ** 2 * norm1(pencil.m_band)
                + abs(mu) * norm1(pencil.d_band) + norm1(pencil.s_band))
        pivots = lu[2 * b]  # the diagonal of U, as a view into lu
        pivots[pivots == 0] = np.finfo(float).eps * norm
    rng = np.random.default_rng(0)
    x, _ = zgbtrs(lu, b, b, rng.standard_normal(n) + 1j * rng.standard_normal(n), piv)
    norm = np.linalg.norm(x)
    if not 0.0 < norm < math.inf:
        raise NumericalError(f"inverse iteration on Q(mu) gave no eigenvector (norm {norm})")
    x, _ = zgbtrs(lu, b, b, x / norm, piv)
    y = np.concatenate([x, mu * x])
    e = energy(pencil, StateVector(y[:n], y[n:])) if np.isfinite(y).all() else math.nan
    if not 0.0 < e < math.inf:
        raise NumericalError(f"inverse iteration on Q(mu) gave no eigenvector (energy {e})")
    y /= math.sqrt(e)
    k = int(np.argmax(np.abs(y)))
    y /= y[k] / abs(y[k])
    return StateVector(y[:n], y[n:])


# Lanczos stops when the Ritz residual is at most this fraction of the
# Ritz value; the squared norm is then accurate to about that, relative.
LANCZOS_TOL = 1e-12


def axis_grid(lambda_min: float, lambda_max: float, steps: int) -> np.ndarray:
    """Uniform grid of steps axis points from lambda_min to lambda_max,
    bitwise antisymmetric when lambda_min == -lambda_max.

    Point k is mid + half * j / (steps - 1) with the integer
    j = 2k - (steps - 1), so mirrored points differ only in the sign of j.
    np.linspace agrees to rounding but is not symmetric bitwise, which
    would defeat the mirror cache of resolvent_sweep. Fewer than 2 steps,
    lambda_min >= lambda_max, a non-finite end or a grid that cannot be
    allocated raises ModelError.
    """
    if int(steps) != steps or steps < 2:
        raise ModelError(f"steps must be an integer >= 2, got {steps}")
    if not (np.isfinite(lambda_min) and np.isfinite(lambda_max)) or lambda_max <= lambda_min:
        raise ModelError(f"need lambda_min < lambda_max, got [{lambda_min}, {lambda_max}]")
    lambda_min, lambda_max, steps = float(lambda_min), float(lambda_max), int(steps)
    _require_allocatable(steps, f"a grid of {steps:.6g} axis points")
    mid = 0.5 * lambda_min + 0.5 * lambda_max
    half = 0.5 * lambda_max - 0.5 * lambda_min
    j = 2.0 * np.arange(steps) - (steps - 1)
    grid = mid + half * (j / (steps - 1))
    grid[0], grid[-1] = lambda_min, lambda_max
    return grid


def _lanczos_inverse_norm(a: np.ndarray, start: np.ndarray):
    """||A^{-1}||_2 for upper-triangular A, and the Lanczos iterations taken.

    Lanczos with full reorthogonalization on A^{-*} A^{-1}, calling LAPACK
    directly: each iteration makes two ztrtrs solves (A w = q, A^* u = w)
    and, from the second iteration on, takes the largest Ritz pair of the
    (k+1) x (k+1) tridiagonal by dstebz (by index, block order) and
    dstein. At 2N = 398 (n = 40, one BLAS thread, a 2-vCPU Xeon) an
    iteration costs about 0.12 ms, over half of it in the two solves. A
    must be Fortran-ordered, or f2py would copy it on every solve. A zero
    pivot or a non-finite solve means A is singular to working precision
    and gives +inf, the norm at an eigenvalue; a non-finite Lanczos
    coefficient or a failed Ritz pair raises NumericalError.
    """
    if not a.flags.f_contiguous:
        raise ValueError("the triangular factor must be Fortran-ordered")
    trtrs = scipy.linalg.lapack.ztrtrs
    stebz, stein = scipy.linalg.lapack.dstebz, scipy.linalg.lapack.dstein
    m = a.shape[0]
    basis = np.empty((m, m), dtype=np.complex128)
    alphas = np.empty(m)
    betas = np.empty(m)
    q = start / np.linalg.norm(start)
    for k in range(m):
        basis[k] = q
        w, info = trtrs(a, q)
        if info == 0:
            u, info = trtrs(a, w, trans=2)
        if info > 0:
            return math.inf, k + 1
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of ztrtrs")
        if not np.isfinite(u).all():
            return math.inf, k + 1
        v = basis[: k + 1]
        h = v.conj() @ u
        alphas[k] = h[k].real
        u -= v.T @ h
        # twice: near convergence u is almost in span(v), and one pass of
        # classical Gram-Schmidt then leaves it visibly non-orthogonal
        u -= v.T @ (v.conj() @ u)
        betas[k] = np.linalg.norm(u)
        # the tridiagonal of this iteration holds alphas[:k+1], betas[:k]
        if not math.isfinite(alphas[k]) or (k > 0 and not math.isfinite(betas[k - 1])):
            raise NumericalError(f"non-finite Lanczos coefficient at iteration {k + 1}")
        if k == 0:
            theta, s = float(alphas[0]), 1.0
        else:
            d, e = alphas[: k + 1], betas[:k]
            found, ritz, iblock, isplit, info = stebz(d, e, 2, 0.0, 1.0, k + 1, k + 1, 0.0, "B")
            if info == 0:
                z, info = stein(d, e, ritz[:found], iblock, isplit)
            if info != 0:
                raise NumericalError(
                    f"largest Ritz pair of the Lanczos tridiagonal failed (info = {info})")
            theta, s = float(ritz[0]), z[k, 0]
        if betas[k] * abs(s) <= LANCZOS_TOL * theta:
            break
        q = u / betas[k]
    # after m iterations the Krylov space is all of C^m and theta is exact
    return math.sqrt(theta), k + 1


def resolvent_sweep(spect: SpectrumReport, lambdas) -> ResolventTable:
    """Resolvent norms at the axis points i*lambdas, from the spectrum report.

    The pencil is real, so the norm is even in lambda; mirrored points
    share one computation, which halves the work on grids symmetric about
    0 (see axis_grid). Undamped, C is normal and the norm is
    1 / min|i lambda - mu| over the report's eigenvalues mu, +inf at
    distance 0, with no Lanczos iteration. Damped, one Lanczos run per
    distinct |lambda| on the complex Schur triangle U made from the
    report's real Schur factor. Nothing is whitened or factored here. No
    axis point, or a non-finite one, raises ModelError.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0 or not np.isfinite(lambdas).all():
        raise ModelError(f"need one or more finite axis points, got {lambdas}")
    keys, where = np.unique(np.abs(lambdas), return_inverse=True)
    iterations = np.zeros(keys.size, dtype=np.int64)
    if spect.schur is None:
        dist = np.array([np.abs(1j * key - spect.eigenvalues).min() for key in keys])
        with np.errstate(divide="ignore"):
            norms = 1.0 / dist
        return ResolventTable(lambdas=lambdas, norms=norms[where], iterations=iterations[where])
    t = _complex_triangle(spect.schur)
    rng = np.random.default_rng(0)
    start = rng.standard_normal(t.shape[0]) + 1j * rng.standard_normal(t.shape[0])
    # A = i lambda I - U in place of U: only the diagonal changes per point
    a = np.negative(t, out=t)
    diagonal = a.diagonal().copy()
    norms = np.empty(keys.size)
    for i, key in enumerate(keys):
        np.fill_diagonal(a, diagonal + 1j * key)
        norms[i], iterations[i] = _lanczos_inverse_norm(a, start)
    return ResolventTable(lambdas=lambdas, norms=norms[where], iterations=iterations[where])

