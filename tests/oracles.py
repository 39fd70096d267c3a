"""Reference pencils and closed forms that only the tests use.

pencil_from_dense wraps hand-made dense S, M and D as a SystemPencil; the
isolated pinned string and clamped-free beam are assembled with the
package's element matrices and band scatter, so their spectra can be held
to the closed-form member modes; eigenvalue_exclusion_determinant is the
positivity certificate behind the string-damped-only case;
frequency_longdouble is an extended-precision reference for one
frequency of an undamped spectrum, and frequency_rounding_bound the
first-order error of such a frequency under rounding.
"""

import math

import numpy as np

from bsblab.fem import (
    NonpositiveLength,
    SystemPencil,
    ZeroElements,
    _element_pairs,
    _index_bandwidth,
    _scatter_band,
    element_matrices,
)
from bsblab.spectral import NonpositiveParameter


def band(a: np.ndarray, b: int) -> np.ndarray:
    """a in LAPACK general-band storage with kl = ku = b, in a's dtype: a[i, j]
    sits in row b + i - j, column j; positions outside the matrix hold 0.

    The band is allocated in Fortran order, the column-major layout BLAS and
    LAPACK read, so the wrappers pass it through without copying it.
    """
    n = a.shape[0]
    ab = np.zeros((2 * b + 1, n), dtype=a.dtype, order="F")
    for k in range(-b, b + 1):  # k = j - i
        ab[b - k, max(k, 0):n + min(k, 0)] = np.diagonal(a, k)
    return ab


def half_bandwidth(*matrices: np.ndarray) -> int:
    """Largest |i - j| over the nonzeros of the given N x N matrices."""
    rows, cols = np.nonzero(np.logical_or.reduce([m != 0 for m in matrices]))
    return int(np.abs(rows - cols).max(initial=0))


def pencil_from_dense(S, M, D) -> SystemPencil:
    """Bands of dense S, M and D on the half-bandwidth of their nonzeros
    (N - 1 for a full matrix)."""
    S, M, D = (np.asarray(a, dtype=float) for a in (S, M, D))
    b = half_bandwidth(S, M, D)
    return SystemPencil(band(S, b), band(M, b), band(D, b))


def assemble_string_pencil(length: float, beta: float, n: int) -> SystemPencil:
    """Isolated string with both ends pinned, for oracle comparisons.

    Linear elements on (0, length); the N = n - 1 interior deflections are
    the DOFs and D = beta * M.
    """
    if not np.isfinite(length) or length <= 0:
        raise NonpositiveLength(f"string length must be > 0, got {length}")
    if beta < 0 or not np.isfinite(beta):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    if int(n) != n or n < 2:
        raise ZeroElements(f"a pinned string needs n >= 2 elements, got {n}")
    n = int(n)
    idx = _element_pairs(np.concatenate([[-1], np.arange(n - 1), [-1]]))
    b = _index_bandwidth(idx)
    h = length / n
    S = _scatter_band(n - 1, b, idx, element_matrices("string_stiffness", h))
    M = _scatter_band(n - 1, b, idx, element_matrices("string_mass", h))
    D = beta * M
    return SystemPencil(S, M, D)


def assemble_beam_pencil(length: float, n: int, rho: float = 0.0) -> SystemPencil:
    """Isolated beam clamped at x = 0 and free at x = length.

    Hermite cubics with the clamped node eliminated, N = 2n DOFs, and
    D = rho times the slope Gram.
    """
    if not np.isfinite(length) or length <= 0:
        raise NonpositiveLength(f"beam length must be > 0, got {length}")
    if rho < 0 or not np.isfinite(rho):
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    if int(n) != n or n < 1:
        raise ZeroElements(f"n must be an integer >= 1, got {n}")
    n = int(n)
    table = np.full((n + 1, 2), -1, dtype=int)
    table[1:] = np.arange(2 * n).reshape(n, 2)
    idx = _element_pairs(table)
    b = _index_bandwidth(idx)
    h = length / n
    S = _scatter_band(2 * n, b, idx, element_matrices("beam_bending", h))
    M = _scatter_band(2 * n, b, idx, element_matrices("beam_mass", h))
    D = _scatter_band(2 * n, b, idx, rho * element_matrices("beam_slope", h))
    return SystemPencil(S, M, D)


def frequency_longdouble(pencil: SystemPencil, shift: float = 0.0):
    """The omega of an undamped pencil whose omega^2, an eigenvalue of
    (S, M), lies nearest shift^2, and its vector, by inverse iteration in
    np.longdouble; shift = 0 gives the lowest omega.

    S and M are taken exactly as stored and carried in long double.
    A = S - shift^2 M is factored once by banded LU with partial pivoting
    (as dgbtrf: the multipliers of column k stay in the rows they were
    formed in, and the upper band widens to 2b). Each step solves
    A y = M x and reads 1/(omega^2 - shift^2) off the ratio
    x^T M y / x^T M x; it stops once omega^2 moves by at most 4
    long-double ulps, and raises if that takes more than 200 steps. The
    start is a fixed pseudo-random vector, so no mode is missed by symmetry.
    """
    b = pencil.bandwidth
    m = pencil.M.astype(np.longdouble)
    sigma = np.longdouble(shift) ** 2
    a = pencil.S.astype(np.longdouble) - sigma * m
    n = a.shape[0]
    pivots = np.empty(n, dtype=int)
    for k in range(n):  # a becomes L - I + U, with L unit lower
        hi, right = min(n, k + b + 1), min(n, k + 2 * b + 1)
        p = pivots[k] = k + int(np.argmax(abs(a[k:hi, k])))
        a[[k, p], k:right] = a[[p, k], k:right]
        a[k + 1:hi, k] /= a[k, k]
        a[k + 1:hi, k + 1:right] -= np.outer(a[k + 1:hi, k], a[k, k + 1:right])

    def solve(r):
        y = r.copy()
        for k, p in enumerate(pivots):
            y[[k, p]] = y[[p, k]]
            y[k + 1:k + b + 1] -= a[k + 1:k + b + 1, k] * y[k]
        for i in reversed(range(n)):
            right = min(n, i + 2 * b + 1)
            y[i] = (y[i] - a[i, i + 1:right] @ y[i + 1:right]) / a[i, i]
        return y

    x = np.random.default_rng(0).standard_normal(n).astype(np.longdouble)
    square = np.longdouble(0)
    for _ in range(200):
        mx = m @ x
        y = solve(mx)
        new = sigma + (mx @ x) / (mx @ y)
        x = y / np.sqrt(y @ (m @ y))
        if abs(new - square) <= 4 * np.finfo(np.longdouble).eps * new:
            return np.sqrt(new), x
        square = new
    raise ArithmeticError("inverse iteration did not settle in 200 steps")


def frequency_rounding_bound(pencil: SystemPencil, x: np.ndarray, u: float) -> float:
    """gamma_{2b+1} kappa / 2, gamma_k = k u/(1 - k u), for an eigenvector x
    of the undamped pencil (S, M) and a unit roundoff u.

    An entrywise relative change of gamma_{2b+1} in S and M, the rounding
    of one banded inner product, moves omega^2 = x^T S x / x^T M x by at
    most gamma kappa omega^2 to first order, with
    kappa = |x|^T |S| |x| / x^T S x + |x|^T |M| |x| / x^T M x, so omega by
    at most gamma kappa / 2 relative.
    """
    s, m = (a.astype(np.longdouble) for a in (pencil.S, pencil.M))
    kappa = float(abs(x) @ abs(s) @ abs(x) / (x @ s @ x) + abs(x) @ abs(m) @ abs(x) / (x @ m @ x))
    k = 2 * pencil.bandwidth + 1
    return k * u / (1 - k * u) * kappa / 2


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
