"""Reference pencils and closed forms that only the tests use.

pencil_from_dense wraps hand-made dense S, M and D as a SystemPencil; the
isolated pinned string and clamped-free beam are assembled with the
package's element matrices and band scatter, so their spectra can be held
to the closed-form member modes; eigenvalue_exclusion_determinant is the
positivity certificate behind the string-damped-only case.
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
