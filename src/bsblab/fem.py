"""Conforming finite elements for the beam-string-beam structure.

The beams carry Hermite cubic elements (deflection and slope at every node,
so the broken H^2 regularity is met), the string carries linear elements.
Clamped degrees of freedom at the outer ends are eliminated, and the string
end deflections are identified with the adjacent beam tip deflections, which
enforces displacement continuity exactly. Beam tip slopes stay free; moment
and shear matching at the junctions is natural, it emerges from the weak
form and is never imposed.

Global DOF ordering
-------------------
Beam-1 DOFs come first, node-major with deflection before slope and the
clamped node dropped; then the string interior deflections left to right;
then beam-2 DOFs node-major with its clamped node dropped. The total count
is N = 2*n1 + (n2 - 1) + 2*n3.

Assembly produces three N x N matrices: S the position Gram (beam bending
plus string stiffness), M the mass matrix, and D the damping Gram (rho1 and
rho2 times the beam slope Grams plus beta times the string mass). Every
element couples DOFs at most b = 3 apart, so assembly records that
half-bandwidth from the DOF map and scatters the element matrices
straight into LAPACK general-band storage (see SystemPencil); no N x N
array is allocated. S, M and D define the second-order system
S p' = S q, M q' = -S p - D q, whose first-order pencil

    B = [[S, 0], [0, M]],      K = [[0, S], [-S, -D]]

no package code forms. States y = (p, q) obey B y' = K y, the energy is
(1/2)(p^T S p + q^T M q), and Re(y^H K y) = -q^H D q holds exactly, which
is the discrete image of the dissipation identity of the continuous
semigroup. It follows from the block form of K once S is symmetric, and
the tests check the symmetry of S, M and D exactly on their bands. A pencil is the three bands and
nothing else: which members are damped is a fact about the config's
coefficients, which the model module decides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import BsblabError, StructureConfig, validate_config


class ZeroElements(BsblabError, ValueError):
    """An interval was asked to carry fewer elements than it supports."""


class NonpositiveLength(BsblabError, ValueError):
    """An element length must be finite and > 0."""


class NonfiniteElement(BsblabError, ValueError):
    """An element length or damping coefficient at which an assembled
    matrix is not finite in float64: the beam bending entries scale as h^-3
    and the beam mass entries down to h^3, so extreme lengths under- or
    overflow them, and a huge rho1, rho2 or beta overflows the band of D."""


class RecordTooLarge(BsblabError, ValueError):
    """An array whose length a count sets cannot be allocated: the nodes of a
    mesh, the energy record of a run or the axis grid."""


def _require_allocatable(length: int, what: str) -> None:
    """Raise RecordTooLarge("<what> does not fit in memory") unless numpy
    allocates length floats. np.empty refuses a length that np.arange and
    np.linspace would turn into an empty array, such as 2**63."""
    try:
        np.empty(length)
    except (ValueError, MemoryError) as exc:
        raise RecordTooLarge(f"{what} does not fit in memory") from exc


@dataclass(frozen=True)
class Mesh:
    """Uniform nodes per interval; endpoints coincide with the junctions."""

    n1: int
    n2: int
    n3: int
    nodes1: np.ndarray
    nodes2: np.ndarray
    nodes3: np.ndarray


@dataclass(frozen=True)
class DofMap:
    """Global indices per node; -1 marks an eliminated (clamped) DOF.

    beam1 and beam2 have shape (n+1, 2) with column 0 the deflection and
    column 1 the slope. string has shape (n2+1,); its first and last entries
    alias the adjacent beam tip deflection DOFs.
    """

    n_dofs: int
    beam1: np.ndarray
    string: np.ndarray
    beam2: np.ndarray


def _lu_band(ab: np.ndarray) -> np.ndarray:
    """A general band (kl = ku = b) below b zero rows, in a new Fortran
    array: the layout ?gbtrf factors in place, with room for its fill-in."""
    b = ab.shape[0] // 2
    out = np.zeros((3 * b + 1, ab.shape[1]), dtype=ab.dtype, order="F")
    out[b:] = ab
    return out


def _dense(ab: np.ndarray, ku: int) -> np.ndarray:
    """The N x N matrix of a LAPACK band with ku superdiagonals, in Fortran
    order: a[i, j] is ab[ku + i - j, j]. ku = b reads a general band, ku = 0
    a lower one."""
    n = ab.shape[1]
    a = np.zeros((n, n), dtype=ab.dtype, order="F")
    for r in range(ab.shape[0]):
        k = ku - r  # row r holds the diagonal j - i = k
        i = np.arange(max(-k, 0), n - max(k, 0))
        a[i, i + k] = ab[r, i + k]
    return a


@dataclass(frozen=True)
class SystemPencil:
    """S, M and D of the second-order system, stored as bands.

    Each of s_band, m_band and d_band holds its N x N matrix in LAPACK
    general-band storage with kl = ku = b (the half-bandwidth), in Fortran
    order: entry (i, j) sits in row b + i - j of column j, and positions
    outside the matrix hold 0. Assembly knows b from the DOF map (3 on the
    coupled mesh) and scatters into the bands, so a pencil costs O(N b)
    memory and no code on the simulate path builds an N x N matrix.
    """

    s_band: np.ndarray
    m_band: np.ndarray
    d_band: np.ndarray

    @property
    def n_positions(self) -> int:
        return self.s_band.shape[1]

    @property
    def bandwidth(self) -> int:
        """The half-bandwidth b shared by the three bands."""
        return self.s_band.shape[0] // 2


@dataclass
class StateVector:
    """Discrete state: position coefficients p and velocity coefficients q.

    Entries may be real or complex (complex states show up when a single
    eigenmode is propagated); both arrays must share one length and hold
    finite entries.
    """

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p)
        q = np.asarray(self.q)
        dtype = np.complex128 if (np.iscomplexobj(p) or np.iscomplexobj(q)) else np.float64
        p = p.astype(dtype, copy=False)
        q = q.astype(dtype, copy=False)
        if p.ndim != 1 or q.ndim != 1 or p.shape != q.shape:
            raise ValueError(
                f"p and q must be 1-d arrays of equal length, got {p.shape} and {q.shape}"
            )
        if not (np.all(np.isfinite(p.real)) and np.all(np.isfinite(p.imag))
                and np.all(np.isfinite(q.real)) and np.all(np.isfinite(q.imag))):
            raise ValueError("state entries must be finite")
        self.p = p
        self.q = q

    def to_array(self) -> np.ndarray:
        return np.concatenate([self.p, self.q])


def build_mesh(cfg: StructureConfig, n1: int, n2: int, n3: int) -> Mesh:
    """Uniform mesh with n1, n2, n3 elements on the three intervals."""
    validate_config(cfg)
    for name, n in (("n1", n1), ("n2", n2), ("n3", n3)):
        if int(n) != n or n < 1:
            raise ZeroElements(f"{name} must be an integer >= 1, got {n}")
        _require_allocatable(int(n) + 1, f"a mesh of {n:.6g} elements on {name}")
    return Mesh(
        n1=int(n1),
        n2=int(n2),
        n3=int(n3),
        nodes1=np.linspace(cfg.l0, cfg.l1, int(n1) + 1),
        nodes2=np.linspace(cfg.l1, cfg.l2, int(n2) + 1),
        nodes3=np.linspace(cfg.l2, cfg.l3, int(n3) + 1),
    )


def build_dof_map(mesh: Mesh) -> DofMap:
    """Number the free DOFs in the fixed global order.

    Clamping eliminates both DOFs of beam-1 node 0 and beam-2 node n3. The
    string endpoints reuse the beam tip deflection indices, so continuity at
    the junctions is built into the space rather than constrained.
    """
    n1, n2, n3 = mesh.n1, mesh.n2, mesh.n3
    beam1 = np.full((n1 + 1, 2), -1, dtype=int)
    for j in range(1, n1 + 1):
        beam1[j, 0] = 2 * (j - 1)
        beam1[j, 1] = 2 * (j - 1) + 1

    string = np.empty(n2 + 1, dtype=int)
    string[0] = beam1[n1, 0]
    for j in range(1, n2):
        string[j] = 2 * n1 + (j - 1)

    offset = 2 * n1 + (n2 - 1)
    beam2 = np.full((n3 + 1, 2), -1, dtype=int)
    for j in range(n3):
        beam2[j, 0] = offset + 2 * j
        beam2[j, 1] = offset + 2 * j + 1
    string[n2] = beam2[0, 0]

    return DofMap(n_dofs=offset + 2 * n3, beam1=beam1, string=string, beam2=beam2)


# --- element shape functions and matrices ---------------------------------

def hermite_shapes(xi: float, h: float, deriv: int = 0) -> np.ndarray:
    """The four Hermite cubic shape functions (or x-derivatives) at xi.

    xi is the reference coordinate in [0, 1] on an element of length h; the
    DOF order is (deflection left, slope left, deflection right, slope
    right). deriv in {0, 1, 2} selects the value, d/dx, or d2/dx2.
    """
    if deriv == 0:
        return np.array([
            1.0 - 3.0 * xi**2 + 2.0 * xi**3,
            h * (xi - 2.0 * xi**2 + xi**3),
            3.0 * xi**2 - 2.0 * xi**3,
            h * (-(xi**2) + xi**3),
        ])
    if deriv == 1:
        return np.array([
            (-6.0 * xi + 6.0 * xi**2) / h,
            1.0 - 4.0 * xi + 3.0 * xi**2,
            (6.0 * xi - 6.0 * xi**2) / h,
            -2.0 * xi + 3.0 * xi**2,
        ])
    if deriv == 2:
        return np.array([
            (-6.0 + 12.0 * xi) / h**2,
            (-4.0 + 6.0 * xi) / h,
            (6.0 - 12.0 * xi) / h**2,
            (-2.0 + 6.0 * xi) / h,
        ])
    raise ValueError(f"deriv must be 0, 1 or 2, got {deriv}")


def p1_shapes(xi: float, h: float, deriv: int = 0) -> np.ndarray:
    """The two linear shape functions (or x-derivatives) at xi in [0, 1]."""
    if deriv == 0:
        return np.array([1.0 - xi, xi])
    if deriv == 1:
        return np.array([-1.0 / h, 1.0 / h])
    raise ValueError(f"deriv must be 0 or 1, got {deriv}")


_ELEMENT_KINDS = {
    # kind: (shape function, derivative order, quadrature points)
    "beam_bending": (hermite_shapes, 2, 4),
    "beam_slope": (hermite_shapes, 1, 4),
    "beam_mass": (hermite_shapes, 0, 4),
    "string_stiffness": (p1_shapes, 1, 2),
    "string_mass": (p1_shapes, 0, 2),
}

# Gauss-Legendre (points, weights) per kind, built once; leggauss is
# deterministic, so the local matrices are bitwise those of a per-call rule.
_GAUSS_RULES = {kind: leggauss(npts) for kind, (_, _, npts) in _ELEMENT_KINDS.items()}


def element_matrices(kind: str, h: float) -> np.ndarray:
    """Local Gram matrix of one element, by Gauss quadrature.

    The 4-point rule on beam elements is exact through polynomial degree 7
    (the mass integrand has degree 6); the 2-point rule on string elements
    is exact through degree 3. So every local matrix is exact up to
    roundoff. A length at which the matrix under- or overflows raises
    NonfiniteElement, and numpy prints no warning.
    """
    if kind not in _ELEMENT_KINDS:
        raise ValueError(f"unknown element kind {kind!r}")
    if not np.isfinite(h) or h <= 0:
        raise NonpositiveLength(f"element length must be finite and > 0, got {h}")
    shapes, deriv, _ = _ELEMENT_KINDS[kind]
    pts, wts = _GAUSS_RULES[kind]
    size = 4 if shapes is hermite_shapes else 2
    h = np.float64(h)  # numpy arithmetic: a Python float would raise OverflowError
    out = np.zeros((size, size))
    with np.errstate(all="ignore"):
        for t, w in zip(pts, wts):
            xi = 0.5 * (t + 1.0)
            n = shapes(xi, h, deriv)
            out += (0.5 * w * h) * np.outer(n, n)
    if not np.isfinite(out).all():
        raise NonfiniteElement(f"the {kind} matrix is not finite at element length {h:.6g}")
    return out


def _index_bandwidth(idx: np.ndarray) -> int:
    """Largest |i - j| over the unclamped global DOFs i, j of one element.

    idx is an (E, k) element index array, -1 for a clamped DOF. This is the
    half-bandwidth of every matrix assembled on idx.
    """
    hi = idx.max(axis=1)
    lo = np.where(idx >= 0, idx, hi[:, None]).min(axis=1)
    return int((hi - lo).max(initial=0))


def _scatter_band(size: int, b: int, idx: np.ndarray, local: np.ndarray) -> np.ndarray:
    """Sum element matrices into the general band (kl = ku = b) of a
    size x size matrix.

    idx is an (E, k) array holding the global DOF of each local DOF of each
    element, -1 for a clamped DOF, and b at least _index_bandwidth(idx);
    local is the (E, k, k) stack of element matrices, or one (k, k) matrix
    shared by all elements. Entry (i, j) lands in row b + i - j of column j.
    Every global entry collects at most two contributions, so the sum does
    not depend on the order in which they arrive.
    """
    local = np.broadcast_to(local, (len(idx),) + np.shape(local)[-2:])
    rows = np.broadcast_to(idx[:, :, None], local.shape)
    cols = np.broadcast_to(idx[:, None, :], local.shape)
    keep = (rows >= 0) & (cols >= 0)
    out = np.zeros((2 * b + 1, size), order="F")
    np.add.at(out, (b + rows[keep] - cols[keep], cols[keep]), local[keep])
    return out


def _element_stack(kind: str, nodes: np.ndarray, member: str) -> np.ndarray:
    """element_matrices(kind, h) for every element length h of a member.

    A linspace member has only a few distinct lengths, so each distinct h
    is integrated once and the stack indexes into those matrices. A length
    whose matrix is not finite raises NonfiniteElement naming the member.
    """
    lengths, which = np.unique(np.diff(nodes), return_inverse=True)
    try:
        return np.stack([element_matrices(kind, h) for h in lengths])[which]
    except NonfiniteElement as exc:
        raise NonfiniteElement(f"{member}: {exc}") from None


def _element_pairs(table: np.ndarray) -> np.ndarray:
    """(E, k) element index array from a per-node table: node e, then node e + 1."""
    return np.column_stack([table[:-1], table[1:]])


def assemble_pencil(cfg: StructureConfig, mesh: Mesh, dofs: DofMap) -> SystemPencil:
    """Assemble the bands of S, M and D.

    The half-bandwidth is read off the element index arrays before any
    entry is summed (3 on every mesh with two or more elements per beam).
    Every element matrix is built at its own length nodes[e + 1] - nodes[e]
    (once per distinct length), all of them before any band is summed, so
    a length whose matrices are not finite raises NonfiniteElement naming
    the member and the length. Each is scattered into its band by one
    helper (_scatter_band); each global entry collects at most two element
    contributions. The members are summed in turn, beam-1, beam-2, string,
    and a damping coefficient whose term leaves D's band not finite raises
    NonfiniteElement naming the member and the coefficient, with no numpy
    warning.
    """
    validate_config(cfg)
    n = dofs.n_dofs
    members = [(_element_pairs(table), member, coefficient,
                *(_element_stack(kind, nodes, member)
                  for kind in ("beam_bending", "beam_mass", "beam_slope")))
               for table, nodes, member, coefficient in (
                   (dofs.beam1, mesh.nodes1, "beam-1", "rho1"),
                   (dofs.beam2, mesh.nodes3, "beam-2", "rho2"))]
    stiffness, mass = (_element_stack(kind, mesh.nodes2, "string")
                       for kind in ("string_stiffness", "string_mass"))
    members.append((_element_pairs(dofs.string), "string", "beta", stiffness, mass, mass))
    b = max(_index_bandwidth(idx) for idx, *_ in members)
    S, M, D = (np.zeros((2 * b + 1, n), order="F") for _ in range(3))

    for idx, member, coefficient, stiff, inertia, damping in members:
        S += _scatter_band(n, b, idx, stiff)
        M += _scatter_band(n, b, idx, inertia)
        value = getattr(cfg, coefficient)
        with np.errstate(all="ignore"):
            D += _scatter_band(n, b, idx, value * damping)
        if not np.isfinite(D).all():
            raise NonfiniteElement(f"{member}: the damping band is not finite at "
                                   f"{coefficient} = {value:.6g}")

    return SystemPencil(S, M, D)


def discretize(cfg: StructureConfig, n1: int, n2: int, n3: int):
    """Convenience: mesh, DOF map and pencil in one call."""
    mesh = build_mesh(cfg, n1, n2, n3)
    dofs = build_dof_map(mesh)
    return mesh, dofs, assemble_pencil(cfg, mesh, dofs)


# --- initial state --------------------------------------------------------

def interpolate(cfg: StructureConfig, mesh: Mesh, dofs: DofMap) -> StateVector:
    """The plateau's nodal state: the lifted plateau, at rest.

    Beam-1 sits at ((x - l0)/len1)^2 with slope 2 ((x - l0)/len1)/len1,
    beam-2 mirrors it from l3, the string sits flat at 1 and q = 0. The
    slopes divide twice rather than by len^2, which under- or overflows on
    extreme but valid geometry. The profile is clamped and continuous by
    construction (its junction value is (l1 - l0)/len1 = 1) and lies in
    every discrete space, so the state is the same function on every mesh.
    Each entry is computed per node in Python floats: numpy's array
    square is s*s, which differs from s ** 2 in the last bit for some s.
    """
    len1, len3 = cfg.l1 - cfg.l0, cfg.l3 - cfg.l2
    p = np.ones(dofs.n_dofs)  # every DOF the beams do not set is an interior string node
    for j, x in enumerate(mesh.nodes1.tolist()):
        if dofs.beam1[j, 0] >= 0:
            s = (x - cfg.l0) / len1
            p[dofs.beam1[j]] = s ** 2, 2.0 * s / len1
    for j, x in enumerate(mesh.nodes3.tolist()):
        if dofs.beam2[j, 0] >= 0:
            s = (cfg.l3 - x) / len3
            p[dofs.beam2[j]] = s ** 2, -2.0 * s / len3
    return StateVector(p=p, q=np.zeros(dofs.n_dofs))


def nodal_field(y: StateVector, mesh: Mesh, dofs: DofMap):
    """(x, displacement, velocity) at every mesh node from l0 to l3, each
    junction once: the state's deflection DOFs, and 0 at the clamped ends."""
    x = np.concatenate([mesh.nodes1, mesh.nodes2[1:-1], mesh.nodes3])
    idx = np.concatenate([dofs.beam1[:, 0], dofs.string[1:-1], dofs.beam2[:, 0]])
    free = idx >= 0
    return x, np.where(free, y.p[idx], 0.0), np.where(free, y.q[idx], 0.0)
