import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import bsblab as bb
from bsblab import fem

from conftest import random_state
import oracles


# --- independent element-matrix oracle ---------------------------------------
#
# The assembled element matrices come out of Gauss quadrature inside the
# package. Here the same integrals are done symbolically: the shape
# functions are written down as explicit polynomials in x on [0, h] and the
# Gram entries are evaluated through antiderivatives. No code is shared
# with the implementation.

def hermite_polys(h):
    x = Polynomial([0.0, 1.0])
    xi = x / h
    return [
        1 - 3 * xi**2 + 2 * xi**3,
        h * (xi - 2 * xi**2 + xi**3),
        3 * xi**2 - 2 * xi**3,
        h * (xi**3 - xi**2),
    ]


def p1_polys(h):
    x = Polynomial([0.0, 1.0])
    return [1 - x / h, x / h]


def poly_gram(polys, order, h):
    n = len(polys)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            pi = polys[i].deriv(order) if order else polys[i]
            pj = polys[j].deriv(order) if order else polys[j]
            anti = (pi * pj).integ()
            out[i, j] = anti(h) - anti(0.0)
    return out


_ORACLE_MAP = {
    "beam_bending": (hermite_polys, 2),
    "beam_slope": (hermite_polys, 1),
    "beam_mass": (hermite_polys, 0),
    "string_stiffness": (p1_polys, 1),
    "string_mass": (p1_polys, 0),
}


@pytest.mark.parametrize("kind", sorted(_ORACLE_MAP))
@pytest.mark.parametrize("h", [1.0, 0.7, 2.3])
def test_element_matrices_match_polynomial_oracle(kind, h):
    basis, order = _ORACLE_MAP[kind]
    expected = poly_gram(basis(h), order, h)
    got = fem.element_matrices(kind, h)
    scale = np.abs(expected).max()
    assert np.allclose(got, expected, rtol=0, atol=1e-13 * scale)


def test_element_matrices_closed_forms_at_unit_length():
    bending = np.array([
        [12.0, 6.0, -12.0, 6.0],
        [6.0, 4.0, -6.0, 2.0],
        [-12.0, -6.0, 12.0, -6.0],
        [6.0, 2.0, -6.0, 4.0],
    ])
    slope = np.array([
        [36.0, 3.0, -36.0, 3.0],
        [3.0, 4.0, -3.0, -1.0],
        [-36.0, -3.0, 36.0, -3.0],
        [3.0, -1.0, -3.0, 4.0],
    ]) / 30.0
    mass = np.array([
        [156.0, 22.0, 54.0, -13.0],
        [22.0, 4.0, 13.0, -3.0],
        [54.0, 13.0, 156.0, -22.0],
        [-13.0, -3.0, -22.0, 4.0],
    ]) / 420.0
    assert np.allclose(fem.element_matrices("beam_bending", 1.0), bending, atol=1e-13)
    assert np.allclose(fem.element_matrices("beam_slope", 1.0), slope, atol=1e-15)
    assert np.allclose(fem.element_matrices("beam_mass", 1.0), mass, atol=1e-16)
    assert np.allclose(
        fem.element_matrices("string_stiffness", 1.0),
        [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15,
    )
    assert np.allclose(
        fem.element_matrices("string_mass", 1.0),
        np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0, atol=1e-16,
    )


def test_element_matrices_bad_inputs():
    with pytest.raises(ValueError):
        fem.element_matrices("beam_torsion", 1.0)
    with pytest.raises(fem.NonpositiveLength):
        fem.element_matrices("beam_mass", 0.0)
    with pytest.raises(fem.NonpositiveLength):
        fem.element_matrices("string_mass", -1.0)


@pytest.mark.filterwarnings("error")
def test_element_matrices_that_under_or_overflow_raise_nonfinite_element():
    """Bending entries scale as h^-3 and beam mass entries down to h^3, so
    extreme but valid lengths give matrices that are not finite; each is
    one NonfiniteElement naming the kind and the length, with no numpy
    warning, for a Python float length too."""
    for kind, h in (("beam_bending", 2.5e-301), ("beam_mass", 2.5e299), ("beam_mass", 1e300)):
        with pytest.raises(fem.NonfiniteElement, match=re.escape(f"{kind} matrix is not finite at element length {h:.6g}")):
            fem.element_matrices(kind, h)
    assert np.isfinite(fem.element_matrices("string_mass", 2.5e-301)).all()


def test_hermite_shapes_interpolation_property():
    # at the endpoints each shape function owns exactly one DOF
    h = 0.8
    left = fem.hermite_shapes(0.0, h)
    right = fem.hermite_shapes(1.0, h)
    dleft = fem.hermite_shapes(0.0, h, deriv=1)
    dright = fem.hermite_shapes(1.0, h, deriv=1)
    assert np.allclose(left, [1, 0, 0, 0], atol=1e-15)
    assert np.allclose(right, [0, 0, 1, 0], atol=1e-15)
    assert np.allclose(dleft, [0, 1, 0, 0], atol=1e-15)
    assert np.allclose(dright, [0, 0, 0, 1], atol=1e-15)
    assert np.allclose(fem.p1_shapes(0.0, h), [1, 0], atol=1e-15)
    assert np.allclose(fem.p1_shapes(1.0, h), [0, 1], atol=1e-15)


# --- mesh and DOF layout ------------------------------------------------------

def test_build_mesh_nodes(ddd_cfg):
    mesh = fem.build_mesh(ddd_cfg, 4, 5, 6)
    assert mesh.nodes1.shape == (5,)
    assert mesh.nodes2.shape == (6,)
    assert mesh.nodes3.shape == (7,)
    assert mesh.nodes1[0] == ddd_cfg.l0 and mesh.nodes1[-1] == ddd_cfg.l1
    assert mesh.nodes2[0] == ddd_cfg.l1 and mesh.nodes2[-1] == ddd_cfg.l2
    assert mesh.nodes3[0] == ddd_cfg.l2 and mesh.nodes3[-1] == ddd_cfg.l3
    with pytest.raises(fem.ZeroElements):
        fem.build_mesh(ddd_cfg, 0, 5, 6)


def test_dof_map_minimal_mesh(ddd_cfg):
    # one element per member: 2 + 0 + 2 unknowns
    mesh = fem.build_mesh(ddd_cfg, 1, 1, 1)
    dofs = fem.build_dof_map(mesh)
    assert dofs.n_dofs == 4
    assert tuple(dofs.beam1[0]) == (-1, -1)          # clamped
    assert tuple(dofs.beam1[1]) == (0, 1)            # free tip
    assert dofs.string[0] == 0                       # shares the tip deflection
    assert dofs.string[1] == 2                       # shares the other tip
    assert tuple(dofs.beam2[0]) == (2, 3)
    assert tuple(dofs.beam2[1]) == (-1, -1)          # clamped


@given(
    n1=st.integers(1, 5),
    n2=st.integers(1, 5),
    n3=st.integers(1, 5),
)
def test_dof_map_is_a_bijection(ddd_cfg, n1, n2, n3):
    mesh = fem.build_mesh(ddd_cfg, n1, n2, n3)
    dofs = fem.build_dof_map(mesh)
    assert dofs.n_dofs == 2 * n1 + (n2 - 1) + 2 * n3

    seen = list(dofs.beam1[dofs.beam1 >= 0].ravel())
    seen += list(dofs.string[1:-1])
    seen += list(dofs.beam2[dofs.beam2 >= 0].ravel())
    # junction DOFs are aliases of beam tip deflections, not new unknowns
    assert dofs.string[0] == dofs.beam1[n1, 0]
    assert dofs.string[n2] == dofs.beam2[0, 0]
    assert sorted(seen) == list(range(dofs.n_dofs))


# --- assembled pencil properties ---------------------------------------------

def test_gram_matrices_are_spd(ddd_system):
    _, _, _, pencil = ddd_system
    S, M, D = oracles.matrices(pencil)
    for mat in (S, M):
        assert np.array_equal(mat, mat.T)
        scipy.linalg.cholesky(mat)  # raises if not positive definite
    # damping matrix is symmetric positive semidefinite
    assert np.array_equal(D, D.T)
    assert scipy.linalg.eigvalsh(D).min() >= -1e-12


def test_damping_matrix_vanishes_without_damping(cons_system):
    _, _, _, pencil = cons_system
    assert np.all(pencil.d_band == 0.0)


def loop_assembly(size, elements):
    """S, M, D summed element by element, each (indices, S_e, M_e, D_e) in turn."""
    out = [np.zeros((size, size)) for _ in range(3)]
    for idx, *locals_ in elements:
        idx = np.asarray(idx)
        keep = idx >= 0
        for matrix, local in zip(out, locals_):
            matrix[np.ix_(idx[keep], idx[keep])] += local[np.ix_(keep, keep)]
    return out


def assert_bitwise(pencil, expected):
    for name, got, want in zip("SMD", oracles.matrices(pencil), expected):
        assert np.array_equal(got, want), name
        assert got.tobytes() == want.tobytes(), name  # also tells 0.0 from -0.0


def coupled_elements(cfg, mesh, dofs):
    """(indices, S_e, M_e, D_e) for every element, beams first, then the string."""
    em = fem.element_matrices
    elements = []
    for table, nodes, rho in ((dofs.beam1, mesh.nodes1, cfg.rho1),
                              (dofs.beam2, mesh.nodes3, cfg.rho2)):
        for e in range(len(nodes) - 1):
            h = nodes[e + 1] - nodes[e]
            elements.append((np.concatenate([table[e], table[e + 1]]), em("beam_bending", h),
                             em("beam_mass", h), rho * em("beam_slope", h)))
    for e in range(mesh.n2):
        h = mesh.nodes2[e + 1] - mesh.nodes2[e]
        mass = em("string_mass", h)
        elements.append(([dofs.string[e], dofs.string[e + 1]], em("string_stiffness", h),
                         mass, cfg.beta * mass))
    return elements


def test_assembly_matches_a_per_element_loop(ddd_cfg, udu_cfg):
    for cfg in (ddd_cfg, udu_cfg):
        for counts in ((7, 6, 5), (3, 1, 2), (1, 1, 1)):
            mesh = fem.build_mesh(cfg, *counts)
            dofs = fem.build_dof_map(mesh)
            expected = loop_assembly(dofs.n_dofs, coupled_elements(cfg, mesh, dofs))
            assert_bitwise(fem.assemble_pencil(cfg, mesh, dofs), expected)

    h = 2.0 / 8
    stiff, mass = fem.element_matrices("string_stiffness", h), fem.element_matrices("string_mass", h)
    ends = [-1, *range(7), -1]
    elements = [((ends[e], ends[e + 1]), stiff, mass, 0.5 * mass) for e in range(8)]
    assert_bitwise(oracles.assemble_string_pencil(2.0, 0.5, 8), loop_assembly(7, elements))

    h = 1.5 / 6
    local = [fem.element_matrices(kind, h) for kind in ("beam_bending", "beam_mass", "beam_slope")]
    local[2] = 0.3 * local[2]
    node = [(-1, -1)] + [(2 * j, 2 * j + 1) for j in range(6)]
    elements = [((*node[e], *node[e + 1]), *local) for e in range(6)]
    assert_bitwise(oracles.assemble_beam_pencil(1.5, 6, rho=0.3), loop_assembly(12, elements))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dissipativity_identity(ddd_system, seed):
    """d/dt E = -q' D q along the exact flow, for any (complex) state.

    y' solves B y' = K y; the energy derivative Re(p* S p' + q* M q') must
    equal the dissipation functional exactly, whatever the state.
    """
    _, _, _, pencil = ddd_system
    y = random_state(pencil, seed, complex_valued=True)
    B, K = oracles.first_order(pencil)
    S, M, _ = oracles.matrices(pencil)
    n = pencil.n_positions
    yd = np.linalg.solve(B.astype(complex), K @ y.to_array())
    de = np.vdot(y.p, S @ yd[:n]).real + np.vdot(y.q, M @ yd[n:]).real
    expected = bb.dissipation(pencil, y)
    scale = max(bb.energy(pencil, y), 1.0)
    assert abs(de - expected) <= 1e-10 * scale


# --- the initial state and evaluation -----------------------------------------

def _plateau_reference(cfg, mesh, dofs):
    """The plateau's nodal state from its formulas, node by node in Python
    floats; NaN where no node writes."""
    len1, len3 = cfg.l1 - cfg.l0, cfg.l3 - cfg.l2
    want = np.full(dofs.n_dofs, np.nan)
    for (value, slope), x in zip(dofs.beam1[1:], mesh.nodes1[1:].tolist()):
        s = (x - cfg.l0) / len1
        want[value], want[slope] = s ** 2, 2.0 * s / len1
    for (value, slope), x in zip(dofs.beam2[:-1], mesh.nodes3[:-1].tolist()):
        s = (cfg.l3 - x) / len3
        want[value], want[slope] = s ** 2, -2.0 * s / len3
    want[dofs.string[1:-1]] = 1.0
    return want


def test_the_initial_state_is_the_plateau_at_rest():
    """interpolate writes the lifted plateau at rest on DDD configs (unit
    and uneven intervals), at two meshes each: every free beam DOF holds
    the profile's value or slope at its node (beam-2 mirrored), every
    interior string DOF is 1, the clamped DOFs have no index, and q = 0.
    The state is bitwise the reference built from the formulas in Python
    floats. At 41 elements a beam-1 node of the unit config and a beam-2
    node of the uneven one have s * s one ulp from s ** 2."""
    for geometry in ((0.0, 1.0, 2.0, 3.0), (-1.0, 0.5, 4.0, 9.0)):
        cfg = bb.validate_config(bb.StructureConfig(*geometry, 1.0, 1.0, 1.0))
        len1, len3 = cfg.l1 - cfg.l0, cfg.l3 - cfg.l2
        for n1, n2, n3 in ((3, 4, 5), (41, 121, 41)):
            mesh, dofs, _ = fem.discretize(cfg, n1, n2, n3)
            y = fem.interpolate(cfg, mesh, dofs)
            assert np.all(dofs.beam1[0] == -1) and np.all(dofs.beam2[-1] == -1)
            assert dofs.n_dofs == 2 * n1 + (n2 - 1) + 2 * n3
            for table, dist, length, sign in (
                    (dofs.beam1, mesh.nodes1 - cfg.l0, len1, 1.0),
                    (dofs.beam2, cfg.l3 - mesh.nodes3, len3, -1.0)):
                free = table[:, 0] >= 0
                assert y.p[table[free, 0]] == pytest.approx((dist[free] / length) ** 2,
                                                            rel=1e-14)
                assert y.p[table[free, 1]] == pytest.approx(
                    sign * 2 * dist[free] / length**2, rel=1e-14, abs=1e-14)
            assert np.all(y.p[dofs.string[1:-1]] == 1.0)
            assert np.all(y.q == 0.0)
            want = _plateau_reference(cfg, mesh, dofs)
            assert not np.isnan(want).any()
            assert np.array_equal(y.p, want)


def test_plateau_interpolant_is_continuous_at_junctions(ddd_system):
    cfg, mesh, dofs, _ = ddd_system
    y = fem.interpolate(cfg, mesh, dofs)
    x, disp, _ = fem.nodal_field(y, mesh, dofs)
    # one node per junction, where the beam tip meets the string's plateau
    assert list(x).count(cfg.l1) == list(x).count(cfg.l2) == 1
    string = (x >= cfg.l1) & (x <= cfg.l2)
    assert disp[string] == pytest.approx(np.ones(mesh.n2 + 1), abs=1e-12)


@pytest.mark.parametrize("n", [10, 40, 160])
def test_plateau_energy_is_the_same_on_the_refined_mesh(ddd_cfg, n):
    """The plateau interpolants on the n and 2n meshes are the same function,
    so their energies differ by rounding alone. That grows like eps/h^3
    through the bending entries (1e-9 at n = 40, 3e-7 at n = 160), while a
    nesting bug shows at 1e-3 or worse."""
    energies = []
    for m in (n, 2 * n):
        mesh, dofs, pencil = fem.discretize(ddd_cfg, m, m, m)
        energies.append(bb.energy(pencil, fem.interpolate(ddd_cfg, mesh, dofs)))
    coarse, fine = energies
    assert abs(fine - coarse) <= 1e-6 * abs(coarse)


def test_state_vector_round_trip():
    p = np.array([1.0, 2.0])
    q = np.array([3.0, 4.0])
    y = bb.StateVector(p, q)
    assert np.array_equal(y.to_array(), np.concatenate([p, q]))
    with pytest.raises(ValueError):
        bb.StateVector(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        bb.StateVector(np.array([np.nan]), np.ones(1))


# --- single-member assemblies --------------------------------------------------

def test_string_pencil_shapes_and_regime():
    pencil = oracles.assemble_string_pencil(2.0, 0.5, 8)
    assert pencil.n_positions == 7
    # beta > 0 damps the string, beta = 0 leaves D = 0
    assert pencil.d_band.any()
    undamped = oracles.assemble_string_pencil(2.0, 0.0, 8)
    assert np.all(undamped.d_band == 0.0)
    with pytest.raises(fem.ZeroElements):
        oracles.assemble_string_pencil(2.0, 0.5, 1)
    with pytest.raises(fem.NonpositiveLength):
        oracles.assemble_string_pencil(0.0, 0.5, 8)


def test_beam_pencil_shapes_and_regime():
    pencil = oracles.assemble_beam_pencil(1.5, 6)
    assert pencil.n_positions == 12
    assert not pencil.d_band.any()
    damped = oracles.assemble_beam_pencil(1.5, 6, rho=0.3)
    assert scipy.linalg.eigvalsh(oracles.dense(damped.d_band)).min() >= -1e-12
    with pytest.raises(fem.ZeroElements):
        oracles.assemble_beam_pencil(1.5, 0)


def test_string_pencil_matches_hand_assembly():
    # uniform pinned string: S tridiagonal (2, -1)/h, M tridiagonal (4, 1) h/6
    n, length, beta = 5, 1.0, 0.7
    h = length / n
    pencil = oracles.assemble_string_pencil(length, beta, n)
    expected_s = (np.diag([2.0] * 4) + np.diag([-1.0] * 3, 1) + np.diag([-1.0] * 3, -1)) / h
    expected_m = (np.diag([4.0] * 4) + np.diag([1.0] * 3, 1) + np.diag([1.0] * 3, -1)) * h / 6
    S, M, D = oracles.matrices(pencil)
    assert np.allclose(S, expected_s, atol=1e-13)
    assert np.allclose(M, expected_m, atol=1e-15)
    assert np.allclose(D, beta * expected_m, atol=1e-15)


# --- banded assembly against the dense scatter it replaced --------------------

def dense_scatter(size, idx, local):
    """Sum element matrices into a dense size x size matrix: the assembly
    reference. idx is an (E, k) global DOF array, -1 for a clamped DOF."""
    local = np.broadcast_to(local, (len(idx),) + np.shape(local)[-2:])
    rows = np.broadcast_to(idx[:, :, None], local.shape)
    cols = np.broadcast_to(idx[:, None, :], local.shape)
    keep = (rows >= 0) & (cols >= 0)
    out = np.zeros((size, size))
    np.add.at(out, (rows[keep], cols[keep]), local[keep])
    return out


def dense_coupled_reference(cfg, mesh, dofs):
    """S, M, D of the coupled mesh summed densely, member by member."""
    n = dofs.n_dofs
    S, M, D = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    for table, nodes, rho in ((dofs.beam1, mesh.nodes1, cfg.rho1),
                              (dofs.beam2, mesh.nodes3, cfg.rho2)):
        idx = fem._element_pairs(table)
        S += dense_scatter(n, idx, fem._element_stack("beam_bending", nodes, "beam"))
        M += dense_scatter(n, idx, fem._element_stack("beam_mass", nodes, "beam"))
        D += dense_scatter(n, idx, rho * fem._element_stack("beam_slope", nodes, "beam"))
    idx = fem._element_pairs(dofs.string)
    mass = fem._element_stack("string_mass", mesh.nodes2, "string")
    S += dense_scatter(n, idx, fem._element_stack("string_stiffness", mesh.nodes2, "string"))
    M += dense_scatter(n, idx, mass)
    D += dense_scatter(n, idx, cfg.beta * mass)
    return S, M, D


def dense_member_references(length=1.5, n=10, beta=0.7, rho=0.3):
    """(pencil, reference S, M, D, bandwidth) for the isolated string and beam."""
    h = length / n
    idx = fem._element_pairs(np.concatenate([[-1], np.arange(n - 1), [-1]]))
    m = dense_scatter(n - 1, idx, fem.element_matrices("string_mass", h))
    yield (oracles.assemble_string_pencil(length, beta, n),
           dense_scatter(n - 1, idx, fem.element_matrices("string_stiffness", h)),
           m, beta * m, 1)
    table = np.full((n + 1, 2), -1, dtype=int)
    table[1:] = np.arange(2 * n).reshape(n, 2)
    idx = fem._element_pairs(table)
    yield (oracles.assemble_beam_pencil(length, n, rho),
           dense_scatter(2 * n, idx, fem.element_matrices("beam_bending", h)),
           dense_scatter(2 * n, idx, fem.element_matrices("beam_mass", h)),
           dense_scatter(2 * n, idx, rho * fem.element_matrices("beam_slope", h)), 3)


def assert_bands_are_the_dense_matrices(pencil, ref, b):
    """Bitwise: the stored bands are the band of each dense reference, and
    oracles.dense rebuilds the reference from them."""
    assert pencil.bandwidth == b
    for band, dense, matrix in zip((pencil.s_band, pencil.m_band, pencil.d_band),
                                   oracles.matrices(pencil), ref):
        assert band.flags.f_contiguous and band.shape == (2 * b + 1, matrix.shape[0])
        assert band.tobytes(order="F") == oracles.band(matrix, b).tobytes(order="F")
        assert dense.tobytes() == matrix.tobytes()


def test_dense_view_is_the_exact_inverse_of_band(ddd_system, udu_system, cons_system):
    """oracles.dense reads back, bitwise, every band that oracles.band
    writes, from the assembled pencils and from hand-made dense ones; the
    dense references of the tests share no code with the package."""
    full = np.random.default_rng(3).standard_normal((5, 5))
    pencils = [system[3] for system in (ddd_system, udu_system, cons_system)]
    # a full S and an unsymmetric D, so a transposed read shows too
    pencils.append(oracles.pencil_from_dense(S=full + full.T, M=np.eye(5), D=np.triu(full, 2)))
    pencils.append(oracles.pencil_from_dense(S=np.diag([2.0, 3.0]), M=np.eye(2), D=np.zeros((2, 2))))
    for pencil in pencils:
        for ab in (pencil.s_band, pencil.m_band, pencil.d_band):
            again = oracles.band(oracles.dense(ab), pencil.bandwidth)
            assert again.dtype == ab.dtype and again.shape == ab.shape
            assert again.tobytes(order="F") == ab.tobytes(order="F")


@pytest.mark.parametrize("n", [3, 10, 40])
def test_banded_assembly_equals_the_dense_scatter_bitwise(ddd_cfg, udu_cfg, cons_cfg, n):
    for cfg in (ddd_cfg, udu_cfg, cons_cfg):
        mesh, dofs, pencil = fem.discretize(cfg, n, n, n)
        ref = dense_coupled_reference(cfg, mesh, dofs)
        assert oracles.half_bandwidth(*ref) == 3
        assert_bands_are_the_dense_matrices(pencil, ref, 3)
        # exact symmetry, read off the bands: A[j, j + k] sits in row b - k
        # of column j + k and A[j + k, j] in row b + k of column j
        for band in (pencil.s_band, pencil.m_band, pencil.d_band):
            for k in range(1, 4):
                assert np.array_equal(band[3 - k, k:], band[3 + k, :pencil.n_positions - k])
    for pencil, *ref, b in dense_member_references(n=n):
        assert oracles.half_bandwidth(*ref) == b
        assert_bands_are_the_dense_matrices(pencil, ref, b)
