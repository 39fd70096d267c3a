import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import bsblab as bb
from bsblab import fem
from bsblab import (
    DampingCase,
    ModelError,
    StructureConfig,
    classify_damping,
)


def make(l0=0.0, l1=1.0, l2=2.0, l3=3.0, rho1=1.0, rho2=1.0, beta=1.0):
    return StructureConfig(l0, l1, l2, l3, rho1, rho2, beta)


def test_a_config_is_valid_by_construction():
    """A valid config, by construction or by dataclasses.replace, holds its
    fields as given; the invalid ones are the two tests below."""
    cfg = make(rho1=0.0, rho2=2.0, beta=1e-300)
    assert dataclasses.astuple(cfg) == (0.0, 1.0, 2.0, 3.0, 0.0, 2.0, 1e-300)
    assert dataclasses.replace(cfg, beta=0.0) == make(rho1=0.0, rho2=2.0, beta=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(l0=1.0, l1=1.0),          # zero beam length
        dict(l1=2.5, l2=2.0),          # string reversed
        dict(l3=2.0),                  # second beam reversed
        dict(l2=math.nan),
        dict(l3=math.inf),
        dict(l0=5.0),                  # whole chain out of order
    ],
)
def test_bad_ordering_rejected(kwargs):
    """By construction and by dataclasses.replace of a valid config."""
    finite = all(math.isfinite(v) for v in kwargs.values())
    message = "satisfy l0 < l1 < l2 < l3" if finite else "be finite"
    for build in (make, lambda **kw: dataclasses.replace(make(), **kw)):
        with pytest.raises(ModelError, match=f"^interval endpoints must {message}, got "):
            build(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [dict(rho1=-1.0), dict(rho2=-1e-12), dict(beta=-0.5), dict(beta=math.nan)],
)
def test_bad_damping_rejected(kwargs):
    """By construction and by dataclasses.replace of a valid config."""
    (name, value), = kwargs.items()
    for build in (make, lambda **kw: dataclasses.replace(make(), **kw)):
        with pytest.raises(ModelError, match=f"^{name} must be finite and >= 0, got {value}$"):
            build(**kwargs)


def test_ordering_allows_negative_coordinates():
    cfg = make(l0=-2.0, l1=-1.0, l2=0.5, l3=4.0)
    assert cfg.l0 == -2.0


@pytest.mark.parametrize(
    "rho1,rho2,beta,expected",
    [
        (1.0, 1.0, 1.0, DampingCase.DDD),
        (2.5, 0.1, 7.0, DampingCase.DDD),
        (0.0, 0.0, 0.5, DampingCase.UDU),
        (0.0, 0.0, 0.0, DampingCase.CONSERVATIVE),
        (1.0, 0.0, 0.0, DampingCase.OTHER),
        (0.0, 1.0, 0.0, DampingCase.OTHER),
        (1.0, 1.0, 0.0, DampingCase.OTHER),
        (0.0, 1.0, 1.0, DampingCase.OTHER),
        (1.0, 0.0, 1.0, DampingCase.OTHER),
        # classification is by exact zero, not by magnitude
        (1e-300, 1e-300, 1e-300, DampingCase.DDD),
    ],
)
def test_classification_cases(rho1, rho2, beta, expected):
    assert classify_damping(make(rho1=rho1, rho2=rho2, beta=beta)) is expected


@given(
    rho1=st.floats(0, 10, allow_nan=False),
    rho2=st.floats(0, 10, allow_nan=False),
    beta=st.floats(0, 10, allow_nan=False),
)
def test_classification_partitions_parameter_space(rho1, rho2, beta):
    case = classify_damping(make(rho1=rho1, rho2=rho2, beta=beta))
    # an independent restatement of the partition
    if rho1 > 0 and rho2 > 0 and beta > 0:
        assert case is DampingCase.DDD
    elif rho1 == 0 and rho2 == 0 and beta > 0:
        assert case is DampingCase.UDU
    elif rho1 == 0 and rho2 == 0 and beta == 0:
        assert case is DampingCase.CONSERVATIVE
    else:
        assert case is DampingCase.OTHER



def _trace(energy):
    """An energy record over [0, 2], for fit_decay."""
    times = np.linspace(0.0, 2.0, len(energy))
    return bb.EnergyTrace(times=times, energy=energy, dissipation=None, cross=None)


def _zeros(n):
    """A pencil of n positions whose S, M and D are all zero."""
    return bb.SystemPencil(*(np.zeros((3, n), order="F") for _ in range(3)))


def _lanczos_ritz_pair_fails(s):
    # dstein reports failure, which the second Lanczos iteration meets
    stein = scipy.linalg.lapack.dstein
    s.monkeypatch.setattr(scipy.linalg.lapack, "dstein", lambda *a: (stein(*a)[0], 1))
    bb.resolvent_sweep(bb.eigenvalues(s.pencil), [0.0])


def _lanczos_coefficient_overflows():
    # at lambda = 0 the solves scale by 1/|U_ii|^2, about 1e308: finite, but
    # the residual's norm overflows, and the next iteration meets beta = inf
    report = bb.SpectrumReport(np.zeros(2, complex), 0.0, schur=np.diag([1e-154, 2e-154]))
    with np.errstate(over="ignore"):
        bb.resolvent_sweep(report, [0.0])


# Every former error class and every plain ValueError of a public argument
# check, raised through the public API: (kind, message, call), the message
# whole or as a pattern. Each call takes a namespace holding the ddd config
# cfg, its pencil at n = 10, its plateau y0 and the monkeypatch fixture.
ERRORS = {
    "ordering": (bb.ModelError, "interval endpoints must satisfy l0 < l1 < l2 < l3, "
                 "got (0.0, 2.0, 1.0, 3.0)",
                 lambda s: dataclasses.replace(s.cfg, l1=2.0, l2=1.0)),
    "negative damping": (bb.ModelError, "beta must be finite and >= 0, got -1.0",
                         lambda s: dataclasses.replace(s.cfg, beta=-1.0)),
    "zero elements": (bb.ModelError, "n2 must be an integer >= 1, got 0",
                      lambda s: bb.build_mesh(s.cfg, 1, 0, 1)),
    "zero length": (bb.ModelError, "beam-1: element length must be finite and > 0, got 0.0",
                    lambda s: bb.discretize(dataclasses.replace(s.cfg, l1=1e-323), 4, 4, 4)),
    "nonfinite element": (bb.ModelError, "beam-1: the beam_bending matrix is not finite "
                          "at element length 2.5e-301",
                          lambda s: bb.discretize(dataclasses.replace(s.cfg, l1=1e-300), 4, 4, 4)),
    "nonfinite damping": (bb.ModelError, "beam-1: the damping band is not finite at "
                          "rho1 = 1e+308",
                          lambda s: bb.discretize(dataclasses.replace(s.cfg, rho1=1e308), 4, 4, 4)),
    "mesh too large": (bb.ModelError, "a mesh of 9.22337e+18 elements on n1 does not fit "
                       "in memory",
                       lambda s: bb.build_mesh(s.cfg, 2**63 - 1, 1, 1)),
    "record too large": (bb.ModelError, "the energy record of 1e+300 steps does not fit "
                         "in memory",
                         lambda s: bb.simulate(s.pencil, s.y0, 1e-300, 1.0)),
    "grid too large": (bb.ModelError, "a grid of 9.22337e+18 axis points does not fit "
                       "in memory",
                       lambda s: bb.axis_grid(-1.0, 1.0, 2**63 - 1)),
    "dimension mismatch": (bb.ModelError, "state has 2 position DOFs, pencil has 49",
                           lambda s: bb.energy(s.pencil, bb.StateVector([0.0, 0.0], [0.0, 0.0]))),
    "axis grid": (bb.ModelError, "need lambda_min < lambda_max, got [1.0, -1.0]",
                  lambda s: bb.axis_grid(1.0, -1.0, 11)),
    "axis points": (bb.ModelError, "need one or more finite axis points, got [nan]",
                    lambda s: bb.resolvent_sweep(bb.eigenvalues(s.pencil), [math.nan])),
    "nonpositive energy": (bb.ModelError, "window contains nonpositive energy values",
                           lambda s: bb.fit_decay(_trace(np.zeros(401)))),
    "window too small": (bb.ModelError, "window [0.4, 1.8] holds 7 samples, need >= 10",
                         lambda s: bb.fit_decay(_trace(np.ones(12)))),
    # the mode's digits are the eigensolver's, so only its form is pinned
    "unresolved mode": (bb.ModelError, re.compile(r"slowest mode \(\S+\+0j\) is roundoff "
                                                  r"of the spectrum's scale"),
                        lambda s: bb.certify_decay(s.cfg, bb.discretize(
                            dataclasses.replace(s.cfg, rho1=1e150), 4, 4, 4)[1])),
    "simulate dt": (bb.ModelError, "dt must be finite and > 0, got 0.0",
                    lambda s: bb.simulate(s.pencil, s.y0, 0.0, 1.0)),
    "simulate t_final": (bb.ModelError, "t_final must be finite and > 0, got inf",
                         lambda s: bb.simulate(s.pencil, s.y0, 1e-3, math.inf)),
    "simulate snapshot_every": (bb.ModelError, "snapshot_every must be >= 0, got -1",
                                lambda s: bb.simulate(s.pencil, s.y0, 1e-3, 1e-2,
                                                      snapshot_every=-1)),
    "state lengths": (bb.ModelError, "p and q must be 1-d arrays of equal length, "
                      "got (3,) and (4,)",
                      lambda s: bb.StateVector(np.ones(3), np.ones(4))),
    "state entries": (bb.ModelError, "state entries must be finite",
                      lambda s: bb.StateVector([math.nan], [0.0])),
    "element kind": (bb.ModelError, "unknown element kind 'beam_torsion'",
                     lambda s: fem.element_matrices("beam_torsion", 1.0)),
    "hermite deriv": (bb.ModelError, "deriv must be 0, 1 or 2, got 3",
                      lambda s: fem.hermite_shapes(0.5, 1.0, deriv=3)),
    "p1 deriv": (bb.ModelError, "deriv must be 0 or 1, got 2",
                 lambda s: fem.p1_shapes(0.5, 1.0, deriv=2)),
    "step factorization": (bb.NumericalError, "trapezoidal factorization failed: "
                           "dpbtrf info = 1",
                           lambda s: bb.simulate(_zeros(3), bb.StateVector(np.ones(3), np.ones(3)),
                                                 1e-3, 1e-3)),
    "spectrum factorization": (bb.NumericalError, "S admits no Cholesky factorization: "
                               "dpbstf info = 3",
                               lambda s: bb.eigenvalues(_zeros(3))),
    "lanczos coefficient": (bb.NumericalError, "non-finite Lanczos coefficient at iteration 2",
                            lambda s: _lanczos_coefficient_overflows()),
    "lanczos ritz pair": (bb.NumericalError, "largest Ritz pair of the Lanczos tridiagonal "
                          "failed (info = 1)",
                          _lanczos_ritz_pair_fails),
}


@pytest.mark.parametrize("name", list(ERRORS))
def test_each_error_is_a_model_or_a_numerical_error(name, ddd_system, monkeypatch):
    """Each check raises one of the two kinds with its own message, which
    the CLI prints after "error: " and exits 1 on."""
    kind, message, call = ERRORS[name]
    cfg, mesh, pencil = ddd_system
    pattern = message.pattern if isinstance(message, re.Pattern) else re.escape(message)
    with pytest.raises(kind, match=f"^{pattern}$"):
        call(SimpleNamespace(cfg=cfg, pencil=pencil, y0=bb.interpolate(cfg, mesh),
                             monkeypatch=monkeypatch))
