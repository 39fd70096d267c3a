import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsblab import (
    DampingCase,
    NegativeDamping,
    OrderingViolation,
    StructureConfig,
    classify_damping,
    validate_config,
)


def make(l0=0.0, l1=1.0, l2=2.0, l3=3.0, rho1=1.0, rho2=1.0, beta=1.0):
    return StructureConfig(l0, l1, l2, l3, rho1, rho2, beta)


def test_validate_returns_the_config_unchanged():
    cfg = make()
    assert validate_config(cfg) is cfg
    # validation is idempotent
    assert validate_config(validate_config(cfg)) is cfg


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
    with pytest.raises(OrderingViolation):
        validate_config(make(**kwargs))


@pytest.mark.parametrize(
    "kwargs",
    [dict(rho1=-1.0), dict(rho2=-1e-12), dict(beta=-0.5), dict(beta=math.nan)],
)
def test_bad_damping_rejected(kwargs):
    with pytest.raises(NegativeDamping):
        validate_config(make(**kwargs))


def test_ordering_allows_negative_coordinates():
    cfg = validate_config(make(l0=-2.0, l1=-1.0, l2=0.5, l3=4.0))
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

