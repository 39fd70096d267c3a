import numpy as np
import pytest

import bsblab as bb


@pytest.fixture(scope="session")
def ddd_cfg():
    return bb.StructureConfig(0.0, 1.0, 2.0, 3.0, 1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def udu_cfg():
    return bb.StructureConfig(0.0, 1.0, 2.0, 3.0, 0.0, 0.0, 0.5)


@pytest.fixture(scope="session")
def cons_cfg():
    return bb.StructureConfig(0.0, 1.0, 2.0, 3.0, 0.0, 0.0, 0.0)


@pytest.fixture(scope="session")
def ddd_system(ddd_cfg):
    mesh, pencil = bb.discretize(ddd_cfg, 10, 10, 10)
    return ddd_cfg, mesh, pencil


@pytest.fixture(scope="session")
def udu_system(udu_cfg):
    mesh, pencil = bb.discretize(udu_cfg, 10, 10, 10)
    return udu_cfg, mesh, pencil


@pytest.fixture(scope="session")
def cons_system(cons_cfg):
    mesh, pencil = bb.discretize(cons_cfg, 10, 10, 10)
    return cons_cfg, mesh, pencil


def random_state(pencil, seed, complex_valued=False):
    """Seeded random state with entries in [-1, 1), for invariant checks."""
    rng = np.random.default_rng(seed)
    n = pencil.n_positions
    if complex_valued:
        p = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        q = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    else:
        p = rng.uniform(-1, 1, n)
        q = rng.uniform(-1, 1, n)
    return bb.StateVector(p, q)
