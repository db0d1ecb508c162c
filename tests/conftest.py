"""Session-scoped pipeline fixtures shared across the test modules.

Construction is deterministic, so building each stage once per session
is safe; tests that need to re-time a stage rebuild it locally.
"""

import pytest

from conics800 import census, golay, leech, ns
from conics800.lattices import IntegralLattice


@pytest.fixture(scope="session")
def code_frame():
    return golay.normalize_frame(golay.build_golay())


@pytest.fixture(scope="session")
def code(code_frame):
    return code_frame[0]


@pytest.fixture(scope="session")
def frame(code_frame):
    return code_frame[1]


@pytest.fixture(scope="session")
def vectors(code):
    return leech.all_minimal_vectors(code)


@pytest.fixture(scope="session")
def basis(vectors):
    return leech.extract_basis(vectors)


@pytest.fixture(scope="session")
def lam(basis):
    return IntegralLattice(basis, ambient_scale=8)


@pytest.fixture(scope="session")
def conics(vectors):
    return census.find_conics(vectors)


@pytest.fixture(scope="session")
def records(conics, code):
    return census.classify_all(conics, code)


@pytest.fixture(scope="session")
def products_hist(conics):
    return census.intersection_data(conics)


@pytest.fixture(scope="session")
def true_products(products_hist):
    return products_hist[0]


@pytest.fixture(scope="session")
def s_lattice(lam):
    return ns.build_S(lam)


@pytest.fixture(scope="session")
def n_lattice(s_lattice, conics):
    return ns.build_N(s_lattice, conics)
