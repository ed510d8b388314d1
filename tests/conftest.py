import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis keeps its example database and constants cache under its home
# directory, by default ./.hypothesis; a temporary one keeps the tests from
# writing into the directory they run from.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="qubitpair-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def symmetric_forms():
    """The Bloch forms of 60 seeded triplet-supported states."""
    from qubitpair.sampling import random_symmetric_density_matrix
    from qubitpair.states import bloch_decompose

    rng = np.random.default_rng(1)
    return [bloch_decompose(random_symmetric_density_matrix(rng)) for _ in range(60)]


@pytest.fixture
def bell_symmetric():
    """Projector onto (|01> + |10>) / sqrt(2)."""
    psi = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


@pytest.fixture
def singlet_state():
    """Projector onto (|01> - |10>) / sqrt(2)."""
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


@pytest.fixture
def ket00():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    return rho


@pytest.fixture
def maximally_mixed():
    return np.eye(4, dtype=complex) / 4.0

