import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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

