"""The exact family oracles of ``family_oracles`` against its 2^N reference.

Each oracle that scales to any N is checked, at every N <= 8 where it
holds, against the full state vector evolved by an eigendecomposition of
the full Hamiltonian; the module itself must not import ``qubitpair``.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import family_oracles as fo

#: Agreement required of an oracle with the 2^N reference.
REFERENCE_TOLERANCE = 1e-14

CHI_TS = (0.001, 0.05, 0.3, 0.9, np.pi / 3, np.pi / 2, 1.2, 2.2, 3.0)


def test_imports_numpy_and_the_standard_library_only():
    tree = ast.parse(Path(fo.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported - {"numpy"} <= set(sys.stdlib_module_names), imported


@pytest.mark.parametrize("n", range(2, fo.REFERENCE_MAX_QUBITS + 1))
def test_dicke_pair_matches_reference(n):
    for two_m in range(-n, n + 1, 2):
        reference = fo.reduced_pair(fo.reference_dicke(n, two_m / 2.0))
        assert np.max(np.abs(fo.dicke_pair(n, two_m / 2.0) - reference)) <= REFERENCE_TOLERANCE


@pytest.mark.parametrize("n", range(2, fo.REFERENCE_MAX_QUBITS + 1))
def test_oat_pairs_match_reference(n):
    for rho, chi_t in zip(fo.oat_pairs(n, CHI_TS), CHI_TS):
        reference = fo.reduced_pair(fo.reference_oat(n, chi_t))
        assert np.max(np.abs(rho - reference)) <= REFERENCE_TOLERANCE, chi_t


@pytest.mark.parametrize("n", range(4, fo.REFERENCE_MAX_QUBITS + 1))
def test_ising_nearest_pair_matches_every_ring_pair(n):
    for chi_t in CHI_TS:
        psi = fo.reference_chain(n, chi_t)
        for i in range(n):
            reference = fo.reduced_pair(psi, i, (i + 1) % n)
            assert np.max(np.abs(fo.ising_nearest_pair(chi_t) - reference)) <= REFERENCE_TOLERANCE


@pytest.mark.parametrize("n", range(3, fo.REFERENCE_MAX_QUBITS + 1))
def test_ising_end_pair_matches_open_chain(n):
    for chi_t in CHI_TS:
        reference = fo.reduced_pair(fo.reference_chain(n, chi_t, ring=False))
        assert np.max(np.abs(fo.ising_end_pair(chi_t) - reference)) <= REFERENCE_TOLERANCE


@pytest.mark.parametrize("n", range(5, fo.REFERENCE_MAX_QUBITS + 1))
def test_ising_ring_average_matches_reference(n):
    for chi_t in CHI_TS:
        reference = fo.reference_ring_average(fo.reference_chain(n, chi_t))
        assert np.max(np.abs(fo.ising_ring_average(n, chi_t) - reference)) <= REFERENCE_TOLERANCE


def test_ring_average_refuses_n_below_five():
    with pytest.raises(ValueError, match="N >= 5"):
        fo.ising_ring_average(4, 0.7)


def test_reference_refuses_n_above_eight():
    with pytest.raises(ValueError, match="N <= 8"):
        fo.reference_chain(fo.REFERENCE_MAX_QUBITS + 1, 0.7)


def test_n2_oat_state_vector():
    # Hand derivation from Sx^2 = (1 + sigma_x sigma_x) / 2:
    # exp(-i chi t Sx^2)|11> = e^(-i chi t / 2) (cos(chi t / 2)|11> - i sin(chi t / 2)|00>).
    chi_t = 0.8
    psi = np.zeros(4, dtype=complex)
    psi[3], psi[0] = np.cos(chi_t / 2.0), -1j * np.sin(chi_t / 2.0)
    expected = np.outer(psi, psi.conj())
    assert np.max(np.abs(fo.oat_pairs(2, [chi_t])[0] - expected)) <= REFERENCE_TOLERANCE
    assert np.max(np.abs(fo.reduced_pair(fo.reference_oat(2, chi_t)) - expected)) <= 1e-15

