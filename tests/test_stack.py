"""The stacked core against the scalar one.

``sweep`` evaluates its grid with ``evidence_stack`` (one PT solve, one
Pauli decomposition and one invariant contraction per stack), and the
self-test's invariance suite evaluates its draws with the same Pauli
decomposition and contraction; single states go through ``evidence``.
The two must give the same numbers bit for bit, including the sign of
zero, and refuse the same rows with the same error.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitpair import cli, selftest
from qubitpair.errors import InvalidDensityMatrix
from qubitpair.invariants import makhlin_all, makhlin_stack
from qubitpair.models import dicke_pair, ising_pair, oat_pair
from qubitpair.sampling import random_density_matrix, random_symmetric_density_matrix
from qubitpair.separability import (
    CRITERIA,
    SeparableEnsemble,
    evidence,
    evidence_stack,
    ppt_check,
)
from qubitpair.qmat import haar_su2
from qubitpair.states import XForm, apply_local_unitary, bloch_decompose, bloch_decompose_stack
from qubitpair.stateio import read_state_file
from qubitpair.tolerances import INVARIANCE_ABS, INVARIANCE_REL

STACK_SIZE = 600


def assert_bits_equal(got, want):
    """Equal values and equal sign bits (so -0.0 differs from 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def dense_states(rng, k):
    return np.array([random_density_matrix(rng) for _ in range(k)])


def separable_symmetric_states(rng, k):
    """Mixtures of pure product states |psi psi>: separable and triplet-supported."""
    states = []
    for _ in range(k):
        n = int(rng.integers(1, 6))
        directions = rng.normal(size=(n, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        weights = rng.exponential(size=n)
        states.append(SeparableEnsemble(weights / weights.sum(), directions).to_state())
    return np.array(states)


def symmetric_states(rng, k):
    """Dense triplet-supported states, mostly entangled."""
    return np.array([random_symmetric_density_matrix(rng) for _ in range(k)])


def family_states():
    """The three family grids, with points on the I4 = 0 and PT = 0 boundaries."""
    pairs = []
    for n in range(2, 41, 3):
        for chi_t in np.linspace(0.0, 2.0 * np.pi, 25):
            pairs.append(oat_pair(n, float(chi_t)))
            pairs.append(oat_pair(n, float(chi_t), paper_literal=True))
            if n >= 3:
                pairs.append(ising_pair(n, float(chi_t)))
    for n in range(2, 31, 2):
        for m in range(-n // 2, n // 2 + 1):
            pairs.append(dicke_pair(n, float(m)))
    return np.array([x.to_matrix() for x in pairs])


def assert_stack_is_scalar_evidence(rhos):
    ev = evidence_stack(rhos)
    scalar = [evidence(rho) for rho in rhos]
    assert_bits_equal(ev.invariants, [c.invariants.as_array() for c in scalar])
    assert_bits_equal(ev.ppt_min_eigenvalue, [ppt_check(rho).min_eig for rho in rhos])
    assert_bits_equal(ev.i12_minus_i4sq, [c.six.i12 - c.six.i4 ** 2 for c in scalar])
    assert ev.criteria.tolist() == [[name in c.criteria_fired for name in CRITERIA]
                                    for c in scalar]
    assert ev.i4_zero_fallback.tolist() == [c.i4_zero_fallback_used for c in scalar]
    assert ev.separable.tolist() == [c.verdict == "Separable" for c in scalar]


class TestDecompositionAndInvariants:
    @pytest.mark.parametrize("k", [1, STACK_SIZE])
    def test_dense_states(self, rng, k):
        rhos = dense_states(rng, k)
        s, r, t, valid = bloch_decompose_stack(rhos)
        assert valid.all()
        forms = [bloch_decompose(rho) for rho in rhos]
        assert_bits_equal(s, [f.s for f in forms])
        assert_bits_equal(r, [f.r for f in forms])
        assert_bits_equal(t, [f.t for f in forms])
        assert_bits_equal(makhlin_stack(s, r, t), [makhlin_all(f).as_array() for f in forms])


class TestEvidenceStack:
    @pytest.mark.parametrize("k", [1, STACK_SIZE])
    def test_separable_symmetric_states(self, rng, k):
        assert_stack_is_scalar_evidence(separable_symmetric_states(rng, k))

    @pytest.mark.parametrize("k", [1, STACK_SIZE])
    def test_dense_symmetric_states(self, rng, k):
        assert_stack_is_scalar_evidence(symmetric_states(rng, k))

    def test_family_grids(self):
        rhos = family_states()
        assert len(rhos) >= STACK_SIZE
        ev = evidence_stack(rhos)
        # The grids reach the fallback, both verdicts and every criterion.
        assert ev.i4_zero_fallback.any() and ev.separable.any() and not ev.separable.all()
        assert ev.criteria.any(axis=0).all()
        assert_stack_is_scalar_evidence(rhos)

    def test_i4_is_squared_as_the_scalar_path_squares_it(self, rng):
        """Python's ``float ** 2`` and numpy's square differ in the last bit
        on about 1 value in 1000; ``I12 - I4^2`` must follow the former."""
        rhos = symmetric_states(rng, 5000)
        inv = evidence_stack(rhos).invariants
        i4, i12 = inv[:, 3], inv[:, 11]
        differs = (i12 - np.array([v ** 2 for v in i4.tolist()])) != (i12 - i4 * i4)
        assert differs.any()
        assert_stack_is_scalar_evidence(rhos[differs])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi),
    ), min_size=1, max_size=12))
    def test_random_x_states(self, draws):
        rhos = []
        for wa, wd, wc, radius, phase in draws:
            total = wa + wd + wc
            if total == 0.0:
                continue
            a, d, c = wa / total, wd / total, wc / total / 2.0
            b = np.sqrt(a * d) * radius * np.exp(1j * phase)
            rhos.append(XForm(a=a, b=b, c=c, d=1.0 - a - 2.0 * c).to_matrix())
        if rhos:
            assert_stack_is_scalar_evidence(np.array(rhos))


def _bad_rows(rng):
    """One state per gate of ``evidence``, each refused by that gate only."""
    clean = separable_symmetric_states(rng, 1)[0]
    non_hermitian = clean.copy()
    non_hermitian[0, 1] += 1e-6
    residue = clean.copy()  # Hermitian within 8e-11, but I (x) sigma_x gets Im 8e-11
    residue[0, 1] += 4e-11j
    residue[1, 0] += 4e-11j
    unbounded = np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex)  # <I (x) sigma_z> = 3
    non_finite = clean.copy()
    non_finite[2, 2] = np.nan
    return {
        "hermiticity": non_hermitian,
        "trace": clean * 1.001,
        "imaginary_residue": residue,
        "bloch_bound": unbounded,
        "exchange": dense_states(rng, 1)[0],
        "non_finite": non_finite,
    }


def _scalar_error(rho):
    with pytest.raises(Exception) as info:
        evidence(rho)
    return info.value


class TestStackedGates:
    @pytest.mark.parametrize("gate", [
        "hermiticity", "trace", "imaginary_residue", "bloch_bound", "exchange", "non_finite",
    ])
    def test_raises_the_scalar_error_of_the_first_bad_row(self, gate, rng):
        bad = _bad_rows(rng)
        other = bad["exchange"] if gate != "exchange" else bad["trace"]
        want, after = _scalar_error(bad[gate]), _scalar_error(other)
        assert (type(want), str(want)) != (type(after), str(after))
        clean = separable_symmetric_states(rng, 2)
        for rhos in ([clean[0], bad[gate], other], [clean[0], bad[gate], clean[1]]):
            with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
                evidence_stack(np.array(rhos))

    def test_each_gate_refuses_its_row_in_the_decomposition(self, rng):
        bad = _bad_rows(rng)
        for gate, rho in bad.items():
            s, r, t, valid = bloch_decompose_stack(rho[None])
            if gate == "exchange":
                assert valid.all()  # refused by the exchange constraints, not here
            else:
                assert not valid.any(), gate

    def test_shape_is_checked(self):
        with pytest.raises(InvalidDensityMatrix, match=r"expected shape \(k, 4, 4\)"):
            evidence_stack(np.eye(4))


def selftest_draws(seed, count):
    """The invariance suite's draws for ``seed``: (rho, rotated rho) per draw,
    replayed with the suite's sampler calls in its order."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        rho = random_density_matrix(rng)
        u1, u2 = haar_su2(rng), haar_su2(rng)
        draws.append((rho, apply_local_unitary(rho, u1, u2)))
    return draws


class TestInvarianceSuite:
    """The self-test's invariance suite evaluates every draw as one stack."""

    @pytest.mark.parametrize("seed, count", [(seed, 20) for seed in range(32)] + [(42, 500)])
    def test_equals_the_scalar_loop_bit_for_bit(self, seed, count, tmp_path):
        # The suite as it ran before the stack: one bloch_decompose and one
        # makhlin_all per state, the deviation folded draw by draw.
        floor = INVARIANCE_ABS / INVARIANCE_REL
        failures, max_dev = 0, 0.0
        for rho, rotated in selftest_draws(seed, count):
            ref = makhlin_all(bloch_decompose(rho)).as_array()
            rot = makhlin_all(bloch_decompose(rotated)).as_array()
            dev = float(np.max(np.abs(rot - ref) / np.maximum(np.abs(ref), floor)))
            max_dev = max(max_dev, dev)
            failures += dev > INVARIANCE_REL
        suite = selftest.run_selftest(seed, count, out_dir=str(tmp_path)).suites[0]
        assert (suite.name, suite.cases, suite.failures, float.hex(suite.max_deviation)) == (
            "local_unitary_invariance", count, failures, float.hex(max_dev))

    def test_biased_rotated_rows_fail_with_the_first_draw_as_counterexample(
            self, tmp_path, capsys, monkeypatch):
        seed, count, biased = 3, 20, (4, 9, 17)
        draws = selftest_draws(seed, count)
        targets = [bloch_decompose(draws[j][1]).s for j in biased]
        real = selftest.invariants_mod.makhlin_stack

        def corrupted(s, r, t):
            inv = real(s, r, t)
            for row, s_row in enumerate(s):
                if any(np.array_equal(s_row, target) for target in targets):
                    inv[row, 11] += 1e-3  # I12 of a rotated state only
            return inv

        monkeypatch.setattr(selftest.invariants_mod, "makhlin_stack", corrupted)
        argv = ["selftest", "--seed", str(seed), "--count", str(count), "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        failures = dict(re.findall(r"^(\w+) +cases=\d+ +failures=(\d+)", out, re.MULTILINE))
        assert failures == {"local_unitary_invariance": str(len(biased)),
                            "separable_positivity": "0", "xform_pt_equivalence": "0"}
        written = read_state_file(tmp_path / selftest.COUNTEREXAMPLE_FILENAME)
        assert np.array_equal(written.view(np.uint64), draws[biased[0]][0].view(np.uint64))

    @pytest.mark.parametrize("j", [0, 7, 19])
    def test_a_refused_draw_raises_the_scalar_error(self, j, tmp_path, monkeypatch):
        seed, count = 5, 20
        bad = selftest_draws(seed, count)[j][0].copy()
        bad[0, 1] += 1e-6  # no longer Hermitian
        with pytest.raises(InvalidDensityMatrix) as scalar:
            bloch_decompose(bad)
        real, draw = selftest.random_density_matrix, itertools.count()

        def sampler(rng):
            rho = real(rng)
            return bad if next(draw) == j else rho

        monkeypatch.setattr(selftest, "random_density_matrix", sampler)
        with pytest.raises(type(scalar.value), match=f"^{re.escape(str(scalar.value))}$"):
            selftest.run_selftest(seed, count, out_dir=str(tmp_path))
