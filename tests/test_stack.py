"""The stacked core against the scalar one.

``sweep`` evaluates its grid with ``evidence_stack`` (one PT solve, one
Pauli decomposition and one invariant contraction per stack), and the
self-test suites evaluate their draws with the same Pauli decomposition,
contraction and PT solve; single states go through ``evidence``.  The
two must give the same numbers bit for bit, including the sign of zero,
and refuse the same rows with the same error.

``makhlin_all`` is the one-form case of ``makhlin_stack``, so the
contraction is pinned here to ``reference_makhlin``: the scalar
contraction as it was written before the two were merged, with 2-D
operands and one einsum per epsilon contraction.
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
from qubitpair.sampling import random_density_matrix, random_symmetric_density_matrix, random_xform
from qubitpair.separability import (
    CRITERIA,
    SeparableEnsemble,
    evidence,
    evidence_stack,
    partial_transpose,
    ppt_check,
    sample_separable_symmetric,
    xform_equivalence_check,
    xform_pt_eigenvalues,
)
from qubitpair.qmat import haar_su2
from qubitpair.states import XForm, apply_local_unitary, bloch_decompose, bloch_decompose_stack
from qubitpair.stateio import read_state_file
from qubitpair.tolerances import INVARIANCE_ABS, INVARIANCE_REL, SIGN_ZERO_BAND

STACK_SIZE = 600

_EPS = np.zeros((3, 3, 3))
_EPS[0, 1, 2] = _EPS[1, 2, 0] = _EPS[2, 0, 1] = 1.0
_EPS[0, 2, 1] = _EPS[2, 1, 0] = _EPS[1, 0, 2] = -1.0


def reference_makhlin(form):
    """The 18 invariants of one Bloch form, computed with 2-D operands, one
    einsum per epsilon triple and one for I14, as a ``(18,)`` array.

    Frozen: ``makhlin_stack`` must reproduce it bit for bit, sign of zero
    included, because the sweep and self-test golden files were written
    with it.
    """
    s, r, t = form.s, form.r, form.t

    def triple(u, v, w):
        return float(np.einsum("ijk,i,j,k->", _EPS, u, v, w))

    det = (t[0, 0] * (t[1, 1] * t[2, 2] - t[1, 2] * t[2, 1])
           - t[0, 1] * (t[1, 0] * t[2, 2] - t[1, 2] * t[2, 0])
           + t[0, 2] * (t[1, 0] * t[2, 1] - t[1, 1] * t[2, 0]))
    tt = t @ t.T
    ttr = t.T @ t
    tt_s = tt @ s
    tt2_s = tt @ tt_s
    ttr_r = ttr @ r
    ttr2_r = ttr @ ttr_r
    t_r = t @ r
    tT_s = t.T @ s
    return np.array([
        float(det),
        float(np.sum(t * t)),
        float(np.sum(ttr * ttr)),
        float(s @ s),
        float(s @ tt_s),
        float(s @ tt2_s),
        float(r @ r),
        float(r @ ttr_r),
        float(r @ ttr2_r),
        triple(s, tt_s, tt2_s),
        triple(r, ttr_r, ttr2_r),
        float(s @ t_r),
        float(s @ (tt @ t_r)),
        float(np.einsum("ijk,lmn,i,l,jm,kn->", _EPS, _EPS, s, r, t, t)),
        triple(s, tt_s, t_r),
        triple(tT_s, r, ttr_r),
        triple(tT_s, ttr @ tT_s, r),
        triple(s, t_r, tt @ t_r),
    ])


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
        assert_bits_equal(makhlin_stack(s, r, t), [reference_makhlin(f) for f in forms])

    @pytest.mark.parametrize("states", ["separable", "symmetric", "family"])
    def test_contraction_is_the_reference(self, rng, states):
        rhos = {
            "separable": lambda: separable_symmetric_states(rng, STACK_SIZE),
            "symmetric": lambda: symmetric_states(rng, STACK_SIZE),
            "family": family_states,
        }[states]()
        s, r, t, valid = bloch_decompose_stack(rhos)
        assert valid.all()
        want = [reference_makhlin(bloch_decompose(rho)) for rho in rhos]
        assert_bits_equal(makhlin_stack(s, r, t), want)
        assert_bits_equal([makhlin_all(bloch_decompose(rho)).as_array() for rho in rhos], want)

    def test_each_row_is_computed_as_if_alone(self, rng):
        rhos = dense_states(rng, 50)
        s, r, t, _ = bloch_decompose_stack(rhos)
        whole = makhlin_stack(s, r, t)
        for j in range(len(rhos)):
            assert_bits_equal(makhlin_stack(s[j:j + 1], r[j:j + 1], t[j:j + 1]), whole[j:j + 1])
        assert_bits_equal(makhlin_stack(s[::-1], r[::-1], t[::-1]), whole[::-1])

    def test_empty_stack(self):
        assert makhlin_stack(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3, 3))).shape == (0, 18)


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


def suite_draws(seed, count):
    """The self-test's draws for ``seed``, replayed with the suites' sampler
    calls in their order on one generator: the invariance suite's (rho,
    rotated rho) pairs, the positivity suite's separable states and the
    X-form suite's forms before its case filter."""
    rng = np.random.default_rng(seed)
    invariance = []
    for _ in range(count):
        rho = random_density_matrix(rng)
        u1, u2 = haar_su2(rng), haar_su2(rng)
        invariance.append((rho, apply_local_unitary(rho, u1, u2)))
    separable = [sample_separable_symmetric(int(rng.integers(1, 7)), rng)[0]
                 for _ in range(count)]
    xforms = [random_xform(rng) for _ in range(count)]
    return invariance, separable, xforms


SUITE_RUNS = [(seed, 20) for seed in range(32)] + [(42, 500)]


def suite_failures(out):
    return dict(re.findall(r"^(\w+) +cases=\d+ +failures=(\d+)", out, re.MULTILINE))


def written_counterexample(tmp_path):
    return read_state_file(tmp_path / selftest.COUNTEREXAMPLE_FILENAME)


def assert_same_matrix(got, want):
    assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


class TestInvarianceSuite:
    """The self-test's invariance suite evaluates every draw as one stack."""

    @pytest.mark.parametrize("seed, count", SUITE_RUNS)
    def test_equals_the_scalar_loop_bit_for_bit(self, seed, count, tmp_path):
        # The suite as it ran before the stack: one bloch_decompose and one
        # scalar contraction per state, the deviation folded draw by draw.
        floor = INVARIANCE_ABS / INVARIANCE_REL
        failures, max_dev = 0, 0.0
        for rho, rotated in suite_draws(seed, count)[0]:
            ref = reference_makhlin(bloch_decompose(rho))
            rot = reference_makhlin(bloch_decompose(rotated))
            dev = float(np.max(np.abs(rot - ref) / np.maximum(np.abs(ref), floor)))
            max_dev = max(max_dev, dev)
            failures += dev > INVARIANCE_REL
        suite = selftest.run_selftest(seed, count, out_dir=str(tmp_path)).suites[0]
        assert (suite.name, suite.cases, suite.failures, float.hex(suite.max_deviation)) == (
            "local_unitary_invariance", count, failures, float.hex(max_dev))

    def test_biased_rotated_rows_fail_with_the_first_draw_as_counterexample(
            self, tmp_path, capsys, monkeypatch):
        seed, count, biased = 3, 20, (4, 9, 17)
        draws = suite_draws(seed, count)[0]
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
        assert suite_failures(capsys.readouterr().out) == {
            "local_unitary_invariance": str(len(biased)),
            "separable_positivity": "0", "xform_pt_equivalence": "0"}
        assert_same_matrix(written_counterexample(tmp_path), draws[biased[0]][0])

    @pytest.mark.parametrize("j", [0, 7, 19])
    def test_a_refused_draw_raises_the_scalar_error(self, j, tmp_path, monkeypatch):
        seed, count = 5, 20
        bad = suite_draws(seed, count)[0][j][0].copy()
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


def positivity_loop(states):
    """The positivity suite as it ran draw by draw: (cases, failures, max
    deviation, index of the first failing draw or None)."""
    cases, failures, max_dev, first = 0, 0, 0.0, None
    for j, rho in enumerate(states):
        inv = reference_makhlin(bloch_decompose(rho))
        i4, i12, i14 = float(inv[3]), float(inv[11]), float(inv[13])
        if i4 <= selftest._I4_FLOOR:
            continue
        cases += 1
        worst = min(i12, i14, i12 - i4 ** 2)
        max_dev = max(max_dev, max(0.0, -worst))
        if worst < -SIGN_ZERO_BAND:
            failures += 1
            first = j if first is None else first
    return cases, failures, max_dev, first


def is_xform_case(x):
    floor = selftest._I4_FLOOR
    return not ((x.a - x.d) ** 2 <= floor or x.c + abs(x.b) <= floor)


def xform_loop(xforms):
    """The X-form suite as it ran draw by draw, one ``ppt_check`` per case:
    (cases, failures, max deviation, index of the first failing draw or None)."""
    cases, failures, max_dev, first = 0, 0, 0.0, None
    for j, x in enumerate(xforms):
        if not is_xform_case(x):
            continue
        cases += 1
        closed = np.sort(xform_pt_eigenvalues(x))
        dev = abs(float(closed[0]) - ppt_check(x.to_matrix()).min_eig)
        max_dev = max(max_dev, dev)
        if not xform_equivalence_check(x) or dev > SIGN_ZERO_BAND:
            failures += 1
            first = j if first is None else first
    return cases, failures, max_dev, first


def selftest_cli(seed, count, tmp_path, capsys):
    argv = ["selftest", "--seed", str(seed), "--count", str(count), "--out", str(tmp_path)]
    code = cli.main(argv)
    return code, suite_failures(capsys.readouterr().out)


class TestPositivitySuite:
    """The positivity suite decomposes each draw on its own and contracts
    all of them as one stack."""

    @pytest.mark.parametrize("seed, count", SUITE_RUNS)
    def test_equals_the_scalar_loop_bit_for_bit(self, seed, count, tmp_path):
        cases, failures, max_dev, _ = positivity_loop(suite_draws(seed, count)[1])
        suite = selftest.run_selftest(seed, count, out_dir=str(tmp_path)).suites[1]
        assert (suite.name, suite.cases, suite.failures, float.hex(suite.max_deviation)) == (
            "separable_positivity", cases, failures, float.hex(max_dev))

    def test_each_draw_goes_through_the_scalar_decomposition(self, tmp_path, monkeypatch):
        seed, count = 5, 20
        seen = []

        def decompose(rho):
            seen.append(rho)
            return bloch_decompose(rho)

        monkeypatch.setattr(selftest, "bloch_decompose", decompose)
        selftest.run_selftest(seed, count, out_dir=str(tmp_path))
        states = suite_draws(seed, count)[1]
        assert len(seen) == count
        for rho, drawn in zip(seen, states):
            assert_same_matrix(rho, drawn)

    def test_biased_rows_fail_with_the_first_draw_as_counterexample(
            self, tmp_path, capsys, monkeypatch):
        seed, count, biased = 3, 20, (4, 9, 17)
        states = suite_draws(seed, count)[1]
        targets = [bloch_decompose(states[j]).s for j in biased]
        real = selftest.invariants_mod.makhlin_stack

        def corrupted(s, r, t):
            inv = real(s, r, t)
            for row, s_row in enumerate(s):
                if any(np.array_equal(s_row, target) for target in targets):
                    inv[row, 11] = -1e-3  # I12 of a biased separable state only
            return inv

        # The oracle on the same bias: only draws with I4 above the floor count.
        expected = [j for j in biased
                    if reference_makhlin(bloch_decompose(states[j]))[3] > selftest._I4_FLOOR]
        assert len(expected) >= 2
        monkeypatch.setattr(selftest.invariants_mod, "makhlin_stack", corrupted)
        code, failures = selftest_cli(seed, count, tmp_path, capsys)
        assert code == 1
        assert failures == {"local_unitary_invariance": "0",
                            "separable_positivity": str(len(expected)),
                            "xform_pt_equivalence": "0"}
        assert_same_matrix(written_counterexample(tmp_path), states[expected[0]])

    @staticmethod
    def _run_with_draws(replace, monkeypatch, tmp_path):
        """Run the suite (seed 5, count 20) with draw j replaced by
        ``replace(j, rho)``; return its result and the states it read."""
        real, draw, states = selftest.sample_separable_symmetric, itertools.count(), []

        def sampler(n_terms, rng):
            rho, ensemble = real(n_terms, rng)
            states.append(replace(next(draw), rho))
            return states[-1], ensemble

        monkeypatch.setattr(selftest, "sample_separable_symmetric", sampler)
        return selftest.run_selftest(5, 20, out_dir=str(tmp_path)).suites[1], states

    def test_a_draw_with_i4_below_the_floor_is_no_case(self, tmp_path, monkeypatch):
        mixed = np.eye(4, dtype=complex) / 4.0  # s = 0, so I4 = 0
        suite, states = self._run_with_draws(
            lambda j, rho: mixed if j in (3, 11) else rho, monkeypatch, tmp_path)
        cases, failures, max_dev, _ = positivity_loop(states)
        assert (suite.cases, suite.failures, float.hex(suite.max_deviation)) == (
            18, failures, float.hex(max_dev))
        assert cases == 18

    def test_i4_is_squared_as_the_scalar_path_squares_it(self, tmp_path, monkeypatch):
        # A pure product state, whose I12 - I4^2 is rounding noise below
        # zero; numpy's square of this I4 rounds it to a different deviation.
        vector = [-0.6979062868950129, 0.027880515435373062, 0.5235883441741358]
        product = SeparableEnsemble(np.ones(1), [vector]).to_state()
        suite, states = self._run_with_draws(
            lambda j, rho: product if j == 6 else rho, monkeypatch, tmp_path)
        cases, failures, max_dev, _ = positivity_loop(states)
        assert (suite.cases, suite.failures, float.hex(suite.max_deviation)) == (
            cases, failures, float.hex(max_dev))

    @pytest.mark.parametrize("j", [0, 7, 19])
    def test_a_refused_draw_raises_the_scalar_error(self, j, tmp_path, monkeypatch):
        seed, count = 5, 20
        bad = suite_draws(seed, count)[1][j].copy()
        bad[0, 1] += 1e-6  # no longer Hermitian
        with pytest.raises(InvalidDensityMatrix) as scalar:
            bloch_decompose(bad)
        real, draw = selftest.sample_separable_symmetric, itertools.count()

        def sampler(n_terms, rng):
            rho, ensemble = real(n_terms, rng)
            return (bad if next(draw) == j else rho), ensemble

        monkeypatch.setattr(selftest, "sample_separable_symmetric", sampler)
        with pytest.raises(type(scalar.value), match=f"^{re.escape(str(scalar.value))}$"):
            selftest.run_selftest(seed, count, out_dir=str(tmp_path))


class TestXformSuite:
    """The X-form suite solves the partial transposes of all its cases at once.

    It has no refusal path to test: ``XForm`` validates its parameters when
    it is built and ``to_matrix`` is Hermitian by construction.
    """

    @pytest.mark.parametrize("seed, count", SUITE_RUNS)
    def test_equals_the_scalar_loop_bit_for_bit(self, seed, count, tmp_path):
        cases, failures, max_dev, _ = xform_loop(suite_draws(seed, count)[2])
        suite = selftest.run_selftest(seed, count, out_dir=str(tmp_path)).suites[2]
        assert (suite.name, suite.cases, suite.failures, float.hex(suite.max_deviation)) == (
            "xform_pt_equivalence", cases, failures, float.hex(max_dev))

    def test_biased_eigenvalues_fail_with_the_first_draw_as_counterexample(
            self, tmp_path, capsys, monkeypatch):
        seed, count = 3, 20
        xforms = suite_draws(seed, count)[2]
        biased = [j for j, x in enumerate(xforms) if is_xform_case(x)][2::5]
        assert len(biased) >= 2
        targets = [partial_transpose(xforms[j].to_matrix()) for j in biased]
        real = selftest.hermitian_eigenvalues

        def corrupted(m):
            eig = real(m)
            for row, pt in enumerate(m):
                if any(np.array_equal(pt, target) for target in targets):
                    eig[row, 0] += 1e-3  # the PT minimum of a biased case only
            return eig

        monkeypatch.setattr(selftest, "hermitian_eigenvalues", corrupted)
        code, failures = selftest_cli(seed, count, tmp_path, capsys)
        assert code == 1
        assert failures == {"local_unitary_invariance": "0", "separable_positivity": "0",
                            "xform_pt_equivalence": str(len(biased))}
        assert_same_matrix(written_counterexample(tmp_path), xforms[biased[0]].to_matrix())
