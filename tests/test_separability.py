import json
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qubitpair import cli, invariants, qmat, states
from qubitpair.errors import (
    I4Zero,
    InconsistentClassification,
    NotPositive,
    NotSymmetricState,
)
from qubitpair.invariants import makhlin_all, symmetric_six, xform_invariants
from qubitpair.models import dicke_pair, ising_pair, oat_pair
from qubitpair.sampling import random_density_matrix, random_xform
from qubitpair.separability import (
    CRITERION_I12_MINUS_I4SQ,
    CRITERION_I14,
    SeparableEnsemble,
    _mixture_states,
    classify,
    evidence,
    invariant_criteria,
    partial_transpose,
    ppt_check,
    sample_separable_symmetric,
    separable_mixtures,
    xform_equivalence_check,
    xform_pt_eigenvalues,
)
from qubitpair.states import BlochForm, XForm, bloch_decompose, xform_extract
from qubitpair.stateio import write_state_file

# Frozen closed-form values: lambda_1 = ((a+d) - sqrt((a-d)^2 + 4c^2)) / 2.
DICKE41_PT_MIN = (0.5 - np.sqrt(0.5)) / 2.0          # -0.10355339059327379
ISING3_LAMBDA3 = 0.0625 - np.sqrt(0.0625 ** 2 + 0.25 ** 2)  # -0.19519410160110378


class TestPartialTranspose:
    def test_diagonal_unchanged(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        assert_allclose(partial_transpose(rho), rho)

    def test_bell_symmetric_min_eigenvalue(self, bell_symmetric):
        eigs = qmat.hermitian_eigenvalues(partial_transpose(bell_symmetric))
        assert abs(eigs[0] - (-0.5)) < 1e-12

    def test_product_state_unchanged(self, ket00):
        assert_allclose(partial_transpose(ket00), ket00)
        assert qmat.hermitian_eigenvalues(partial_transpose(ket00))[0] >= -1e-15

    def test_involution(self, rng):
        rho = random_density_matrix(rng)
        assert_allclose(partial_transpose(partial_transpose(rho)), rho)

    def test_trace_and_hermiticity_preserved(self, rng):
        for _ in range(20):
            pt = partial_transpose(random_density_matrix(rng))
            assert abs(np.trace(pt) - 1.0) < 1e-12
            assert qmat.hermiticity_defect(pt) < 1e-12


class TestPptCheck:
    def test_bell_symmetric(self, bell_symmetric):
        res = ppt_check(bell_symmetric)
        assert not res.separable
        assert abs(res.min_eig - (-0.5)) < 1e-12

    def test_maximally_mixed(self, maximally_mixed):
        res = ppt_check(maximally_mixed)
        assert res.separable
        assert abs(res.min_eig - 0.25) < 1e-12

    def test_dicke_4_1(self):
        res = ppt_check(dicke_pair(4, 1).to_matrix())
        assert not res.separable
        assert abs(res.min_eig - DICKE41_PT_MIN) < 1e-12


class TestXFormPtEigenvalues:
    def test_bell_symmetric(self, bell_symmetric):
        eigs = xform_pt_eigenvalues(xform_extract(bell_symmetric))
        assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_product_state(self):
        eigs = xform_pt_eigenvalues(XForm(a=1.0, b=0j, c=0.0, d=0.0))
        assert_allclose(eigs, [0.0, 1.0, 0.0, 0.0], atol=1e-15)

    def test_ising_3_halfpi(self):
        eigs = xform_pt_eigenvalues(ising_pair(3, np.pi / 2))
        assert abs(eigs[2] - ISING3_LAMBDA3) < 1e-12

    def test_multiset_matches_numeric_spectrum(self, rng):
        for _ in range(200):
            x = random_xform(rng)
            closed = np.sort(xform_pt_eigenvalues(x))
            numeric = qmat.hermitian_eigenvalues(partial_transpose(x.to_matrix()))
            assert_allclose(closed, numeric, atol=1e-10)


class TestInvariantCriteria:
    def test_dicke_4_1_fires_gap_criterion(self):
        six = xform_invariants(dicke_pair(4, 1))
        assert invariant_criteria(six) == frozenset({CRITERION_I12_MINUS_I4SQ})

    def test_ising_fires_i14(self):
        six = xform_invariants(ising_pair(3, np.pi / 2))
        fired = invariant_criteria(six)
        assert CRITERION_I14 in fired

    def test_product_state_fires_nothing(self):
        six = xform_invariants(XForm(a=1.0, b=0j, c=0.0, d=0.0))
        assert invariant_criteria(six) == frozenset()

    def test_i4_zero_raises(self, bell_symmetric):
        six = xform_invariants(xform_extract(bell_symmetric))
        with pytest.raises(I4Zero):
            invariant_criteria(six)


class TestClassify:
    def test_bell_symmetric_uses_fallback(self, bell_symmetric):
        cls = classify(bell_symmetric)
        assert cls.verdict == "Entangled"
        assert cls.i4_zero_fallback_used
        assert cls.criteria_fired == frozenset()
        assert abs(cls.ppt_min_eigenvalue - (-0.5)) < 1e-12

    def test_dicke_4_1(self):
        cls = classify(dicke_pair(4, 1).to_matrix())
        assert cls.verdict == "Entangled"
        assert cls.criteria_fired == frozenset({CRITERION_I12_MINUS_I4SQ})
        assert not cls.i4_zero_fallback_used

    def test_separable_pure_term_ensembles(self, rng):
        # Mixtures of pure product terms are triplet-supported, so the
        # full classification path applies and reports Separable.
        for _ in range(50):
            n = int(rng.integers(1, 6))
            w = rng.exponential(size=n)
            v = rng.normal(size=(n, 3))
            v /= np.linalg.norm(v, axis=1)[:, None]
            rho = SeparableEnsemble(weights=w / w.sum(), bloch_vectors=v).to_state()
            cls = classify(rho)
            assert cls.verdict == "Separable"
            assert cls.criteria_fired == frozenset()

    def test_mixed_term_samples_refused_but_consistent(self, rng):
        # Mixed factors carry singlet weight: classify refuses them, yet
        # the criteria and the PT spectrum still agree on separability.
        from qubitpair.invariants import SymmetricSix, makhlin_all

        refused = 0
        for _ in range(50):
            rho, _ = sample_separable_symmetric(int(rng.integers(2, 6)), rng)
            from qubitpair.states import is_symmetric

            if is_symmetric(rho):
                continue
            refused += 1
            with pytest.raises(NotSymmetricState):
                classify(rho)
            six = SymmetricSix.from_full(makhlin_all(bloch_decompose(rho)))
            try:
                assert invariant_criteria(six) == frozenset()
            except I4Zero:
                pass
            assert ppt_check(rho).separable
        assert refused > 0

    def test_rejects_non_symmetric(self, singlet_state):
        with pytest.raises(NotSymmetricState):
            classify(singlet_state)

    def test_carries_the_six_it_was_read_from(self, rng):
        for _ in range(20):
            rho = random_xform(rng).to_matrix()
            assert classify(rho).six == symmetric_six(bloch_decompose(rho))


# X states with b = 0 next to a d = c^2, where the criterion band and the PT
# band disagree: I12 - I4^2 = 4 (a-d)^2 (ad - c^2) but lambda_1 is about
# (ad - c^2) / (a + d).  These pin the present contract; a band-consistent
# verdict will change it on purpose.
BAND_REFUSED = XForm.from_abc(a=0.8, b=0j, c=0.09442719102786667)
BAND_ENTANGLED = XForm.from_abc(a=0.8, b=0j, c=0.09442719105581754)


class TestCriterionBandVersusPtBand:
    def test_refused_state_sits_between_the_bands(self):
        ev = evidence(BAND_REFUSED.to_matrix())
        assert ev.six.i12 - ev.six.i4 ** 2 == pytest.approx(-1.24e-10, rel=0.01)
        assert ev.ppt_min_eigenvalue == pytest.approx(-6.2e-11, rel=0.01)
        assert ev.verdict == "Separable"
        assert ev.criteria_fired == frozenset({CRITERION_I12_MINUS_I4SQ})

    def test_classify_raises_inconsistent(self):
        with pytest.raises(InconsistentClassification):
            classify(BAND_REFUSED.to_matrix())

    def test_cli_classify_exits_2(self, tmp_path, capsys):
        path = tmp_path / "band.json"
        write_state_file(path, BAND_REFUSED)
        assert cli.main(["classify", str(path)]) == 2
        assert "tolerance band" in capsys.readouterr().err

    def test_cli_invariants_reports_the_evidence_without_a_verdict(self, tmp_path, capsys):
        path = tmp_path / "band.json"
        write_state_file(path, BAND_REFUSED)
        ev = evidence(BAND_REFUSED)  # an xform file's evidence is its XForm's
        assert cli.main(["invariants", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariants"] == asdict(ev.invariants)
        assert payload["symmetric"] is True
        assert payload["symmetric_six"] == asdict(ev.six)
        assert payload["classification"] is None
        assert cli.main(["invariants", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "symmetric: yes" in lines and len([ln for ln in lines if ln.startswith("I")]) == 18
        assert any(ln.startswith("symmetric six: ") for ln in lines)
        assert not any(ln.startswith("verdict") for ln in lines)

    def test_cli_invariants_raises_a_contradiction_beyond_the_band(
            self, tmp_path, capsys, monkeypatch):
        # A criterion firing on a PT spectrum positive beyond the zero band
        # contradicts the theorem: invariants refuses it as classify does.
        ev = replace(evidence(BAND_REFUSED), ppt_min_eigenvalue=0.5)
        monkeypatch.setattr(cli, "_classification", lambda stack: ev)
        path = tmp_path / "band.json"
        write_state_file(path, BAND_REFUSED)
        assert cli.main(["invariants", str(path)]) == 2
        assert "PT min eigenvalue is 5.000e-01" in capsys.readouterr().err

    def test_neighbour_outside_pt_band_is_entangled(self):
        cls = classify(BAND_ENTANGLED.to_matrix())
        assert cls.ppt_min_eigenvalue == pytest.approx(-1.23e-10, rel=0.01)
        assert cls.verdict == "Entangled"
        assert cls.criteria_fired == frozenset({CRITERION_I12_MINUS_I4SQ})


class TestEvidenceOfAnXForm:
    """``evidence`` and ``classify`` of an ``XForm`` take the sweep's route:
    the pattern's closed-form invariants and one solve, of the partial
    transpose, with no gate beyond the rule the form passed when it was
    constructed."""

    GRIDS = {
        "oat": ["--n", "2,5,40", "--chit", "0.3,1.3,2.9"],
        "ising": ["--n", "3,4,7", "--chit", "0.5,1.1,3"],
        "dicke": ["--n", "4,6,8", "--m", "0,1,2"],
    }
    PAIRS = {
        "oat": lambda row: oat_pair(row["N"], row["chi_t"]),
        "ising": lambda row: ising_pair(row["N"], row["chi_t"]),
        "dicke": lambda row: dicke_pair(row["N"], row["M"]),
    }

    @pytest.mark.parametrize("family", GRIDS)
    def test_family_points_equal_the_sweep_rows(self, family, tmp_path, capsys):
        out = tmp_path / "rows.json"
        assert cli.main(["sweep", family, *self.GRIDS[family], "--out", str(out)]) == 0
        capsys.readouterr()
        for row in json.loads(out.read_text()):
            x = self.PAIRS[family](row)
            ev = evidence(x)
            assert classify(x) == ev
            six = asdict(ev.six)
            assert [float(six[k]).hex() for k in six] == [float(row[k]).hex() for k in six], row
            assert (six["i12"] - six["i4"] * six["i4"]).hex() == row["i12_minus_i4sq"].hex()
            assert ev.ppt_min_eigenvalue.hex() == row["ppt_min_eig"].hex(), row
            assert (ev.verdict, sorted(ev.criteria_fired)) == (row["verdict"], row["criteria"])

    def test_draws_outside_the_band_equal_the_matrix_verdict(self):
        rng = np.random.default_rng(32)
        compared = 0
        for _ in range(300):
            x = random_xform(rng)
            matrix_ev = evidence(x.to_matrix())
            six = matrix_ev.six
            margins = [matrix_ev.ppt_min_eigenvalue, six.i4, six.i12, six.i14,
                       six.i12 - six.i4 * six.i4]
            if min(abs(v) for v in margins) <= 1e-8:
                continue
            compared += 1
            by_form, by_matrix = classify(x), classify(x.to_matrix())
            assert by_form.verdict == by_matrix.verdict
            assert by_form.criteria_fired == by_matrix.criteria_fired
            assert by_form.ppt_min_eigenvalue.hex() == by_matrix.ppt_min_eigenvalue.hex()
            assert by_form.i4_zero_fallback_used is by_matrix.i4_zero_fallback_used is False
        assert compared >= 200

    @pytest.mark.parametrize("function", [evidence, classify])
    def test_no_matrix_gate_and_one_solve(self, function):
        watched = [states._decomposition, invariants.makhlin_stack, states._triplet_gate,
                   states.assert_density_matrix, qmat._solve]
        names = {f.__code__: f.__name__ for f in watched}
        counts = dict.fromkeys(names.values(), 0)

        def hook(frame, event, arg):
            if event == "call" and frame.f_code in names:
                counts[names[frame.f_code]] += 1

        x = dicke_pair(4, 1)
        sys.setprofile(hook)
        try:
            function(x)
        finally:
            sys.setprofile(None)
        assert counts == {"_decomposition": 0, "makhlin_stack": 0, "_triplet_gate": 0,
                          "assert_density_matrix": 0, "_solve": 1}


class TestEvidenceOfABlochForm:
    """``evidence`` and ``classify`` of a ``BlochForm`` take the form route:
    the form's own invariants, as ``makhlin_all`` gives them, and one solve
    of its matrix and that matrix's partial transpose, with no Pauli
    decomposition and no density-matrix or entry gate."""

    def test_the_invariants_are_the_forms(self, symmetric_forms):
        for form in symmetric_forms:
            ev = evidence(form)
            assert [v.hex() for v in ev.invariants.as_array().tolist()] == [
                v.hex() for v in makhlin_all(form).as_array().tolist()]
            assert [v.hex() for v in ev.six.as_array().tolist()] == [
                v.hex() for v in symmetric_six(form).as_array().tolist()]

    def test_forms_outside_the_band_equal_the_matrix_verdict(self, symmetric_forms):
        compared = 0
        for form in symmetric_forms:
            by_matrix = evidence(form.to_matrix())
            six = by_matrix.six
            margins = [by_matrix.ppt_min_eigenvalue, six.i4, six.i12, six.i14,
                       six.i12 - six.i4 * six.i4]
            if min(abs(v) for v in margins) <= 1e-8:
                continue
            compared += 1
            by_form = classify(form)
            assert by_form.verdict == by_matrix.verdict
            assert by_form.criteria_fired == by_matrix.criteria_fired
            assert by_form.ppt_min_eigenvalue.hex() == by_matrix.ppt_min_eigenvalue.hex()
            assert by_form.i4_zero_fallback_used is by_matrix.i4_zero_fallback_used is False
        assert compared >= 50
        assert {evidence(form).verdict for form in symmetric_forms} == {
            "Separable", "Entangled"}

    def test_a_non_positive_form_is_refused_as_its_matrix(self):
        # rho = (I + sigma_x (x) I + I (x) sigma_x) / 4 has the eigenvalue -1/4.
        form = BlochForm(s=[1.0, 0.0, 0.0], r=[1.0, 0.0, 0.0], t=np.zeros((3, 3)))
        with pytest.raises(NotPositive) as by_form:
            classify(form)
        with pytest.raises(NotPositive) as by_matrix:
            classify(form.to_matrix())
        assert str(by_form.value) == str(by_matrix.value) == (
            "not positive semidefinite: min eigenvalue -2.500e-01")

    def test_a_non_symmetric_form_is_refused_as_its_matrix(self, singlet_state):
        form = bloch_decompose(singlet_state)
        with pytest.raises(NotSymmetricState) as by_form:
            classify(form)
        with pytest.raises(NotSymmetricState) as by_matrix:
            classify(singlet_state)
        assert str(by_form.value) == str(by_matrix.value)

    @pytest.mark.parametrize("function", [evidence, classify])
    def test_no_decomposition_and_one_solve(self, function, symmetric_forms):
        watched = [states._decomposition, states._state_gates, invariants.makhlin_stack,
                   states._triplet_gate, states.assert_density_matrix, qmat._solve]
        names = {f.__code__: f.__name__ for f in watched}
        counts = dict.fromkeys(names.values(), 0)

        def hook(frame, event, arg):
            if event == "call" and frame.f_code in names:
                counts[names[frame.f_code]] += 1

        sys.setprofile(hook)
        try:
            function(symmetric_forms[0])
        finally:
            sys.setprofile(None)
        assert counts == {"_decomposition": 0, "_state_gates": 0, "makhlin_stack": 1,
                          "_triplet_gate": 1, "assert_density_matrix": 0, "_solve": 1}


class TestSeparableEnsemble:
    def test_single_term_pure_product(self):
        ens = SeparableEnsemble(weights=np.array([1.0]), bloch_vectors=np.array([[0.0, 0.0, 1.0]]))
        rho = ens.to_state()
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert_allclose(rho, expected, atol=1e-15)

    def test_single_term_maximally_mixed(self, maximally_mixed):
        ens = SeparableEnsemble(weights=np.array([1.0]), bloch_vectors=np.zeros((1, 3)))
        assert_allclose(ens.to_state(), maximally_mixed, atol=1e-15)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            SeparableEnsemble(weights=np.array([0.7, 0.7]), bloch_vectors=np.zeros((2, 3)))

    def test_overlong_bloch_vector_rejected(self):
        with pytest.raises(ValueError):
            SeparableEnsemble(weights=np.array([1.0]), bloch_vectors=np.array([[1.2, 0, 0]]))

    @pytest.mark.parametrize("weights, vectors", [
        ([np.nan], [[0.1, 0.2, 0.3]]),
        ([1.0], [[np.nan, 0.2, 0.3]]),
        ([0.5, 0.5], [[0.1, 0.2, 0.3], [0.0, np.inf, 0.0]]),
        ([np.inf, -np.inf], [[0.0, 0.0, 0.0]] * 2),
    ])
    def test_non_finite_entries_rejected(self, weights, vectors):
        with pytest.raises(ValueError, match="^weights and Bloch vectors must be finite$"):
            SeparableEnsemble(weights=np.array(weights), bloch_vectors=np.array(vectors))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(0.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
    ), min_size=1, max_size=6))
    def test_to_state_equals_the_term_by_term_loop(self, terms):
        weights = np.array([w for w, *_ in terms])
        if weights.sum() == 0.0:
            return
        vectors = np.array([v for _, *v in terms])
        norms = np.linalg.norm(vectors, axis=1)
        vectors[norms > 1.0] /= norms[norms > 1.0, None] * (1.0 + 1e-12)
        ens = SeparableEnsemble(weights=weights / weights.sum(), bloch_vectors=vectors)
        # The single-state loop, one np.kron per term, added in order.
        loop = np.zeros((4, 4), dtype=complex)
        for p, vec in zip(ens.weights, ens.bloch_vectors):
            single = 0.5 * (qmat.IDENTITY_2 + vec[0] * qmat.SIGMA_X
                            + vec[1] * qmat.SIGMA_Y + vec[2] * qmat.SIGMA_Z)
            loop += p * np.kron(single, single)
        assert np.array_equal(ens.to_state().view(np.uint64), loop.view(np.uint64))


class TestSeparableMixtures:
    """``SeparableEnsemble`` is the one-ensemble case of ``separable_mixtures``."""

    def test_padded_rows_are_the_ensemble_states(self, rng):
        lengths = np.array([1, 6, 3, 2, 6, 4])
        weights, vectors = np.zeros((6, 6)), np.zeros((6, 6, 3))
        ensembles = [sample_separable_symmetric(int(n), rng)[1] for n in lengths]
        for j, ens in enumerate(ensembles):
            weights[j, :lengths[j]], vectors[j, :lengths[j]] = ens.weights, ens.bloch_vectors
        got = separable_mixtures(weights, vectors)
        for state, ens in zip(got, ensembles):
            assert np.array_equal(state.view(np.uint64), ens.to_state().view(np.uint64))

    def test_zero_weight_padding_changes_no_bit(self, rng):
        # The sum starts from +0 and is never -0, so adding a term that is
        # +-0 throughout leaves it as it is, signed zeros included.
        values = np.array([0.0, -0.0, 0.25, -0.5, 1.0])
        for _ in range(300):
            n = int(rng.integers(1, 6))
            weights, vectors = np.zeros((1, 6)), rng.choice(values, size=(1, 6, 3))
            weights[0, :n] = rng.choice(values, size=n)
            padded = _mixture_states(weights, vectors)
            alone = _mixture_states(weights[:, :n], vectors[:, :n])
            assert np.array_equal(padded.view(np.uint64), alone.view(np.uint64))

    def test_first_refused_row_raises_its_error(self):
        weights = np.array([[1.0, 0.0], [0.6, 0.6], [np.nan, 0.0]])
        vectors = np.zeros((3, 2, 3))
        vectors[1, 0, 0] = 1.5
        with pytest.raises(ValueError, match="^weights must be non-negative and sum to 1$"):
            separable_mixtures(weights, vectors)
        with pytest.raises(ValueError, match="^weights and Bloch vectors must be finite$"):
            separable_mixtures(weights[[0, 2]], vectors[[0, 2]])
        with pytest.raises(ValueError, match="^Bloch vectors must lie in the unit ball$"):
            separable_mixtures(weights[:1], vectors[[1]])

    def test_no_ensembles_make_an_empty_stack(self):
        assert separable_mixtures(np.zeros((0, 6)), np.zeros((0, 6, 3))).shape == (0, 4, 4)


class TestSampleSeparableSymmetric:
    def test_moment_identities(self, rng):
        # s = sum_w p_w s_w and t_ij = sum_w p_w s_wi s_wj by construction.
        for _ in range(100):
            rho, ens = sample_separable_symmetric(int(rng.integers(1, 8)), rng)
            form = bloch_decompose(rho)
            p, v = ens.weights, ens.bloch_vectors
            assert_allclose(form.s, p @ v, atol=1e-12)
            assert_allclose(form.r, p @ v, atol=1e-12)
            assert_allclose(form.t, (v.T * p) @ v, atol=1e-12)

    def test_states_are_valid_swap_invariant_and_ppt(self, rng):
        from qubitpair.states import SWAP, assert_density_matrix

        for _ in range(200):
            rho, _ = sample_separable_symmetric(int(rng.integers(1, 6)), rng)
            assert_density_matrix(rho)
            assert np.max(np.abs(SWAP @ rho @ SWAP - rho)) < 1e-12
            assert ppt_check(rho).min_eig >= -1e-10

    def test_positivity_theorem(self, rng):
        # I12, I14 and I12 - I4^2 stay above the zero band on separable
        # input; evaluated via the full set since mixed factors carry
        # singlet weight.
        from qubitpair.invariants import SymmetricSix, makhlin_all

        checked = 0
        for _ in range(2000):
            rho, _ = sample_separable_symmetric(int(rng.integers(1, 7)), rng)
            six = SymmetricSix.from_full(makhlin_all(bloch_decompose(rho)))
            if six.i4 <= 1e-8:
                continue
            checked += 1
            assert six.i12 >= -1e-10
            assert six.i14 >= -1e-10
            assert six.i12 - six.i4 ** 2 >= -1e-10
        assert checked > 1500

    def test_rejects_zero_terms(self, rng):
        with pytest.raises(ValueError):
            sample_separable_symmetric(0, rng)


class TestXFormEquivalenceCheck:
    def test_ising_3_halfpi(self):
        x = ising_pair(3, np.pi / 2)
        assert xform_equivalence_check(x)
        assert xform_invariants(x).i14 < 0
        assert xform_pt_eigenvalues(x)[2] < 0

    def test_product_state_consistent(self):
        assert xform_equivalence_check(XForm(a=1.0, b=0j, c=0.0, d=0.0))

    def test_bell_symmetric_degenerate(self, bell_symmetric):
        with pytest.raises(I4Zero):
            xform_equivalence_check(xform_extract(bell_symmetric))

    def test_random_xforms(self, rng):
        checked = 0
        for _ in range(500):
            x = random_xform(rng)
            if (x.a - x.d) ** 2 <= 1e-8:
                continue
            checked += 1
            assert xform_equivalence_check(x)
        assert checked > 400


class TestTheoremIdentities:
    def test_moment_identities_for_i12_and_i14(self, rng):
        # Independent ensemble-level evaluation of the invariants:
        # I12 = sum_w p_w (s_w . s)^2 and
        # I14 = sum_{w,w'} p_w p_w' (s . (s_w x s_w'))^2,
        # compared against the trace-level pipeline.
        from qubitpair.invariants import makhlin_all

        for _ in range(100):
            rho, ens = sample_separable_symmetric(int(rng.integers(1, 6)), rng)
            p, v = ens.weights, ens.bloch_vectors
            s = p @ v
            i12_direct = float(np.sum(p * (v @ s) ** 2))
            cross = np.cross(v[:, None, :], v[None, :, :]) @ s
            i14_direct = float(np.sum(p[:, None] * p[None, :] * cross ** 2))
            inv = makhlin_all(bloch_decompose(rho))
            assert abs(inv.i12 - i12_direct) < 1e-12
            assert abs(inv.i14 - i14_direct) < 1e-12
            assert inv.i12 - inv.i4 ** 2 >= -1e-12  # variance form


class TestSoundness:
    def test_fired_criteria_imply_ppt_entangled(self, rng):
        # Random special-pattern states: any fired criterion must be
        # confirmed by a negative PT eigenvalue.
        for _ in range(500):
            x = random_xform(rng)
            six = xform_invariants(x)
            try:
                fired = invariant_criteria(six)
            except I4Zero:
                continue
            if fired:
                assert ppt_check(x.to_matrix()).min_eig < 1e-10

    def test_xform_completeness_under_hypotheses(self, rng):
        # For special-pattern states with (a-d)^2 and c+|b| bounded away
        # from zero, PT-entanglement and a fired criterion are equivalent.
        checked = 0
        while checked < 10_000:
            x = random_xform(rng)
            if (x.a - x.d) ** 2 <= 1e-8 or x.c + abs(x.b) <= 1e-8:
                continue
            checked += 1
            fired = invariant_criteria(xform_invariants(x))
            min_eig = ppt_check(x.to_matrix()).min_eig
            if min_eig < -1e-8:
                assert fired, f"PT-entangled state fired nothing: {x}"
            if fired:
                assert min_eig < 1e-10, f"criterion fired on PPT state: {x}"


class TestI4ZeroIsOneError:
    """A vanishing I4 is one rule (``invariants._i4_zero_gate``): each check
    whose hypothesis it breaks raises I4Zero with the same message."""

    @pytest.mark.parametrize("x", [
        XForm.from_abc(0.3, 0.1 + 0j, 0.2),  # d = 0.29999999999999993: I4 = 3.1e-33
        XForm(a=0.25, b=0.1j, c=0.25, d=0.25),  # a = d exactly: I4 = 0
    ], ids=["a_near_d", "a_equals_d"])
    def test_every_check_raises_i4zero(self, x):
        from qubitpair.invariants import xform_relation_check

        six = xform_invariants(x)
        assert abs(six.i4) <= 1e-10
        messages = set()
        for check in (lambda: xform_equivalence_check(x), lambda: invariant_criteria(six),
                      lambda: xform_relation_check(six)):
            with pytest.raises(I4Zero) as refused:
                check()
            messages.add(str(refused.value))
        assert messages == {f"I4 = {six.i4:.3e} is inside the zero band 1.0e-10"}
