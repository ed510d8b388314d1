import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubitpair.errors import InvalidDicke, TooLarge
from qubitpair.invariants import xform_invariants
from qubitpair.models import (
    ModelSpec,
    brute_force_pair_oracle,
    dicke_invariants,
    dicke_pair,
    ising_invariants,
    ising_pair,
    oat_invariants,
    oat_pair,
    pair_parameters,
)
from qubitpair.separability import classify, ppt_check
from qubitpair.states import SINGLET, xform_extract

SQRT3_OVER_8 = np.sqrt(3.0) / 8.0


class TestDickePair:
    @pytest.mark.parametrize(
        "n,m,expected",
        [
            (2, 1, (1.0, 0.0, 0.0)),       # |00> product state
            (2, 0, (0.0, 0.5, 0.0)),       # Bell-symmetric
            (4, 1, (0.5, 0.25, 0.0)),
        ],
    )
    def test_parameter_values(self, n, m, expected):
        x = dicke_pair(n, m)
        assert_allclose([x.a, x.c, x.d], expected, atol=1e-15)
        assert x.b == 0

    def test_states_are_symmetric(self):
        # Tighter than the SYMMETRY band: no singlet leakage beyond 1e-12.
        for n in range(2, 12):
            for two_m in range(-n, n + 1, 2):
                rho = dicke_pair(n, two_m / 2.0).to_matrix()
                assert np.max(np.abs(rho @ SINGLET)) <= 1e-12

    @pytest.mark.parametrize("n,m", [(4, 0.5), (3, 1.0), (4, 3.0), (1, 0.5)])
    def test_invalid_quantum_numbers(self, n, m):
        with pytest.raises(InvalidDicke):
            dicke_pair(n, m)

    @pytest.mark.parametrize("m", [np.inf, -np.inf, np.nan])
    def test_non_finite_m_is_invalid(self, m):
        for build in (dicke_pair, dicke_invariants):
            with pytest.raises(InvalidDicke, match="^M must be finite"):
                build(4, m)


class TestDickeInvariants:
    def test_n4_m1(self):
        inv = dicke_invariants(4, 1)
        assert_allclose(
            [inv.i4, inv.i12, inv.i14, inv.i12_minus_i4sq],
            [0.25, 0.0, 0.125, -0.0625],
            atol=1e-15,
        )

    def test_product_boundary(self):
        inv = dicke_invariants(2, 1)
        assert_allclose([inv.i4, inv.i12, inv.i14, inv.i12_minus_i4sq],
                        [1.0, 1.0, 0.0, 0.0], atol=1e-15)

    def test_matches_closed_form_pipeline(self):
        for n in range(2, 30):
            for two_m in range(-n, n + 1, 2):
                m = two_m / 2.0
                inv = dicke_invariants(n, m)
                six = xform_invariants(dicke_pair(n, m))
                assert abs(inv.i4 - six.i4) < 1e-12
                assert abs(inv.i12 - six.i12) < 1e-12
                assert abs(inv.i14 - six.i14) < 1e-12
                assert abs(inv.i12_minus_i4sq - (six.i12 - six.i4 ** 2)) < 1e-12

    def test_signs(self):
        for n in range(2, 30):
            for two_m in range(-n, n + 1, 2):
                inv = dicke_invariants(n, two_m / 2.0)
                assert inv.i14 >= 0.0
                assert inv.i12_minus_i4sq <= 1e-15
                if abs(two_m) == n:
                    assert abs(inv.i12_minus_i4sq) < 1e-15

    def test_gap_shrinks_toward_separability(self):
        # At M = N/4 the gap magnitude is 3 / (16 (N - 1)), decaying like 1/N.
        gaps = [abs(dicke_invariants(n, n / 4.0).i12_minus_i4sq)
                for n in (12, 100, 1000)]
        assert gaps[0] > gaps[1] > gaps[2]
        for n, gap in zip((12, 100, 1000), gaps):
            assert abs(gap - 3.0 / (16.0 * (n - 1))) < 1e-15

    def test_oracle_agreement(self):
        for n in range(2, 7):
            for two_m in range(-n, n + 1, 2):
                m = two_m / 2.0
                rho = brute_force_pair_oracle(ModelSpec(family="dicke", n=n, m=m))
                assert_allclose(rho, dicke_pair(n, m).to_matrix(), atol=1e-12)


class TestOatPair:
    def test_no_evolution(self):
        x = oat_pair(5, 0.0)
        assert_allclose([x.a, x.c, x.d], [0.0, 0.0, 1.0], atol=1e-15)
        assert x.b == 0

    def test_n3_third_pi(self):
        x = oat_pair(3, np.pi / 3)
        assert_allclose(
            [x.a, x.c, x.b.real, x.b.imag, x.d],
            [0.1875, 0.1875, -0.1875, SQRT3_OVER_8, 0.4375],
            atol=1e-15,
        )

    def test_n2_half_pi_matches_exact_two_qubit_solution(self):
        # exp(-i chi t Sx^2)|11> = cos(chi t / 2)|11> - i sin(chi t / 2)|00>
        x = oat_pair(2, np.pi / 2)
        assert_allclose([x.a, x.c, x.d], [0.5, 0.0, 0.5], atol=1e-15)
        assert abs(abs(x.b) - 0.5) < 1e-15

    def test_paper_literal_variant_differs(self):
        default = oat_pair(4, 0.7)
        literal = oat_pair(4, 0.7, paper_literal=True)
        assert abs(default.b.imag - literal.b.imag) > 1e-3
        assert default.a == literal.a and default.c == literal.c

    def test_psd_on_grid(self):
        # XForm validation asserts positivity; boundary states pass the
        # tolerance band.
        for n in range(2, 9):
            for chi_t in np.linspace(0.0, np.pi, 40):
                oat_pair(n, chi_t)
                oat_pair(n, chi_t, paper_literal=True)


class TestOatInvariants:
    def test_n3_third_pi(self):
        inv = oat_invariants(3, np.pi / 3)
        assert_allclose(
            [inv.i4, inv.i12, inv.i14],
            [0.0625, 0.015625, -0.0234375],
            atol=1e-15,
        )

    def test_no_evolution(self):
        inv = oat_invariants(4, 0.0)
        assert_allclose([inv.i4, inv.i12, inv.i14], [1.0, 1.0, 0.0], atol=1e-15)

    def test_i4_fallback_point(self):
        inv = oat_invariants(2, np.pi / 2)
        assert abs(inv.i4) < 1e-30
        assert abs(inv.i14) < 1e-30

    def test_closed_forms_match_pipeline_on_grid(self):
        count = 0
        for n in (2, 3, 4, 5, 8, 12, 20):
            for chi_t in np.linspace(0.05, np.pi - 0.05, 17):
                inv = oat_invariants(n, chi_t)
                six = xform_invariants(oat_pair(n, chi_t))
                assert abs(inv.i4 - six.i4) < 1e-12
                assert abs(inv.i12 - six.i12) < 1e-12
                assert abs(inv.i14 - six.i14) < 1e-12
                assert inv.i14 <= 1e-15
                count += 1
        assert count >= 100

    def test_paper_literal_exponent_is_inconsistent(self):
        # The printed Im(b) exponent fails against the family's own I14
        # expression; the corrected exponent matches to 1e-12.
        worst = 0.0
        for n in (3, 4, 5, 6):
            for chi_t in np.linspace(0.1, 1.4, 9):
                literal_six = xform_invariants(oat_pair(n, chi_t, paper_literal=True))
                worst = max(worst, abs(literal_six.i14 - oat_invariants(n, chi_t).i14))
        assert worst > 1e-3


class TestOatOracle:
    def test_agreement_up_to_coherence_gauge(self):
        # The exact evolution reproduces a, c, d and Re b entrywise and
        # |Im b| up to the sign, which is a local-unitary gauge; all
        # invariants agree.
        for n in range(2, 7):
            for chi_t in (0.3, np.pi / 3, 0.9, np.pi / 2):
                rho = brute_force_pair_oracle(ModelSpec(family="oat", n=n, chi_t=chi_t))
                x = oat_pair(n, chi_t)
                assert abs(rho[0, 0].real - x.a) < 1e-10
                assert abs(rho[1, 1].real - x.c) < 1e-10
                assert abs(rho[3, 3].real - x.d) < 1e-10
                assert abs(rho[0, 3].real - x.b.real) < 1e-10
                assert abs(abs(rho[0, 3].imag) - abs(x.b.imag)) < 1e-10
                oracle_six = xform_invariants(xform_extract(rho))
                assert_allclose(
                    oracle_six.as_array(),
                    xform_invariants(x).as_array(),
                    atol=1e-10,
                )

    def test_n2_state_vector(self):
        # Hand derivation from Sx^2 = (1 + sigma_x sigma_x) / 2.
        chi_t = 0.8
        rho = brute_force_pair_oracle(ModelSpec(family="oat", n=2, chi_t=chi_t))
        psi = np.zeros(4, dtype=complex)
        psi[3] = np.cos(chi_t / 2.0)
        psi[0] = -1j * np.sin(chi_t / 2.0)
        assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)

    def test_literal_variant_fails_against_oracle(self):
        rho = brute_force_pair_oracle(ModelSpec(family="oat", n=4, chi_t=0.9))
        literal = oat_pair(4, 0.9, paper_literal=True)
        assert abs(abs(rho[0, 3].imag) - abs(literal.b.imag)) > 1e-3

    def test_too_large(self):
        with pytest.raises(TooLarge):
            brute_force_pair_oracle(ModelSpec(family="oat", n=7, chi_t=0.1))


class TestIsingPair:
    def test_no_evolution(self):
        x = ising_pair(5, 0.0)
        assert_allclose([x.a, x.c, x.d], [1.0, 0.0, 0.0], atol=1e-15)
        assert x.b == 0

    def test_n3_half_pi(self):
        x = ising_pair(3, np.pi / 2)
        assert_allclose(
            [x.a, x.b.real, x.b.imag, x.c, x.d],
            [0.6875, -0.0625, -0.25, 0.0625, 0.1875],
            atol=1e-15,
        )

    def test_n5_pi_diagonal_separable(self):
        x = ising_pair(5, np.pi)
        assert_allclose([x.a, x.c, x.d], [0.5, 0.0, 0.5], atol=1e-12)
        assert abs(x.b) < 1e-15
        assert ppt_check(x.to_matrix()).separable

    def test_n2_flagged(self):
        from qubitpair.errors import NotPositive

        # At chi t = pi the n = 2 parameters happen to be physical: only
        # the regime warning fires.
        with pytest.warns(UserWarning):
            x = ising_pair(2, np.pi)
        assert_allclose([x.a, x.d], [0.5, 0.5], atol=1e-12)
        # Generic chi t gives an unphysical corner block at n = 2: the
        # warning fires and validation refuses the parameters.
        with pytest.warns(UserWarning):
            with pytest.raises(NotPositive):
                ising_pair(2, 0.5)

    def test_psd_on_grid(self):
        for n in range(3, 10):
            for chi_t in np.linspace(0.0, 2.0 * np.pi, 40):
                ising_pair(n, chi_t)


class TestIsingInvariants:
    def test_n3_half_pi(self):
        inv = ising_invariants(3, np.pi / 2)
        assert_allclose([inv.i4, inv.i12, inv.i14], [0.25, 0.1875, -0.125], atol=1e-15)

    def test_no_evolution(self):
        inv = ising_invariants(4, 0.0)
        assert_allclose([inv.i4, inv.i12, inv.i14], [1.0, 1.0, 0.0], atol=1e-15)

    def test_i4_fallback_point(self):
        assert abs(ising_invariants(3, np.pi).i4) < 1e-30

    def test_closed_forms_match_pipeline_on_grid(self):
        count = 0
        for n in (3, 4, 5, 8, 16):
            for chi_t in np.linspace(0.05, 2.0 * np.pi - 0.05, 21):
                inv = ising_invariants(n, chi_t)
                six = xform_invariants(ising_pair(n, chi_t))
                assert abs(inv.i4 - six.i4) < 1e-12
                assert abs(inv.i12 - six.i12) < 1e-12
                assert abs(inv.i14 - six.i14) < 1e-12
                count += 1
        assert count >= 100

    def test_i14_strictly_negative_off_nodes(self):
        for n in (3, 5, 9):
            for chi_t in np.linspace(0.1, np.pi - 0.1, 15):
                inv = ising_invariants(n, chi_t)
                assert inv.i14 < -1e-10
                cls = classify(ising_pair(n, chi_t).to_matrix())
                assert cls.verdict == "Entangled"


class TestI14CriterionConcurrence:
    def test_oat_and_ising_fire_i14_with_ppt_agreement(self):
        # Whenever the analytic i14 drops below the zero band, the fired
        # criteria include I14_negative and the PT spectrum concurs.
        from qubitpair.errors import I4Zero
        from qubitpair.separability import CRITERION_I14, invariant_criteria

        fired_count = 0
        cases = [("oat", n, c) for n in (2, 3, 5, 8) for c in np.linspace(0.1, 1.4, 9)]
        cases += [("ising", n, c) for n in (3, 5, 8) for c in np.linspace(0.1, 2.9, 9)]
        for family, n, chi_t in cases:
            if family == "oat":
                inv, x = oat_invariants(n, chi_t), oat_pair(n, chi_t)
            else:
                inv, x = ising_invariants(n, chi_t), ising_pair(n, chi_t)
            if inv.i14 >= -1e-10:
                continue
            try:
                fired = invariant_criteria(xform_invariants(x))
            except I4Zero:
                continue
            assert CRITERION_I14 in fired
            assert not ppt_check(x.to_matrix()).separable
            fired_count += 1
        assert fired_count > 30


class TestIsingOracleDiagnostics:
    """Exact chain evolution vs the closed form: documented disagreement.

    The closed form reproduces the ring's exact single-spin moment
    (a - d = cos^2(chi t / 2)) at every N.  For N >= 4 it also reproduces
    the pair-averaged double-flip coherence (conjugated) and exchange
    coherence of the ring average (the ``ising_ring_average`` fixture),
    but reassembles them under a triplet-support assumption; the
    nearest-neighbour pair there carries singlet weight, so no pair
    extraction reproduces the closed form.  At N = 3 the exact pair is
    itself an X-pattern state with no singlet weight, and the closed form
    differs from it in b and c: its (N-1) pair counting assumes that a
    pair's next-nearest neighbours are distinct sites.  These tests pin
    the exact relationships so any change in either side is caught.
    """

    def test_single_spin_moment_matches_any_pair(self):
        for n in (3, 4, 5, 6):
            for chi_t in (0.7, np.pi / 2):
                rho = brute_force_pair_oracle(ModelSpec(family="ising", n=n, chi_t=chi_t))
                x = ising_pair(n, chi_t)
                a_minus_d = (rho[0, 0] - rho[3, 3]).real
                assert abs(a_minus_d - (x.a - x.d)) < 1e-10
                assert abs((x.a - x.d) - np.cos(chi_t / 2.0) ** 2) < 1e-12

    def test_ring_average_coherence_channels_match_exactly(self, ising_ring_average):
        for n in (4, 5, 6):
            for chi_t in (0.7, np.pi / 2):
                avg = ising_ring_average(n, chi_t)
                x = ising_pair(n, chi_t)
                assert abs(avg[0, 3] - np.conj(x.b)) < 1e-12
                assert abs(avg[1, 2] - x.c) < 1e-12

    def test_nearest_neighbour_pair_disagrees_with_closed_form(self, ising_ring_average):
        # Locked-in finding: the literal pair state differs at the 1e-2
        # level for either boundary condition; the gap in the middle
        # populations of the ring average equals its singlet weight.
        from qubitpair.states import SINGLET

        print("\nchain oracle vs closed form, max entry deviation by boundary:")
        for boundary in ("periodic", "open"):
            for n in (3, 4, 5, 6):
                rho = brute_force_pair_oracle(
                    ModelSpec(family="ising", n=n, chi_t=np.pi / 2), boundary=boundary
                )
                dev = np.max(np.abs(rho - ising_pair(n, np.pi / 2).to_matrix()))
                print(f"  {boundary:8s} N={n}: {dev:.6f}")
                assert dev > 1e-2
        avg = ising_ring_average(4, np.pi / 2)
        x = ising_pair(4, np.pi / 2)
        singlet_weight = float(np.real(SINGLET.conj() @ avg @ SINGLET))
        assert abs((avg[1, 1].real - x.c) - singlet_weight) < 1e-12


class TestModelSpec:
    def test_requires_family_parameters(self):
        with pytest.raises(ValueError):
            ModelSpec(family="dicke", n=4)
        with pytest.raises(ValueError):
            ModelSpec(family="oat", n=4)
        with pytest.raises(ValueError):
            ModelSpec(family="nope", n=4, chi_t=0.1)

    def test_dicke_validation_at_construction(self):
        with pytest.raises(InvalidDicke):
            ModelSpec(family="dicke", n=4, m=0.5)
        with pytest.raises(InvalidDicke, match="^need at least two qubits$"):
            ModelSpec(family="dicke", n=1, m=0.5)

    @pytest.mark.parametrize("family, foreign", [
        ("dicke", "chi_t"), ("oat", "m"), ("ising", "m")])
    @pytest.mark.parametrize("with_own", [True, False])
    def test_refuses_a_parameter_the_family_does_not_take(self, family, foreign, with_own):
        # Worded like the CLI's family check on a foreign flag.
        own = {"dicke": {"m": 1.0}, "oat": {"chi_t": 0.5}, "ising": {"chi_t": 0.5}}[family]
        kwargs = {foreign: 1.0, **(own if with_own else {})}
        with pytest.raises(ValueError, match=f"^{family} does not take {foreign}$"):
            ModelSpec(family, 4, **kwargs)

    @pytest.mark.parametrize("family", ["oat", "ising"])
    def test_takes_the_family_rule_on_chi_t(self, family):
        with pytest.raises(ValueError, match="^chi_t must be finite, got chi_t = inf$"):
            ModelSpec(family=family, n=4, chi_t=np.inf)


#: Every entry point of the family rule, taking N and a valid family
#: parameter.  A ``ModelSpec`` is read through the oracle it feeds.
FAMILY_ENTRY_POINTS = {
    "dicke_pair": lambda n: dicke_pair(n, 1.0),
    "oat_pair": lambda n: oat_pair(n, 0.7),
    "ising_pair": lambda n: ising_pair(n, 0.7),
    "dicke_invariants": lambda n: dicke_invariants(n, 1.0),
    "oat_invariants": lambda n: oat_invariants(n, 0.7),
    "ising_invariants": lambda n: ising_invariants(n, 0.7),
    "pair_parameters[dicke]": lambda n: pair_parameters("dicke", [(4, 0.0, None), (n, 1.0, None)]),
    "pair_parameters[oat]": lambda n: pair_parameters("oat", [(4, None, 0.3), (n, None, 0.7)]),
    "pair_parameters[ising]": lambda n: pair_parameters("ising", [(4, None, 0.3), (n, None, 0.7)]),
    "ModelSpec[dicke]": lambda n: brute_force_pair_oracle(ModelSpec("dicke", n, m=1.0)),
    "ModelSpec[oat]": lambda n: brute_force_pair_oracle(ModelSpec("oat", n, chi_t=0.7)),
    "ModelSpec[ising]": lambda n: brute_force_pair_oracle(ModelSpec("ising", n, chi_t=0.7)),
}


def _float_bits(out) -> list:
    """Every float of an entry point's output, as ``float.hex``."""
    if dataclasses.is_dataclass(out):
        out = dataclasses.astuple(out)
    return [float(v).hex() for v in np.asarray(out, dtype=complex).view(float).ravel()]


class TestFamilyRule:
    """One family rule (``models._family_gates``) behind every entry point:
    N must be a whole number >= 2, whatever type carries it."""

    @pytest.mark.parametrize("n", [4.5, np.inf, np.nan])
    @pytest.mark.parametrize("entry", FAMILY_ENTRY_POINTS)
    def test_refuses_an_n_that_is_not_a_whole_number(self, entry, n):
        expected = InvalidDicke if "dicke" in entry else ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Exception) as info:
                FAMILY_ENTRY_POINTS[entry](n)
        assert type(info.value) is expected
        assert str(info.value) == f"N must be a whole number, got N = {n}"

    @pytest.mark.parametrize("n", [4.0, np.int64(4)])
    @pytest.mark.parametrize("entry", FAMILY_ENTRY_POINTS)
    def test_a_whole_n_of_any_type_gives_the_int_result(self, entry, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = FAMILY_ENTRY_POINTS[entry](n)
        assert _float_bits(out) == _float_bits(FAMILY_ENTRY_POINTS[entry](4))
