"""Acceptance suite: one test per contract criterion, fixed tolerances.

Each test prints a single PASS line with its measured margin; a failure
carries the measured evidence in the assertion message.  Criterion 8's
oracle clause compares the published chain closed form with the exact
ring channels it is assembled from, because the closed form is not the
reduced state of any pair of the chain (see
TestIsingOracleDiagnostics in test_models.py).
"""

import os
import subprocess
import sys

import numpy as np
from numpy.testing import assert_allclose

from qubitpair import qmat
from qubitpair.errors import I4Zero
from qubitpair.invariants import (
    SymmetricSix,
    makhlin_all,
    symmetric_six,
    xform_invariants,
    xform_relation_check,
)
from qubitpair.models import (
    ModelSpec,
    brute_force_pair_oracle,
    dicke_invariants,
    dicke_pair,
    ising_invariants,
    ising_pair,
    oat_invariants,
    oat_pair,
)
from qubitpair.sampling import (
    random_density_matrix,
    random_symmetric_density_matrix,
    random_xform,
)
from qubitpair.separability import (
    classify,
    invariant_criteria,
    partial_transpose,
    ppt_check,
    sample_separable_symmetric,
    xform_equivalence_check,
    xform_pt_eigenvalues,
)
from qubitpair.states import (
    SINGLET,
    XForm,
    apply_local_unitary,
    bloch_decompose,
    xform_extract,
)

SEED = 987654321


def report(line):
    print(f"\nACCEPTANCE {line}", flush=True)


def test_criterion_01_local_unitary_invariance():
    rng = np.random.default_rng(SEED)
    floor = 1e-12 / 1e-9
    worst = 0.0
    for _ in range(1000):
        rho = random_density_matrix(rng)
        ref = makhlin_all(bloch_decompose(rho)).as_array()
        rotated = apply_local_unitary(rho, qmat.haar_su2(rng), qmat.haar_su2(rng))
        new = makhlin_all(bloch_decompose(rotated)).as_array()
        dev = float(np.max(np.abs(new - ref) / np.maximum(np.abs(ref), floor)))
        worst = max(worst, dev)
    report(f"1 local-unitary invariance: PASS (max rel deviation {worst:.3e})")
    assert worst < 1e-9


def test_criterion_02_symmetric_reduction():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(1000):
        inv = makhlin_all(bloch_decompose(random_symmetric_density_matrix(rng)))
        worst = max(
            worst,
            abs(inv.i4 - inv.i7),
            abs(inv.i5 - inv.i8),
            abs(inv.i6 - inv.i9),
            abs(inv.i10 - inv.i11),
            abs(inv.i15 - inv.i16),
            abs(inv.i17 - inv.i18),
        )
    report(f"2 symmetric reduction equalities: PASS (max gap {worst:.3e})")
    assert worst < 1e-10


def test_criterion_03_xform_closed_forms():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    relations_checked = 0
    for _ in range(1000):
        x = random_xform(rng)
        closed = xform_invariants(x)
        pipeline = symmetric_six(bloch_decompose(x.to_matrix()))
        worst = max(worst, float(np.max(np.abs(closed.as_array() - pipeline.as_array()))))
        if closed.i4 > 1e-8:
            relations_checked += 1
            assert xform_relation_check(closed)
    report(
        f"3 closed forms vs pipeline: PASS (max gap {worst:.3e}, "
        f"relations held on {relations_checked} states)"
    )
    assert worst < 1e-12
    assert relations_checked > 900


def test_criterion_04_separable_positivity_theorem():
    rng = np.random.default_rng(SEED + 3)
    checked = 0
    violations = 0
    worst = np.inf
    while checked < 10_000:
        rho, _ = sample_separable_symmetric(int(rng.integers(1, 8)), rng)
        six = SymmetricSix.from_full(makhlin_all(bloch_decompose(rho)))
        if six.i4 <= 1e-8:
            continue
        checked += 1
        low = min(six.i12, six.i14, six.i12 - six.i4 ** 2)
        worst = min(worst, low)
        if low < -1e-10:
            violations += 1
    report(
        f"4 separable positivity: PASS ({checked} states, {violations} violations, "
        f"lowest value {worst:.3e})"
    )
    assert violations == 0


def test_criterion_05_ppt_invariant_equivalence():
    rng = np.random.default_rng(SEED + 4)
    checked = 0
    spectrum_worst = 0.0
    while checked < 10_000:
        x = random_xform(rng)
        if (x.a - x.d) ** 2 <= 1e-8 or x.c + abs(x.b) <= 1e-8:
            continue
        checked += 1
        assert xform_equivalence_check(x), (
            f"sign equivalence failed for {x}"
        )
        closed = np.sort(xform_pt_eigenvalues(x))
        numeric = qmat.hermitian_eigenvalues(partial_transpose(x.to_matrix()))
        spectrum_worst = max(spectrum_worst, float(np.max(np.abs(closed - numeric))))
    report(
        f"5 PT/criteria equivalence: PASS ({checked} states, "
        f"max spectrum gap {spectrum_worst:.3e})"
    )
    assert spectrum_worst < 1e-10


def test_criterion_06_dicke_reproduction():
    # Exact quadruple at N = 4, M = 1.
    inv = dicke_invariants(4, 1)
    assert_allclose(
        [inv.i4, inv.i12, inv.i14, inv.i12_minus_i4sq],
        [0.25, 0.0, 0.125, -0.0625],
        atol=1e-12,
    )
    # Signs across all valid quantum numbers up to N = 50.  The gap also
    # vanishes at M = 0, where I4 = 0 makes it degenerate; separability
    # itself flips exactly at |M| = N/2 (checked via the classifier).
    for n in range(2, 51):
        for two_m in range(-n, n + 1, 2):
            m = two_m / 2.0
            inv = dicke_invariants(n, m)
            assert inv.i14 >= -1e-15
            assert inv.i12_minus_i4sq <= 1e-15
            if abs(two_m) == n or two_m == 0:
                assert abs(inv.i12_minus_i4sq) < 1e-15
            else:
                assert inv.i12_minus_i4sq < 0.0
            verdict = classify(dicke_pair(n, m).to_matrix()).verdict
            assert verdict == ("Separable" if abs(two_m) == n else "Entangled")
    # Vanishing gap at fixed filling M = N/4 as N grows.
    gaps = [abs(dicke_invariants(n, n / 4.0).i12_minus_i4sq)
            for n in range(8, 513, 4)]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0] / 10.0
    report(
        "6 dicke reproduction: PASS (N <= 50 signs, exact N=4 M=1 values, "
        f"gap decay {gaps[0]:.3e} -> {gaps[-1]:.3e} over N = 8..512)"
    )


def test_criterion_07_oat_reproduction():
    # Closed-form invariants match the pipeline on a >= 100-point grid.
    grid_worst = 0.0
    points = 0
    for n in (2, 3, 4, 5, 8, 12, 20):
        for chi_t in np.linspace(0.05, np.pi - 0.05, 17):
            inv = oat_invariants(n, chi_t)
            six = xform_invariants(oat_pair(n, chi_t))
            grid_worst = max(
                grid_worst,
                abs(inv.i4 - six.i4), abs(inv.i12 - six.i12), abs(inv.i14 - six.i14),
            )
            points += 1
    assert points >= 100
    assert grid_worst < 1e-12
    # Oracle agreement for N = 2..6: entrywise on (a, c, d, Re b), |Im b|
    # up to the coherence gauge, and invariant-level equality.
    oracle_worst = 0.0
    for n in range(2, 7):
        for chi_t in (0.3, 0.9, np.pi / 3, np.pi / 2, 2.2):
            rho = brute_force_pair_oracle(ModelSpec(family="oat", n=n, chi_t=chi_t))
            x = oat_pair(n, chi_t)
            oracle_worst = max(
                oracle_worst,
                abs(rho[0, 0].real - x.a),
                abs(rho[1, 1].real - x.c),
                abs(rho[3, 3].real - x.d),
                abs(rho[0, 3].real - x.b.real),
                abs(abs(rho[0, 3].imag) - abs(x.b.imag)),
                float(np.max(np.abs(
                    xform_invariants(xform_extract(rho)).as_array()
                    - xform_invariants(x).as_array()
                ))),
            )
    assert oracle_worst < 1e-10
    # The literal Im(b) exponent variant must be detectably inconsistent
    # with the family's own I14 expression.
    mismatch = 0.0
    for n in (3, 4, 5, 6):
        for chi_t in np.linspace(0.1, 1.4, 9):
            literal = xform_invariants(oat_pair(n, chi_t, paper_literal=True))
            mismatch = max(mismatch, abs(literal.i14 - oat_invariants(n, chi_t).i14))
    assert mismatch > 1e-3
    report(
        f"7 oat reproduction: PASS (grid gap {grid_worst:.3e}, oracle gap "
        f"{oracle_worst:.3e}, literal-exponent mismatch {mismatch:.3e} detected)"
    )


def test_criterion_08a_ising_analytic_grid():
    worst = 0.0
    points = 0
    for n in (3, 4, 5, 8, 16):
        for chi_t in np.linspace(0.05, 2.0 * np.pi - 0.05, 21):
            inv = ising_invariants(n, chi_t)
            six = xform_invariants(ising_pair(n, chi_t))
            worst = max(
                worst,
                abs(inv.i4 - six.i4), abs(inv.i12 - six.i12), abs(inv.i14 - six.i14),
            )
            points += 1
    assert points >= 100
    report(f"8a ising analytic grid: PASS ({points} points, max gap {worst:.3e})")
    assert worst < 1e-12


def test_criterion_08b_ising_entanglement_detection():
    confirmed = 0
    for n in (3, 4, 5, 8, 16):
        for chi_t in np.linspace(0.05, 2.0 * np.pi - 0.05, 21):
            if abs(np.sin(chi_t)) < 1e-6 or abs(np.cos(chi_t / 2.0)) < 1e-6:
                continue
            inv = ising_invariants(n, chi_t)
            assert inv.i14 < -1e-10
            assert not ppt_check(ising_pair(n, chi_t).to_matrix()).separable
            confirmed += 1
    report(
        f"8b ising I14 witness with PPT concurrence: PASS ({confirmed} grid points)"
    )
    assert confirmed > 80


def test_criterion_08c_ising_oracle_agreement(ising_ring_average):
    """Closed form against the exact periodic chain it is built from.

    The closed form is not the reduced state of any pair of the chain, so
    the oracle is matched on what the closed form is built from:

    * every N: the single-spin moment a - d of the exact
      nearest-neighbour pair;
    * N >= 4: the whole matrix, entrywise, against the X pattern
      assembled from the exact ring average ``avg`` (every pair's state,
      symmetrized under SWAP, averaged): c = Re avg[1,2],
      b = conj(avg[0,3]), the same a - d, unit trace.

    The singlet weight of the exact pair records why the literal pair
    cannot be matched for N >= 4: every X-pattern state is
    triplet-supported.  At N = 3 the exact pair is itself an X-pattern
    state with no singlet weight; the closed form still differs from it
    in b and c, because its (N-1) pair counting assumes that a pair's
    next-nearest neighbours are distinct sites, so only a - d is
    compared there.  The finer relationships are pinned in
    TestIsingOracleDiagnostics (test_models.py).
    """
    identity_gap = 0.0
    nearest_gap = 0.0
    n3_weights, ring_weights = [], []
    for n in range(3, 7):
        for chi_t in (0.7, np.pi / 2, 2.0):
            rho = brute_force_pair_oracle(ModelSpec(family="ising", n=n, chi_t=chi_t))
            x = ising_pair(n, chi_t)
            closed = x.to_matrix()
            moment = (rho[0, 0] - rho[3, 3]).real
            identity_gap = max(identity_gap, abs(moment - (x.a - x.d)))
            nearest_gap = max(nearest_gap, float(np.max(np.abs(rho - closed))))
            weight = float(np.real(SINGLET.conj() @ rho @ SINGLET))
            if n == 3:
                n3_weights.append(weight)
                continue
            ring_weights.append(weight)
            avg = ising_ring_average(n, chi_t)
            c = avg[1, 2].real
            a = (1.0 + (avg[0, 0] - avg[3, 3]).real) / 2.0 - c
            assembled = XForm.from_abc(a=a, b=np.conj(avg[0, 3]), c=c).to_matrix()
            identity_gap = max(identity_gap, float(np.max(np.abs(closed - assembled))))
    n3_weight = max(abs(w) for w in n3_weights)
    ring_weight = (min(ring_weights), max(ring_weights))
    ok = identity_gap < 1e-10 and n3_weight < 1e-12 and ring_weight[0] > 1e-3
    evidence = (
        f"identity gap {identity_gap:.3e}, oracle-pair singlet weight "
        f"{ring_weight[0]:.3f}..{ring_weight[1]:.3f} for N >= 4 and "
        f"{n3_weight:.1e} at N = 3, nearest-neighbour gap {nearest_gap:.3e}"
    )
    report(f"8c ising oracle agreement: {'PASS' if ok else 'FAIL'} ({evidence})")
    assert identity_gap < 1e-10, (
        f"closed form deviates from the exact ring channels: {evidence}"
    )
    assert ring_weight[0] > 1e-3, f"N >= 4 pair lost its singlet weight: {evidence}"
    assert n3_weight < 1e-12, f"N = 3 pair gained singlet weight: {evidence}"


def test_criterion_09_soundness_sweep():
    rng = np.random.default_rng(SEED + 5)
    fired_confirmed = 0
    silent_entangled = 0
    unsound = 0
    for k in range(10_000):
        if k % 2 == 0:
            rho = random_symmetric_density_matrix(rng)
            form = bloch_decompose(rho)
            six = SymmetricSix.from_full(makhlin_all(form))
        else:
            x = random_xform(rng)
            rho = x.to_matrix()
            six = xform_invariants(x)
        ppt = ppt_check(rho)
        try:
            fired = invariant_criteria(six)
        except I4Zero:
            fired = frozenset()
        if fired:
            if ppt.separable:
                unsound += 1
            else:
                fired_confirmed += 1
        elif not ppt.separable:
            silent_entangled += 1
    report(
        f"9 soundness sweep: PASS ({fired_confirmed} fired+confirmed, "
        f"{silent_entangled} PPT-entangled states fired no criterion [logged, "
        f"allowed], {unsound} unsound)"
    )
    assert unsound == 0
    assert fired_confirmed > 1000


def test_criterion_10_selftest_determinism(tmp_path):
    cmd = [sys.executable, "-m", "qubitpair.cli", "selftest", "--seed", "42"]
    # The subprocess runs in tmp_path, so a relative import path would not
    # resolve; hand it this interpreter's absolute one.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    first = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, env=env)
    second = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, env=env)
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout == second.stdout
    assert "result: PASS" in first.stdout
    report("10 selftest determinism: PASS (identical summaries across two runs)")
