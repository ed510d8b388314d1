"""``makhlin_stack`` and the X pattern's closed forms against the exact
rational oracle of ``exact_oracle``.

Every entry of every row of ``makhlin_stack`` must lie within
``exact_oracle.BOUND`` (one C for all 18 columns) of the exact invariant
of the float (s, r, T) it was given, in units of eps times the
invariant's polynomial on absolute values.  The states are drawn by
hypothesis and from the script's seeded sample: dense, triplet-supported,
X-pattern, and the model families with N up to 1000.

Every entry of ``makhlin_xform_stack``, and the sweep's I12 - I4^2, must
lie within ``exact_oracle.XFORM_BOUND`` of the exact invariant of the X
matrix whose entries are the float parameters, on hypothesis draws, the
script's seeded draws and the model families' grids.
"""

import ast
import itertools
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_oracle as eo
from qubitpair.invariants import makhlin_stack, makhlin_xform_stack, xform_invariants
from qubitpair.models import dicke_pair, ising_pair, oat_pair
from qubitpair.separability import _xform_evidence
from qubitpair.states import XForm, _pauli_decomposition, bloch_decompose_stack, xform_matrices

UNIT = st.floats(-1.0, 1.0)


def assert_within_bound(rhos):
    """Each row of ``makhlin_stack`` of the states is within BOUND of exact."""
    s, r, t = bloch_decompose_stack(np.asarray(rhos, dtype=complex))
    for row in zip(makhlin_stack(s, r, t), s, r, t):
        errors = eo.errors_in_eps(*row)
        assert max(errors) <= eo.BOUND, dict(zip(eo.NAMES, errors))


def state_from(entries, d):
    """G G^dag / tr of the complex d x d matrix whose parts are ``entries``."""
    g = np.reshape(entries[:d * d], (d, d)) + 1j * np.reshape(entries[d * d:], (d, d))
    return eo.gram_states(g) if np.vdot(g, g).real > 1e-6 else None


def test_the_oracle_module_imports_the_standard_library_only():
    """The exact arithmetic shares no code with ``qubitpair``: at module
    level the oracle imports the standard library only (the script's
    sampler and runner import the library they measure)."""
    tree = ast.parse(Path(eo.__file__).read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert "fractions" in imported
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}, imported


def test_triples_and_i14_match_their_epsilon_definitions(rng):
    """The oracle's u . (v x w) and 2 s . (cof(T) r) are the epsilon sums
    eps_ijk u_i v_j w_k and eps_ijk eps_lmn s_i r_l t_jm t_kn, exactly."""
    eps = {p: (-1) ** sum(a > b for a, b in itertools.combinations(p, 2))
           for p in itertools.permutations(range(3))}
    for _ in range(5):
        s, r, t = rng.normal(size=3), rng.normal(size=3), rng.normal(size=(3, 3))
        fs, fr = [Fraction(x) for x in s], [Fraction(x) for x in r]
        ft = [[Fraction(x) for x in row] for row in t]
        exact = eo.exact_invariants(s, r, t)
        i14 = sum(e * f * fs[i] * fr[l] * ft[j][m] * ft[k][n]
                  for (i, j, k), e in eps.items() for (l, m, n), f in eps.items())
        assert exact[13] == i14
        assert exact[0] == sum(e * ft[0][i] * ft[1][j] * ft[2][k] for (i, j, k), e in eps.items())
        tr_s = [sum(ft[k][i] * fs[k] for k in range(3)) for i in range(3)]
        assert exact[15] == sum(e * tr_s[i] * fr[j] * sum(
            ft[m][k] * ft[m][n] * fr[n] for m in range(3) for n in range(3))
            for (i, j, k), e in eps.items())


def test_exact_on_small_integer_forms(rng):
    """On entries that are small integers every float operation is exact,
    so ``makhlin_stack`` must equal the oracle with no error at all."""
    entries = rng.integers(-3, 4, size=(200, 15)).astype(float)
    s, r, t = entries[:, :3], entries[:, 3:6], entries[:, 6:].reshape(-1, 3, 3)
    for row in zip(makhlin_stack(s, r, t), s, r, t):
        assert [Fraction(float(v)) for v in row[0]] == eo.exact_invariants(*row[1:])


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_sample(seed):
    rhos, kinds = eo._sample(seed, 40)
    assert sorted(set(kinds)) == ["dense", "family", "triplet", "xform"]
    assert_within_bound(rhos)


@settings(max_examples=40, deadline=None)
@given(st.lists(UNIT, min_size=32, max_size=32))
def test_dense_states(entries):
    rho = state_from(entries, 4)
    if rho is not None:
        assert_within_bound([rho])


@settings(max_examples=40, deadline=None)
@given(st.lists(UNIT, min_size=18, max_size=18))
def test_triplet_supported_states(entries):
    rho3 = state_from(entries, 3)
    if rho3 is not None:
        assert_within_bound([eo.triplet_embedded(rho3)])


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi))
def test_x_pattern_states(wa, wd, wc, radius, phase):
    total = wa + wd + wc
    if total == 0.0:
        return
    a, d, c = wa / total, wd / total, wc / total / 2.0
    b = radius * np.sqrt(a * d) * np.exp(1j * phase)
    assert_within_bound(eo.x_pattern(a, d, c, b))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["oat", "oat-paper-literal", "ising", "dicke"]),
       st.integers(3, 1000), st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 1.0))
def test_family_states(family, n, chi_t, m_fraction):
    if family == "dicke":
        x = dicke_pair(n, round(m_fraction * n) - n / 2.0)
    elif family == "ising":
        x = ising_pair(n, chi_t)
    else:
        x = oat_pair(n, chi_t, paper_literal=family == "oat-paper-literal")
    assert_within_bound([x.to_matrix()])


def assert_xform_within_bound(a, b, c, d):
    """The sweep's invariants and I12 - I4^2 of the X-pattern matrices of the
    ``(k,)`` parameter arrays are within XFORM_BOUND of exact."""
    ev = _xform_evidence(*(np.asarray(v) for v in (a, b, c, d)))
    worst = eo.xform_worst_errors(ev.invariants, ev.i12_minus_i4sq, a, b, c, d)
    assert max(worst) <= eo.XFORM_BOUND, dict(zip(eo.XFORM_NAMES, worst))


def test_x_oracle_is_the_pauli_traces_of_the_matrix(rng):
    """On small-integer parameters the Pauli traces are exact, so the
    oracle's written-out Bloch entries must give what the general oracle
    gives of the traces, and every closed form must be exact, the zero
    columns +0.0."""
    a, re_b, im_b, c, d = rng.integers(-3, 4, size=(5, 200)).astype(float)
    abcd = (a, re_b + 1j * im_b, c, d)
    closed = makhlin_xform_stack(*abcd)
    for row, s, r, t, params in zip(closed, *_pauli_decomposition(xform_matrices(*abcd)),
                                    zip(a, re_b, im_b, c, d)):
        exact = eo.exact_xform_invariants(*(Fraction(float(v)) for v in params))
        assert exact == eo.exact_invariants(s, r, t)
        assert [Fraction(float(v)) for v in row] == exact
    assert not np.signbit(closed[closed == 0.0]).any()


@pytest.mark.parametrize("seed", [1, 2])
def test_xform_seeded_draws(seed):
    assert_xform_within_bound(*eo.x_parameters(np.random.default_rng(seed), 150))


@pytest.mark.parametrize("family", ["oat", "oat-paper-literal", "ising", "dicke"])
def test_xform_family_grids(family):
    assert_xform_within_bound(*eo.family_grids(stride=4)[family])


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi))
def test_xform_closed_forms(wa, wd, wc, radius, phase):
    total = wa + wd + wc
    if total == 0.0:
        return
    a, d, c = wa / total, wd / total, wc / total / 2.0
    b = radius * np.sqrt(a * d) * np.exp(1j * phase)
    assert_xform_within_bound([a], [b], [c], [d])


@pytest.mark.parametrize("family", ["oat", "oat-paper-literal"])
def test_xform_i14_keeps_its_relative_accuracy_on_oat(family):
    """On OAT, Re b = -c exactly, so T_xx = 0 and D = -T_xy T_xy has one
    rounding: I14 = 2 z^2 D is then within gamma_5 (2.5 eps) of exact
    relative to itself, which c^2 - |b|^2 would not keep (it cancels).
    ``xform_invariants`` of each row's pair, the ``invariants`` command's
    closed form, keeps it too.  Rows whose I14 lies within 2^22 of the
    subnormal range are not read: there a factor can underflow."""
    a, b, c, d = eo.family_grids(stride=4)[family]
    assert np.array_equal(b.real, -c)
    i14 = makhlin_xform_stack(a, b, c, d)[:, 13]
    read = 0
    for value, params in zip(i14.tolist(), zip(a.tolist(), b.tolist(), c.tolist(), d.tolist())):
        exact = eo.exact_xform_invariants(*eo._xform_rationals(*params))[13]
        if abs(exact) >= Fraction(1, 2 ** 1000):
            read += 1
            for got in (value, xform_invariants(XForm(*params)).i14):
                assert abs(Fraction(got) - exact) <= 3 * eo.EPS * abs(exact), params
    assert read > len(i14) // 2
