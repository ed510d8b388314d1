"""The sweep as arrays: family closed forms, the XForm rule and the row formatter.

``pair_parameters`` evaluates a family's closed form over a whole grid, and
``_sweep_text`` writes the rows straight from the evidence arrays.  Both are
checked here against frozen copies of the per-point code they replaced:
the scalar ``*_pair`` bodies with ``XForm``'s checks and ``to_matrix``, and
the dict rows written by ``_csv_line`` and ``json.dumps(rows, indent=2)``.
Equality is bit for bit (``float.hex``), and an invalid grid must raise the
error of its first bad point, as the per-point loop did.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubitpair import cli
from qubitpair.errors import InvalidDensityMatrix, InvalidDicke, NotPositive, _raise_first, _refused
from qubitpair.models import (
    dicke_pair, ising_invariants, ising_pair, oat_invariants, oat_pair, pair_parameters,
)
from qubitpair.separability import CRITERIA, EvidenceStack
from qubitpair.states import XForm, _xform_gates, xform_matrices
from qubitpair.tolerances import PSD_FLOOR, TRACE

# ---------------------------------------------------------------------------
# Frozen: the per-point closed forms as they were written before grids
# became arrays, and XForm's rule (the positivity rule reads the pattern's
# closed-form minimum eigenvalue on the PSD floor).  Each returns
# (a, b, c, d) or raises.
# ---------------------------------------------------------------------------


def reference_xform(a, b, c, d):
    if not all(np.isfinite([a, c, d])) or not np.isfinite(complex(b)):
        raise ValueError("XForm parameters must be finite")
    if abs(a + d + 2.0 * c - 1.0) > 1e-10:
        raise InvalidDensityMatrix(
            f"trace constraint a + d + 2c = 1 violated by {a + d + 2 * c - 1:.3e}"
        )
    min_eig = min(2.0 * c, ((a + d) - np.hypot(a - d, 2.0 * abs(b))) / 2.0)
    if min_eig < -1e-9:
        raise NotPositive(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")
    return a, b, c, d


def reference_from_abc(a, b, c):
    return reference_xform(a, b, c, 1.0 - a - 2.0 * c)


def reference_to_matrix(a, b, c, d):
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = a
    rho[0, 3] = b
    rho[3, 0] = np.conj(b)
    rho[1, 1] = rho[1, 2] = rho[2, 1] = rho[2, 2] = c
    rho[3, 3] = d
    return rho


def reference_validate_dicke(n, m):
    if not np.isfinite(m):
        raise InvalidDicke(f"M must be finite, got M = {m}")
    two_m = 2.0 * m
    if abs(two_m - round(two_m)) > 1e-12:
        raise InvalidDicke(f"2M must be an integer, got M = {m}")
    two_m = int(round(two_m))
    if abs(two_m) > n:
        raise InvalidDicke(f"|M| <= N/2 required, got N = {n}, M = {m}")
    if (n + two_m) % 2 != 0:
        raise InvalidDicke(
            f"M must step from -N/2 in integer increments: N = {n}, M = {m}"
        )


def reference_dicke_pair(n, m):
    if n < 2:
        raise InvalidDicke("need at least two qubits")
    reference_validate_dicke(n, m)
    denom = 4.0 * n * (n - 1.0)
    a = (n + 2.0 * m) * (n + 2.0 * m - 2.0) / denom
    c = (n * n - 4.0 * m * m) / denom
    return reference_from_abc(a, 0.0 + 0.0j, c)


def reference_oat_pair(n, chi_t, paper_literal=False):
    if n < 2:
        raise ValueError("need at least two qubits")
    cos2 = np.cos(2.0 * chi_t) ** (n - 2)
    cos1 = np.cos(chi_t)
    a = (3.0 + cos2 - 4.0 * cos1 ** (n - 1)) / 8.0
    c = (1.0 - cos2) / 8.0
    exponent = n - 1 if paper_literal else n - 2
    im_b = 0.5 * cos1 ** exponent * np.sin(chi_t)
    return reference_from_abc(a, complex(-c, im_b), c)


def reference_ising_pair(n, chi_t):
    if n < 2:
        raise ValueError("need at least two qubits")
    if n == 2:
        warnings.warn(
            "ising_pair with n=2: the closed form assumes a pair embedded in a "
            "longer chain",
            stacklevel=2,
        )
    s = np.sin(chi_t)
    cos_half = np.cos(chi_t / 2.0)
    denom = 8.0 * (n - 1.0)
    a = (4.0 * (n - 1.0) * (1.0 + cos_half * cos_half) - s * s) / denom
    b = -s * (s + 4.0j) / denom
    c = s * s / denom
    return reference_from_abc(float(a), complex(b), float(c))


def reference_pair(family, n, m, chi_t, paper_literal=False):
    if family == "dicke":
        return reference_dicke_pair(n, m)
    if family == "oat":
        return reference_oat_pair(n, chi_t, paper_literal=paper_literal)
    return reference_ising_pair(n, chi_t)


def one_point_pair(family, n, m, chi_t, paper_literal=False):
    if family == "dicke":
        return dicke_pair(n, m)
    if family == "oat":
        return oat_pair(n, chi_t, paper_literal=paper_literal)
    return ising_pair(n, chi_t)


def hexes(a, b, c, d):
    b = complex(b)
    return tuple(float(v).hex() for v in (a, b.real, b.imag, c, d))


def assert_matrix_bits(got, want):
    for part in ("real", "imag"):
        g, w = getattr(np.asarray(got), part), getattr(np.asarray(want), part)
        assert [v.hex() for v in g.ravel().tolist()] == [v.hex() for v in w.ravel().tolist()]


def assert_grid_is_the_loop(family, points, paper_literal=False, one_point=None):
    """``pair_parameters`` of ``points`` against the frozen per-point loop:
    equal parameters and matrices bit for bit, or the loop's first error.
    ``one_point`` lists the indices whose ``*_pair`` result is checked too
    (all of them by default)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # ising at N = 2
        try:
            want = [reference_pair(family, *p, paper_literal) for p in points]
        except Exception as exc:  # noqa: BLE001  (the loop's first error is the oracle)
            with pytest.raises(type(exc)) as info:
                pair_parameters(family, points, paper_literal)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
            return
        got = pair_parameters(family, points, paper_literal)
        rows = [hexes(*p) for p in zip(*(v.tolist() for v in got))]
        assert rows == [hexes(*w) for w in want]
        for rho, w in zip(xform_matrices(*got), want):
            assert_matrix_bits(rho, reference_to_matrix(*w))
        for j in range(len(points)) if one_point is None else one_point:
            x = one_point_pair(family, *points[j], paper_literal)
            assert hexes(x.a, x.b, x.c, x.d) == hexes(*want[j])
            assert_matrix_bits(x.to_matrix(), reference_to_matrix(*want[j]))


SPECIAL_CHI_T = [0.0, -0.0, np.pi / 2, np.pi, 2 * np.pi]
chi_ts = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(SPECIAL_CHI_T))


class TestClosedFormsAreTheScalarLoop:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(2, 10 ** 4), chi_ts), min_size=1, max_size=12),
           st.booleans())
    @example([(2, 0.5), (3, np.pi), (10 ** 4, 1e-3)], True)
    def test_oat(self, grid, paper_literal):
        assert_grid_is_the_loop("oat", [(n, None, chi_t) for n, chi_t in grid], paper_literal)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(2, 10 ** 4), chi_ts), min_size=1, max_size=12))
    @example([(3, 0.5), (2, np.pi), (10 ** 4, -7.0)])
    @example([(3, 0.5), (2, 0.5)])  # N = 2 at a generic chi t: the second point is refused
    def test_ising(self, grid):
        assert_grid_is_the_loop("ising", [(n, None, chi_t) for n, chi_t in grid])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 10 ** 4))
    @example(2)
    @example(10 ** 4)
    def test_dicke_every_valid_m(self, n):
        points = [(n, two_m / 2.0, None) for two_m in range(-n, n + 1, 2)]
        spread = sorted({0, 1, len(points) // 2, len(points) - 1, *range(0, len(points), 97)})
        assert_grid_is_the_loop("dicke", points, one_point=spread)

    def test_dicke_grid_of_several_n(self):
        points = [(n, m, None) for n in (2, 3, 4, 7, 40) for m in np.arange(-n / 2, n / 2 + 0.5)]
        assert_grid_is_the_loop("dicke", [(n, float(m), None) for n, m, _ in points])


class TestInvalidGridRaisesItsFirstBadPoint:
    @pytest.mark.parametrize("family, points", [
        ("ising", [(2, None, 0.5)]),                                  # N = 2, generic chi t
        ("ising", [(3, None, 0.5), (2, None, 1.1), (2, None, 0.5)]),
        ("ising", [(2, None, 0.5), (1, None, 0.5)]),                  # XForm refusal first
        ("ising", [(1, None, 0.5), (2, None, 0.5)]),                  # family refusal first
        ("oat", [(4, None, 0.5), (1, None, 0.5)]),
        ("dicke", [(4, 0.3, None)]),                                  # 2M not an integer
        ("dicke", [(4, 0.5, None)]),                                  # N + 2M odd
        ("dicke", [(4, 3.0, None)]),                                  # |M| > N/2
        ("dicke", [(1, 0.5, None)]),
        ("dicke", [(4, 1.0, None), (6, -3.0, None), (4, 2.5, None), (1, 0.3, None)]),
        ("dicke", [(4, 1.0, None), (8, 0.25, None), (4, 9.0, None)]),
    ])
    def test_same_error_as_the_loop(self, family, points):
        with pytest.raises(Exception):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                [reference_pair(family, *p) for p in points]
        assert_grid_is_the_loop(family, points)

    @pytest.mark.parametrize("family", ["oat", "ising"])
    @pytest.mark.parametrize("chi_t", [np.inf, -np.inf, np.nan])
    def test_non_finite_chi_t_raises_before_numpy(self, family, chi_t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning of cos(inf) would raise here
            for build in (lambda: pair_parameters(family, [(3, None, 0.1), (4, None, chi_t)]),
                          lambda: one_point_pair(family, 2, None, chi_t),
                          lambda: {"oat": oat_invariants, "ising": ising_invariants}[family](
                              4, chi_t)):
                with pytest.raises(ValueError) as info:
                    build()
                assert str(info.value) == f"chi_t must be finite, got chi_t = {chi_t}"

    def test_huge_dicke_m_is_refused_by_its_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDicke, match=r"^\|M\| <= N/2 required"):
                pair_parameters("dicke", [(4, 1e308, None)])


class TestIsingWarning:
    TEXT = "ising_pair with n=2: the closed form assumes a pair embedded in a longer chain"

    def test_sweep_warns_once_from_cli(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["sweep", "ising", "--n", "2,3", "--chit", "0,3.141592653589793",
                             "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, self.TEXT)]
        assert caught[0].filename == cli.__file__

    def test_one_point_warning_names_the_caller(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ising_pair(2, np.pi)
        assert [str(w.message) for w in caught] == [self.TEXT]
        assert caught[0].filename == __file__

    def test_no_warning_after_the_first_refused_point(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="chi_t must be finite"):
                pair_parameters("ising", [(3, None, np.nan), (2, None, np.pi)])
        assert caught == []


class TestCli:
    def test_non_finite_chi_t_exits_2_without_a_warning(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["sweep", "oat", "--n", "4", "--chit", "inf", "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", "error: chi_t must be finite, got chi_t = inf\n")
        assert caught == []
        assert not out.exists()

    def test_ising_n2(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            bad = cli.main(["sweep", "ising", "--n", "2", "--chit", "0.5",
                            "--out", str(tmp_path / "x.csv")])
            good = cli.main(["sweep", "ising", "--n", "2", "--chit", "3.141592653589793",
                             "--format", "json", "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert (bad, good) == (2, 0)
        assert err.startswith("error: not positive semidefinite: min eigenvalue")

    def test_generate_is_the_one_point_pair(self, tmp_path, capsys):
        code = cli.main(["generate", "oat", "--n", "7", "--chit", "0.3", "--paper-literal"])
        payload = json.loads(capsys.readouterr().out)["xform"]
        want = reference_oat_pair(7, 0.3, paper_literal=True)
        assert code == 0
        assert hexes(payload["a"], complex(payload["b_re"], payload["b_im"]), payload["c"],
                     1.0 - payload["a"] - 2.0 * payload["c"]) == hexes(*want)


def neighbours(x, count):
    """x and its ``count`` nearest floats on either side, in ascending order."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return [float(v) for v in below[:0:-1] + above]


def trace_edge_rows():
    """Rows whose trace excess a + d + 2c - 1 takes the nearest values on
    either side of +TRACE and -TRACE, for a few (b, c, d)."""
    rows = []
    for b, c, d in ((0.0, 0.1, 0.3), (0.05 - 0.02j, 0.2, 0.15), (0.0, 0.0, 0.0)):
        for target in (TRACE, -TRACE):
            rows += [(a, b, c, d) for a in neighbours(1.0 - d - 2.0 * c + target, 4)]
    return rows


def floor_edge_rows():
    """Rows whose closed-form minimum eigenvalue takes the nearest values on
    either side of PSD_FLOOR: through 2c (PSD_FLOOR and its neighbours,
    exactly), and through the corner block, with |b| stepped by ulps, at
    several phases of b and with a != d."""
    rows = [(0.5 - two_c / 2.0, 0.0, two_c / 2.0, 0.5 - two_c / 2.0)
            for two_c in neighbours(PSD_FLOOR, 2)]
    for a, d in ((0.4, 0.4), (0.6, 0.2), (0.05, 0.35)):
        total, c = a + d, (1.0 - a - d) / 2.0
        radius = 0.5 * np.sqrt((total - 2.0 * PSD_FLOOR) ** 2 - (a - d) ** 2)
        for phase in (0.0, 1.0, np.pi / 2):
            rows += [(a, r * np.exp(1j * phase), c, d) for r in neighbours(radius, 6)]
    return rows


def hypot_disagreements(count=3):
    """Rows next to PSD_FLOOR on which ``np.hypot`` and ``math.hypot`` put the
    corner block's minimum eigenvalue on opposite sides of the floor, in
    both directions (``count`` each), found by a seeded search: about one
    row in 8,000 near the floor is one."""
    rng = np.random.default_rng(2021)
    found = {True: [], False: []}  # keyed by whether numpy's value passes the floor
    while min(map(len, found.values())) < count:
        a, d = rng.uniform(0.05, 0.45, size=2).tolist()
        radius = 0.5 * math.sqrt((a + d - 2.0 * PSD_FLOOR) ** 2 - (a - d) ** 2)
        for r in neighbours(radius, 20):
            numpy_passes = 0.5 * ((a + d) - float(np.hypot(a - d, 2.0 * r))) >= PSD_FLOOR
            if numpy_passes != (0.5 * ((a + d) - math.hypot(a - d, 2.0 * r)) >= PSD_FLOOR):
                found[numpy_passes].append((a, complex(r), (1.0 - a - d) / 2.0, d))
    return found[True][:count] + found[False][:count]


def non_finite_rows():
    """A clean row with NaN, inf or -inf in each parameter in turn (both parts of b)."""
    clean = (0.3, 0.1 + 0.05j, 0.2, 0.3)
    rows = []
    for slot in range(4):
        for value in (np.nan, np.inf, -np.inf):
            for part in ((value,) if slot != 1 else (complex(value, 0.0), complex(0.0, value))):
                rows.append(clean[:slot] + (part,) + clean[slot + 1:])
    return rows


def reference_error(a, b, c, d):
    """The error ``reference_xform`` raises for one row, or None."""
    try:
        reference_xform(a, b, c, d)
    except (ValueError, InvalidDensityMatrix, NotPositive) as error:
        return error
    return None


def assert_gates_are_the_frozen_rule(rows):
    """``_xform_gates`` on ``rows`` refuses the rows ``reference_xform``
    refuses, each with its class and message; ``XForm`` of each row raises
    exactly that row's error, or nothing; and ``_raise_first`` raises the
    first.  No step warns."""
    a, b, c, d = (np.array(column) for column in zip(*rows))
    b = b.astype(complex)
    points = list(zip(a.tolist(), b.tolist(), c.tolist(), d.tolist()))
    want = [reference_error(*p) for p in points]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gates = _xform_gates(a, b, c, d)
        refused = _refused(gates)
        assert refused.tolist() == [e is not None for e in want]
        for j, (point, e) in enumerate(zip(points, want)):
            if e is None:
                XForm(*point)
                continue
            got = next(error(j) for mask, error in gates if mask[j])
            assert (type(got), str(got)) == (type(e), str(e))
            with pytest.raises(type(e)) as info:
                XForm(*point)
            assert str(info.value) == str(e)
        first = next((e for e in want if e is not None), None)
        if first is None:
            _raise_first(gates)
        else:
            with pytest.raises(type(first)) as info:
                _raise_first(gates)
            assert str(info.value) == str(first)
    return want


class TestTheArrayXRuleIsTheScalarRule:
    """``XForm``'s rule, written once as arrays (``states._xform_gates``),
    refuses the rows the frozen per-point rule (``reference_xform``)
    refuses, with its messages, on the rows next to each bound; ``XForm``
    is its one-row case."""

    def test_non_finite_parameters(self):
        want = assert_gates_are_the_frozen_rule(non_finite_rows())
        assert {str(e) for e in want} == {"XForm parameters must be finite"}

    def test_trace_excess_on_either_side_of_the_band(self):
        want = assert_gates_are_the_frozen_rule(trace_edge_rows())
        kinds = {type(e) for e in want}
        assert kinds == {type(None), InvalidDensityMatrix}

    def test_minimum_eigenvalue_on_either_side_of_the_floor(self):
        rows = floor_edge_rows()
        want = assert_gates_are_the_frozen_rule(rows)
        assert {type(e) for e in want} == {type(None), NotPositive}
        # The floor itself passes, and the float below it is refused.
        assert want[2] is None and isinstance(want[1], NotPositive)
        assert rows[2][2] * 2.0 == PSD_FLOOR

    def test_rows_where_the_two_hypots_disagree(self):
        """The root is libm's hypot (``np.hypot``), not ``math.hypot``: the
        first three rows pass the floor on it and are accepted, the last
        three are refused."""
        want = assert_gates_are_the_frozen_rule(hypot_disagreements())
        assert want[:3] == [None] * 3
        assert [type(e) for e in want[3:]] == [NotPositive] * 3

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(-0.1, 1.1), st.floats(0.0, 0.6), st.floats(0.0, 2 * np.pi),
        st.floats(-1e-9, 0.5), st.integers(-3, 3), st.sampled_from([0.0, TRACE, -TRACE]),
    ), min_size=1, max_size=20))
    def test_random_rows_next_to_the_bounds(self, draws):
        rows = []
        for a, radius, phase, c, ulps, excess in draws:
            d = 1.0 - a - 2.0 * c + excess
            for _ in range(abs(ulps)):
                d = float(np.nextafter(d, np.sign(ulps) * np.inf))
            rows.append((a, radius * np.exp(1j * phase), c, d))
        assert_gates_are_the_frozen_rule(rows)


# ---------------------------------------------------------------------------
# Frozen: the dict rows and the two writers the row formatter replaced.
# ---------------------------------------------------------------------------

REFERENCE_COLUMNS = (
    "family", "N", "M", "chi_t", "i1", "i2", "i4", "i10", "i12", "i14",
    "i12_minus_i4sq", "ppt_min_eig", "verdict", "criteria",
)


def reference_fmt(x):
    return format(float(x), ".17g")


def reference_rows(family, points, ev):
    per_point = zip(
        points,
        ev.invariants[:, [0, 1, 3, 9, 11, 13]].tolist(),
        ev.i12_minus_i4sq.tolist(),
        ev.ppt_min_eigenvalue.tolist(),
        ev.separable.tolist(),
        ev.criteria.tolist(),
    )
    return [dict(zip(REFERENCE_COLUMNS, (
        family, n, m, chi_t, *six, gap, pt,
        "Separable" if separable else "Entangled",
        sorted(name for name, hit in zip(CRITERIA, fired) if hit),
    ))) for (n, m, chi_t), six, gap, pt, separable, fired in per_point]


def reference_csv_line(r):
    return ",".join([
        r["family"],
        str(r["N"]),
        reference_fmt(r["M"]) if r["M"] is not None else "",
        reference_fmt(r["chi_t"]) if r["chi_t"] is not None else "",
        *map(reference_fmt, [r[k] for k in REFERENCE_COLUMNS[4:12]]),
        r["verdict"],
        ";".join(r["criteria"]),
    ])


def reference_text(family, points, ev, as_json):
    rows = reference_rows(family, points, ev)
    if as_json:
        return json.dumps(rows, indent=2) + "\n"
    return "\n".join([",".join(REFERENCE_COLUMNS)] + [reference_csv_line(r) for r in rows]) + "\n"


def evidence(values, pt, criteria):
    """An EvidenceStack whose sweep columns hold ``values`` (k, 7) and ``pt``."""
    values = np.asarray(values, dtype=float).reshape(-1, 7)
    inv = np.full((len(values), 18), 0.125)
    inv[:, [0, 1, 3, 9, 11, 13]] = values[:, :6]
    return EvidenceStack(
        invariants=inv,
        ppt_min_eigenvalue=np.asarray(pt, dtype=float),
        i12_minus_i4sq=values[:, 6],
        criteria=np.asarray(criteria, dtype=bool).reshape(-1, 3),
        i4_zero_fallback=np.zeros(len(values), dtype=bool),
    )


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1 / 3, 2.5e-16]


class TestRowFormatter:
    @pytest.mark.parametrize("as_json", [False, True])
    def test_edge_rows(self, as_json):
        points = [(4, None, 0.0), (6, None, -0.0), (8, 5e-324, None), (10, -1e300, None),
                  (12, 1e300, None), (2, None, None)]
        values = np.array([np.roll(EDGE_VALUES, j)[:7] for j in range(len(points))])
        pt = [0.0, -0.0, -5e-324, -1e300, 1e300, -1e-10]
        criteria = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 0, 1]]
        for family in ("oat", "dicke"):
            ev = evidence(values, pt, criteria)
            assert cli._sweep_text(family, points, ev, as_json) == reference_text(
                family, points, ev, as_json)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(2, 10 ** 6),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
        st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(EDGE_VALUES)), min_size=8, max_size=8),
        st.lists(st.booleans(), min_size=3, max_size=3),
    ), min_size=1, max_size=6), st.booleans())
    def test_equals_the_dict_rows(self, rows, as_json):
        points = [(n, m, chi_t) for n, m, chi_t, _, _ in rows]
        ev = evidence([v[:7] for *_, v, _ in rows], [v[7] for *_, v, _ in rows],
                      [c for *_, c in rows])
        assert cli._sweep_text("ising", points, ev, as_json) == reference_text(
            "ising", points, ev, as_json)
