"""Output checks that do not rely on the code path under test.

Each check returns a list of problems (empty when the output is right).
A wrong answer fails the whole run; it is never counted as a refusal.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from inputs import BAND, partial_transpose, x_matrix

#: Agreement required between the library and the references.  The values
#: compared are O(1) and both sides are accurate to about 1e-14.
VALUE_TOL = 1e-9

#: Verdicts are compared only where the ground truth is this far outside the
#: band, so a rounding-level difference at the edge is not a wrong answer.
VERDICT_EDGE = BAND * 1.01


def _truth_verdict(lam: float) -> str | None:
    if lam < -VERDICT_EDGE:
        return "Entangled"
    if lam > VERDICT_EDGE:
        return "Separable"
    return None


def parse_sweep_output(text: str, fmt: str) -> list:
    """Rows of a sweep file as dicts with numbers as floats (M, chi_t may be None)."""
    if fmt == "json":
        rows = json.loads(text)
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
        for row in rows:
            row["criteria"] = [c for c in row["criteria"].split(";") if c]
    out = []
    for row in rows:
        parsed = dict(row)
        for key in ("N", "i1", "i2", "i4", "i10", "i12", "i14", "i12_minus_i4sq", "ppt_min_eig"):
            parsed[key] = float(row[key])
        for key in ("M", "chi_t"):
            parsed[key] = None if row[key] in (None, "") else float(row[key])
        out.append(parsed)
    return out


def check_sweep_rows(grid, rows: list, invariants_of, pair_of) -> list:
    """Rows against the family's analytic invariants and an eigvalsh PT spectrum.

    ``invariants_of(family, n, m, chi_t)`` gives (i4, i12, i14) from the
    models' closed-form invariants; ``pair_of(family, n, m, chi_t)`` gives
    the pair parameters (a, b, c, d), from which the PT is built here.
    """
    problems = []
    points = grid.points
    if len(rows) != len(points):
        return [f"{grid.family}: {len(rows)} rows, expected {len(points)}"]
    for k, (row, (n, m, chi_t)) in enumerate(zip(rows, points)):
        where = f"{grid.family} row {k} (N={n}, M={m}, chi_t={chi_t})"
        if row["family"] != grid.family or row["N"] != n or row["M"] != m or row["chi_t"] != chi_t:
            problems.append(f"{where}: grid point reads {row['N']}, {row['M']}, {row['chi_t']}")
            continue
        for key, ref in zip(("i4", "i12", "i14"), invariants_of(grid.family, n, m, chi_t)):
            if abs(row[key] - ref) > VALUE_TOL:
                problems.append(f"{where}: {key} = {row[key]!r}, closed form {ref!r}")
        lam = float(np.linalg.eigvalsh(partial_transpose(x_matrix(*pair_of(grid.family, n, m, chi_t))))[0])
        if abs(row["ppt_min_eig"] - lam) > VALUE_TOL:
            problems.append(f"{where}: ppt_min_eig = {row['ppt_min_eig']!r}, eigvalsh {lam!r}")
        truth = _truth_verdict(lam)
        if truth is not None and row["verdict"] != truth:
            problems.append(f"{where}: verdict {row['verdict']}, PT ground truth {truth}")
    return problems


def check_classify_output(entry, stdout: str) -> list:
    """One successful ``classify --json`` output against the eigvalsh PT ground truth."""
    try:
        out = json.loads(stdout)
        verdict, criteria, lam = out["verdict"], out["criteria"], float(out["ppt_min_eigenvalue"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{entry.path}: unreadable output ({exc}): {stdout[:200]!r}"]
    problems = []
    if abs(lam - entry.pt_min_eig) > VALUE_TOL:
        problems.append(f"{entry.path}: ppt_min_eigenvalue {lam!r}, eigvalsh {entry.pt_min_eig!r}")
    truth = _truth_verdict(entry.pt_min_eig)
    if truth is not None and verdict != truth:
        problems.append(f"{entry.path}: verdict {verdict}, PT ground truth {truth}")
    if criteria and verdict != "Entangled":
        problems.append(f"{entry.path}: criteria {criteria} fired but verdict is {verdict}")
    return problems


def check_selftest_report(report, count: int, first_counts: dict) -> list:
    """No failures, one invariance case per draw, and the same case counts every
    time a seed repeats (``first_counts`` maps seed to the counts first seen)."""
    problems = []
    counts = tuple((s.name, s.cases) for s in report.suites)
    if report.failures:
        problems.append(f"seed {report.seed}: {report.failures} property failures")
    for name, cases in counts:
        if not 0 < cases <= count:
            problems.append(f"seed {report.seed}: suite {name} ran {cases} cases of {count} draws")
    if dict(counts).get("local_unitary_invariance") != count:
        problems.append(f"seed {report.seed}: invariance suite ran {dict(counts)} for count {count}")
    seen = first_counts.setdefault(report.seed, counts)
    if seen != counts:
        problems.append(f"seed {report.seed}: case counts {counts} differ from an earlier run {seen}")
    return problems
