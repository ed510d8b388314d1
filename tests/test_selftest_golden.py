"""Self-test reports against the recorded ones.

``data/selftest_golden.json`` holds, for seeds 0-31 at count 20 and seed
42 at count 500, each suite's case and failure counts, its maximum
deviation as ``float.hex``, the ``format_report`` text and a pin of the
random stream the suites read.  The file was regenerated when the
positivity and X-form suites began to draw as arrays (one generator call
per kind of variate instead of one sampler call per draw): they read
another part of the stream since, so their draws and deviations for a
seed changed.  The invariance suite draws first, and its entries did not
change.

The deviations are rounding noise of matrix products and eigen solves,
whose last bits depend on the BLAS/LAPACK build and the CPU kernels it
picks.  So suite names, case and failure counts and the report's words
are compared exactly and the deviations within ``NOISE``; the bit-for-bit
claim, stacked invariants equal to the frozen scalar references, is
checked on the running machine by ``test_stack.py::TestInvarianceSuite``.

Counts and deviations within ``NOISE`` cannot tell one stream from
another: the case counts almost always equal ``count``, and the
deviations are about 1e-16.  So each entry also pins the stream, in
numbers that do not depend on the machine: the positivity suite's term
count of each draw, and (a, |b|, c) of the X-form suite's first and last
draw to 12 significant digits.

The report classes are slotted dataclasses: a report a caller keeps
holds no per-instance ``__dict__``, and every assignment to one raises
``FrozenInstanceError``.

Regenerate the file (only when a change to the reports or to the stream
is intended) with ``PYTHONPATH=src python tests/test_selftest_golden.py``.
"""

import copy
import dataclasses
import json
import pickle
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qubitpair import selftest
from qubitpair.selftest import format_report, run_selftest

GOLDEN = Path(__file__).parent / "data" / "selftest_golden.json"

RUNS = [(seed, 20) for seed in range(32)] + [(42, 500)]

#: Allowed spread of a recorded deviation: a hundredth of the tightest
#: pass threshold (SIGN_ZERO_BAND = 1e-10), far above rounding noise.
NOISE = 1e-12

_DEVIATION = re.compile(r"max_deviation=(\S+)")


def report_entry(seed: int, count: int, out_dir: str) -> dict:
    terms, xforms = [], []
    real_mixtures, real_gates = selftest.separable_mixtures, selftest._xform_gates

    def mixtures(weights, vectors):
        terms.extend(np.count_nonzero(weights, axis=1).tolist())
        return real_mixtures(weights, vectors)

    def gates(a, b, c, d):
        xforms.extend([float(f"{v:.12g}") for v in (a[j], abs(b[j]), c[j])]
                      for j in (0, -1) if len(a))
        return real_gates(a, b, c, d)

    with mock.patch.object(selftest, "separable_mixtures", mixtures), \
            mock.patch.object(selftest, "_xform_gates", gates):
        report = run_selftest(seed, count, out_dir=out_dir)
    return {
        "seed": seed,
        "count": count,
        "suites": [
            {"name": s.name, "cases": s.cases, "failures": s.failures,
             "max_deviation": float.hex(s.max_deviation)}
            for s in report.suites
        ],
        "report": format_report(report),
        "stream": {"positivity_terms": terms, "xform_first_last": xforms},
    }


def _golden() -> dict:
    return {(e["seed"], e["count"]): e for e in json.loads(GOLDEN.read_text())}


def _split_deviations(entry: dict) -> tuple[dict, list[float], list[float]]:
    """``entry`` with its deviations taken out, the suites' deviations and
    the ones the report text prints."""
    suites = [{**s, "max_deviation": None} for s in entry["suites"]]
    deviations = [float.fromhex(s["max_deviation"]) for s in entry["suites"]]
    printed = [float(v) for v in _DEVIATION.findall(entry["report"])]
    words = _DEVIATION.sub("max_deviation=*", entry["report"])
    return {**entry, "suites": suites, "report": words}, deviations, printed


def test_golden_file_covers_every_run():
    assert sorted(_golden()) == sorted(RUNS)


@pytest.mark.parametrize("seed, count", RUNS)
def test_report_matches_golden(seed, count, tmp_path):
    got, got_dev, got_printed = _split_deviations(report_entry(seed, count, str(tmp_path)))
    want, want_dev, want_printed = _split_deviations(_golden()[(seed, count)])
    assert got == want
    assert got_dev == pytest.approx(want_dev, rel=0, abs=NOISE)
    assert got_printed == pytest.approx(want_printed, rel=0, abs=NOISE)


def test_report_classes_are_slotted_dataclasses(tmp_path):
    report = run_selftest(5, 3, out_dir=str(tmp_path))
    for obj in (report, *report.suites):
        assert not hasattr(obj, "__dict__")
        # A field, a property and a name the class does not have: each
        # assignment and deletion is refused the same way.
        for name in (dataclasses.fields(obj)[0].name, "failures", "count", "unknown"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.deepcopy(obj) == obj
    assert dataclasses.asdict(report) == {
        "seed": 5, "count": 3, "counterexample_path": None,
        "suites": tuple(
            {"name": s.name, "cases": s.cases, "failures": s.failures,
             "max_deviation": s.max_deviation} for s in report.suites)}
    failing = dataclasses.replace(
        report, suites=(dataclasses.replace(report.suites[0], failures=2),) + report.suites[1:])
    assert failing.failures == 2
    assert format_report(failing).endswith("result: FAIL (2 violations)")
    assert format_report(report).endswith("result: PASS")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out_dir:
        entries = [report_entry(seed, count, out_dir) for seed, count in RUNS]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(entries)} reports to {GOLDEN}\n")
