"""Self-test reports against the ones recorded before the stacked suite.

``data/selftest_golden.json`` holds, for seeds 0-31 at count 20 and seed
42 at count 500, each suite's case and failure counts, its maximum
deviation as ``float.hex`` and the ``format_report`` text, as written
before the invariance suite was evaluated as one stack.

The deviations are rounding noise of matrix products and eigen solves,
whose last bits depend on the BLAS/LAPACK build and the CPU kernels it
picks.  So suite names, case and failure counts and the report's words
are compared exactly and the deviations within ``NOISE``; the bit-for-bit
claim, stacked invariants equal to the frozen scalar references, is
checked on the running machine by ``test_stack.py::TestInvarianceSuite``.

The report classes are slotted dataclasses: a report a caller keeps
holds no per-instance ``__dict__``.

Regenerate the file (only when a change to the reports is intended) with
``PYTHONPATH=src python tests/test_selftest_golden.py``.
"""

import dataclasses
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from qubitpair.selftest import format_report, run_selftest

GOLDEN = Path(__file__).parent / "data" / "selftest_golden.json"

RUNS = [(seed, 20) for seed in range(32)] + [(42, 500)]

#: Allowed spread of a recorded deviation: a hundredth of the tightest
#: pass threshold (SIGN_ZERO_BAND = 1e-10), far above rounding noise.
NOISE = 1e-12

_DEVIATION = re.compile(r"max_deviation=(\S+)")


def report_entry(seed: int, count: int, out_dir: str) -> dict:
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
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, dataclasses.fields(obj)[0].name, None)
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
