"""Tests of the benchmark itself: seeded inputs, output oracles, and the
binding check of the traced run.  From the root of the checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import qubitpair.cli  # noqa: E402
import qubitpair.separability  # noqa: E402


def _corpus_bytes(seed, out_dir):
    entries = inputs.build_corpus(seed, str(out_dir), blocks=2)
    return [Path(e.path).read_bytes() for e in entries]


def test_same_seed_same_inputs(tmp_path):
    assert _corpus_bytes(7, tmp_path / "a") == _corpus_bytes(7, tmp_path / "b")
    assert inputs.sweep_grids(7) == inputs.sweep_grids(7)
    assert inputs.selftest_seeds(7) == inputs.selftest_seeds(7)


def test_other_seed_other_inputs(tmp_path):
    assert _corpus_bytes(7, tmp_path / "a") != _corpus_bytes(8, tmp_path / "b")
    assert inputs.sweep_grids(7) != inputs.sweep_grids(8)
    assert inputs.selftest_seeds(7) != inputs.selftest_seeds(8)


def test_each_block_holds_one_predicted_refusal(tmp_path):
    entries = inputs.build_corpus(3, str(tmp_path), blocks=4)
    for start in range(0, len(entries), inputs.BLOCK_SIZE):
        block = entries[start:start + inputs.BLOCK_SIZE]
        assert [e.stratum for e in block].count("boundary_refused") == 1
    for e in entries:
        if e.stratum == "boundary_refused":
            # Entangled, but only inside the band, where the verdict goes unchecked.
            assert -inputs.BAND < e.pt_min_eig < 0.0


def _sweep(tmp_path, index):
    grid = inputs.sweep_grids(3)[index]
    path = str(tmp_path / f"out.{grid.fmt}")
    assert workloads.run_cli(grid.argv(path), len(grid.points)).ok
    rows = oracles.parse_sweep_output(Path(path).read_text(), grid.fmt)
    return grid, rows


def _check_sweep(grid, rows):
    return oracles.check_sweep_rows(grid, rows, workloads._family_invariants, workloads._family_pair)


def test_sweep_oracle_rejects_perturbed_i12(tmp_path):
    grid, rows = _sweep(tmp_path, 0)
    assert grid.fmt == "csv"
    assert _check_sweep(grid, rows) == []
    rows[5]["i12"] += 1e-6
    assert any("i12" in p for p in _check_sweep(grid, rows))


def test_sweep_oracle_rejects_flipped_verdict(tmp_path):
    grid, rows = _sweep(tmp_path, 1)
    assert grid.fmt == "json"
    assert _check_sweep(grid, rows) == []
    row = min(rows, key=lambda r: r["ppt_min_eig"])
    assert row["verdict"] == "Entangled" and row["ppt_min_eig"] < -1e-6
    row["verdict"] = "Separable"
    assert any("verdict" in p for p in _check_sweep(grid, rows))


def test_classify_oracle_rejects_wrong_answers(tmp_path):
    corpus = inputs.build_corpus(4, str(tmp_path), blocks=4)
    entangled = next(e for e in corpus if e.pt_min_eig < -1e-6)
    separable = next(e for e in corpus if e.pt_min_eig > 1e-6)
    for entry in (entangled, separable):
        out = workloads.run_cli(["classify", entry.path, "--json"], 1)
        assert out.ok and oracles.check_classify_output(entry, out.stdout) == []

    def planted(entry, **change):
        out = json.loads(workloads.run_cli(["classify", entry.path, "--json"], 1).stdout)
        return oracles.check_classify_output(entry, json.dumps({**out, **change}))

    assert planted(entangled, verdict="Separable")
    assert planted(separable, verdict="Entangled")
    assert planted(separable, criteria=["I12_negative"])
    assert planted(entangled, ppt_min_eigenvalue=entangled.pt_min_eig + 1e-6)


def test_selftest_oracle_rejects_failures_and_changed_counts(tmp_path):
    count = 10
    report = qubitpair.selftest.run_selftest(5, count, out_dir=str(tmp_path))
    assert oracles.check_selftest_report(report, count, {}) == []
    failing = dataclasses.replace(
        report, suites=(dataclasses.replace(report.suites[0], failures=1),) + report.suites[1:])
    assert oracles.check_selftest_report(failing, count, {})
    first = {}
    oracles.check_selftest_report(report, count, first)
    fewer = dataclasses.replace(
        report, suites=report.suites[:2] + (dataclasses.replace(report.suites[2], cases=count - 1),))
    assert oracles.check_selftest_report(fewer, count, first)


@pytest.mark.parametrize("workload, site, function", [
    ("classify_files", ("qubitpair.cli", "classify"), "separability.classify"),
    ("selftest_suites", ("qubitpair.selftest", "bloch_decompose"), "states.bloch_decompose"),
    ("sweep_families", ("qubitpair.qmat", "hermitian_eigenvalues"), "qmat.hermitian_eigenvalues"),
])
def test_binding_check_finds_an_unwrapped_site(tmp_path, workload, site, function):
    w = workloads.WORKLOADS[workload](11, str(tmp_path))

    def run():
        workloads.run_calls(w, indices=list(range(w.cover_calls)))

    assert tracer.binding_problems(run) == []
    problems = tracer.binding_problems(run, skip={site})
    assert [p.split(":")[0] for p in problems] == [function]


def test_tracer_restores_every_binding():
    before = qubitpair.cli.classify
    with tracer.Tracer().installed():
        assert qubitpair.cli.classify is not before
        assert qubitpair.cli.classify is qubitpair.separability.classify
    assert qubitpair.cli.classify is before is qubitpair.separability.classify


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    # span 0: cli.main 0..100 ns; span 1: a child 10..30; span 2: its child 12..20
    for kind, parent, start, end in ((0, -1, 0, 100), (1, 0, 10, 30), (7, 1, 12, 20)):
        t.kind.append(kind)
        t.parent.append(parent)
        t.op.append(0)
        t.start.append(start)
        t.end.append(end)
    self_s = t.self_seconds() * 1e9
    assert round(self_s[0]) == 80 and round(self_s[1]) == 12 and round(self_s[7]) == 8


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_families", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
