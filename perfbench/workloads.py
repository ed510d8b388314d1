"""The three workloads: inputs, the timed loop, metrics and output checks.

Closed loop with one caller in one process: each call into the library
starts when the previous one has returned.  A *call* is one
``cli.main`` or ``run_selftest`` invocation; an *op* is the unit of work
it completes (a sweep row, a state file, a self-test case).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import time
from dataclasses import dataclass

import numpy as np

import inputs
import oracles
import tracer as tracing

from qubitpair import cli, models, selftest, separability, stateio


@dataclass
class Outcome:
    code: object          # exit code of cli.main, or None if it raised
    exc: str | None       # class name of an exception that escaped the call
    stdout: str = ""
    report: object = None
    ops: int = 0

    @property
    def ok(self) -> bool:
        return self.exc is None and self.code == 0


@dataclass
class Record:
    index: int            # position in the workload's call plan
    seconds: float
    outcome: Outcome

    @property
    def ops(self) -> int:
        return self.outcome.ops


def run_cli(argv: list, ops: int) -> Outcome:
    """Call ``cli.main`` with captured output, recording how it ended."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            return Outcome(exc.code, "SystemExit", out.getvalue(), ops=ops)
        except Exception as exc:  # noqa: BLE001  (recorded as a failure kind)
            return Outcome(None, type(exc).__name__, out.getvalue(), ops=ops)
    return Outcome(code, None, out.getvalue(), ops=ops)


class Workload:
    """A cycled plan of calls plus the checks on what they returned."""

    name = ""
    block_calls = 1       # a timed run stops only after a whole block of calls
    cover_calls = 1       # first calls of the plan that reach every kind of input;
                          # they warm up the run and feed the binding check

    def __len__(self) -> int:
        raise NotImplementedError

    def call(self, index: int) -> Outcome:
        raise NotImplementedError

    def check(self, records: list) -> list:
        raise NotImplementedError

    def failure_kinds(self, records: list) -> dict:
        kinds: dict = {}
        for r in records:
            if not r.outcome.ok:
                key = f"{r.outcome.exc or 'exit'}/{r.outcome.code}"
                kinds[key] = kinds.get(key, 0) + r.ops
        return kinds

    def expected_counts(self, records: list) -> dict:
        """Call counts the current call structure implies (reported, not a gate)."""
        return {}

    def info(self) -> dict:
        return {}


class SweepFamilies(Workload):
    """``qubitpair sweep`` over seeded OAT, Ising and Dicke grids."""

    name = "sweep_families"
    cover_calls = 3

    def __init__(self, seed: int, work: str):
        self.grids = inputs.sweep_grids(seed)
        self.paths = [
            os.path.join(work, f"sweep{k:02d}-{g.family}.{g.fmt}") for k, g in enumerate(self.grids)
        ]

    def __len__(self):
        return len(self.grids)

    def call(self, index):
        grid = self.grids[index]
        return run_cli(grid.argv(self.paths[index]), len(grid.points))

    def check(self, records):
        problems = []
        for index in sorted({r.index for r in records if r.outcome.ok}):
            grid = self.grids[index]
            with open(self.paths[index], encoding="utf-8") as fh:
                rows = oracles.parse_sweep_output(fh.read(), grid.fmt)
            problems += oracles.check_sweep_rows(grid, rows, _family_invariants, _family_pair)
        return problems

    def expected_counts(self, records):
        rows = sum(r.ops for r in records)
        return {
            "cli.main": len(records),
            "qmat.hermitian_eigenvalues": rows,
            "states.bloch_decompose": rows,
            "invariants.makhlin_all": rows,
        }

    def info(self):
        digests = {}
        for path in self.paths:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
        return {"sweep_output_sha256": digests}


def _family_invariants(family, n, m, chi_t):
    if family == "dicke":
        inv = models.dicke_invariants(n, m)
    elif family == "oat":
        inv = models.oat_invariants(n, chi_t)
    else:
        inv = models.ising_invariants(n, chi_t)
    return inv.i4, inv.i12, inv.i14


def _family_pair(family, n, m, chi_t):
    if family == "dicke":
        x = models.dicke_pair(n, m)
    elif family == "oat":
        x = models.oat_pair(n, chi_t)
    else:
        x = models.ising_pair(n, chi_t)
    return x.a, x.b, x.c, x.d


class ClassifyFiles(Workload):
    """``qubitpair classify --json`` once per pre-staged state file."""

    name = "classify_files"
    block_calls = inputs.BLOCK_SIZE
    cover_calls = inputs.BLOCK_SIZE

    def __init__(self, seed: int, work: str):
        self.corpus = inputs.build_corpus(seed, os.path.join(work, "corpus"))
        self._kinds: dict = {}

    def __len__(self):
        return len(self.corpus)

    def call(self, index):
        return run_cli(["classify", self.corpus[index].path, "--json"], 1)

    def check(self, records):
        problems = []
        for r in records:
            if r.outcome.ok:
                problems += oracles.check_classify_output(self.corpus[r.index], r.outcome.stdout)
        return problems

    def _refusal_class(self, index: int) -> str:
        """Exception class behind a non-zero exit, found by calling the library
        directly once per refused file, outside any timed region."""
        if index not in self._kinds:
            try:
                separability.classify(stateio.read_state_file(self.corpus[index].path))
                self._kinds[index] = "none"
            except Exception as exc:  # noqa: BLE001  (only the class is recorded)
                self._kinds[index] = type(exc).__name__
        return self._kinds[index]

    def failure_kinds(self, records):
        """Refusals by exception class, exit code and corpus stratum, so a
        refusal outside the near-boundary stratum shows as its own kind."""
        kinds: dict = {}
        for r in records:
            if not r.outcome.ok:
                exc = r.outcome.exc or self._refusal_class(r.index)
                key = f"{exc}/{r.outcome.code} ({self.corpus[r.index].stratum})"
                kinds[key] = kinds.get(key, 0) + 1
        return kinds

    def expected_counts(self, records):
        files = len(records)
        bloch = sum(self.corpus[r.index].representation == "bloch" for r in records)
        return {
            "cli.main": files,
            "stateio.read_state_file": files,
            "states.assert_density_matrix": 2 * files,
            "states.bloch_compose": bloch,
            "qmat.hermitian_eigenvalues": 3 * files + bloch,
        }

    def info(self):
        strata: dict = {}
        for e in self.corpus:
            key = f"{e.stratum}/{e.representation}"
            strata[key] = strata.get(key, 0) + 1
        return {"corpus_files": len(self.corpus), "corpus_strata": strata}


class SelftestSuites(Workload):
    """``run_selftest(seed, count)`` in process over seeded self-test seeds."""

    name = "selftest_suites"

    def __init__(self, seed: int, work: str):
        self.seeds = inputs.selftest_seeds(seed)
        self.work = work
        self.count = inputs.SELFTEST_COUNT

    def __len__(self):
        return len(self.seeds)

    def call(self, index):
        try:
            report = selftest.run_selftest(self.seeds[index], self.count, out_dir=self.work)
        except Exception as exc:  # noqa: BLE001  (recorded as a failure kind)
            return Outcome(None, type(exc).__name__, ops=3 * self.count)
        code = 1 if report.failures else 0
        return Outcome(code, None, report=report, ops=sum(s.cases for s in report.suites))

    def check(self, records):
        first_counts: dict = {}
        problems = []
        for r in records:
            if r.outcome.report is not None:
                problems += oracles.check_selftest_report(r.outcome.report, self.count, first_counts)
        return problems

    def expected_counts(self, records):
        calls = len(records)
        xform_cases = sum(
            s.cases for r in records if r.outcome.report for s in r.outcome.report.suites
            if s.name == "xform_pt_equivalence"
        )
        return {
            "selftest.run_selftest": calls,
            "sampling.random_density_matrix": self.count * calls,
            "qmat.haar_su2": 2 * self.count * calls,
            "sampling.random_xform": self.count * calls,
            "qmat.hermitian_eigenvalues": xform_cases,
        }


WORKLOADS = {w.name: w for w in (SweepFamilies, ClassifyFiles, SelftestSuites)}


def run_calls(workload, seconds=None, indices=None, tracer=None) -> list:
    """Timed closed loop over the cycled plan.

    Runs whole blocks until ``seconds`` have passed, or exactly the plan
    positions in ``indices``.  With a tracer, each call's spans carry the
    call's position in the returned list as their op id.
    """
    records = []
    started = time.perf_counter()
    position = 0
    while True:
        if indices is not None:
            if position == len(indices):
                break
            index = indices[position]
        else:
            if position % workload.block_calls == 0 and position and \
                    time.perf_counter() - started >= seconds:
                break
            index = position % len(workload)
        if tracer is not None:
            tracer.op_id = position
        t0 = time.perf_counter()
        outcome = workload.call(index)
        records.append(Record(index, time.perf_counter() - t0, outcome))
        position += 1
    return records


def end_to_end(records) -> dict:
    """Throughput, per-op latency, completion ratio and peak memory, with sample counts.

    The run cycles through its plan, so every call is repeated; timings use
    each plan position's fastest repeat.  On a shared machine the speed of
    the CPU a process gets drifts by tens of percent over seconds, and the
    fastest of several repeats spread over the run is the figure that
    repeats from run to run.  On sweep and selftest a call completes many
    ops, so a position's per-op latency is its call time over its ops.
    """
    best: dict = {}
    repeats: dict = {}
    for r in records:
        repeats[r.index] = repeats.get(r.index, 0) + 1
        if r.index not in best or r.seconds < best[r.index].seconds:
            best[r.index] = r
    fastest = list(best.values())
    seconds = np.array([r.seconds for r in fastest])
    ok_ops = np.array([r.ops if r.outcome.ok else 0 for r in fastest])
    per_op_us = seconds / np.array([max(r.ops, 1) for r in fastest]) * 1e6
    attempted = sum(r.ops for r in records)
    completed = sum(r.ops for r in records if r.outcome.ok)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = f"{len(fastest)} inputs x >= {min(repeats.values())} repeats"
    return {
        "ops_per_s": (float(ok_ops.sum() / seconds.sum()), "1/s", samples),
        "op_p50_us": (float(np.percentile(per_op_us, 50)), "us", samples),
        "op_p99_us": (float(np.percentile(per_op_us, 99)), "us", samples),
        "ok_ratio": (completed / attempted, "ratio", f"{completed} of {attempted} ops"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", "1 process"),
    }


@dataclass
class TraceResult:
    per_layer: dict
    binding_problems: list
    structure: dict
    records: list
    baseline: list


def traced_run(workload, seconds: float, spans_path: str) -> TraceResult:
    """Untraced pass for half the time, then the same calls traced.

    The ratio of the two passes' call time is the tracing overhead.  Before
    the traced pass, the first calls are replayed under the profile hook to
    show that every call of a traced function produced a span.
    """
    baseline = run_calls(workload, seconds / 2.0)
    indices = [r.index for r in baseline]
    problems = tracing.binding_problems(
        lambda: run_calls(workload, indices=indices[: workload.cover_calls]))
    tr = tracing.Tracer()
    with tr.installed():
        records = run_calls(workload, indices=indices, tracer=tr)
    tr.save(spans_path)
    ops = sum(r.ops for r in records)
    calls, self_s = tr.counts(), tr.self_seconds()
    per_layer = {}
    for i, name in enumerate(tracing.NAMES):
        per_layer[f"{name}.calls"] = (int(calls[i]), "count")
        per_layer[f"{name}.self_s"] = (float(self_s[i]), "s")
        per_layer[f"{name}.calls_per_op"] = (float(calls[i] / ops), "count/op")
    per_layer["trace.overhead_ratio"] = (
        sum(r.seconds for r in records) / sum(r.seconds for r in baseline), "ratio")
    structure = {
        name: {"expected": want, "traced": int(calls[tracing.NAMES.index(name)])}
        for name, want in workload.expected_counts(records).items()
    }
    return TraceResult(per_layer, problems, structure, records, baseline)
