#!/usr/bin/env python3
"""Benchmark of the qubitpair pipeline: Bloch decomposition, the 18
invariants, and the PT / invariant-sign verdict.

Run from the root of a source checkout (the library is imported from
``src/``; nothing is installed):

    python3 perfbench/run.py --workload classify_files --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-function
metrics of a traced run.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report.  Full results, provenance and spans
go to ``.perfbench_work/`` in the checkout.  See README.md in this
directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("sweep_families", "classify_files", "selftest_suites")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters timed for setup_s, half before and half after the
#: timed region so the median spans more than one moment of a shared machine.
SETUP_SPAWNS = 10
SETUP_CODE = "import qubitpair.cli as cli; cli.build_parser()"


def _cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use (before numpy loads)."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def measure_setup(spawns: int) -> list:
    """Wall times of fresh interpreters importing ``qubitpair.cli`` and building its parser."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qubitpair").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, cap: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_thread_cap": {var: cap for var in THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    cap = _cap_threads()
    measure_setup(1)  # compiles the byte code; not timed
    setup_times = measure_setup(SETUP_SPAWNS // 2)
    sys.path.insert(0, str(SRC))
    import workloads  # after the thread cap: it loads numpy

    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, str(work))
    workloads.run_calls(workload, indices=list(range(workload.cover_calls)))  # warm-up

    result = {"workload": name, "trace": trace, "seconds": seconds}
    if trace:
        traced = workloads.traced_run(workload, seconds, str(work / "spans.npz"))
        records = traced.records
        problems = traced.binding_problems + workload.check(traced.baseline + records)
        metrics = {k: (v, unit, None) for k, (v, unit) in traced.per_layer.items()}
        result["call_structure"] = traced.structure
        result["spans"] = str((work / "spans.npz").relative_to(ROOT))
    else:
        records = workloads.run_calls(workload, seconds)
        setup_times += measure_setup(SETUP_SPAWNS - len(setup_times))
        problems = workload.check(records)
        metrics = {"setup_s": (statistics.median(setup_times), "s", len(setup_times))}
        metrics.update(workloads.end_to_end(records))
    attempted = sum(r.ops for r in records)
    failed = sum(r.ops for r in records if not r.outcome.ok)
    result.update(
        calls=len(records),
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        failure_kinds=workload.failure_kinds(records),
        problems=problems,
        metrics={k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        provenance={**provenance(seed, cap), "setup_spawns": len(setup_times),
                    **workload.info()},
    )
    # Large inputs are rebuilt from the seed; keep only results and spans.
    shutil.rmtree(work / "corpus", ignore_errors=True)
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")

    _print_report(result)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def _print_report(result: dict) -> None:
    print(f"workload {result['workload']}  trace {int(result['trace'])}  "
          f"{result['calls']} calls, {result['attempted']} ops attempted, "
          f"{result['failed']} refused (fail_ratio {result['fail_ratio']:.4f})")
    for kind, n in sorted(result["failure_kinds"].items()):
        print(f"  refused  {kind}: {n}")
    for name, m in result["metrics"].items():
        samples = "" if m["samples"] is None else f"  n={m['samples']}"
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}{samples}")
    for name, c in result.get("call_structure", {}).items():
        mark = "ok" if c["expected"] == c["traced"] else "CHANGED"
        print(f"  structure {name}: traced {c['traced']}, expected {c['expected']} {mark}")
    for problem in result["problems"][:20]:
        print(f"  WRONG  {problem}")
    print("provenance " + json.dumps(result["provenance"]))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (peak memory is per process)."""
    rows, correct = [], True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        correct &= bool(result and result["correct"])
        rows.append((name, result))
    print()
    for name, result in rows:
        if result is None:
            print(f"{name}: FAILED TO RUN")
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"    {metric:52s} {m['value']:.6g} {m['unit']}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qubitpair" / "cli.py").is_file():
        print(f"error: {SRC / 'qubitpair'} not found; run from a qubitpair source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
