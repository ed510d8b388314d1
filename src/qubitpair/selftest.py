"""Seeded property suites runnable from the command line.

Three suites mirror the library's central guarantees:

* ``local_unitary_invariance``: all 18 invariants are stable under random
  local rotations of random states.
* ``separable_positivity``: sampled separable symmetric states never
  drive I12, I14 or I12 - I4^2 below the zero band.
* ``xform_pt_equivalence``: on random special-pattern states the
  criteria signs agree with the partial-transpose signs and the
  closed-form PT spectrum matches the numeric one.

The invariance suite draws its states one by one and then evaluates all
of them, references and rotations, as one ``(2 count, 4, 4)`` stack
through ``states.bloch_decompose_stack`` and ``invariants.makhlin_stack``,
the path ``sweep`` takes, which equals the scalar path bit for bit.  The
positivity and X-form suites stay on the scalar path on purpose:
``bloch_decompose``, ``makhlin_all``, ``ppt_check`` and
``xform_equivalence_check`` one state at a time, as ``classify`` and
``invariants`` run them, so the self-test covers both implementations.

Deterministic for a fixed seed.  On the first violation the offending
state is serialized for reproduction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import invariants as invariants_mod
from .qmat import haar_su2
from .sampling import random_density_matrix, random_xform
from .separability import ppt_check, sample_separable_symmetric, xform_equivalence_check, xform_pt_eigenvalues
from .states import apply_local_unitary, bloch_decompose, bloch_decompose_stack
from .stateio import write_state_file
from .tolerances import INVARIANCE_ABS, INVARIANCE_REL, SIGN_ZERO_BAND

COUNTEREXAMPLE_FILENAME = "selftest_counterexample.json"

_I4_FLOOR = 1e-8


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: int
    max_deviation: float


@dataclass(frozen=True)
class SelfTestReport:
    seed: int
    count: int
    suites: tuple
    counterexample_path: str | None

    @property
    def failures(self) -> int:
        return sum(s.failures for s in self.suites)


class _CounterexampleWriter:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.path: str | None = None

    def record(self, rho: np.ndarray) -> None:
        if self.path is not None:
            return
        path = os.path.join(self.out_dir, COUNTEREXAMPLE_FILENAME)
        write_state_file(path, matrix=rho)
        self.path = path


def _suite_invariance(count, rng, writer) -> SuiteResult:
    # Each draw's reference and rotated state sit side by side in one
    # (2 count, 4, 4) stack, so a refusal replays in the order the draws
    # were made and raises the scalar path's error for the first one.
    states = []
    for _ in range(count):
        rho = random_density_matrix(rng)
        u1, u2 = haar_su2(rng), haar_su2(rng)
        states += [rho, apply_local_unitary(rho, u1, u2)]
    states = np.array(states).reshape(-1, 4, 4)
    s, r, t, valid = bloch_decompose_stack(states)
    for rho in states[~valid]:
        bloch_decompose(rho)  # raises for the first refused state
    inv = invariants_mod.makhlin_stack(s, r, t)
    ref, rotated = inv[0::2], inv[1::2]
    # Normalizing by max(|I|, ABS/REL) folds the absolute floor into one
    # relative-style deviation with threshold INVARIANCE_REL.
    floor = INVARIANCE_ABS / INVARIANCE_REL
    dev = np.max(np.abs(rotated - ref) / np.maximum(np.abs(ref), floor), axis=1)
    failed = np.flatnonzero(dev > INVARIANCE_REL)
    if failed.size:
        writer.record(states[2 * failed[0]])
    return SuiteResult("local_unitary_invariance", count, int(failed.size),
                       float(dev.max(initial=0.0)))


def _suite_positivity(count, rng, writer) -> SuiteResult:
    failures = 0
    cases = 0
    max_dev = 0.0
    for _ in range(count):
        n_terms = int(rng.integers(1, 7))
        rho, _ = sample_separable_symmetric(n_terms, rng)
        # Mixed product factors carry singlet weight, so project the full
        # set instead of going through the exchange-constraint gate.
        six = invariants_mod.SymmetricSix.from_full(
            invariants_mod.makhlin_all(bloch_decompose(rho))
        )
        if six.i4 <= _I4_FLOOR:
            continue
        cases += 1
        worst = min(six.i12, six.i14, six.i12 - six.i4 ** 2)
        dev = max(0.0, -worst)
        max_dev = max(max_dev, dev)
        if worst < -SIGN_ZERO_BAND:
            failures += 1
            writer.record(rho)
    return SuiteResult("separable_positivity", cases, failures, max_dev)


def _suite_xform_equivalence(count, rng, writer) -> SuiteResult:
    failures = 0
    cases = 0
    max_dev = 0.0
    for _ in range(count):
        x = random_xform(rng)
        # The floor lies above SIGN_ZERO_BAND, so xform_equivalence_check
        # never meets the degenerate (a - d)^2 it raises on.
        if (x.a - x.d) ** 2 <= _I4_FLOOR or x.c + abs(x.b) <= _I4_FLOOR:
            continue
        cases += 1
        rho = x.to_matrix()
        closed = np.sort(xform_pt_eigenvalues(x))
        numeric = ppt_check(rho).min_eig
        spectrum_dev = abs(float(closed[0]) - numeric)
        max_dev = max(max_dev, spectrum_dev)
        if not xform_equivalence_check(x) or spectrum_dev > SIGN_ZERO_BAND:
            failures += 1
            writer.record(rho)
    return SuiteResult("xform_pt_equivalence", cases, failures, max_dev)


def run_selftest(seed: int, count: int, out_dir: str = ".") -> SelfTestReport:
    """Run all suites with ``count`` draws each from a single seeded generator."""
    rng = np.random.default_rng(seed)
    writer = _CounterexampleWriter(out_dir)
    suites = (
        _suite_invariance(count, rng, writer),
        _suite_positivity(count, rng, writer),
        _suite_xform_equivalence(count, rng, writer),
    )
    return SelfTestReport(
        seed=seed, count=count, suites=suites, counterexample_path=writer.path
    )


def format_report(report: SelfTestReport) -> str:
    lines = [f"selftest seed={report.seed} count={report.count}"]
    for s in report.suites:
        lines.append(
            f"{s.name:26s} cases={s.cases:<6d} failures={s.failures:<3d} "
            f"max_deviation={s.max_deviation:.3e}"
        )
    if report.failures:
        lines.append(f"result: FAIL ({report.failures} violations)")
        if report.counterexample_path:
            lines.append(f"counterexample: {report.counterexample_path}")
    else:
        lines.append("result: PASS")
    return "\n".join(lines)
