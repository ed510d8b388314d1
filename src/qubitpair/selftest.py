"""Seeded property suites runnable from the command line.

Three suites mirror the library's central guarantees:

* ``local_unitary_invariance``: all 18 invariants are stable under random
  local rotations of random states.
* ``separable_positivity``: sampled separable symmetric states never
  drive I12, I14 or I12 - I4^2 below the zero band.
* ``xform_pt_equivalence``: on random special-pattern states the
  criteria signs agree with the partial-transpose signs and the
  closed-form PT spectrum matches the numeric one.

Deterministic for a fixed seed.  On the first violation the offending
state is serialized for reproduction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import invariants as invariants_mod
from .errors import DegenerateHypothesis
from .qmat import haar_su2
from .sampling import random_density_matrix, random_xform
from .separability import ppt_check, sample_separable_symmetric, xform_equivalence_check, xform_pt_eigenvalues
from .states import apply_local_unitary, bloch_decompose
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
    failures = 0
    max_dev = 0.0
    # Normalizing by max(|I|, ABS/REL) folds the absolute floor into one
    # relative-style deviation with threshold INVARIANCE_REL.
    floor = INVARIANCE_ABS / INVARIANCE_REL
    for _ in range(count):
        rho = random_density_matrix(rng)
        u1, u2 = haar_su2(rng), haar_su2(rng)
        ref = invariants_mod.makhlin_all(bloch_decompose(rho)).as_array()
        rotated = invariants_mod.makhlin_all(
            bloch_decompose(apply_local_unitary(rho, u1, u2))
        ).as_array()
        dev = float(np.max(np.abs(rotated - ref) / np.maximum(np.abs(ref), floor)))
        max_dev = max(max_dev, dev)
        if dev > INVARIANCE_REL:
            failures += 1
            writer.record(rho)
    return SuiteResult("local_unitary_invariance", count, failures, max_dev)


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
        if (x.a - x.d) ** 2 <= _I4_FLOOR or x.c + abs(x.b) <= _I4_FLOOR:
            continue
        cases += 1
        rho = x.to_matrix()
        closed = np.sort(xform_pt_eigenvalues(x))
        numeric = ppt_check(rho).min_eig
        spectrum_dev = abs(float(closed[0]) - numeric)
        max_dev = max(max_dev, spectrum_dev)
        try:
            signs_agree = xform_equivalence_check(x)
        except DegenerateHypothesis:
            signs_agree = True
        if not signs_agree or spectrum_dev > SIGN_ZERO_BAND:
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
