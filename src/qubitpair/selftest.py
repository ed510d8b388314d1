"""Seeded property suites runnable from the command line.

Three suites mirror the library's central guarantees:

* ``local_unitary_invariance``: all 18 invariants are stable under random
  local rotations of random states.
* ``separable_positivity``: sampled separable symmetric states never
  drive I12, I14 or I12 - I4^2 below the zero band.
* ``xform_pt_equivalence``: on random special-pattern states the
  criteria signs agree with the partial-transpose signs and the
  closed-form PT spectrum matches the numeric one.  The criteria read the
  closed form the sweep prints (``invariants.makhlin_xform_stack``), so
  the suite holds the sweep's numbers to the partial transpose.

The suites take their draws from one generator in a fixed order, one
generator call per kind of variate: the invariance suite's normals, the
positivity suite's ensembles, then the X-form suite's parameters.  The
invariance suite draws all of its normals as one block, on the stream
the scalar samplers take draw by draw, and builds its states, references
and rotations, as one ``(2 count, 4, 4)`` stack; both Haar factors of
every draw come from one ``su2_from_normals`` call, unitary by
construction, so the rotation is ``states._conjugate``, the product of
``apply_local_unitary`` without its unitarity gates.  The positivity suite
draws its term counts in one call and its ensembles with
``separability._ensemble_draws``, and builds its separable states as one
``(count, 4, 4)`` stack.  ``run_selftest`` evaluates the two stacks as
one: one Pauli decomposition ``states.bloch_decompose_stack`` and one
contraction ``invariants.makhlin_stack`` per run (``bloch_decompose``
and ``makhlin_all``, and so ``classify``, are their one-row cases), and
each suite reads its rows of the result.  Once per run the positivity
suite also decomposes its first draw with ``bloch_decompose``: a form
that differs from that draw's row of the stack in any bit fails the
draw, so every run checks that the scalar path is the stack's one-row
case.  The X-form suite draws its parameters as ``(count,)`` arrays
with ``sampling._xform_draws``, gates them once with ``XForm``'s rule
and evaluates them at once: one batched eigen solve of the partial
transposes, and one call each of the closed forms under test,
``xform_pt_eigenvalues_stack`` and ``xform_equivalence_stack``.  The
public samplers ``sample_separable_symmetric`` and ``random_xform`` are
the one-row cases of those two draw functions.

Deterministic for a fixed seed.  Each suite returns its ``SuiteResult``
and its first failing state (none or one, as a stack);
``run_selftest`` serializes the first of them in suite order for
reproduction.
"""

from __future__ import annotations

import os
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from . import invariants as invariants_mod
from .errors import _raise_first
from .qmat import hermitian_eigenvalues, su2_from_normals
from .sampling import _xform_draws, hilbert_schmidt_states
from .separability import (
    _criteria_columns, _ensemble_draws, partial_transpose, separable_mixtures,
    xform_equivalence_stack, xform_pt_eigenvalues_stack,
)
from .states import (
    _abs, _conjugate, _xform_gates, bloch_decompose, bloch_decompose_stack,
    xform_matrices,
)
from .stateio import write_state_file
from .tolerances import INVARIANCE_ABS, INVARIANCE_REL, SIGN_ZERO_BAND

COUNTEREXAMPLE_FILENAME = "selftest_counterexample.json"

_I4_FLOOR = 1e-8
# The positivity suite's ensembles have 1 to _MAX_TERMS terms.
_MAX_TERMS = 6


def _frozen_slots(cls):
    """``dataclass(frozen=True, slots=True)`` on which any assignment or
    deletion raises FrozenInstanceError.  Before Python 3.12 the methods
    that ``frozen`` generates name the class as it was before ``slots``
    rebuilt it, so assigning a name that is not a field raised TypeError."""
    cls = dataclass(frozen=True, slots=True)(cls)

    def refuse(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to or delete {name!r}")

    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


@_frozen_slots
class SuiteResult:
    name: str
    cases: int
    failures: int
    max_deviation: float


@_frozen_slots
class SelfTestReport:
    seed: int
    count: int
    suites: tuple
    counterexample_path: str | None

    @property
    def failures(self) -> int:
        return sum(s.failures for s in self.suites)


def _invariance_states(count, rng) -> np.ndarray:
    """The invariance suite's draws as one ``(2 count, 4, 4)`` stack: each
    Hilbert-Schmidt state next to its copy rotated by two Haar SU(2)
    factors, equal bit for bit to the scalar samplers called draw by draw.

    A draw takes 40 standard normals in the order those samplers take
    them, 32 for the Ginibre matrix and 4 for each factor, so one
    ``(count, 40)`` block is the same stream.
    """
    normals = rng.normal(size=(count, 40))
    rhos = hilbert_schmidt_states(normals[:, :32].reshape(count, 2, 4, 4))
    u = su2_from_normals(normals[:, 32:].reshape(count, 2, 4))
    return np.stack([rhos, _conjugate(rhos, u[:, 0], u[:, 1])], axis=1).reshape(-1, 4, 4)


def _positivity_states(count, rng) -> np.ndarray:
    """The positivity suite's draws as one ``(count, 4, 4)`` stack: ``count``
    term counts, 1 to _MAX_TERMS, in one generator call, then the ensembles
    of ``separability._ensemble_draws``, built as one stack."""
    lengths = rng.integers(1, _MAX_TERMS + 1, size=count)
    return separable_mixtures(*_ensemble_draws(lengths, rng))


def _suite_invariance(states, inv) -> tuple:
    # Each draw's reference and rotated state sit side by side: rows 2j and
    # 2j + 1 of the states and of their invariants.
    ref, rotated = inv[0::2], inv[1::2]
    # Normalizing by max(|I|, ABS/REL) folds the absolute floor into one
    # relative-style deviation with threshold INVARIANCE_REL.
    floor = INVARIANCE_ABS / INVARIANCE_REL
    dev = np.max(np.abs(rotated - ref) / np.maximum(np.abs(ref), floor), axis=1)
    failed = np.flatnonzero(dev > INVARIANCE_REL)
    return SuiteResult("local_unitary_invariance", len(ref), int(failed.size),
                       float(dev.max(initial=0.0))), states[2 * failed[:1]]


def _suite_positivity(states, bloch, inv) -> tuple:
    # Mixed product factors carry singlet weight, so the full set is read
    # without the triplet-support gate.  The floor lies above
    # SIGN_ZERO_BAND, so no case is an I4-zero fallback.
    cases = inv[:, 3] > _I4_FLOOR
    values, fired, _ = _criteria_columns(inv[:, 3], inv[:, 11], inv[:, 13])
    failing = cases & fired.any(axis=1)
    # The scalar path is the stack's one-row case: once per run, the first
    # draw's bloch_decompose must equal its row of the stack bit for bit
    # (the sign of zero included), or that draw fails.
    if len(states):
        form = bloch_decompose(states[0])
        if any(a.tobytes() != b[0].tobytes() for a, b in zip((form.s, form.r, form.t), bloch)):
            failing[0] = True
    failed = np.flatnonzero(failing)
    # The largest max(0, -value) over the cases' criteria, 0 when there is none.
    max_dev = max(0.0, -float(values[cases].min(initial=np.inf)))
    return SuiteResult("separable_positivity", int(cases.sum()), int(failed.size),
                       max_dev), states[failed[:1]]


def _suite_xform_equivalence(count, rng) -> tuple:
    # All draws are made before the one gate: the first refused draw
    # raises the error its XForm raises.
    a, b, c, d = _xform_draws(count, rng)
    _raise_first(_xform_gates(a, b, c, d))
    # The floor lies above SIGN_ZERO_BAND, so no case has the degenerate
    # (a - d)^2 on which xform_equivalence_check raises.
    cases = ((a - d) * (a - d) > _I4_FLOOR) & (c + _abs(b) > _I4_FLOOR)
    a, b, c, d = (column[cases] for column in (a, b, c, d))
    states = xform_matrices(a, b, c, d)
    # One PT solve for every case, through the two functions ppt_check calls.
    numeric = hermitian_eigenvalues(partial_transpose(states))[:, 0]
    closed = xform_pt_eigenvalues_stack(a, b, c, d).min(axis=1)
    dev = np.abs(closed - numeric)
    failed = np.flatnonzero(~xform_equivalence_stack(a, b, c, d) | (dev > SIGN_ZERO_BAND))
    return SuiteResult("xform_pt_equivalence", int(cases.sum()), int(failed.size),
                       float(dev.max(initial=0.0))), states[failed[:1]]


def run_selftest(seed: int, count: int, out_dir: str = ".") -> SelfTestReport:
    """Run all suites with ``count`` draws each from a single seeded generator.

    Raises ValueError if ``count`` is negative.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    pairs, separable = _invariance_states(count, rng), _positivity_states(count, rng)
    # One decomposition and one contraction for both stacks, in draw order,
    # so a refusal raises the error of the first refused state alone.
    s, r, t = bloch_decompose_stack(np.concatenate([pairs, separable]))
    inv = invariants_mod.makhlin_stack(s, r, t)
    split = len(pairs)
    runs = [
        _suite_invariance(pairs, inv[:split]),
        _suite_positivity(separable, (s[split:], r[split:], t[split:]), inv[split:]),
        _suite_xform_equivalence(count, rng),
    ]
    counterexamples = [first for _, first in runs if len(first)]
    path = None
    if counterexamples:
        path = os.path.join(out_dir, COUNTEREXAMPLE_FILENAME)
        write_state_file(path, counterexamples[0][0])
    return SelfTestReport(seed=seed, count=count, suites=tuple(result for result, _ in runs),
                          counterexample_path=path)


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
