"""Seeded property suites runnable from the command line.

Three suites mirror the library's central guarantees:

* ``local_unitary_invariance``: all 18 invariants are stable under random
  local rotations of random states.
* ``separable_positivity``: sampled separable symmetric states never
  drive I12, I14 or I12 - I4^2 below the zero band.
* ``xform_pt_equivalence``: on random special-pattern states the
  criteria signs agree with the partial-transpose signs and the
  closed-form PT spectrum matches the numeric one.

The suites take their draws from one generator in a fixed order, on the
stream the public scalar samplers would take draw by draw, and evaluate
them as stacks through the one Pauli decomposition
``states.bloch_decompose_stack`` and the one contraction
``invariants.makhlin_stack`` (``bloch_decompose`` and ``makhlin_all``, and
so ``classify``, are their one-row cases).  The invariance suite draws
all of its normals as one block and builds its states, references and
rotations, as one ``(2 count, 4, 4)`` stack, which it decomposes at
once.  The positivity suite makes its sampler calls per draw, then
builds, decomposes and contracts all of its separable states as one
stack.  Each stacked state equals the scalar sampler's state bit for
bit.  Once per run the positivity suite also decomposes its first draw
with ``bloch_decompose``: a form that differs from row 0 of the stack in
any bit fails that draw, so every run checks that the scalar path is the
stack's one-row case.  The X-form suite draws its parameters one by
one, on ``random_xform``'s stream, gates them once with ``XForm``'s rule
and then evaluates them as ``(k,)`` arrays: one batched eigen solve of
the partial transposes, and one call each of the closed forms under
test, ``xform_pt_eigenvalues_stack`` and
``xform_equivalence_stack``.

Deterministic for a fixed seed.  On the first violation the offending
state is serialized for reproduction.
"""

from __future__ import annotations

import os
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from . import invariants as invariants_mod
from .qmat import float_pow, hermitian_eigenvalues, su2_from_normals
from .sampling import _xform_draw, hilbert_schmidt_states
from .separability import (
    _abs, _ball_points, _criteria_columns, _ensemble_draw, partial_transpose, separable_mixtures,
    xform_equivalence_stack, xform_pt_eigenvalues_stack,
)
from .states import (
    _raise_first, _xform_gates, apply_local_unitary, bloch_decompose, bloch_decompose_stack,
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
    u1, u2 = su2_from_normals(normals[:, 32:36]), su2_from_normals(normals[:, 36:])
    return np.stack([rhos, apply_local_unitary(rhos, u1, u2)], axis=1).reshape(-1, 4, 4)


def _positivity_states(count, rng) -> np.ndarray:
    """The positivity suite's draws as one ``(count, 4, 4)`` stack, equal bit
    for bit to ``sample_separable_symmetric`` called draw by draw.

    Each draw makes that sampler's calls on the generator, in its order
    and sizes; the Bloch vectors and the states are then built for all
    draws at once, each ensemble padded with zeros to _MAX_TERMS terms.
    """
    lengths = np.zeros(count, dtype=int)
    weights = np.zeros((count, _MAX_TERMS))
    normals = np.zeros((count, _MAX_TERMS, 3))
    uniforms = np.zeros((count, _MAX_TERMS))
    for j in range(count):
        n = lengths[j] = int(rng.integers(1, _MAX_TERMS + 1))
        weights[j, :n], normals[j, :n], uniforms[j, :n] = _ensemble_draw(n, rng)
    terms = np.arange(_MAX_TERMS) < lengths[:, None]
    vectors = np.zeros((count, _MAX_TERMS, 3))
    vectors[terms] = _ball_points(normals[terms], uniforms[terms])
    return separable_mixtures(weights, vectors)


def _suite_invariance(count, rng, writer) -> SuiteResult:
    # Each draw's reference and rotated state sit side by side in one
    # stack, so a refusal raises the error of the first refused state in
    # the order the draws were made.
    states = _invariance_states(count, rng)
    inv = invariants_mod.makhlin_stack(*bloch_decompose_stack(states))
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
    # One decomposition and one contraction for all draws.  Mixed product
    # factors carry singlet weight, so the full set is read without the
    # triplet-support gate.
    states = _positivity_states(count, rng)
    s, r, t = bloch_decompose_stack(states)
    inv = invariants_mod.makhlin_stack(s, r, t)
    # The floor lies above SIGN_ZERO_BAND, so no case is an I4-zero fallback.
    cases = inv[:, 3] > _I4_FLOOR
    values, fired, _ = _criteria_columns(inv[:, 3], inv[:, 11], inv[:, 13])
    failing = cases & fired.any(axis=1)
    # The scalar path is the stack's one-row case: once per run, the first
    # draw's bloch_decompose must equal row 0 bit for bit (the sign of zero
    # included), or that draw fails.
    if count:
        form = bloch_decompose(states[0])
        if any(a.tobytes() != b[0].tobytes() for a, b in zip((form.s, form.r, form.t), (s, r, t))):
            failing[0] = True
    failed = np.flatnonzero(failing)
    if failed.size:
        writer.record(states[failed[0]])
    # The largest max(0, -value) over the cases' criteria, 0 when there is none.
    max_dev = max(0.0, -float(values[cases].min(initial=np.inf)))
    return SuiteResult("separable_positivity", int(cases.sum()), int(failed.size), max_dev)


def _xform_draws(count, rng) -> tuple:
    """The X-form suite's draws as ``(count,)`` arrays a, b, c and d, on the
    stream of ``random_xform`` called draw by draw, gated once by ``XForm``'s
    rule: the first refused draw raises the error its ``XForm`` raises."""
    table = np.array([_xform_draw(rng) for _ in range(count)], dtype=complex).reshape(count, 4)
    a, b, c, d = table[:, 0].real, table[:, 1], table[:, 2].real, table[:, 3].real
    _raise_first(_xform_gates(a, b, c, d))
    return a, b, c, d


def _suite_xform_equivalence(count, rng, writer) -> SuiteResult:
    a, b, c, d = _xform_draws(count, rng)
    # The floor lies above SIGN_ZERO_BAND, so no case has the degenerate
    # (a - d)^2 on which xform_equivalence_check raises.
    cases = (float_pow(a - d, 2) > _I4_FLOOR) & (c + _abs(b) > _I4_FLOOR)
    a, b, c, d = (column[cases] for column in (a, b, c, d))
    states = xform_matrices(a, b, c, d)
    # One PT solve for every case, through the two functions ppt_check calls.
    numeric = hermitian_eigenvalues(partial_transpose(states))[:, 0]
    closed = np.sort(xform_pt_eigenvalues_stack(a, b, c, d), axis=1)[:, 0]
    dev = np.abs(closed - numeric)
    failed = np.flatnonzero(~xform_equivalence_stack(a, b, c, d) | (dev > SIGN_ZERO_BAND))
    if failed.size:
        writer.record(states[failed[0]])
    return SuiteResult("xform_pt_equivalence", int(cases.sum()), int(failed.size),
                       float(dev.max(initial=0.0)))


def run_selftest(seed: int, count: int, out_dir: str = ".") -> SelfTestReport:
    """Run all suites with ``count`` draws each from a single seeded generator.

    Raises ValueError if ``count`` is negative.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
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
