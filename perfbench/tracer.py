"""Spans around the public functions of each ``qubitpair`` module.

The library has no tracing of its own, so the benchmark wraps each traced
function at every place a module holds a reference to it: ``from .states
import bloch_decompose`` copies the binding into ``cli``, ``separability``
and ``selftest``, and patching ``states`` alone would miss those calls.
Spans (function, start, end, parent span, op id) are kept in flat arrays
in memory and written out once the run ends.

:func:`count_calls` counts calls to the original code objects through the
interpreter's profile hook, whatever name they were called by, so
:func:`binding_problems` can show that no binding site was left unwrapped.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: (module, qualified name) of every traced function, in report order.
TRACED = (
    ("cli", "main"),
    ("stateio", "read_state_file"),
    ("states", "assert_density_matrix"),
    ("states", "bloch_decompose"),
    ("states", "bloch_compose"),
    ("states", "is_symmetric"),
    ("states", "apply_local_unitary"),
    ("qmat", "hermitian_eigenvalues"),
    ("qmat", "haar_su2"),
    ("invariants", "makhlin_all"),
    ("invariants", "symmetric_six"),
    ("invariants", "xform_invariants"),
    ("separability", "classify"),
    ("separability", "ppt_check"),
    ("separability", "partial_transpose"),
    ("separability", "invariant_criteria"),
    ("separability", "xform_pt_eigenvalues"),
    ("separability", "xform_equivalence_check"),
    ("separability", "sample_separable_symmetric"),
    ("separability", "SeparableEnsemble.to_state"),
    ("models", "oat_pair"),
    ("models", "ising_pair"),
    ("models", "dicke_pair"),
    ("sampling", "random_density_matrix"),
    ("sampling", "random_xform"),
    ("selftest", "run_selftest"),
)
NAMES = tuple(f"{mod}.{qual}" for mod, qual in TRACED)


def _resolve(mod: str, qual: str):
    """(owner, attribute, original) for a traced name, or None if it is gone."""
    owner = sys.modules.get(f"qubitpair.{mod}")
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


def _binding_sites(owner, attr, original):
    """Every (namespace, attribute) bound to ``original`` in the package."""
    if isinstance(owner, type):
        return [(owner, attr)]
    sites = []
    for name, module in list(sys.modules.items()):
        if name == "qubitpair" or name.startswith("qubitpair."):
            sites.extend((module, a) for a, v in list(vars(module).items()) if v is original)
    return sites


class Tracer:
    """Span store plus the wrappers that fill it; install with :meth:`installed`."""

    def __init__(self):
        self.kind = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.op_id = -1
        self._stack = []

    def _wrap(self, idx: int, fn):
        kind, parent, op, start, end, stack = (
            self.kind, self.parent, self.op, self.start, self.end, self._stack)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(kind)
            kind.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, skip=()):
        """Wrap every binding site of every traced function; restore on exit.

        ``skip`` holds (module name, attribute) pairs to leave unwrapped.
        """
        restore = []
        try:
            for idx, (mod, qual) in enumerate(TRACED):
                found = _resolve(mod, qual)
                if found is None:
                    continue
                wrapper = self._wrap(idx, found[2])
                for site, attr in _binding_sites(*found):
                    if (getattr(site, "__name__", None), attr) in skip:
                        continue
                    restore.append((site, attr, found[2]))
                    setattr(site, attr, wrapper)
            yield self
        finally:
            for site, attr, original in reversed(restore):
                setattr(site, attr, original)

    def counts(self) -> np.ndarray:
        return np.bincount(np.frombuffer(self.kind, dtype=np.intc), minlength=len(NAMES))

    def self_seconds(self) -> np.ndarray:
        """Per traced function: span time minus the time of its child spans."""
        kind = np.frombuffer(self.kind, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return np.bincount(kind, weights=dur - child, minlength=len(NAMES)) / 1e9

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(NAMES),
            function=np.frombuffer(self.kind, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            op=np.frombuffer(self.op, dtype=np.intc),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def original_codes() -> dict:
    """Code object of each traced function, mapped to its index in TRACED.

    Resolve before installing a tracer: afterwards the module attributes
    are the wrappers.
    """
    codes = {}
    for idx, (mod, qual) in enumerate(TRACED):
        found = _resolve(mod, qual)
        code = getattr(found[2], "__code__", None) if found else None
        if code is not None:
            codes[code] = idx
    return codes


def count_calls(fn, codes: dict) -> Counter:
    """Run ``fn`` and count calls to the code objects in ``codes``."""
    counts = Counter()

    def hook(frame, event, arg):
        if event == "call":
            idx = codes.get(frame.f_code)
            if idx is not None:
                counts[idx] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def binding_problems(run, skip=()) -> list:
    """Run ``run()`` traced and profiled; list every function whose span count
    differs from its call count (a binding site the tracer did not wrap)."""
    codes = original_codes()
    tracer = Tracer()
    with tracer.installed(skip):
        profiled = count_calls(run, codes)
    spans = tracer.counts()
    return [
        f"{NAMES[i]}: {spans[i]} spans for {profiled.get(i, 0)} calls"
        for i in range(len(NAMES)) if spans[i] != profiled.get(i, 0)
    ]
