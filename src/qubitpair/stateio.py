"""State files: a small versioned JSON schema for two-qubit states.

This module is the one codec for states.  A file holds exactly one
representation, and the writer picks it from the state's type:

``matrix`` (a ``(4, 4)`` array)
    4x4 array of [re, im] pairs in the computational basis
    |00>, |01>, |10>, |11> (qubit 1 = left factor).
``xform`` (an ``XForm``)
    {"a": float, "b_re": float, "b_im": float, "c": float}; the fourth
    diagonal entry is fixed by the unit trace, d = 1 - a - 2c.
``bloch`` (a ``BlochForm``)
    {"s": [3 floats], "r": [3 floats], "t": 3x3 floats}.

``state_text`` renders a file's text, which ``write_state_file`` writes
and ``generate`` without ``--out`` prints; ``xform_fields`` gives an X
form's four fields to every output that shows them.  From Python::

    write_state_file("state.json", XForm.from_abc(0.5, 0.1j, 0.2))

``read_state`` returns the state as its file holds it, checked by its
representation's one validity rule: the ``XForm`` of an ``xform`` file,
which ``classify`` and ``invariants`` evaluate by the sweep's closed
forms, the ``BlochForm`` of a ``bloch`` file, whose invariants they read
off its own (s, r, T), and the density matrix of a ``matrix`` file.
``read_state_file`` is the public matrix view of every file.

Every value is a JSON number (an integer or a float): a string, a
boolean or null where a number belongs makes the file malformed.
Floats are serialized with Python's shortest exact-round-trip decimal
representation (at most 17 significant digits), so write-then-read
reproduces the state bit for bit.  ``schema_version`` is mandatory.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import QubitPairError, StateFileError
from .states import BlochForm, XForm, assert_density_matrix, bloch_compose

SCHEMA_VERSION = "1"

_REPRESENTATIONS = ("matrix", "xform", "bloch")


def xform_fields(x: XForm) -> dict:
    """The ``xform`` object of a state file: ``a``, ``b_re``, ``b_im``, ``c``."""
    b = complex(x.b)
    return {"a": float(x.a), "b_re": b.real, "b_im": b.imag, "c": float(x.c)}


def state_payload(state) -> dict:
    """The JSON payload of an ``XForm``, a ``BlochForm`` or a ``(4, 4)``
    matrix, in the representation of its type.  Raises StateFileError for
    anything else."""
    if isinstance(state, XForm):
        return {"schema_version": SCHEMA_VERSION, "xform": xform_fields(state)}
    if isinstance(state, BlochForm):
        return {"schema_version": SCHEMA_VERSION, "bloch": {
            "s": state.s.tolist(), "r": state.r.tolist(), "t": state.t.tolist()}}
    try:
        m = np.asarray(state, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"not a state: {exc}") from exc
    if m.shape != (4, 4):
        raise StateFileError(f"matrix must be 4x4, got shape {m.shape}")
    return {"schema_version": SCHEMA_VERSION,
            "matrix": np.stack([m.real, m.imag], axis=-1).tolist()}


def state_text(state) -> str:
    """The text of ``state``'s file: its payload as JSON, indented by 2, and a newline."""
    return json.dumps(state_payload(state), indent=2) + "\n"


def write_state_file(path: str | os.PathLike, state) -> None:
    """Write ``state``, an ``XForm``, a ``BlochForm`` or a ``(4, 4)`` matrix,
    to ``path`` as ``state_text`` renders it.

    Raises StateFileError for any other ``state`` (nothing is written
    then), and OSError when ``path`` cannot be written.
    """
    text = state_text(state)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _numbers(value):
    """``value``, a JSON number or nested lists of them; TypeError naming
    the first leaf that is anything else (a string, a boolean, null or an
    object).  The walk is iterative, so no nesting that json reads can
    exhaust the stack."""
    stack = [value]
    while stack:
        leaf = stack.pop()
        if isinstance(leaf, list):
            stack.extend(reversed(leaf))
        elif type(leaf) not in (int, float):  # json reads true as a bool, not an int
            raise TypeError(f"expected a number, got {leaf!r}")
    return value


def parse_state_payload(payload: dict) -> XForm | BlochForm | np.ndarray:
    """Decode a payload into a state that has passed one validity rule: the
    density matrix of a matrix (``assert_density_matrix``), the
    ``BlochForm`` of a Bloch form (its entry rule, then ``bloch_compose``'s
    rule) and the ``XForm`` of an X-pattern form (its closed-form rule)."""
    if not isinstance(payload, dict):
        raise StateFileError("state file must contain a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise StateFileError(
            f"schema_version {version!r} not supported (expected {SCHEMA_VERSION!r})"
        )
    present = [name for name in _REPRESENTATIONS if name in payload]
    if len(present) != 1:
        raise StateFileError(
            f"exactly one of {_REPRESENTATIONS} must be present, got {present or 'none'}"
        )
    try:
        if present[0] == "bloch":
            spec = payload["bloch"]
            form = BlochForm(*(_numbers(spec[key]) for key in ("s", "r", "t")))
            bloch_compose(form)
            return form
        if present[0] == "xform":
            a, b_re, b_im, c = (float(_numbers(payload["xform"][key]))
                                for key in ("a", "b_re", "b_im", "c"))
            return XForm.from_abc(a=a, b=complex(b_re, b_im), c=c)
        raw = np.asarray(_numbers(payload["matrix"]), dtype=float)
        if raw.shape != (4, 4, 2):
            raise StateFileError(f"matrix must be 4x4 [re, im] pairs, got {raw.shape}")
        return assert_density_matrix(raw[..., 0] + 1j * raw[..., 1])
    except StateFileError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: a huge int
        raise StateFileError(f"malformed {present[0]} representation: {exc}") from exc
    except QubitPairError as exc:
        raise StateFileError(f"invalid state: {exc}") from exc


def read_state(path: str | os.PathLike) -> XForm | BlochForm | np.ndarray:
    """The state file at ``path`` as ``parse_state_payload`` decodes it: an
    ``XForm`` for an ``xform`` file, a ``BlochForm`` for a ``bloch`` file
    and the density matrix of a ``matrix`` file.

    Each representation is read with one validity rule: a ``matrix``
    with ``assert_density_matrix``, a ``bloch`` form with
    ``bloch_compose``'s, and an ``xform`` with ``XForm``'s closed-form
    rule.  Raises StateFileError when the file cannot be read, is not
    UTF-8 JSON, breaks the schema or holds no valid state.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    # JSONDecodeError, UnicodeDecodeError (JSON is UTF-8), or nesting too deep to decode.
    except (ValueError, RecursionError) as exc:
        raise StateFileError(f"{path} is not valid JSON: {exc}") from exc
    return parse_state_payload(payload)


def read_state_file(path: str | os.PathLike) -> np.ndarray:
    """The density matrix of the state file at ``path``: :func:`read_state`,
    with an ``XForm`` or a ``BlochForm`` laid out as its matrix."""
    state = read_state(path)
    return state.to_matrix() if isinstance(state, (XForm, BlochForm)) else state
