"""State files: a small versioned JSON schema for two-qubit states.

Exactly one representation is present per file:

``matrix``
    4x4 array of [re, im] pairs in the computational basis
    |00>, |01>, |10>, |11> (qubit 1 = left factor).
``xform``
    {"a": float, "b_re": float, "b_im": float, "c": float}; the fourth
    diagonal entry is fixed by the unit trace, d = 1 - a - 2c.
``bloch``
    {"s": [3 floats], "r": [3 floats], "t": 3x3 floats}.

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


def state_payload(
    matrix: np.ndarray | None = None,
    xform: XForm | None = None,
    bloch: BlochForm | None = None,
) -> dict:
    """Build the JSON payload for exactly one representation."""
    given = [name for name, v in (("matrix", matrix), ("xform", xform), ("bloch", bloch))
             if v is not None]
    if len(given) != 1:
        raise StateFileError(f"exactly one representation required, got {given or 'none'}")
    payload: dict = {"schema_version": SCHEMA_VERSION}
    if matrix is not None:
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise StateFileError(f"matrix must be 4x4, got shape {m.shape}")
        payload["matrix"] = [
            [[float(m[i, j].real), float(m[i, j].imag)] for j in range(4)]
            for i in range(4)
        ]
    elif xform is not None:
        payload["xform"] = {
            "a": float(xform.a),
            "b_re": float(np.real(xform.b)),
            "b_im": float(np.imag(xform.b)),
            "c": float(xform.c),
        }
    else:
        payload["bloch"] = {
            "s": [float(v) for v in bloch.s],
            "r": [float(v) for v in bloch.r],
            "t": [[float(v) for v in row] for row in bloch.t],
        }
    return payload


def write_state_file(
    path: str | os.PathLike,
    matrix: np.ndarray | None = None,
    xform: XForm | None = None,
    bloch: BlochForm | None = None,
) -> None:
    payload = state_payload(matrix=matrix, xform=xform, bloch=bloch)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


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


def parse_state_payload(payload: dict) -> np.ndarray:
    """Decode a payload into a density matrix that has passed one validity
    rule: ``assert_density_matrix`` for a matrix, ``bloch_compose``'s for a
    Bloch form and ``XForm``'s closed-form rule for an X-pattern form."""
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
            return bloch_compose(BlochForm(
                s=np.asarray(_numbers(spec["s"]), dtype=float),
                r=np.asarray(_numbers(spec["r"]), dtype=float),
                t=np.asarray(_numbers(spec["t"]), dtype=float),
            ))
        if present[0] == "xform":
            a, b_re, b_im, c = (float(_numbers(payload["xform"][key]))
                                for key in ("a", "b_re", "b_im", "c"))
            return XForm.from_abc(a=a, b=complex(b_re, b_im), c=c).to_matrix()
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


def read_state_file(path: str | os.PathLike) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    # JSONDecodeError, UnicodeDecodeError (JSON is UTF-8), or nesting too deep to decode.
    except (ValueError, RecursionError) as exc:
        raise StateFileError(f"{path} is not valid JSON: {exc}") from exc
    return parse_state_payload(payload)
