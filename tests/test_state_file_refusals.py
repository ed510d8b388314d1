"""State files that ``classify`` and ``invariants`` refuse, and the public
reader's contract on them.

``read_state`` runs only the checks that need no eigen solve; a ``matrix``
or ``bloch`` file meets the density-matrix rule and positivity once, in the
gates of the solve that evaluates it.  The table below pins what each
command printed on each refused file while the reader still ran those
rules itself, byte for byte: stdout, stderr and the exit code, with every
warning an error.  Its rows are the refusals whose first message depends on
the order of the gates: a matrix that the positivity gate and the Pauli
entry rule both refuse (``diag(3, -2, 0, 0)``), one whose Pauli traces
overflow past the solve's entry bound or before the trace gate, non-PSD
``bloch`` and ``xform`` files, and a file that is neither symmetric nor
PSD (exit 2 before exit 3).

``read_state_file`` keeps its contract: on the same files, and on the
benchmark's state-file corpora, it returns the matrix and raises the
``StateFileError`` that decoding the payload and checking it with
``assert_density_matrix``, ``BlochForm`` and ``bloch_compose`` or
``XForm`` give.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qubitpair import cli
from qubitpair.errors import QubitPairError, StateFileError
from qubitpair.stateio import read_state_file, state_payload
from qubitpair.states import BlochForm, XForm, assert_density_matrix, bloch_compose

_MIXED = np.eye(4, dtype=complex) / 4.0


def _matrix(rho) -> dict:
    return state_payload(np.asarray(rho, dtype=complex))


def _with(entries) -> dict:
    """The payload of I/4 with ``entries`` ((row, column) -> value) set."""
    rho = _MIXED.copy()
    for index, value in entries.items():
        rho[index] = value
    return _matrix(rho)


_X = 8e307
_SINGLET = np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2.0
_INSIDE_BAND = XForm.from_abc(0.8814301669088536, 0j, 0.057414957142841394).to_matrix()

#: Each refused file's payload and the error line that every one of
#: ``classify``, ``classify --json``, ``invariants`` and ``invariants --json``
#: prints, with exit code 2 and nothing on stdout.
REFUSED = {
    "non_hermitian": (_with({(0, 1): 0.1}),
                      "error: invalid state: not Hermitian: defect 1.000e-01"),
    "trace_2": (_matrix(2.0 * _MIXED),
                "error: invalid state: trace invariant violated: trace = 2"),
    "nan_entry": (_with({(2, 2): np.nan}), "error: invalid state: not Hermitian: defect inf"),
    # Positivity and the Pauli entry rule (<I (x) sigma_z> = 5) both refuse it.
    "diag_3_-2": (_matrix(np.diag([3.0, -2.0, 0.0, 0.0])),
                  "error: invalid state: not positive semidefinite: min eigenvalue -2.000e+00"),
    # The solve's entry bound and the Pauli entry rule (an inf trace) both refuse it.
    "entry_overflow": (_matrix(np.diag([1.5e308, -1.5e308, 1.0, 0.0])),
                       "error: invalid state: entry part 1.500e+308 exceeds the eigen solve's "
                       "bound 8.988e+307"),
    # Entries within the solve's bound, Pauli traces beyond the float range;
    # 1 - x rounds to -x, so the trace is 0.
    "diag_x_x_-x_1-x": (_matrix(np.diag([_X, _X, -_X, 1.0 - _X])),
                        "error: invalid state: trace invariant violated: trace = 0"),
    # Unit trace and entries within the solve's bound; <sigma_x (x) sigma_x> = 4x overflows.
    "offdiagonal_x": (_with({(0, 3): _X, (1, 2): _X, (2, 1): _X, (3, 0): _X}),
                      "error: invalid state: not positive semidefinite: min eigenvalue "
                      "-8.000e+307"),
    "bloch_not_psd": ({"schema_version": "1", "bloch": {
        "s": [0, 0, 0], "r": [0, 0, 0], "t": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
        "error: invalid state: not positive semidefinite: min eigenvalue -5.000e-01"),
    "bloch_pauli_bound": ({"schema_version": "1", "bloch": {
        "s": [0, 0, 0], "r": [0, 0, 0], "t": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]}},
        "error: invalid state: not positive semidefinite: Pauli expectation 2 exceeds "
        "1.0000000061"),
    "xform_not_psd": ({"schema_version": "1",
                       "xform": {"a": 1.2, "b_re": 0.0, "b_im": 0.0, "c": 0.0}},
                      "error: invalid state: not positive semidefinite: min eigenvalue "
                      "-2.000e-01"),
    # Not symmetric either: the positivity refusal (exit 2) comes first.
    "not_symmetric_not_psd": (_matrix(np.diag([0.6, 0.6, -0.2, 0.0])),
                              "error: invalid state: not positive semidefinite: min eigenvalue "
                              "-2.000e-01"),
}

_SINGLET_ERROR = ("error: state has singlet support: singlet population 1.000e+00, largest "
                  "singlet-triplet coherence 0.000e+00, band 1.0e-10; the criteria require "
                  "triplet support\n")
_SINGLET_REPORT = "state: {path}\nsymmetric: no\nxform: no\n" + "".join(
    f"I{k:<2d} = {v}\n" for k, v in zip(range(1, 19), [-1, 3, 3] + [0] * 15))
_SINGLET_JSON = "{\n  \"invariants\": {\n" + ",\n".join(
    f"    \"i{k}\": {v}" for k, v in zip(range(1, 19), [-1.0, 3.0, 3.0] + [0.0] * 15)) + (
    "\n  },\n  \"symmetric\": false,\n  \"symmetric_six\": null,\n  \"xform\": null,\n"
    "  \"xform_six\": null,\n  \"classification\": null\n}\n")
_BAND_ERROR = ("error: criteria ['I12_minus_I4sq_negative'] fired but PT min eigenvalue is "
               "-5.286e-11; state sits inside the tolerance band\n")

#: Files that are states: the singlet, which ``classify`` refuses with exit 3
#: and ``invariants`` reports, and a state inside the tolerance band, whose
#: InconsistentClassification ``classify`` prints as it is.  Each entry maps
#: a command line to (stdout, stderr, exit code); ``{path}`` is the file.
STATES = {
    "singlet": (_matrix(_SINGLET), {
        "classify": ("", _SINGLET_ERROR, 3),
        "classify --json": ("", _SINGLET_ERROR, 3),
        "invariants": (_SINGLET_REPORT, "", 0),
        "invariants --json": (_SINGLET_JSON, "", 0),
    }),
    "inside_band": (_matrix(_INSIDE_BAND), {
        "classify": ("", _BAND_ERROR, 2),
        "classify --json": ("", _BAND_ERROR, 2),
    }),
}

COMMANDS = ("classify", "classify --json", "invariants", "invariants --json")


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))  # NaN as the token json reads back
    return str(path)


def _run(command: str, path: str) -> tuple:
    """(stdout, stderr, exit code) of ``cli.main`` on ``path``, every warning an error."""
    name, *flags = command.split()
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([name, path, *flags])
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", REFUSED)
def test_a_refused_file_prints_the_readers_refusal(name, command, tmp_path):
    payload, line = REFUSED[name]
    assert _run(command, _write(tmp_path, name, payload)) == ("", line + "\n", 2)


@pytest.mark.parametrize("name, command", [
    (name, command) for name, (_, outputs) in STATES.items() for command in outputs])
def test_a_state_file_prints_its_outcome(name, command, tmp_path):
    payload, outputs = STATES[name]
    path = _write(tmp_path, name, payload)
    out, err, code = outputs[command]
    assert _run(command, path) == (out.replace("{path}", path), err, code)


def _contract(path) -> str:
    """What ``read_state_file`` gives for ``path``: its matrix's bytes, or its message."""
    try:
        m = read_state_file(path)
    except StateFileError as exc:
        return f"error: {exc}"
    return f"{m.dtype.str} {m.shape} {m.tobytes().hex()}"


def _decoded(path) -> str:
    """``_contract`` as decoding the payload and checking it gives: the matrix
    by ``assert_density_matrix``, the Bloch form by ``BlochForm`` and
    ``bloch_compose``, and the X form by ``XForm``, a refusal as
    ``invalid state: <message>``."""
    payload = json.loads(Path(path).read_text())
    try:
        if "matrix" in payload:
            raw = np.asarray(payload["matrix"], dtype=float)
            m = assert_density_matrix(raw[..., 0] + 1j * raw[..., 1])
        elif "bloch" in payload:
            m = bloch_compose(BlochForm(*(payload["bloch"][k] for k in ("s", "r", "t"))))
        else:
            x = payload["xform"]
            m = XForm.from_abc(x["a"], complex(x["b_re"], x["b_im"]), x["c"]).to_matrix()
    except QubitPairError as exc:
        return f"error: invalid state: {exc}"
    return f"{m.dtype.str} {m.shape} {m.tobytes().hex()}"


@pytest.mark.parametrize("name", [*REFUSED, *STATES])
def test_read_state_file_keeps_its_contract_on_the_table(name, tmp_path):
    payload, _ = {**REFUSED, **STATES}[name]
    path = _write(tmp_path, name, payload)
    got = _contract(path)
    assert got == _decoded(path)
    if name in REFUSED:
        assert got == REFUSED[name][1]
    else:
        assert hashlib.sha256(got.encode()).hexdigest()[:16] == {
            "singlet": "40bd9fba13bacd2f", "inside_band": "07df437efe868712"}[name]


def _benchmark_inputs():
    """The benchmark's input generator, ``perfbench/inputs.py`` (numpy only)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_read_state_file_keeps_its_contract_on_the_corpora(seed, tmp_path):
    corpus = _benchmark_inputs().build_corpus(seed, str(tmp_path))
    assert len(corpus) == 500
    for entry in corpus:
        assert _contract(entry.path) == _decoded(entry.path), entry.path
