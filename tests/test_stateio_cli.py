import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qubitpair
from qubitpair import cli
from qubitpair.errors import NotSymmetricState, StateFileError
from qubitpair.invariants import symmetric_six
from qubitpair.models import dicke_pair, ising_pair, oat_pair
from qubitpair.separability import classify, evidence, evidence_stack
from qubitpair.sampling import random_density_matrix, random_xform
from qubitpair.states import bloch_decompose, is_symmetric
from qubitpair.tolerances import SYMMETRY
from qubitpair.stateio import read_state_file, state_payload, write_state_file


class TestStateFiles:
    def test_matrix_roundtrip_is_exact(self, rng, tmp_path):
        for k in range(20):
            rho = random_density_matrix(rng)
            path = tmp_path / f"state_{k}.json"
            write_state_file(path, matrix=rho)
            back = read_state_file(path)
            assert np.max(np.abs(back - rho)) < 1e-15

    def test_xform_roundtrip(self, rng, tmp_path):
        x = random_xform(rng)
        path = tmp_path / "x.json"
        write_state_file(path, xform=x)
        back = read_state_file(path)
        assert_allclose(back, x.to_matrix(), atol=1e-15)

    def test_bloch_roundtrip(self, rng, tmp_path):
        rho = random_density_matrix(rng)
        path = tmp_path / "b.json"
        write_state_file(path, bloch=bloch_decompose(rho))
        assert_allclose(read_state_file(path), rho, atol=1e-12)

    def test_exactly_one_representation(self, rng, tmp_path):
        with pytest.raises(StateFileError):
            state_payload()
        with pytest.raises(StateFileError):
            state_payload(matrix=np.eye(4) / 4, xform=random_xform(rng))

    def test_schema_version_required(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = state_payload(matrix=np.eye(4) / 4)
        del payload["schema_version"]
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFileError, match="schema_version"):
            read_state_file(path)

    def test_trace_violation_named(self, tmp_path):
        path = tmp_path / "trace.json"
        payload = state_payload(matrix=np.eye(4, dtype=complex) * 0.225)
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFileError, match="trace"):
            read_state_file(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        with pytest.raises(StateFileError):
            read_state_file(path)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliInvariants:
    def test_bell_symmetric_report(self, bell_symmetric, tmp_path, capsys):
        path = tmp_path / "bell.json"
        write_state_file(path, matrix=bell_symmetric)
        code, out, _ = run_cli(["invariants", str(path)], capsys)
        assert code == 0
        assert "I1  = -0.99999" in out or "I1  = -1" in out
        assert "symmetric: yes" in out
        assert "xform: yes" in out

    def test_json_output_stable_keys(self, ket00, tmp_path, capsys):
        path = tmp_path / "k.json"
        write_state_file(path, matrix=ket00)
        code, out, _ = run_cli(["invariants", str(path), "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "invariants", "symmetric", "symmetric_six", "xform", "xform_six",
            "classification",
        }
        assert payload["invariants"]["i4"] == 1.0
        assert payload["invariants"]["i12"] == 1.0
        assert payload["classification"]["verdict"] == "Separable"

    def test_validation_failure_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        payload = state_payload(matrix=np.eye(4, dtype=complex) * 0.225)
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(["invariants", str(path)], capsys)
        assert code == 2
        assert "trace" in err


class TestCliClassify:
    def test_dicke_file(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        write_state_file(path, xform=dicke_pair(4, 1))
        code, out, _ = run_cli(["classify", str(path), "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Entangled"
        assert payload["criteria"] == ["I12_minus_I4sq_negative"]
        assert abs(payload["ppt_min_eigenvalue"] - (0.5 - np.sqrt(0.5)) / 2) < 1e-12

    def test_separable_sample_file(self, rng, tmp_path, capsys):
        from qubitpair.separability import SeparableEnsemble

        w = rng.exponential(size=3)
        v = rng.normal(size=(3, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        rho = SeparableEnsemble(weights=w / w.sum(), bloch_vectors=v).to_state()
        path = tmp_path / "sep.json"
        write_state_file(path, matrix=rho)
        code, out, _ = run_cli(["classify", str(path), "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Separable"
        assert payload["criteria"] == []

    def test_json_equals_invariants_classification_block(self, rng, tmp_path, capsys):
        path = tmp_path / "x.json"
        write_state_file(path, xform=random_xform(rng))
        _, cls_out, _ = run_cli(["classify", str(path), "--json"], capsys)
        _, inv_out, _ = run_cli(["invariants", str(path), "--json"], capsys)
        assert json.loads(cls_out) == json.loads(inv_out)["classification"]

    def test_non_symmetric_exit_3(self, singlet_state, tmp_path, capsys):
        path = tmp_path / "s.json"
        write_state_file(path, matrix=singlet_state)
        code, _, err = run_cli(["classify", str(path)], capsys)
        assert code == 3
        assert "singlet" in err


class TestCliGenerate:
    def test_dicke_file_roundtrips(self, tmp_path, capsys):
        out_path = tmp_path / "dicke.json"
        code, _, _ = run_cli(
            ["generate", "dicke", "--n", "4", "--m", "1", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["xform"] == {"a": 0.5, "b_re": 0.0, "b_im": 0.0, "c": 0.25}
        rho = read_state_file(out_path)
        assert_allclose(rho, dicke_pair(4, 1).to_matrix(), atol=1e-15)

    def test_ising_values(self, tmp_path, capsys):
        out_path = tmp_path / "ising.json"
        code, _, _ = run_cli(
            ["generate", "ising", "--n", "3", "--chit", repr(np.pi / 2),
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        spec = json.loads(out_path.read_text())["xform"]
        assert abs(spec["a"] - 0.6875) < 1e-15
        assert abs(spec["b_re"] - (-0.0625)) < 1e-15
        assert abs(spec["b_im"] - (-0.25)) < 1e-15
        assert abs(spec["c"] - 0.0625) < 1e-15

    def test_oat_default_and_literal(self, tmp_path, capsys):
        out_path = tmp_path / "oat.json"
        chit = repr(np.pi / 3)
        code, _, _ = run_cli(
            ["generate", "oat", "--n", "3", "--chit", chit, "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        spec = json.loads(out_path.read_text())["xform"]
        assert abs(spec["b_im"] - np.sqrt(3.0) / 8.0) < 1e-12
        code, _, _ = run_cli(
            ["generate", "oat", "--n", "3", "--chit", chit, "--paper-literal",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        literal = json.loads(out_path.read_text())["xform"]
        assert abs(literal["b_im"] - np.sqrt(3.0) / 16.0) < 1e-12

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(["generate", "dicke", "--n", "4", "--m", "1"], capsys)
        assert code == 0
        assert json.loads(out)["schema_version"] == "1"

    def test_invalid_spec_exit_2(self, capsys):
        code, _, err = run_cli(["generate", "dicke", "--n", "4", "--m", "0.5"], capsys)
        assert code == 2
        assert "M" in err

    @pytest.mark.parametrize("m", ["inf", "-inf", "nan"])
    def test_non_finite_m_exit_2(self, m, capsys):
        code, out, err = run_cli(["generate", "dicke", "--n", "4", f"--m={m}"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: M must be finite, got M = {m}\n"

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "dicke.json"
        code, out, err = run_cli(
            ["generate", "dicke", "--n", "4", "--m", "1", "--out", str(out_path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(out_path) in err
        assert "Traceback" not in err


class TestCliSweep:
    HEADER = ("family,N,M,chi_t,i1,i2,i4,i10,i12,i14,i12_minus_i4sq,"
              "ppt_min_eig,verdict,criteria")

    def test_dicke_gap_decreases(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", "dicke", "--n", "4:64:4", "--m-ratio", "0.25",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == self.HEADER
        gaps = [abs(float(line.split(",")[10])) for line in lines[1:]]
        assert len(gaps) == 16
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))

    def test_oat_i14_negative_throughout(self, tmp_path, capsys):
        out_path = tmp_path / "oat.csv"
        code, _, _ = run_cli(
            ["sweep", "oat", "--n", "10", "--chit", "0.05:1.5:20",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")[1:]
        assert len(lines) == 20
        assert all(float(line.split(",")[9]) < 0 for line in lines)

    def test_ising_endpoints_separable(self, tmp_path, capsys):
        out_path = tmp_path / "ising.csv"
        code, _, _ = run_cli(
            ["sweep", "ising", "--n", "5", "--chit", f"0,{np.pi!r}",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")[1:]
        assert [line.split(",")[12] for line in lines] == ["Separable", "Separable"]

    def test_json_format(self, tmp_path, capsys):
        out_path = tmp_path / "rows.json"
        code, _, _ = run_cli(
            ["sweep", "dicke", "--n", "4,8", "--m", "1", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert [r["N"] for r in rows] == [4, 8]
        assert rows[0]["criteria"] == ["I12_minus_I4sq_negative"]

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "sweep.csv"
        code, out, err = run_cli(
            ["sweep", "dicke", "--n", "4,8", "--m", "1", "--out", str(out_path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(out_path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value, m", [
        ("--m", "inf", "inf"), ("--m", "nan", "nan"), ("--m-ratio", "inf", "inf"),
        ("--m-ratio", "-inf", "-inf"), ("--m-ratio", "nan", "nan"),
    ])
    def test_non_finite_m_exit_2(self, flag, value, m, tmp_path, capsys):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            ["sweep", "dicke", "--n", "4", f"{flag}={value}", "--out", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: M must be finite, got M = {m}\n"
        assert not out_path.exists()

    def test_empty_grid_exit_2(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["sweep", "dicke", "--n", "4", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2

    def test_seventeen_digit_floats(self, tmp_path, capsys):
        out_path = tmp_path / "prec.csv"
        run_cli(
            ["sweep", "ising", "--n", "3", "--chit", repr(np.pi / 2),
             "--out", str(out_path)],
            capsys,
        )
        row = out_path.read_text().strip().split("\n")[1].split(",")
        # min PT eigenvalue is lambda_3 = c - |b| = 0.0625 - sqrt(17)/16
        assert float(row[11]) == pytest.approx(0.0625 - np.sqrt(0.0625 ** 2 + 0.25 ** 2))


class TestSweepAgreesWithClassify:
    """Every sweep row carries exactly what ``classify`` says of its pair."""

    # family: (grid arguments, pair of a grid point, number of rows)
    GRIDS = {
        "oat": (["--n", "2,5,10", "--chit", "0:3:7"], lambda n, m, t: oat_pair(n, t), 21),
        "ising": (["--n", "3,4,7", "--chit", "0:6:7"], lambda n, m, t: ising_pair(n, t), 21),
        "dicke": (["--n", "4,6,8", "--m", "0,1,2"], lambda n, m, t: dicke_pair(n, m), 9),
    }
    SIX = ("i1", "i2", "i4", "i10", "i12", "i14")

    @staticmethod
    def _rows(path, fmt):
        text = path.read_text()
        if fmt == "json":
            return json.loads(text)
        header, *lines = text.strip().split("\n")
        rows = []
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            row["N"] = int(row["N"])
            for key in ("M", "chi_t"):
                row[key] = float(row[key]) if row[key] else None
            for key in TestSweepAgreesWithClassify.SIX + ("i12_minus_i4sq", "ppt_min_eig"):
                row[key] = float(row[key])
            row["criteria"] = [c for c in row["criteria"].split(";") if c]
            rows.append(row)
        return rows

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("family", ["oat", "ising", "dicke"])
    def test_rows_equal_classify(self, family, fmt, tmp_path, capsys):
        grid, pair, count = self.GRIDS[family]
        out_path = tmp_path / f"rows.{fmt}"
        code, _, _ = run_cli(["sweep", family, *grid, "--out", str(out_path)], capsys)
        assert code == 0
        rows = self._rows(out_path, fmt)
        assert len(rows) == count
        for row in rows:
            cls = classify(pair(row["N"], row["M"], row["chi_t"]).to_matrix())
            assert row["verdict"] == cls.verdict, row
            assert row["criteria"] == sorted(cls.criteria_fired), row
            assert row["ppt_min_eig"] == cls.ppt_min_eigenvalue, row
            assert [row[k] for k in self.SIX] == [getattr(cls.six, k) for k in self.SIX], row
            assert row["i12_minus_i4sq"] == cls.six.i12 - cls.six.i4 ** 2, row


class TestGenerateIsOneSweepPoint:
    """``generate`` and ``sweep`` share one family grammar and one family check."""

    POINTS = {
        "dicke": ["--n", "6", "--m", "2"],
        "oat": ["--n", "5", "--chit", "0.7", "--paper-literal"],
        "ising": ["--n", "4", "--chit", "1.1"],
    }
    FOREIGN = [
        ("oat", ["--chit", "1", "--m", "1"]),
        ("ising", ["--chit", "1", "--m", "1"]),
        ("ising", ["--chit", "1", "--paper-literal"]),
        ("dicke", ["--m", "1", "--chit", "9"]),
        ("dicke", ["--m", "1", "--paper-literal"]),
    ]

    @staticmethod
    def _out(command, tmp_path):
        return ["--out", str(tmp_path / ("state.json" if command == "generate" else "rows.csv"))]

    @pytest.mark.parametrize("family", ["dicke", "oat", "ising"])
    def test_state_file_is_the_sweep_row_pair(self, family, tmp_path, capsys):
        flags = self.POINTS[family]
        state, rows = tmp_path / "state.json", tmp_path / "rows.json"
        assert run_cli(["generate", family, *flags, "--out", str(state)], capsys)[0] == 0
        assert run_cli(["sweep", family, *flags, "--out", str(rows), "--format", "json"],
                       capsys)[0] == 0
        (row,) = json.loads(rows.read_text())
        x = {
            "dicke": lambda: dicke_pair(row["N"], row["M"]),
            "oat": lambda: oat_pair(row["N"], row["chi_t"], paper_literal="--paper-literal" in flags),
            "ising": lambda: ising_pair(row["N"], row["chi_t"]),
        }[family]()
        assert json.loads(state.read_text()) == state_payload(xform=x)
        code, out, _ = run_cli(["classify", str(state), "--json"], capsys)
        assert code == 0
        verdict = json.loads(out)
        assert verdict["verdict"] == row["verdict"]
        assert verdict["criteria"] == row["criteria"]
        assert verdict["ppt_min_eigenvalue"] == row["ppt_min_eig"]

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    @pytest.mark.parametrize("family, flags", FOREIGN)
    def test_foreign_flag_exit_2(self, command, family, flags, tmp_path, capsys):
        out = self._out(command, tmp_path)
        code, _, err = run_cli([command, family, "--n", "4", *flags, *out], capsys)
        assert code == 2
        assert f"{family} does not take" in err
        assert not os.path.exists(out[1])

    def test_sweep_m_ratio_is_dicke_only(self, tmp_path, capsys):
        code, _, err = run_cli(["sweep", "oat", "--n", "4", "--chit", "1", "--m-ratio", "0.25",
                                *self._out("sweep", tmp_path)], capsys)
        assert code == 2
        assert "--m-ratio" in err

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    @pytest.mark.parametrize("family", ["dicke", "oat", "ising"])
    def test_missing_family_parameter_exit_2(self, command, family, tmp_path, capsys):
        code, _, err = run_cli([command, family, "--n", "4", *self._out(command, tmp_path)], capsys)
        assert code == 2
        assert f"{family} {command} needs" in err

    @pytest.mark.parametrize("argv", [
        ["dicke", "--n", "4,6", "--m", "1"],
        ["oat", "--n", "4", "--chit", "0:1:3"],
    ])
    def test_multi_point_generate_exit_2(self, argv, tmp_path, capsys):
        out = self._out("generate", tmp_path)
        code, _, err = run_cli(["generate", *argv, *out], capsys)
        assert code == 2
        assert "one grid point" in err
        assert not os.path.exists(out[1])

    def test_generate_rejects_m_ratio(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "dicke", "--n", "4", "--m-ratio", "0.25"])
        assert exc.value.code == 2
        assert "--m-ratio" in capsys.readouterr().err


def profiled_calls(argv, capsys, functions) -> dict:
    """Run ``cli.main(argv)`` and count the calls to each function by code object."""
    names = {f.__code__: f.__name__ for f in functions}
    counts = dict.fromkeys(names.values(), 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert code == 0
    return counts


class TestInvariantsDecomposesOnce:
    """``invariants`` reads a symmetric state's 18 invariants off the evidence
    of its verdict: one Pauli decomposition and one contraction per call.

    The decomposition is counted at ``states._decomposition``, the body that
    ``bloch_decompose_stack`` and ``evidence_stack`` share (the latter
    needs every gate's mask before either raises)."""

    @staticmethod
    def _calls(argv, capsys):
        from qubitpair import invariants, states

        return profiled_calls(argv, capsys, [states._decomposition, invariants.makhlin_stack])

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "dense"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_one_decomposition(self, symmetric, as_json, rng, tmp_path, capsys):
        path = tmp_path / "state.json"
        if symmetric:
            write_state_file(path, xform=oat_pair(6, 0.7))
        else:
            write_state_file(path, matrix=random_density_matrix(rng))
        argv = ["invariants", str(path)] + (["--json"] if as_json else [])
        assert self._calls(argv, capsys) == {"_decomposition": 1, "makhlin_stack": 1}


class TestInvariantsValidatesOnce:
    """``read_state_file`` validates the state once, whatever its
    representation (a Bloch file through ``bloch_compose``), and
    ``invariants`` does not validate it again: one eigen solve for the
    validation and one for the PT spectrum."""

    @staticmethod
    def _write(representation, path):
        x = oat_pair(6, 0.7)
        if representation == "xform":
            write_state_file(path, xform=x)
        elif representation == "matrix":
            write_state_file(path, matrix=x.to_matrix())
        else:
            write_state_file(path, bloch=bloch_decompose(x.to_matrix()))

    @pytest.mark.parametrize("representation", ["xform", "matrix", "bloch"])
    def test_one_validation_per_file(self, representation, tmp_path, capsys):
        from qubitpair import qmat, states

        path = tmp_path / "state.json"
        self._write(representation, path)
        counts = profiled_calls(
            ["invariants", str(path), "--json"], capsys,
            [states.assert_density_matrix, qmat.hermitian_eigenvalues, states.is_symmetric])
        assert counts == {
            "assert_density_matrix": 1,
            "hermitian_eigenvalues": 2,
            "is_symmetric": 1,
        }


class TestStateFileEdgeCases:
    """State files at the edges of the density-matrix rule, through the
    library and both commands that read one."""

    @staticmethod
    def _file(tmp_path, rho):
        path = tmp_path / "state.json"
        write_state_file(path, matrix=rho)
        return str(path)

    @pytest.mark.parametrize("command", ["classify", "invariants"])
    def test_inside_the_hermiticity_band_exits_0(self, command, tmp_path, capsys):
        rho = oat_pair(6, 0.7).to_matrix()
        rho[0, 3] += 5e-11j  # Hermiticity defect 5e-11
        path = self._file(tmp_path, rho)
        read_state_file(path)
        code, out, err = run_cli([command, path, "--json"], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)

    def test_overflowing_matrix_is_refused_by_the_library(self, tmp_path):
        path = self._file(tmp_path, np.diag([1.5e308, -1.5e308, 1.0, 0.0]))
        with pytest.raises(StateFileError, match=(
                r"^invalid state: not positive semidefinite: entry modulus 1\.500e\+308")):
            read_state_file(path)

    @pytest.mark.parametrize("command", ["classify", "invariants"])
    def test_overflowing_matrix_exits_2_without_a_warning(self, command, tmp_path, capsys):
        path = self._file(tmp_path, np.diag([1.5e308, -1.5e308, 1.0, 0.0]))
        code, _, err = run_cli([command, path], capsys)  # a RuntimeWarning is an error here
        assert code == 2
        assert err.startswith("error: invalid state: not positive semidefinite: entry modulus")
        assert "did not converge" not in err


def test_classify_still_validates_its_input(bell_symmetric):
    from qubitpair.errors import InvalidDensityMatrix, NotPositive

    with pytest.raises(NotPositive, match="not positive semidefinite"):
        classify(np.diag([1.2, -0.2, 0.0, 0.0]))
    with pytest.raises(InvalidDensityMatrix, match="trace invariant violated"):
        classify(2.0 * bell_symmetric)


class TestMalformedStateFiles:
    """A file that is not a state is a StateFileError, whatever makes it
    unreadable, and both commands that read one exit 2 with no traceback."""

    # An integer too large for a float: json reads it as a Python int.
    HUGE = int("1" + "0" * 400)
    PAYLOADS = {
        "matrix": {"matrix": [[[HUGE, 0]] + [[0, 0]] * 3] + [[[0, 0]] * 4] * 3},
        "xform": {"xform": {"a": HUGE, "b_re": 0, "b_im": 0, "c": 0}},
        "bloch": {"bloch": {"s": [HUGE, 0, 0], "r": [0, 0, 0], "t": [[0, 0, 0]] * 3}},
    }

    @pytest.mark.parametrize("command", ["classify", "invariants"])
    @pytest.mark.parametrize("representation", list(PAYLOADS))
    def test_integer_beyond_a_float_exits_2(self, representation, command, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"schema_version": "1", **self.PAYLOADS[representation]}))
        with pytest.raises(StateFileError, match=(
                f"^malformed {representation} representation: int too large to convert")):
            read_state_file(path)
        code, out, err = run_cli([command, str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: malformed {representation} representation")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["classify", "invariants"])
    @pytest.mark.parametrize("content, reason", [
        ('{"schema_version": "1", "note": "\u00e9"}'.encode("latin-1"), "'utf-8' codec"),
        (b"[" * 200_000, "maximum recursion depth exceeded"),
    ], ids=["not_utf8", "nested_too_deep"])
    def test_file_that_is_not_json_exits_2(self, content, reason, command, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_bytes(content)
        with pytest.raises(StateFileError, match=f"is not valid JSON: {reason}"):
            read_state_file(path)
        code, out, err = run_cli([command, str(path)], capsys)
        assert (code, out) == (2, "")
        assert "is not valid JSON" in err and "Traceback" not in err


_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


class TestTripletSupportIsOneRule:
    """Triplet support is one gate with one band (``tolerances.SYMMETRY``) on
    every path: ``dicke_pair(4, 1)`` mixed with singlet weight w is
    symmetric everywhere when w is inside the band and refused everywhere,
    with one message, when it is outside."""

    @pytest.mark.parametrize("weight", [5e-11, 1e-9, 2e-9])
    def test_every_path_agrees(self, weight, tmp_path, capsys):
        dicke = dicke_pair(4, 1).to_matrix()
        rho = (1.0 - weight) * dicke + weight * np.outer(_SINGLET, _SINGLET)
        symmetric = weight <= SYMMETRY
        paths = {
            "evidence": lambda: evidence(rho),
            "evidence_stack": lambda: evidence_stack(np.array([dicke, rho])),
            "classify": lambda: classify(rho),
            "symmetric_six": lambda: symmetric_six(bloch_decompose(rho)),
        }
        assert is_symmetric(rho) is symmetric
        if symmetric:
            for path in paths.values():
                path()
            assert_allclose(evidence_stack(np.array([dicke, rho])).invariants[1],
                            evidence(rho).invariants.as_array(), rtol=0, atol=0)
            refusal = ""
        else:
            messages = set()
            for path in paths.values():
                with pytest.raises(NotSymmetricState) as refused:
                    path()
                messages.add(str(refused.value))
            message = (f"state has singlet support: singlet population {weight:.3e}, largest "
                       "singlet-triplet coherence 0.000e+00, band 1.0e-10; "
                       "the criteria require triplet support")
            assert messages == {message}
            refusal = f"error: {message}\n"

        path = tmp_path / "state.json"
        write_state_file(path, matrix=rho)
        code, _, err = run_cli(["classify", str(path)], capsys)
        assert (code, err) == (0 if symmetric else 3, refusal)
        code, out, _ = run_cli(["invariants", str(path), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["symmetric"] is symmetric


class TestToleranceKnobsGone:
    """Every gate reads its band from ``qubitpair.tolerances``; none takes an override."""

    KNOBS = {"tol", "herm_tol", "trace_tol", "psd_floor"}

    @staticmethod
    def _public_callables():
        for name in qubitpair.__all__:
            obj = getattr(qubitpair, name)
            if isinstance(obj, type):
                for attr, member in inspect.getmembers(
                    obj, lambda m: inspect.isfunction(m) or inspect.ismethod(m)
                ):
                    yield f"{name}.{attr}", member
            elif callable(obj):
                yield name, obj

    def test_no_public_callable_takes_a_tolerance(self):
        checked = 0
        for name, fn in self._public_callables():
            params = set(inspect.signature(fn).parameters)
            assert not params & self.KNOBS, f"{name} takes {sorted(params & self.KNOBS)}"
            checked += 1
        assert checked > 50

    @pytest.mark.parametrize("command", ["classify", "invariants"])
    def test_cli_rejects_tol(self, command, tmp_path, capsys):
        path = tmp_path / "d.json"
        write_state_file(path, xform=dicke_pair(4, 1))
        with pytest.raises(SystemExit) as exc:
            cli.main([command, str(path), "--tol", "1e-6"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestCliSelftest:
    def test_pass_run(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["selftest", "--seed", "7", "--count", "60", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "result: PASS" in out
        assert "local_unitary_invariance" in out

    def test_deterministic_summaries(self, tmp_path):
        cmd = [sys.executable, "-m", "qubitpair.cli", "selftest", "--seed", "42",
               "--count", "60", "--out", str(tmp_path)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        first = subprocess.run(cmd, capture_output=True, text=True, env=env)
        second = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_injected_fault_exits_1_with_counterexample(self, tmp_path, capsys, monkeypatch):
        from qubitpair import invariants as invariants_mod

        real = invariants_mod.makhlin_stack

        def corrupted(s, r, t):
            # Bias I12 downward so separable samples cross the zero band.
            inv = real(s, r, t)
            inv[:, 11] -= 1e-3
            return inv

        monkeypatch.setattr(invariants_mod, "makhlin_stack", corrupted)
        code, out, _ = run_cli(
            ["selftest", "--seed", "3", "--count", "20", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "result: FAIL" in out
        counterexamples = list(tmp_path.glob("selftest_counterexample.json"))
        assert len(counterexamples) == 1
        read_state_file(counterexamples[0])  # reproducible state

    def test_run_selftest_rejects_a_negative_count(self, tmp_path):
        from qubitpair.selftest import run_selftest

        with pytest.raises(ValueError, match=r"^count must be >= 0$"):
            run_selftest(5, -3, out_dir=str(tmp_path))

    @pytest.mark.parametrize("count", ["-1", "-3"])
    def test_negative_count_exits_2(self, count, tmp_path, capsys):
        code, out, err = run_cli(
            ["selftest", "--seed", "5", "--count", count, "--out", str(tmp_path)], capsys)
        assert code == 2
        assert out == ""
        assert "count must be >= 0" in err

    def test_zero_count_passes_with_empty_suites(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["selftest", "--seed", "5", "--count", "0", "--out", str(tmp_path)], capsys)
        assert code == 0
        suites = re.findall(r"^(\w+) +cases=(\d+) +failures=(\d+)", out, re.MULTILINE)
        assert suites == [("local_unitary_invariance", "0", "0"),
                          ("separable_positivity", "0", "0"),
                          ("xform_pt_equivalence", "0", "0")]
        assert "result: PASS" in out
        assert not list(tmp_path.iterdir())
