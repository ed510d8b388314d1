import argparse
import ast
import functools
import importlib
import inspect
import json
import operator
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import exact_oracle as eo
import qubitpair
from qubitpair import cli
from qubitpair.errors import NotSymmetricState, StateFileError
from qubitpair.invariants import makhlin_all, symmetric_six
from qubitpair.models import dicke_pair, ising_pair, oat_pair, pair_parameters
from qubitpair.separability import classify, evidence, evidence_stack
from qubitpair.sampling import random_density_matrix, random_xform
from qubitpair.states import BlochForm, XForm, bloch_compose, bloch_decompose, is_symmetric
from qubitpair.tolerances import SYMMETRY
from qubitpair.stateio import read_state_file, state_payload, state_text, write_state_file


class TestStateFiles:
    def test_matrix_roundtrip_is_exact(self, rng, tmp_path):
        for k in range(20):
            rho = random_density_matrix(rng)
            path = tmp_path / f"state_{k}.json"
            write_state_file(path, rho)
            back = read_state_file(path)
            assert np.max(np.abs(back - rho)) < 1e-15

    def test_xform_roundtrip(self, rng, tmp_path):
        x = random_xform(rng)
        path = tmp_path / "x.json"
        write_state_file(path, x)
        back = read_state_file(path)
        assert_allclose(back, x.to_matrix(), atol=1e-15)

    def test_bloch_roundtrip(self, rng, tmp_path):
        rho = random_density_matrix(rng)
        path = tmp_path / "b.json"
        write_state_file(path, bloch_decompose(rho))
        assert_allclose(read_state_file(path), rho, atol=1e-12)

    @pytest.mark.parametrize("representation", ["matrix", "xform", "bloch"])
    def test_the_type_picks_the_representation(self, representation, tmp_path):
        # Each state reads back as the matrix its representation's rule
        # builds, bit for bit, through the positional writer.
        x = oat_pair(6, 0.7)
        form = bloch_decompose(x.to_matrix())
        state, expected = {
            "matrix": (x.to_matrix(), x.to_matrix()),
            "xform": (x, x.to_matrix()),
            "bloch": (form, bloch_compose(form)),
        }[representation]
        path = tmp_path / "state.json"
        write_state_file(path, state)
        assert path.read_text() == state_text(state)
        assert set(json.loads(path.read_text())) == {"schema_version", representation}
        assert np.array_equal(read_state_file(path), expected)

    @pytest.mark.parametrize("state", [np.eye(3) / 3, "state"], ids=["3x3", "string"])
    def test_a_non_state_is_refused(self, state, tmp_path):
        path = tmp_path / "state.json"
        with pytest.raises(StateFileError):
            write_state_file(path, state)
        assert not path.exists()

    def test_schema_version_required(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = state_payload(np.eye(4) / 4)
        del payload["schema_version"]
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFileError, match="schema_version"):
            read_state_file(path)

    def test_trace_violation_named(self, tmp_path):
        path = tmp_path / "trace.json"
        payload = state_payload(np.eye(4, dtype=complex) * 0.225)
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
        write_state_file(path, bell_symmetric)
        code, out, _ = run_cli(["invariants", str(path)], capsys)
        assert code == 0
        assert "I1  = -0.99999" in out or "I1  = -1" in out
        assert "symmetric: yes" in out
        assert "xform: yes" in out

    def test_json_output_stable_keys(self, ket00, tmp_path, capsys):
        path = tmp_path / "k.json"
        write_state_file(path, ket00)
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

    def test_xform_block_is_the_file_fields_and_d(self, rng, tmp_path, capsys):
        x = random_xform(rng)
        path = tmp_path / "x.json"
        write_state_file(path, x)
        code, out, _ = run_cli(["invariants", str(path), "--json"], capsys)
        assert code == 0
        fields = json.loads(path.read_text())["xform"]
        # The reader fixes d by the unit trace.
        d = 1.0 - fields["a"] - 2.0 * fields["c"]
        assert json.loads(out)["xform"] == {**fields, "d": d}

    def test_validation_failure_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        payload = state_payload(np.eye(4, dtype=complex) * 0.225)
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(["invariants", str(path)], capsys)
        assert code == 2
        assert "trace" in err


class TestCliClassify:
    def test_dicke_file(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        write_state_file(path, dicke_pair(4, 1))
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
        write_state_file(path, rho)
        code, out, _ = run_cli(["classify", str(path), "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Separable"
        assert payload["criteria"] == []

    def test_json_equals_invariants_classification_block(self, rng, tmp_path, capsys):
        path = tmp_path / "x.json"
        write_state_file(path, random_xform(rng))
        _, cls_out, _ = run_cli(["classify", str(path), "--json"], capsys)
        _, inv_out, _ = run_cli(["invariants", str(path), "--json"], capsys)
        assert json.loads(cls_out) == json.loads(inv_out)["classification"]

    def test_non_symmetric_exit_3(self, singlet_state, tmp_path, capsys):
        path = tmp_path / "s.json"
        write_state_file(path, singlet_state)
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

    @pytest.mark.parametrize("family, flags", [
        ("dicke", ["--n", "4", "--m", "1"]),
        ("oat", ["--n", "6", "--chit", "0.7"]),
        ("ising", ["--n", "5", "--chit", "1.1"]),
    ])
    def test_stdout_is_the_file_text(self, family, flags, tmp_path, capsys):
        out_path = tmp_path / "state.json"
        code, stdout, _ = run_cli(["generate", family, *flags], capsys)
        assert code == 0
        code, wrote, _ = run_cli(["generate", family, *flags, "--out", str(out_path)], capsys)
        assert code == 0
        assert stdout.encode() == out_path.read_bytes()
        # The confirmation line shows the file's X fields and d.
        fields = {**json.loads(stdout)["xform"], "d": read_state_file(out_path)[3, 3].real}
        assert wrote == f"wrote {out_path}: " + " ".join(
            f"{k}={v:.17g}" for k, v in fields.items()) + "\n"

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
    """Every sweep row carries the verdict, the criteria and the PT minimum
    that ``classify`` gives its pair, bit for bit, and its invariant columns
    and I12 - I4^2 within ``exact_oracle.XFORM_BOUND`` of the exact values
    of the pair's matrix."""

    # family: (grid arguments, pair of a grid point, number of rows)
    GRIDS = {
        "oat": (["--n", "2,5,10", "--chit", "0:3:7"], lambda n, m, t: oat_pair(n, t), 21),
        "ising": (["--n", "3,4,7", "--chit", "0:6:7"], lambda n, m, t: ising_pair(n, t), 21),
        "dicke": (["--n", "4,6,8", "--m", "0,1,2"], lambda n, m, t: dicke_pair(n, m), 9),
    }
    SIX = ("i1", "i2", "i4", "i10", "i12", "i14")
    # The oracle's columns (``exact_oracle.XFORM_NAMES``) of SIX and I12 - I4^2.
    ORACLE_COLUMNS = (0, 1, 3, 9, 11, 13, 18)

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
            x = pair(row["N"], row["M"], row["chi_t"])
            cls = classify(x.to_matrix())
            assert row["verdict"] == cls.verdict, row
            assert row["criteria"] == sorted(cls.criteria_fired), row
            assert float(row["ppt_min_eig"]).hex() == cls.ppt_min_eigenvalue.hex(), row
            values = [row[k] for k in self.SIX + ("i12_minus_i4sq",)]
            errors = eo.xform_errors_in_eps(values, x.a, x.b, x.c, x.d, self.ORACLE_COLUMNS)
            assert max(errors) <= eo.XFORM_BOUND, (row, errors)


class TestSweepReadsTheMatrixEntries:
    """The sweep's invariants are those of the X matrix whose entries are the
    pair's parameters, formed from the entries themselves, not from Bloch
    entries that Pauli traces have rounded."""

    def test_dicke_i4_is_a_minus_d_squared(self, tmp_path, capsys):
        # At M = 0 the exact I4 is 0, but the closed forms leave a != d on
        # most rows; the sweep must print (a - d)^2 of those floats.
        a, _, _, d = pair_parameters("dicke", [(n, 0.0, None) for n in range(2, 201, 2)])
        assert (a != d).any()
        out = tmp_path / "dicke.csv"
        code, _, _ = run_cli(
            ["sweep", "dicke", "--n", "2:200:2", "--m", "0", "--out", str(out)], capsys)
        assert code == 0
        header, *lines = out.read_text().splitlines()
        column = header.split(",").index("i4")
        printed = [float(line.split(",")[column]).hex() for line in lines]
        assert printed == [v.hex() for v in ((a - d) * (a - d)).tolist()]

    @pytest.mark.parametrize("n, rows", [("4", "1 row"), ("4,6", "2 rows")])
    def test_the_wrote_line_counts_rows(self, n, rows, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code, stdout, _ = run_cli(
            ["sweep", "oat", "--n", n, "--chit", "0.5", "--out", str(out)], capsys)
        assert (code, stdout) == (0, f"wrote {rows} to {out}\n")


class TestGenerateIsOneSweepPoint:
    """``generate`` and ``sweep`` share one family grammar and one family check."""

    POINTS = {
        # At N = 4, M = 0 the exact I4 is 0, and Pauli traces of the matrix
        # round it otherwise than the closed form (a - d)^2 does.
        "dicke": (["--n", "6", "--m", "2"], ["--n", "8", "--m", "1"], ["--n", "4", "--m", "0"]),
        "oat": (["--n", "5", "--chit", "0.7", "--paper-literal"], ["--n", "40", "--chit", "1.3"]),
        "ising": (["--n", "4", "--chit", "1.1"], ["--n", "5", "--chit", "1.1"]),
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
        # classify and invariants evaluate an xform file as the sweep does a
        # row, by the closed forms and one PT solve, so the state file of a
        # point reports the row's cells bit for bit.
        six_keys = ("i1", "i2", "i4", "i10", "i12", "i14")

        def bits(values):
            return [float(v).hex() for v in values]

        for flags in self.POINTS[family]:
            state, rows = tmp_path / "state.json", tmp_path / "rows.json"
            assert run_cli(["generate", family, *flags, "--out", str(state)], capsys)[0] == 0
            assert run_cli(["sweep", family, *flags, "--out", str(rows), "--format", "json"],
                           capsys)[0] == 0
            (row,) = json.loads(rows.read_text())
            x = {
                "dicke": lambda: dicke_pair(row["N"], row["M"]),
                "oat": lambda: oat_pair(row["N"], row["chi_t"],
                                        paper_literal="--paper-literal" in flags),
                "ising": lambda: ising_pair(row["N"], row["chi_t"]),
            }[family]()
            assert json.loads(state.read_text()) == state_payload(x)
            code, out, _ = run_cli(["classify", str(state), "--json"], capsys)
            assert code == 0
            verdict = json.loads(out)
            assert verdict["verdict"] == row["verdict"]
            assert verdict["criteria"] == row["criteria"]
            assert bits([verdict["ppt_min_eigenvalue"]]) == bits([row["ppt_min_eig"]])
            code, out, _ = run_cli(["invariants", str(state), "--json"], capsys)
            assert code == 0
            report = json.loads(out)
            for six in (report["invariants"], report["symmetric_six"], report["xform_six"]):
                assert bits(six[k] for k in six_keys) == bits(row[k] for k in six_keys), flags
            assert report["classification"] == verdict

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
    """``invariants`` reads a matrix's 18 invariants off the evidence of its
    verdict, symmetric or not: one Pauli decomposition and one contraction
    per call.  An ``xform`` file takes neither (``TestXFormFilesTakeTheSweepRoute``).

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
            write_state_file(path, oat_pair(6, 0.7).to_matrix())
        else:
            write_state_file(path, random_density_matrix(rng))
        argv = ["invariants", str(path)] + (["--json"] if as_json else [])
        assert self._calls(argv, capsys) == {"_decomposition": 1, "makhlin_stack": 1}

    @pytest.mark.parametrize("representation", ["xform", "matrix", "bloch", "dense"])
    def test_one_triplet_support_decision(self, representation, rng, tmp_path, capsys):
        from qubitpair import states

        path = tmp_path / "state.json"
        if representation == "dense":
            write_state_file(path, random_density_matrix(rng))
        else:
            TestInvariantsValidatesOnce._write(representation, path)
        counts = profiled_calls(["invariants", str(path)], capsys, [states._triplet_gate])
        # An XForm is symmetric by construction: its support needs no decision.
        assert counts == {"_triplet_gate": 0 if representation == "xform" else 1}


class TestInvariantsValidatesOnce:
    """``read_state`` validates the state once, whatever its representation,
    and ``invariants`` does not validate it again.  A matrix or Bloch file
    (through ``bloch_compose``) takes one gated eigen solve for the
    validation, then one solve of the state and its partial transpose
    without the solve's gates, since the evidence's own gates have passed
    the state.  An X-pattern file takes no validation solve, since
    ``XForm``'s closed-form rule has checked it, and one gated solve, of its
    partial transpose alone, as a sweep row does.  Every solve runs through
    ``qmat._solve``, the gated one included."""

    @staticmethod
    def _write(representation, path):
        x = oat_pair(6, 0.7)
        if representation == "xform":
            write_state_file(path, x)
        elif representation == "matrix":
            write_state_file(path, x.to_matrix())
        else:
            write_state_file(path, bloch_decompose(x.to_matrix()))

    @pytest.mark.parametrize("representation", ["xform", "matrix", "bloch"])
    def test_one_validation_per_file(self, representation, tmp_path, capsys):
        from qubitpair import qmat, states

        path = tmp_path / "state.json"
        self._write(representation, path)
        counts = profiled_calls(
            ["invariants", str(path), "--json"], capsys,
            [states.assert_density_matrix, qmat.hermitian_eigenvalues, qmat._solve,
             states.is_symmetric])
        if representation == "xform":
            expected = {"assert_density_matrix": 0, "hermitian_eigenvalues": 1, "_solve": 1,
                        "is_symmetric": 0}
        else:
            expected = {"assert_density_matrix": 1, "hermitian_eigenvalues": 1, "_solve": 2,
                        "is_symmetric": 1}
        assert counts == expected


class TestXFormFilesTakeTheSweepRoute:
    """``classify`` and ``invariants`` evaluate an ``xform`` file as ``sweep``
    evaluates a row: the reader's ``XForm`` rule is the one check, and the
    one solve is the partial transpose's, with no density-matrix gate, no
    Pauli decomposition, no contraction and no triplet-support decision."""

    @pytest.mark.parametrize("argv", [["classify"], ["classify", "--json"], ["invariants"],
                                      ["invariants", "--json"]], ids=" ".join)
    def test_no_matrix_gate_and_one_pt_solve(self, argv, tmp_path, capsys, monkeypatch):
        from qubitpair import invariants, qmat, separability, states

        path = tmp_path / "state.json"
        write_state_file(path, dicke_pair(4, 1))
        solve, shapes = qmat.hermitian_eigenvalues, []

        def recording(m):
            shapes.append(np.shape(m))
            return solve(m)

        monkeypatch.setattr(qmat, "hermitian_eigenvalues", recording)
        counts = profiled_calls(
            [argv[0], str(path), *argv[1:]], capsys,
            [states._decomposition, invariants.makhlin_stack, states._triplet_gate,
             states.assert_density_matrix, separability._xform_evidence, qmat._solve])
        assert counts == {"_decomposition": 0, "makhlin_stack": 0, "_triplet_gate": 0,
                          "assert_density_matrix": 0, "_xform_evidence": 1, "_solve": 1}
        assert shapes == [(1, 4, 4)]


class TestBlochFilesTakeTheFormRoute:
    """``classify`` and ``invariants`` evaluate a ``bloch`` file as the form it
    holds: its 18 invariants are ``makhlin_all`` of the form, its symmetric
    six ``symmetric_six`` of the form, and no Pauli decomposition runs."""

    def test_invariants_are_the_forms(self, symmetric_forms, tmp_path, capsys):
        path = tmp_path / "state.json"
        for form in symmetric_forms:
            write_state_file(path, form)
            code, out, _ = run_cli(["invariants", str(path), "--json"], capsys)
            assert code == 0
            payload = json.loads(out)
            assert [float(v).hex() for v in payload["invariants"].values()] == [
                v.hex() for v in makhlin_all(form).as_array().tolist()]
            assert [float(v).hex() for v in payload["symmetric_six"].values()] == [
                v.hex() for v in symmetric_six(form).as_array().tolist()]

    def test_classify_is_the_forms(self, symmetric_forms, tmp_path, capsys):
        path = tmp_path / "state.json"
        for form in symmetric_forms[:10]:
            write_state_file(path, form)
            code, out, _ = run_cli(["classify", str(path), "--json"], capsys)
            assert (code, json.loads(out)) == (0, cli._classification_payload(classify(form)))

    @pytest.mark.parametrize("argv", [["classify"], ["classify", "--json"], ["invariants"],
                                      ["invariants", "--json"]], ids=" ".join)
    def test_no_decomposition_and_one_triplet_gate(self, argv, symmetric_forms, tmp_path,
                                                   capsys):
        from qubitpair import invariants, states

        path = tmp_path / "state.json"
        write_state_file(path, symmetric_forms[0])
        counts = profiled_calls([argv[0], str(path), *argv[1:]], capsys,
                                [states._decomposition, states._triplet_gate,
                                 invariants.makhlin_stack])
        assert counts == {"_decomposition": 0, "_triplet_gate": 1, "makhlin_stack": 1}


class TestSweepChecksOnce:
    """``sweep`` checks its grid once, with ``XForm``'s rule in
    ``pair_parameters``, and evaluates it once: one gated solve, of the
    ``(k, 4, 4)`` partial transposes, the invariants from the pattern's
    closed forms with no Pauli decomposition and no contraction, no gate
    of the density-matrix, positivity or triplet rules, and one call of
    the X rule for the whole grid."""

    @pytest.mark.parametrize("argv, rows", [
        (["oat", "--n", "2:13:1", "--chit", "0:3:4", "--paper-literal"], 48),
        (["ising", "--n", "3:14:1", "--chit", "0:6.3:4", "--format", "json"], 48),
        (["dicke", "--n", "4:40:4", "--m-ratio", "0.25"], 10),
    ])
    def test_one_solve_and_one_check(self, argv, rows, tmp_path, capsys, monkeypatch):
        from qubitpair import invariants, qmat, states

        solve, shapes = qmat.hermitian_eigenvalues, []

        def recording(m):
            shapes.append(np.shape(m))
            return solve(m)

        monkeypatch.setattr(qmat, "hermitian_eigenvalues", recording)
        counts = profiled_calls(
            ["sweep", *argv, "--out", str(tmp_path / "grid.out")], capsys,
            [solve, invariants.makhlin_stack, states._pauli_decomposition, states._psd_gate,
             states._triplet_gate, states._state_gates, states._xform_gates])
        assert counts == {
            "hermitian_eigenvalues": 1,
            "makhlin_stack": 0,
            "_pauli_decomposition": 0,
            "_psd_gate": 0,
            "_triplet_gate": 0,
            "_state_gates": 0,
            "_xform_gates": 1,
        }
        assert shapes == [(rows, 4, 4)]


class TestStateFileEdgeCases:
    """State files at the edges of the density-matrix rule, through the
    library and both commands that read one."""

    @staticmethod
    def _file(tmp_path, rho):
        path = tmp_path / "state.json"
        write_state_file(path, rho)
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
                r"^invalid state: entry part 1\.500e\+308 exceeds the eigen solve's bound")):
            read_state_file(path)

    @pytest.mark.parametrize("command", ["classify", "invariants"])
    def test_overflowing_matrix_exits_2_without_a_warning(self, command, tmp_path, capsys):
        path = self._file(tmp_path, np.diag([1.5e308, -1.5e308, 1.0, 0.0]))
        code, _, err = run_cli([command, path], capsys)  # a RuntimeWarning is an error here
        assert code == 2
        assert err.startswith("error: invalid state: entry part 1.500e+308 exceeds the eigen")
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

    # The maximally mixed state in each representation, and the keys of one
    # of its values.
    SLOTS = {
        "matrix": (np.eye(4) / 4.0, ("matrix", 1, 1, 0)),
        "xform": (XForm.from_abc(0.25, 0j, 0.25), ("xform", "c")),
        "bloch": (BlochForm(np.zeros(3), np.zeros(3), np.zeros((3, 3))), ("bloch", "t", 2, 2)),
    }

    @pytest.mark.parametrize("command", ["classify", "invariants"])
    @pytest.mark.parametrize("representation", list(SLOTS))
    @pytest.mark.parametrize("value", ["0.25", True, False, None],
                             ids=["string", "true", "false", "null"])
    def test_a_value_that_is_not_a_number_exits_2(
            self, representation, value, command, tmp_path, capsys):
        state, (*keys, last) = self.SLOTS[representation]
        payload = state_payload(state)
        functools.reduce(operator.getitem, keys, payload)[last] = value
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        message = f"malformed {representation} representation: expected a number, got {value!r}"
        with pytest.raises(StateFileError, match=f"^{re.escape(message)}$"):
            read_state_file(path)
        code, out, err = run_cli([command, str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and "Traceback" not in err


class TestRefusedXFormFiles:
    """An xform file that ``XForm``'s rule refuses, read through its one-row
    case: both commands that read one exit 2 with the rule's message, no
    traceback and no warning."""

    @pytest.mark.parametrize("command", ["classify", "invariants"])
    @pytest.mark.parametrize("xform, message", [
        ('"a": 0.5, "b_re": 0.0, "b_im": 0.0, "c": -6e-10',
         "invalid state: not positive semidefinite: min eigenvalue -1.200e-09"),
        ('"a": Infinity, "b_re": 0.0, "b_im": 0.0, "c": 0.25',
         "malformed xform representation: XForm parameters must be finite"),
    ], ids=["below_the_floor", "infinite"])
    def test_exits_2_with_the_rule_message(self, xform, message, command, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text('{"schema_version": "1", "xform": {' + xform + "}}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli([command, str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")


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
        write_state_file(path, rho)
        code, _, err = run_cli(["classify", str(path)], capsys)
        assert (code, err) == (0 if symmetric else 3, refusal)
        code, out, _ = run_cli(["invariants", str(path), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["symmetric"] is symmetric
        code, out, _ = run_cli(["invariants", str(path)], capsys)
        assert code == 0
        assert f"symmetric: {'yes' if symmetric else 'no'}" in out.splitlines()


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
        write_state_file(path, dicke_pair(4, 1))
        with pytest.raises(SystemExit) as exc:
            cli.main([command, str(path), "--tol", "1e-6"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestPublicSurface:
    """``qubitpair`` exports one table of names and resolves each on use,
    from the module that defines it."""

    #: The public names, by defining module, as the package exported them
    #: when each was imported eagerly.
    NAMES = {
        "errors": {
            "EntryOverflow", "I4Zero", "InconsistentClassification", "InvalidDensityMatrix",
            "InvalidDicke", "NoRealSpectrum", "NotHermitian", "NotPositive",
            "NotSpecialUnitary", "NotSymmetricState", "NotUnitary", "NotXForm",
            "QubitPairError", "StateFileError",
        },
        "invariants": {
            "InvariantSet", "SymmetricSix", "i10_diagonal_frame", "makhlin_all",
            "symmetric_six", "t_eigenvalues_from_invariants", "xform_invariants",
            "xform_relation_check",
        },
        "models": {
            "DickeInvariants", "FamilyInvariants", "dicke_invariants", "dicke_pair",
            "ising_invariants", "ising_pair", "oat_invariants", "oat_pair",
        },
        "qmat": {"haar_su2", "hermitian_eigenvalues", "kron", "su2_to_so3"},
        "sampling": {"random_density_matrix", "random_symmetric_density_matrix", "random_xform"},
        "selftest": {"SelfTestReport", "format_report", "run_selftest"},
        "separability": {
            "CRITERION_I12", "CRITERION_I12_MINUS_I4SQ", "CRITERION_I14", "Classification",
            "EvidenceStack", "PptResult", "SeparableEnsemble", "classify", "evidence",
            "evidence_stack", "invariant_criteria", "partial_transpose", "ppt_check",
            "sample_separable_symmetric", "xform_equivalence_check", "xform_pt_eigenvalues",
        },
        "states": {
            "BlochForm", "XForm", "apply_local_unitary", "assert_density_matrix",
            "bloch_compose", "bloch_decompose", "is_symmetric", "xform_extract",
        },
        "stateio": {"read_state_file", "write_state_file"},
    }
    MODULES = {*NAMES, "tolerances"}

    def test_all_is_the_frozen_set_of_names(self):
        frozen = set().union(*self.NAMES.values())
        assert len(frozen) == 66
        assert len(qubitpair.__all__) == 66
        assert set(qubitpair.__all__) == frozen

    def test_each_name_is_its_module_binding(self):
        for module, names in self.NAMES.items():
            defining = importlib.import_module(f"qubitpair.{module}")
            for name in names:
                assert getattr(qubitpair, name) is getattr(defining, name), name

    def test_module_names_resolve(self):
        for module in self.MODULES:
            assert getattr(qubitpair, module) is importlib.import_module(f"qubitpair.{module}")
        assert callable(qubitpair.selftest.run_selftest)

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from qubitpair import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(qubitpair.__all__)

    def test_an_unknown_name_raises_the_standard_error(self):
        with pytest.raises(AttributeError) as exc:
            qubitpair.no_such_name
        with pytest.raises(AttributeError) as standard:
            json.no_such_name
        assert str(exc.value) == str(standard.value).replace("'json'", "'qubitpair'")
        assert str(exc.value) == "module 'qubitpair' has no attribute 'no_such_name'"

    def test_dir_covers_all_and_the_modules(self):
        assert set(dir(qubitpair)) >= set(qubitpair.__all__) | self.MODULES | {"__version__"}

    def test_a_name_is_read_on_each_use(self, monkeypatch):
        from qubitpair import separability

        original = separability.classify

        def stand_in(rho):
            return original(rho)

        monkeypatch.setattr(separability, "classify", stand_in)
        assert qubitpair.classify is stand_in
        monkeypatch.undo()
        assert qubitpair.classify is original
        assert "classify" not in vars(qubitpair)


class TestImportBoundary:
    """A fresh interpreter loads a module of the package only when it is used."""

    @staticmethod
    def loaded_after(script, *args) -> list:
        """The ``qubitpair.*`` modules a fresh interpreter has loaded after
        ``script``, which may print; the list is its last line."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(qubitpair.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        report = ("\nimport sys\n"
                  "print(sorted(m for m in sys.modules if m.startswith('qubitpair.')))\n")
        done = subprocess.run([sys.executable, "-c", script + report, *map(str, args)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return ast.literal_eval(done.stdout.splitlines()[-1])

    def test_import_loads_no_module(self):
        assert self.loaded_after("import qubitpair") == []

    def test_classify_loads_neither_selftest_nor_sampling(self, dicke_file):
        loaded = self.loaded_after(
            "import sys\nfrom qubitpair import cli\n"
            "assert cli.main(['classify', sys.argv[1], '--json']) == 0", dicke_file)
        assert "qubitpair.separability" in loaded
        assert "qubitpair.selftest" not in loaded
        assert "qubitpair.sampling" not in loaded

    def test_selftest_loads_both(self, tmp_path):
        loaded = self.loaded_after(
            "import sys\nfrom qubitpair import cli\n"
            "assert cli.main(['selftest', '--count', '1', '--out', sys.argv[1]]) == 0", tmp_path)
        assert {"qubitpair.selftest", "qubitpair.sampling"} <= set(loaded)


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

    @pytest.mark.parametrize("count", ["1", "20"])
    def test_a_seeded_run_passes(self, count, tmp_path, capsys):
        code, out, _ = run_cli(
            ["selftest", "--seed", "5", "--count", count, "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "result: PASS" in out

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


class TestClosedStdout:
    """A reader that closes standard output early (``| head``, ``| grep -q``)
    ends the command with exit 0 and an empty stderr, buffered or not; an
    unwritable ``--out`` still exits 2."""

    @staticmethod
    def run_console(argv, unbuffered, stdout):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        # `python -m qubitpair.cli` runs cli.entry(), as the console script does.
        return subprocess.run([sys.executable, "-m", "qubitpair.cli", *argv], env=env,
                              stdout=stdout, stderr=subprocess.PIPE, text=True)

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("command", ["invariants", "classify"])
    def test_a_closed_stdout_exits_0_with_empty_stderr(self, command, unbuffered, tmp_path):
        path = tmp_path / "dicke.json"
        write_state_file(path, dicke_pair(4, 1))
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command writes
        try:
            done = self.run_console([command, str(path)], unbuffered, write_end)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, "")

    def test_an_unwritable_out_still_exits_2(self, tmp_path):
        out_path = tmp_path / "missing" / "x.csv"
        done = self.run_console(["sweep", "oat", "--n", "4", "--chit", "1", "--out",
                                 str(out_path)], True, subprocess.PIPE)
        assert done.returncode == 2 and done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr and not out_path.exists()


class TestConsoleWarning:
    """The console command prints a warning as one line, ``warning: <message>``,
    which names no path of the install."""

    @pytest.mark.parametrize("command", ["sweep", "generate"])
    def test_the_ising_n2_warning_is_one_line(self, command, tmp_path):
        out_path = tmp_path / "out.json"
        done = TestClosedStdout.run_console(
            [command, "ising", "--n", "2", "--chit", "3.141592653589793", "--out",
             str(out_path)], False, subprocess.PIPE)
        assert (done.returncode, done.stderr) == (
            0, "warning: ising_pair with n=2: the closed form assumes a pair embedded in a "
               "longer chain\n")
        assert out_path.exists()


class TestTooLargeToAllocate:
    """An input too large to allocate is an input error: exit 2 and numpy's
    one-line message, no traceback.  The allocation is refused by a patch;
    nothing that large is allocated."""

    MESSAGE = ("Unable to allocate 745. GiB for an array with shape (100000000000,) and "
               "data type float64")

    def _refuse(self, *args, **kwargs):
        raise MemoryError(self.MESSAGE)

    def test_a_sweep_grid_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(np, "linspace", self._refuse)
        out_path = tmp_path / "rows.csv"
        code, out, err = run_cli(["sweep", "oat", "--n", "4", "--chit", "0:1:100000000000",
                                  "--out", str(out_path)], capsys)
        assert (code, out, err) == (2, "", f"error: {self.MESSAGE}\n")
        assert not out_path.exists()

    def test_a_selftest_count_exits_2(self, tmp_path, capsys, monkeypatch):
        from qubitpair import selftest

        monkeypatch.setattr(selftest, "_invariance_states", self._refuse)
        code, out, err = run_cli(["selftest", "--count", "100000000000", "--out",
                                  str(tmp_path)], capsys)
        assert (code, out, err) == (2, "", f"error: {self.MESSAGE}\n")
        assert not list(tmp_path.iterdir())


class TestBeyondTheFamilyRange:
    """An N or chi t beyond what a family's closed forms evaluate in floats
    is an input error of the family rule: exit 2 and one ``error:`` line."""

    BIG_N = str(10 ** 400)

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    @pytest.mark.parametrize("family, flags, limit", [
        ("dicke", ["--m", "0"], 340), ("oat", ["--chit", "0.3"], 1022),
        ("ising", ["--chit", "0.3"], 511)])
    def test_a_400_digit_n_exits_2(self, command, family, flags, limit, tmp_path, capsys):
        out = ["--out", str(tmp_path / "rows.csv")] if command == "sweep" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli([command, family, "--n", self.BIG_N, *flags, *out],
                                        capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: N must be at most 2**{limit} for {family}, got N = {self.BIG_N}\n"

    def test_an_m_ratio_grid_of_a_400_digit_n_exits_2(self, tmp_path, capsys):
        code, stdout, err = run_cli(["sweep", "dicke", "--n", self.BIG_N, "--m-ratio", "0.5",
                                     "--out", str(tmp_path / "rows.csv")], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: N must be at most 2**340 for dicke, got N = {self.BIG_N}\n"

    def test_an_n_range_too_large_to_index_exits_2(self, tmp_path, capsys):
        code, stdout, err = run_cli(["sweep", "oat", "--n", f"4:{self.BIG_N}:1", "--chit", "0.3",
                                     "--out", str(tmp_path / "rows.csv")], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_an_oat_chi_t_whose_double_overflows_exits_2(self, command, tmp_path, capsys):
        out = ["--out", str(tmp_path / "rows.csv")] if command == "sweep" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli([command, "oat", "--n", "4", "--chit", "1e308", *out],
                                        capsys)
        assert (code, stdout, err) == (
            2, "", "error: |chi_t| must be at most 2**1022, got chi_t = 1e+308\n")


#: Each command's arguments, by dest, as ``build_parser()`` adds them.
FULL_ARGUMENTS = {
    "invariants": ["help", "state", "json"],
    "classify": ["help", "state", "json"],
    "generate": ["help", "family", "n", "m", "chit", "paper_literal", "out"],
    "sweep": ["help", "family", "n", "m", "chit", "paper_literal", "m_ratio", "out", "format"],
    "selftest": ["help", "seed", "count", "out"],
}


@pytest.fixture
def dicke_file(tmp_path):
    path = tmp_path / "dicke.json"
    write_state_file(path, dicke_pair(4, 1))
    return path


def _subparsers(parser) -> dict:
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestCliSurface:
    """A call builds only the arguments of the command argv names, and every
    argv ends as it does with the full parser: the same exit code (or
    ``SystemExit`` code), stdout and stderr, byte for byte."""

    ARGV = [
        [], ["-h"], *[[command, "-h"] for command in FULL_ARGUMENTS],
        ["bogus"], ["--"], ["classify", "{state}"], ["classify", "{state}", "--bogus"],
        ["classify", "{state}", "--js"],
        ["sweep", "oat", "--chit", "1", "--out", "{dir}/s.csv"],  # no --n
        ["sweep", "oat", "--n", "4", "--chit", "1", "--out", "{dir}/s.csv", "--format", "xml"],
        ["selftest", "--count", "x"],
        ["classify", "{state}", "--json"], ["invariants", "{state}"],
        ["generate", "oat", "--n", "6", "--chit", "0.7"],
        ["sweep", "dicke", "--n", "4:12:4", "--m-ratio", "0.25", "--out", "{dir}/s.csv"],
        ["selftest", "--seed", "5", "--count", "2", "--out", "{dir}"],
    ]

    @staticmethod
    def outcome(capsys, argv=None):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def full_parser_outcome(capsys, monkeypatch, argv):
        full = cli.build_parser
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", lambda *_: full())
            return TestCliSurface.outcome(capsys, argv)

    @pytest.mark.parametrize("template", ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_the_same_bytes_as_the_full_parser(
            self, template, dicke_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [word.format(state=dicke_file, dir=tmp_path) for word in template]
        assert self.outcome(capsys, argv) == self.full_parser_outcome(capsys, monkeypatch, argv)

    def test_help_exits_0_and_a_usage_error_2(self, dicke_file, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = self.outcome(capsys, ["sweep", "--help"])
        assert (code, err) == (("SystemExit", 0), "")
        assert out.startswith("usage: qubitpair sweep ")
        # A usage error after a command's own arguments prints the top-level
        # usage line, whose choices every command feeds.
        code, out, err = self.outcome(capsys, ["classify", str(dicke_file), "--bogus"])
        assert (code, out) == (("SystemExit", 2), "")
        assert err.splitlines()[0] == (
            "usage: qubitpair [-h] {invariants,classify,generate,sweep,selftest} ...")

    def test_no_argv_reads_sys_argv(self, dicke_file, capsys, monkeypatch):
        argv = ["classify", str(dicke_file), "--json"]
        monkeypatch.setattr(sys, "argv", ["qubitpair", *argv])
        code, out, err = self.outcome(capsys)
        assert (code, out, err) == self.full_parser_outcome(capsys, monkeypatch, argv)
        assert code == 0 and json.loads(out)["verdict"] == "Entangled"

    def test_the_default_parser_has_every_argument(self):
        subparsers = _subparsers(cli.build_parser())
        assert {name: [a.dest for a in p._actions] for name, p in subparsers.items()} \
            == FULL_ARGUMENTS


class TestCliBuildsOnlyItsCommand:
    """A call adds six ``-h`` arguments (the top level's and each
    subparser's) and its own command's, not all 27."""

    @pytest.mark.parametrize("argv, own", [
        (["classify", "{state}", "--json"], ["state", "--json"]),
        (["sweep", "oat", "--n", "4", "--chit", "1", "--out", "{dir}/s.csv"],
         ["family", "--n", "--m", "--chit", "--paper-literal", "--m-ratio", "--out", "--format"]),
    ], ids=["classify", "sweep"])
    def test_arguments_added(self, argv, own, dicke_file, tmp_path, capsys, monkeypatch):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def spy(self, *names, **kwargs):
            added.append(names[0])
            return add_argument(self, *names, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
        cli.build_parser()
        assert len(added) == 27
        added.clear()
        assert cli.main([word.format(state=dicke_file, dir=tmp_path) for word in argv]) == 0
        assert sorted(added) == sorted(["-h"] * 6 + own)

    @pytest.mark.parametrize("command", FULL_ARGUMENTS)
    def test_a_named_parser_has_every_subparser_and_one_command(self, command):
        subparsers = _subparsers(cli.build_parser(command))
        assert list(subparsers) == list(FULL_ARGUMENTS)
        for name, p in subparsers.items():
            assert [a.dest for a in p._actions] == (
                FULL_ARGUMENTS[name] if name == command else ["help"])
