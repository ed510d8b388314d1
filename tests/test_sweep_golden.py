"""Sweep output pinned byte for byte.

The files in ``data/sweep_golden`` were written by ``sweep`` before grids
were evaluated as one stack, and written again, with only their ``i14``
cells changed in the last digits, when I14 became 2 s . (cof(T) r), and
once more, with only float cells of ``i1``, ``i2``, ``i4``, ``i12``,
``i14`` and ``i12_minus_i4sq`` changed, when the sweep took its
invariants from the X pattern's closed forms.
Regenerating them must give the same bytes: the 17-digit floats, the
sign of zero (``-0`` in CSV, ``-0.0`` in JSON), the I4-zero fallback rows
and the criteria cells.  This pins the output on its own; a cross-check
against ``classify`` would move along with any kernel the two share.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from qubitpair import cli

GOLDEN = Path(__file__).parent / "data" / "sweep_golden"

GRIDS = {
    "dicke": ["dicke", "--n", "4,6,8", "--m=-2,-1,0,1,2"],
    "oat": ["oat", "--n", "2:10:2", "--chit", "0:3.141592653589793:9"],
    "ising": ["ising", "--n", "3:12:3", "--chit", "0:6.283185307179586:9"],
}
FILES = {
    **{f"{family}.{ext}": argv for family, argv in GRIDS.items() for ext in ("csv", "json")},
    "oat-paper-literal.csv": ["oat", "--n", "2:10:2", "--chit", "0:3:7", "--paper-literal"],
}


def test_every_golden_file_is_regenerated():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(FILES)


@pytest.mark.parametrize("name", sorted(FILES))
def test_sweep_bytes_match(name, tmp_path, capsys):
    out = tmp_path / name
    assert cli.main(["sweep", *FILES[name], "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_golden_files_carry_signed_zeros_and_the_fallback():
    dicke = (GOLDEN / "dicke.csv").read_text().splitlines()
    # ppt_min_eig is -0 at (N, M) = (4, -2) and I4 is 3e-33 at M = 0 (no criterion read).
    assert dicke[1].split(",")[11] == "-0"
    assert any(line.split(",")[2] == "0" and line.endswith("Entangled,") for line in dicke[1:])
    assert '"ppt_min_eig": -0.0,' in (GOLDEN / "dicke.json").read_text()


@pytest.mark.parametrize("name", sorted(FILES))
def test_i10_is_plus_zero_on_every_row(name):
    """Every vector I10 reads lies along z on the X pattern, so its triple is
    exactly 0, and it is written as +0.0."""
    text = (GOLDEN / name).read_text()
    rows = json.loads(text) if name.endswith(".json") else list(csv.DictReader(text.splitlines()))
    assert rows and all(float(row["i10"]) == 0.0 and math.copysign(1.0, float(row["i10"])) == 1.0
                        for row in rows)
