"""Positivity is one rule: the minimum eigenvalue against PSD_FLOOR.

Every path that decides whether a matrix is a state reads that one floor:
``assert_density_matrix`` and the state-file reader, the Pauli
decomposition's entry bound (derived from the floor), ``evidence`` and
``evidence_stack`` (on the solve they already make), ``classify`` and
``XForm``'s closed form.  So a state the floor accepts, with up to three
eigenvalues in [PSD_FLOOR, 0], passes every path, and a matrix whose
minimum eigenvalue lies clearly below the floor is refused as NotPositive
by every path that reads the criteria.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubitpair import cli
from qubitpair.errors import InconsistentClassification, NotPositive
from qubitpair.separability import classify, evidence, evidence_stack
from qubitpair.states import (
    TRIPLET_BASIS, XForm, assert_density_matrix, bloch_decompose, xform_extract, xform_matrices,
)
from qubitpair.stateio import read_state_file, write_state_file
from qubitpair.tolerances import PSD_FLOOR

# Within this distance of the floor the rounding of the two solves (the
# eigen solve and the X pattern's closed form) may decide either way.
EDGE = 1e-14

_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)

in_band = st.floats(PSD_FLOOR + EDGE, 0.0)
weights = st.floats(0.0, 1.0)
# Below the floor, clearly: far enough for every path, up to 1e-2.
below_floor = st.floats(-1e-2, 2.0 * PSD_FLOOR)


def _unitary(seed: int, n: int) -> np.ndarray:
    """A unitary from the QR decomposition of a seeded complex Ginibre matrix."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _spectrum(negatives: list, positives: list, size: int, total: float = 1.0) -> np.ndarray:
    """``size`` eigenvalues that sum to ``total``: the negatives, then the
    positive weights scaled to make up the rest (the last one takes all of
    it when every weight is 0)."""
    rest = size - len(negatives)
    w = np.array(positives[:rest], dtype=float)
    w = w / w.sum() if w.sum() > 0 else np.eye(rest)[-1]
    return np.concatenate([negatives, (total - sum(negatives)) * w])


def dense_state(negatives, positives, seed):
    """A generic two-qubit matrix with the given negative eigenvalues."""
    lam = _spectrum(negatives, positives, 4)
    u = _unitary(seed, 4) if seed else np.eye(4)
    return (u * lam) @ u.conj().T


def triplet_state(negatives, positives, seed):
    """A matrix on the triplet subspace plus the singlet, whose eigenvalue is
    the first negative (0 when there is none): the triplet gate reads a
    singlet population below its band as no singlet support."""
    singlet = negatives[0] if negatives else 0.0
    lam = _spectrum(negatives[1:], positives, 3, total=1.0 - singlet)
    v = np.column_stack([TRIPLET_BASIS @ _unitary(seed, 3), _SINGLET])
    return (v * np.append(lam, singlet)) @ v.conj().T


def xform_parameters(corner_min, two_c, theta, phase):
    """(a, b, c, d) of the X pattern whose corner block has eigenvalues
    corner_min and 1 - 2c - corner_min, rotated by theta, and whose middle
    block has eigenvalue 2c (its other eigenvalue is 0)."""
    top = 1.0 - two_c - corner_min
    cos2, sin2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    a = corner_min * cos2 + top * sin2
    b = (top - corner_min) * np.sin(theta) * np.cos(theta) * np.exp(1j * phase)
    c = 0.5 * two_c
    return float(a), complex(b), float(c), float(1.0 - a - 2.0 * c)


def x_state(negatives, positives, theta, phase):
    """An X-pattern matrix: the first negative is the corner block's smaller
    eigenvalue, the second 2c."""
    corner_min, two_c = (negatives + [positives[0] * 0.3, positives[1] * 0.3])[:2]
    return xform_matrices(*(np.array([v]) for v in xform_parameters(
        corner_min, two_c, theta, phase)))[0]


negative_lists = st.lists(in_band, max_size=3)
positive_lists = st.lists(weights, min_size=4, max_size=4)
seeds = st.integers(0, 2 ** 32 - 1)
angles = st.floats(0.0, np.pi / 2)
phases = st.floats(0.0, 2.0 * np.pi)


@st.composite
def accepted_states(draw):
    """(kind, matrix) of a state the floor accepts."""
    kind = draw(st.sampled_from(["dense", "triplet", "x"]))
    negatives, positives = draw(negative_lists), draw(positive_lists)
    if kind == "dense":
        return kind, dense_state(negatives, positives, draw(seeds))
    if kind == "triplet":
        return kind, triplet_state(negatives, positives, draw(seeds))
    return kind, x_state(negatives[:2], positives, draw(angles), draw(phases))


def _cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _clean_state() -> np.ndarray:
    return xform_matrices(*(np.array([v]) for v in (0.4, 0.1 + 0.05j, 0.15, 0.3)))[0]


class TestStatesTheFloorAcceptsPassEveryPath:
    @settings(max_examples=120, deadline=None)
    @given(accepted_states())
    # Diagonal states are triplet-supported within the band: the singlet
    # population is the mean of rho_11 and rho_22.
    @example(("triplet", np.diag([1.0 + 3e-9, -1e-9, -1e-9, -1e-9]).astype(complex)))
    @example(("triplet", np.diag([1.0 + 1.5e-9, -5e-10, -5e-10, -5e-10]).astype(complex)))
    @example(("x", xform_matrices(*(np.array([v]) for v in (-5e-12, 0j, 0.25, 0.5 + 5e-12)))[0]))
    def test_no_path_raises(self, tmp_path_factory, case):
        kind, rho = case
        directory = tmp_path_factory.mktemp("state")
        assert_density_matrix(rho)
        form = bloch_decompose(rho)
        files = {"matrix": rho}
        # The Bloch and X-form files are rounded when they are read back into
        # a matrix, so a state on the floor may land on either side of it.
        rounded = np.linalg.eigvalsh(rho)[0] > PSD_FLOOR + EDGE
        if rounded:
            files["bloch"] = form
        if kind != "dense":
            evidence(rho)
            evidence_stack(np.array([_clean_state(), rho]))
            try:
                classify(rho)
            except InconsistentClassification:
                pass
        if kind == "x":
            x = xform_extract(rho)
            if rounded:
                files["xform"] = x
        for representation, state in files.items():
            path = str(directory / f"{representation}.json")
            write_state_file(path, state)
            read_state_file(path)
            code, out, err = _cli(["invariants", path])
            assert (code, err) == (0, ""), (representation, err)
            if kind == "x":
                assert "xform: yes" in out.splitlines()


class TestTheXPatternReadsTheFloor:
    """``XForm`` accepts exactly the parameters whose matrix
    ``assert_density_matrix`` accepts, outside a rounding band around the
    floor."""

    near_floor = st.one_of(st.floats(3.0 * PSD_FLOOR, -PSD_FLOOR), st.floats(-1e-2, 0.5))

    @settings(max_examples=300, deadline=None)
    @given(near_floor, near_floor, angles, phases)
    @example(-5e-12, 0.5, 0.0, 0.0)  # a below 0, inside the floor
    @example(-2e-9, 0.5, 0.0, 0.0)   # a below the floor
    @example(-9.05e-6, 1.0 - 2e-6, np.pi / 4, 0.0)  # a = d = 1e-6, |b|^2 - a d about 1e-10
    def test_xform_and_the_matrix_agree(self, corner_min, two_c, theta, phase):
        min_eig = min(corner_min, 1.0 - two_c - corner_min, two_c)
        if abs(min_eig - PSD_FLOOR) < EDGE:
            return
        a, b, c, d = xform_parameters(corner_min, two_c, theta, phase)
        matrix = xform_matrices(*(np.array([v]) for v in (a, b, c, d)))[0]
        accepted = []
        for check in (lambda: XForm(a, b, c, d), lambda: assert_density_matrix(matrix)):
            try:
                check()
                accepted.append(True)
            except NotPositive:
                accepted.append(False)
        assert accepted == [min_eig >= PSD_FLOOR] * 2


@st.composite
def refused_states(draw):
    """(kind, matrix) with one eigenvalue below the floor and the others as
    ``accepted_states`` draws them."""
    kind = draw(st.sampled_from(["dense", "triplet", "x"]))
    negatives = [draw(below_floor)] + draw(st.lists(in_band, max_size=1))
    positives = draw(positive_lists)
    if kind == "dense":
        return kind, dense_state(negatives, positives, draw(seeds))
    if kind == "triplet":
        order = draw(st.permutations(negatives))  # the singlet may hold either
        return kind, triplet_state(list(order), positives, draw(seeds))
    return kind, x_state(draw(st.permutations(negatives)), positives, draw(angles), draw(phases))


class TestAMatrixBelowTheFloorIsRefused:
    """The positivity gate runs before triplet support, so a dense matrix is
    refused as NotPositive too."""

    @settings(max_examples=120, deadline=None)
    @given(refused_states())
    def test_every_criteria_path_raises_not_positive(self, case):
        _, rho = case
        for path in (lambda: evidence(rho), lambda: classify(rho),
                     lambda: evidence_stack(np.array([_clean_state(), rho, rho * np.nan]))):
            with pytest.raises(NotPositive, match="^not positive semidefinite: "):
                path()


class TestRepros:
    """The states on which the paths disagreed before positivity was one rule."""

    def _file(self, tmp_path, state):
        path = str(tmp_path / "state.json")
        write_state_file(path, state)
        return path

    @pytest.mark.parametrize("command", ["classify", "invariants"])
    def test_three_eigenvalues_on_the_floor(self, command, tmp_path):
        path = self._file(tmp_path, np.diag([1.0 + 3e-9, -1e-9, -1e-9, -1e-9]))
        code, _, err = _cli([command, path])
        assert (code, err) == (0, "")

    def test_evidence_refuses_a_triplet_matrix_below_the_floor(self):
        rho = triplet_state([-1e-3], [0.5, 0.5, 0.0, 0.0], 0)
        with pytest.raises(NotPositive, match=(
                r"^not positive semidefinite: min eigenvalue -1\.000e-03$")):
            evidence(rho)

    def test_a_shifted_middle_block_keeps_the_trace(self, tmp_path):
        # Trace 1 + 0.95e-10 and rho_11 - rho_22 = 0.9e-10: both inside their bands.
        rho = xform_matrices(*(np.array([v]) for v in (0.5 + 0.95e-10, 0j, 0.125, 0.25)))[0]
        rho[1, 1] += 0.45e-10
        rho[2, 2] -= 0.45e-10
        x = xform_extract(rho)
        assert abs(x.a + x.d + 2.0 * x.c - np.trace(rho).real) < 1e-16
        path = self._file(tmp_path, rho)
        code, out, err = _cli(["invariants", path, "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["xform"]["c"] == x.c
        code, out, err = _cli(["invariants", path])
        assert (code, err) == (0, "")
        assert "xform: yes" in out.splitlines()

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_an_extracted_form_below_the_floor_is_no_x_form(self, as_json, tmp_path):
        # Eigenvalues (-9.5e-10, -9.0e-11, 0, 1), all on the floor's side that
        # the reader accepts, while the extracted c = -5.2e-10 puts 2c below it.
        c = -5.2e-10
        rho = xform_matrices(*(np.array([v]) for v in (1.0 - 2.0 * c, 0j, c, 0.0)))[0]
        rho[1, 2] = rho[2, 1] = c + 0.9e-10
        assert np.linalg.eigvalsh(rho)[0] > PSD_FLOOR
        with pytest.raises(NotPositive):
            xform_extract(rho)
        path = self._file(tmp_path, rho)
        assert _cli(["classify", path])[0] == 0
        code, out, err = _cli(["invariants", path] + (["--json"] if as_json else []))
        assert (code, err) == (0, "")
        if as_json:
            payload = json.loads(out)
            assert (payload["xform"], payload["xform_six"]) == (None, None)
        else:
            assert "xform: no" in out.splitlines()

    def test_an_even_middle_block_keeps_its_bits(self, rng):
        for _ in range(50):
            c = rng.uniform(0.0, 0.5)
            rho = xform_matrices(*(np.array([v]) for v in (1.0 - 2.0 * c, 0j, c, 0.0)))[0]
            assert float.hex(xform_extract(rho).c) == float.hex(c)
