"""Seeded inputs for the benchmark workloads, built with numpy alone.

Nothing here imports ``qubitpair``: the sweep grids, the state-file corpus
and the self-test seeds depend only on the seed, so a change to the
library's samplers or to its state-file reader cannot change what the
benchmark feeds it.  State files are written in schema version 1 (see
``qubitpair.stateio`` for the format).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

#: Zero band of the library's sign criteria and PT verdict (SIGN_ZERO_BAND).
BAND = 1e-10

#: Relative distance from a band edge that a near-boundary state must keep,
#: so rounding (about 1e-16 here) cannot move it across the edge.
EDGE_MARGIN = 0.25

_TRIPLET_BASIS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
).T  # columns |00>, (|01>+|10>)/sqrt2, |11>: the triplet subspace

_PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
_I2 = np.eye(2, dtype=complex)
_S_I = np.array([np.kron(p, _I2) for p in _PAULI])
_I_S = np.array([np.kron(_I2, p) for p in _PAULI])
_S_S = np.array([[np.kron(p, q) for q in _PAULI] for p in _PAULI])


# ---------------------------------------------------------------------------
# sweep_families
# ---------------------------------------------------------------------------

SWEEP_GRIDS_PER_FAMILY = 12
SWEEP_N_POINTS = 8
SWEEP_SECOND_AXIS = 6

#: Family written as JSON; the other two write CSV, so both serializers run.
SWEEP_JSON_FAMILY = "ising"


@dataclass(frozen=True)
class SweepGrid:
    family: str
    ns: tuple
    ms: tuple          # Dicke M values (empty for oat/ising)
    chits: tuple       # chi_t values (empty for dicke)
    fmt: str           # "csv" or "json"

    @property
    def points(self) -> list:
        """(N, M, chi_t) in the order the CLI emits rows."""
        if self.family == "dicke":
            return [(n, m, None) for n in self.ns for m in self.ms]
        return [(n, None, c) for n in self.ns for c in self.chits]

    def argv(self, out: str) -> list:
        ns = ",".join(str(n) for n in self.ns)
        if self.family == "dicke":
            second = "--m=" + ",".join(repr(m) for m in self.ms)
        else:
            second = "--chit=" + ",".join(repr(c) for c in self.chits)
        return ["sweep", self.family, "--n", ns, second, "--out", out, "--format", self.fmt]


def sweep_grids(seed: int) -> list:
    """Grids of 48 rows each, cycling oat, ising, dicke."""
    rng = np.random.default_rng([seed, 1])
    grids = []
    for _ in range(SWEEP_GRIDS_PER_FAMILY):
        for family in ("oat", "ising", "dicke"):
            fmt = "json" if family == SWEEP_JSON_FAMILY else "csv"
            if family == "dicke":
                # Even N and integer |M| <= 10 <= N/2 keep every point valid.
                start = 2 * int(rng.integers(10, 21))
                ns = tuple(start + 2 * k for k in range(SWEEP_N_POINTS))
                ms = tuple(
                    float(m) for m in
                    np.sort(rng.choice(np.arange(-10, 11), SWEEP_SECOND_AXIS, replace=False))
                )
                grids.append(SweepGrid(family, ns, ms, (), fmt))
            else:
                # N >= 3: the chain closed form warns at N = 2.
                start = int(rng.integers(3, 13))
                step = int(rng.integers(1, 4))
                ns = tuple(start + step * k for k in range(SWEEP_N_POINTS))
                chits = tuple(float(c) for c in np.sort(rng.uniform(0.02, 1.5, SWEEP_SECOND_AXIS)))
                grids.append(SweepGrid(family, ns, (), chits, fmt))
    return grids


# ---------------------------------------------------------------------------
# classify_files
# ---------------------------------------------------------------------------

#: One block of the corpus: (stratum, representation, files per block).
#: Every block holds exactly one predicted refusal, so the refused share is
#: 1/20 of the files attempted whenever a run stops on a block boundary.
BLOCK_LAYOUT = (
    ("dense", "matrix", 4),
    ("dense", "bloch", 4),
    ("xrandom", "xform", 4),
    ("xrandom", "matrix", 3),
    ("xrandom", "bloch", 3),
    ("boundary_refused", "xform", 1),
    ("boundary_kept", "xform", 1),
)
BLOCK_SIZE = sum(k for _, _, k in BLOCK_LAYOUT)
CORPUS_BLOCKS = 25


@dataclass(frozen=True)
class CorpusEntry:
    path: str
    stratum: str
    representation: str
    pt_min_eig: float      # eigvalsh of the PT of the state the file's bytes encode


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """rho[ij, kl] -> rho[il, kj] (second qubit transposed)."""
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def pt_min_eig(rho: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(rho))[0])


def x_matrix(a: float, b: complex, c: float, d: float) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[3, 3] = a, d
    rho[0, 3], rho[3, 0] = b, np.conj(b)
    rho[1:3, 1:3] = c
    return rho


def _dense_triplet(rng) -> np.ndarray:
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho3 = g @ g.conj().T
    rho3 /= np.trace(rho3).real
    return _TRIPLET_BASIS @ rho3 @ _TRIPLET_BASIS.conj().T


def _random_x(rng) -> tuple:
    w = rng.exponential(size=3)
    w /= w.sum()
    a, c = float(w[0]), float(w[2]) / 2.0
    d = 1.0 - a - 2.0 * c
    # 0.999 keeps a d - |b|^2 clear of the reader's PSD tolerance.
    radius = 0.999 * np.sqrt(max(a * d, 0.0) * rng.uniform())
    b = complex(radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return a, b, c


def boundary_prediction(a: float, c: float) -> tuple:
    """Criterion value I12 - I4^2 and PT min eigenvalue of the b = 0 X state.

    With d = 1 - a - 2c, I12 - I4^2 = 4 (a - d)^2 (a d - c^2) and the
    smallest PT eigenvalue is ((a + d) - sqrt((a - d)^2 + 4 c^2)) / 2.
    """
    d = 1.0 - a - 2.0 * c
    gap = 4.0 * (a - d) ** 2 * (a * d - c * c)
    lam = 0.5 * ((a + d) - np.sqrt((a - d) ** 2 + 4.0 * c * c))
    return gap, float(lam)


def predicted_refusal(a: float, c: float) -> bool | None:
    """True when the criterion fires but the PT verdict is 'separable'.

    That pair is the library's documented refusal (the two zero bands use
    different units).  None when the state is within EDGE_MARGIN of
    either band edge, where the outcome would hinge on rounding.
    """
    gap, lam = boundary_prediction(a, c)
    lo, hi = BAND / (1.0 + EDGE_MARGIN), BAND * (1.0 + EDGE_MARGIN)
    if lo <= -gap <= hi or lo <= -lam <= hi:
        return None
    return -gap > BAND and -lam < BAND


def _near_boundary(rng, refused: bool) -> tuple:
    """b = 0 X state with a in [0.5, 0.99] and a d - c^2 in [-1e-9, -1e-12]."""
    while True:
        a = float(rng.uniform(0.5, 0.99))
        eps = float(10.0 ** rng.uniform(-12.0, -9.0))
        # c^2 - a d = eps with d = 1 - a - 2c.
        c = float(np.sqrt(a + eps) - a)
        if predicted_refusal(a, c) is refused:
            return a, 0j, c


def _bloch_of(rho: np.ndarray) -> dict:
    s = np.einsum("kij,ji->k", _S_I, rho).real
    r = np.einsum("kij,ji->k", _I_S, rho).real
    t = np.einsum("klij,ji->kl", _S_S, rho).real
    return {"s": s.tolist(), "r": r.tolist(), "t": t.tolist()}


def _rho_of_bloch(spec: dict) -> np.ndarray:
    s, r, t = (np.asarray(spec[k], dtype=float) for k in ("s", "r", "t"))
    rho = np.eye(4, dtype=complex)
    rho += np.einsum("k,kij->ij", s, _S_I) + np.einsum("k,kij->ij", r, _I_S)
    rho += np.einsum("kl,klij->ij", t, _S_S)
    return rho / 4.0


def _payload(representation: str, rho: np.ndarray, x: tuple | None) -> dict:
    payload: dict = {"schema_version": "1"}
    if representation == "matrix":
        payload["matrix"] = [[[float(v.real), float(v.imag)] for v in row] for row in rho]
    elif representation == "bloch":
        payload["bloch"] = _bloch_of(rho)
    else:
        a, b, c = x
        payload["xform"] = {"a": a, "b_re": b.real, "b_im": b.imag, "c": c}
    return payload


def _rho_of_payload(payload: dict) -> np.ndarray:
    """The state a schema-v1 payload encodes (xform: d = 1 - a - 2c)."""
    if "matrix" in payload:
        raw = np.asarray(payload["matrix"], dtype=float)
        return raw[..., 0] + 1j * raw[..., 1]
    if "bloch" in payload:
        return _rho_of_bloch(payload["bloch"])
    x = payload["xform"]
    b = complex(x["b_re"], x["b_im"])
    return x_matrix(x["a"], b, x["c"], 1.0 - x["a"] - 2.0 * x["c"])


def build_corpus(seed: int, out_dir: str, blocks: int = CORPUS_BLOCKS) -> list:
    """Write ``blocks * BLOCK_SIZE`` state files; return them in run order.

    Within each block the file order is shuffled, so strata interleave.
    """
    rng = np.random.default_rng([seed, 2])
    os.makedirs(out_dir, exist_ok=True)
    slots = [(st, rep) for st, rep, k in BLOCK_LAYOUT for _ in range(k)]
    entries = []
    for _ in range(blocks):
        for j in rng.permutation(len(slots)):
            stratum, rep = slots[j]
            x = None
            if stratum == "dense":
                rho = _dense_triplet(rng)
            else:
                if stratum == "xrandom":
                    x = _random_x(rng)
                else:
                    x = _near_boundary(rng, refused=stratum == "boundary_refused")
                a, b, c = x
                rho = x_matrix(a, b, c, 1.0 - a - 2.0 * c)
            payload = _payload(rep, rho, x)
            path = os.path.join(out_dir, f"state{len(entries):05d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            entries.append(CorpusEntry(path, stratum, rep, pt_min_eig(_rho_of_payload(payload))))
    return entries


# ---------------------------------------------------------------------------
# selftest_suites
# ---------------------------------------------------------------------------

SELFTEST_SEEDS = 32
SELFTEST_COUNT = 20


def selftest_seeds(seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    return [int(s) for s in rng.integers(0, 2 ** 31, SELFTEST_SEEDS)]
