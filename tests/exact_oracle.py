"""Exact values of the 18 Makhlin invariants of a float Bloch form.

The exact arithmetic shares no code with ``qubitpair``: it reads the
float entries of (s, r, T) as exact rationals (``fractions.Fraction``)
and evaluates each invariant with no rounding.  Only the script's
sampler and runner import the library, to measure it.

Its accuracy measure is the error in units of ``eps * scale``, where the
scale of an invariant is the same polynomial evaluated on the absolute
values of the entries, every difference taken as a sum, floored at
2^-1022 / eps so that an error from subnormal results stays finite.  A
float evaluation of a polynomial whose longest chain of roundings (a
product, a sum or a difference, counted along the operands of each term)
has n of them is within gamma_n = n u / (1 - n u) of exact in these
units, u = eps / 2 the unit roundoff, whatever the order of its sums.
``makhlin_stack``'s longest chain is 23 (I10 and I11: a dot product of
three, whose second factor is a cross product of T T^T s, 6 deep, and
(T T^T)^2 s, 12 deep), so ``BOUND`` = 12 holds every column.

Run as a script from the repository root, it prints the worst error of
``qubitpair.invariants.makhlin_stack`` for each invariant over a seeded
sample of dense, triplet-supported, X-pattern and family states::

    PYTHONPATH=src python tests/exact_oracle.py --seed 1
"""

from __future__ import annotations

import argparse
import operator
import sys
import time
from fractions import Fraction

EPS = Fraction(1, 2 ** 52)
SCALE_FLOOR = Fraction(1, 2 ** 1022) / EPS
#: The error bound C, in eps * scale, that every one of the 18 columns keeps.
BOUND = 12
NAMES = tuple(f"I{n}" for n in range(1, 19))
#: The script's sample: this many states of each of its four kinds.
PER_KIND = 1250


def _invariants(s, r, t, minus):
    """The 18 invariants of one form, ``minus`` standing for every
    difference: exact with ``operator.sub``, the scale with
    ``operator.add`` on absolute values."""

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def cross(v, w):
        return [minus(v[(i + 1) % 3] * w[(i + 2) % 3], v[(i + 2) % 3] * w[(i + 1) % 3])
                for i in range(3)]

    def triple(u, v, w):
        return dot(u, cross(v, w))

    def mv(m, v):
        return [dot(row, v) for row in m]

    t_t = [list(col) for col in zip(*t)]
    tt = [mv(t, row) for row in t]          # (T T^T)_ij = T_i . T_j
    ttr = [mv(t_t, col) for col in t_t]     # (T^T T)_ij = column i . column j
    tt_s = mv(tt, s)
    tt2_s = mv(tt, tt_s)
    ttr_r = mv(ttr, r)
    ttr2_r = mv(ttr, ttr_r)
    t_r = mv(t, r)
    tt_t_r = mv(tt, t_r)
    tr_s = mv(t_t, s)
    ttr_tr_s = mv(ttr, tr_s)
    cof = [cross(t[(i + 1) % 3], t[(i + 2) % 3]) for i in range(3)]
    return [
        triple(*t),
        sum(x * x for row in t for x in row),
        sum(x * x for row in ttr for x in row),
        dot(s, s), dot(s, tt_s), dot(s, tt2_s),
        dot(r, r), dot(r, ttr_r), dot(r, ttr2_r),
        triple(s, tt_s, tt2_s),
        triple(r, ttr_r, ttr2_r),
        dot(s, t_r), dot(s, tt_t_r),
        2 * dot(s, mv(cof, r)),
        triple(s, tt_s, t_r),
        triple(tr_s, r, ttr_r),
        triple(tr_s, ttr_tr_s, r),
        triple(s, t_r, tt_t_r),
    ]


def _rationals(s, r, t, absolute=False):
    convert = (lambda x: abs(Fraction(x))) if absolute else Fraction
    return ([convert(float(x)) for x in s], [convert(float(x)) for x in r],
            [[convert(float(x)) for x in row] for row in t])


def exact_invariants(s, r, t) -> list:
    """The 18 invariants of the floats ``s``, ``r`` (3 entries) and ``t``
    (3 rows of 3) as exact Fractions."""
    return _invariants(*_rationals(s, r, t), operator.sub)


def invariant_scales(s, r, t) -> list:
    """The scale of each invariant: its polynomial on the absolute values,
    every difference a sum, floored at ``SCALE_FLOOR``."""
    return [max(v, SCALE_FLOOR) for v in _invariants(*_rationals(s, r, t, True), operator.add)]


def errors_in_eps(values, s, r, t) -> list:
    """|value - exact| / (eps * scale) of each of 18 float ``values`` that
    claim to be the invariants of (s, r, t), as floats."""
    exact, scale = exact_invariants(s, r, t), invariant_scales(s, r, t)
    return [float(abs(Fraction(float(v)) - e) / (EPS * c)) for v, e, c in zip(values, exact, scale)]


def gram_states(g):
    """G G^dag / tr(G G^dag) of each matrix of a ``(..., d, d)`` stack."""
    import numpy as np

    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def triplet_embedded(rho3):
    """Each 3x3 matrix of a ``(..., 3, 3)`` stack as the 4x4 matrix it is on
    the triplet basis |00>, (|01> + |10>)/sqrt 2, |11>."""
    import numpy as np

    embed = np.zeros((4, 3))
    embed[0, 0] = embed[3, 2] = 1.0
    embed[1, 1] = embed[2, 1] = np.sqrt(0.5)
    return embed @ rho3 @ embed.T


def x_pattern(a, d, c, b):
    """The X-pattern matrices diag(a, c, c, d) with rho_12 = rho_21 = c and
    rho_03 = conj(rho_30) = b, as a ``(k, 4, 4)`` stack from ``(k,)`` arrays."""
    import numpy as np

    a, d, c, b = np.broadcast_arrays(*(np.atleast_1d(v) for v in (a, d, c, b)))
    x = np.zeros(a.shape + (4, 4), dtype=complex)
    x[:, 0, 0], x[:, 3, 3], x[:, 1, 1], x[:, 2, 2], x[:, 1, 2], x[:, 2, 1] = a, d, c, c, c, c
    x[:, 0, 3], x[:, 3, 0] = b, np.conj(b)
    return x


def _sample(seed: int, per_kind: int):
    """A seeded sample of ``4 * per_kind`` states as a (k, 4, 4) stack, and
    the name of each state's kind."""
    import numpy as np

    from qubitpair.models import dicke_pair, ising_pair, oat_pair

    rng = np.random.default_rng(seed)

    def ginibre(k, d):
        return gram_states(rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d)))

    dense = ginibre(per_kind, 4)
    triplet = triplet_embedded(ginibre(per_kind, 3))
    weights = rng.exponential(size=(per_kind, 3))
    a, d, c = (weights / weights.sum(axis=1)[:, None] * [1.0, 1.0, 0.5]).T
    b = np.sqrt(rng.random(per_kind) * a * d) * np.exp(2j * np.pi * rng.random(per_kind))
    x = x_pattern(a, d, c, b)
    ns = rng.integers(2, 1001, size=per_kind)
    chi_ts = rng.uniform(0.0, 2.0 * np.pi, size=per_kind)
    families = []
    for j, (n, chi_t) in enumerate(zip(ns.tolist(), chi_ts.tolist())):
        if j % 3 == 0:
            families.append(oat_pair(n, chi_t))
        elif j % 3 == 1:
            families.append(ising_pair(max(n, 3), chi_t))
        else:
            families.append(dicke_pair(n, float(rng.integers(0, n + 1)) - n / 2.0))
    family = np.array([f.to_matrix() for f in families])
    kinds = [kind for kind in ("dense", "triplet", "xform", "family") for _ in range(per_kind)]
    return np.concatenate([dense, triplet, x, family]), kinds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    from qubitpair.invariants import makhlin_stack
    from qubitpair.states import bloch_decompose_stack

    rhos, kinds = _sample(args.seed, PER_KIND)
    s, r, t = bloch_decompose_stack(rhos)
    values = makhlin_stack(s, r, t)
    start = time.perf_counter()
    errors = [errors_in_eps(*row) for row in zip(values, s, r, t)]
    print(f"exact oracle, seed {args.seed}: {len(errors)} states "
          f"({PER_KIND} each of dense, triplet, xform, family), "
          f"{time.perf_counter() - start:.1f} s in Fraction")
    print(f"{'invariant':>9}  {'worst eps*scale':>15}  {'kind':>8}")
    worst_all = 0.0
    for column, name in enumerate(NAMES):
        j = max(range(len(errors)), key=lambda i: errors[i][column])
        worst = errors[j][column]
        worst_all = max(worst_all, worst)
        print(f"{name:>9}  {worst:15.3f}  {kinds[j]:>8}")
    print(f"{'all':>9}  {worst_all:15.3f}  (bound {BOUND})")
    return 0 if worst_all <= BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
