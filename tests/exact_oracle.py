"""Exact values of the 18 Makhlin invariants of a float Bloch form or X-pattern matrix.

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

The X pattern's closed forms (``makhlin_xform_stack``) are held to the
exact invariants of the matrix itself, whose entries are the parameters
(a, Re b, Im b, c, d): its Bloch entries are the Pauli traces written out
(``_xform_bloch``), and the scale is the same polynomial on the absolute
entries, so the bound also covers forming T.  Their chains, from the
exact parameters (2c and 2 Re b are exact): T_xx, T_yy and z = a - d 1,
t_zz = a + d - 2c 2, D = T_xx T_yy - T_xy T_xy 4, z^2 3 and t_zz^2 5;
then I1 7, I2 6, I3 12, I4 3, I5 9, I6 15 (z^2 (t_zz^2 t_zz^2)), I12 6,
I13 12, I14 8 and I12 - I4^2 8.  gamma_15 < 7.51 eps, so ``XFORM_BOUND``
= 8 holds every column; the zero columns are exact.

Run as a script from the repository root, it prints the worst error of
``qubitpair.invariants.makhlin_stack`` for each invariant over a seeded
sample of dense, triplet-supported, X-pattern and family states, then the
worst error of each closed form over seeded X-pattern draws and the model
families' grids, beside the error of the Pauli traces and
``makhlin_stack`` on the same matrices (the route the sweep took before
the closed forms), and exits 1 if ``makhlin_stack`` or a closed form
exceeds its bound::

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
#: The bound of ``makhlin_xform_stack``'s 18 columns and I12 - I4^2.
XFORM_BOUND = 8
NAMES = tuple(f"I{n}" for n in range(1, 19))
#: The columns of the X-pattern record: the 18 invariants, then I12 - I4^2.
XFORM_NAMES = NAMES + ("I12-I4^2",)
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


def _xform_bloch(a, re_b, im_b, c, d, minus):
    """(s, r, T) of the X-pattern matrix with diagonal (a, c, c, d),
    rho_12 = c and rho_03 = re_b + i im_b, its Pauli traces written out,
    ``minus`` standing for every difference."""
    zero = Fraction(0)
    z, t_zz = minus(a, d), minus(a + d, 2 * c)
    t_xy = minus(zero, 2 * im_b)
    t = [[2 * c + 2 * re_b, t_xy, zero], [t_xy, minus(2 * c, 2 * re_b), zero], [zero, zero, t_zz]]
    return [zero, zero, z], [zero, zero, z], t


def exact_xform_invariants(a, re_b, im_b, c, d) -> list:
    """The 18 invariants of the X-pattern matrix with entries ``a``,
    ``re_b + i im_b``, ``c`` and ``d`` (Fractions) as exact Fractions."""
    return _invariants(*_xform_bloch(a, re_b, im_b, c, d, operator.sub), operator.sub)


def xform_scales(a, re_b, im_b, c, d) -> list:
    """The scale of each invariant of the X-pattern matrix: its polynomial,
    the Bloch entries' Pauli traces included, on the absolute matrix
    entries, every difference a sum, floored at ``SCALE_FLOOR``."""
    entries = (abs(x) for x in (a, re_b, im_b, c, d))
    return [max(v, SCALE_FLOOR) for v in _invariants(
        *_xform_bloch(*entries, operator.add), operator.add)]


def _xform_rationals(a, b, c, d):
    """The float parameters of one X-pattern matrix, b complex, as the
    Fractions (a, Re b, Im b, c, d)."""
    b = complex(b)
    return [Fraction(float(x)) for x in (a, b.real, b.imag, c, d)]


def xform_errors_in_eps(values, a, b, c, d, columns=None) -> list:
    """|value - exact| / (eps * scale) of float ``values`` that claim to be
    the ``columns`` of ``XFORM_NAMES`` (all 19 by default: the 18
    invariants, then I12 - I4^2, whose scale is I12's plus I4's squared)
    of the X-pattern matrix of the floats ``a``, ``b`` (complex), ``c``
    and ``d``, as floats."""
    params = _xform_rationals(a, b, c, d)
    exact, scale = exact_xform_invariants(*params), xform_scales(*params)
    exact.append(exact[11] - exact[3] * exact[3])
    scale.append(scale[11] + scale[3] * scale[3])
    columns = range(len(values)) if columns is None else columns
    return [float(abs(Fraction(float(v)) - exact[j]) / (EPS * scale[j]))
            for v, j in zip(values, columns)]


def xform_worst_errors(invariants, gaps, a, b, c, d) -> list:
    """The worst error over k rows of each of the 19 ``XFORM_NAMES``
    columns: ``(k, 18)`` invariants and ``(k,)`` I12 - I4^2 of the X-pattern
    matrices of the ``(k,)`` parameter arrays."""
    worst = [0.0] * len(XFORM_NAMES)
    for row in zip(invariants.tolist(), gaps.tolist(), a, b, c, d):
        errors = xform_errors_in_eps(row[0] + [row[1]], *row[2:])
        worst = [max(w, e) for w, e in zip(worst, errors)]
    return worst


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


def x_parameters(rng, count):
    """``count`` random X-pattern parameter sets as ``(count,)`` arrays a, b,
    c and d: (a, d, 2c) uniform on the simplex, b uniform in the disc of
    radius sqrt(a d), the positive region."""
    import numpy as np

    weights = rng.exponential(size=(count, 3))
    a, d, c = (weights / weights.sum(axis=1)[:, None] * [1.0, 1.0, 0.5]).T
    b = np.sqrt(rng.random(count) * a * d) * np.exp(2j * np.pi * rng.random(count))
    return a, b, c, d


def family_grids(stride: int = 1) -> dict:
    """The model families' grids as X-pattern parameters: family name to
    ``(k,)`` arrays a, b, c and d.  OAT (also as printed) and Ising take N
    in steps of 16 * ``stride`` to about 400, with 25 chi t each; Dicke
    takes every even N to 200 in steps of 2 * ``stride``, with M = 0,
    +-N/4 and +-N/2 (rounded)."""
    import numpy as np

    from qubitpair.models import pair_parameters

    step = 16 * stride
    oat = [(n, None, t) for n in range(2, 401, step) for t in np.linspace(0.0, 3.1, 25).tolist()]
    ising = [(n, None, t) for n in range(3, 401, step) for t in np.linspace(0.0, 6.2, 25).tolist()]
    dicke = [(n, float(m), None) for n in range(2, 201, 2 * stride)
             for m in sorted({round(f * n / 2) for f in (-1.0, -0.5, 0.0, 0.5, 1.0)})]
    return {
        "oat": pair_parameters("oat", oat),
        "oat-paper-literal": pair_parameters("oat", oat, paper_literal=True),
        "ising": pair_parameters("ising", ising),
        "dicke": pair_parameters("dicke", dicke),
    }


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
    a, b, c, d = x_parameters(rng, per_kind)
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


def _worst_table(errors, kinds, names):
    """Per column, the worst of the rows' ``errors`` and the kind of its row."""
    worst = [max(range(len(errors)), key=lambda i: errors[i][col]) for col in range(len(names))]
    return [(errors[j][col], kinds[j]) for col, j in enumerate(worst)]


def _makhlin_record(seed: int) -> float:
    from qubitpair.invariants import makhlin_stack
    from qubitpair.states import bloch_decompose_stack

    rhos, kinds = _sample(seed, PER_KIND)
    s, r, t = bloch_decompose_stack(rhos)
    values = makhlin_stack(s, r, t)
    start = time.perf_counter()
    errors = [errors_in_eps(*row) for row in zip(values, s, r, t)]
    print(f"exact oracle, seed {seed}: {len(errors)} states "
          f"({PER_KIND} each of dense, triplet, xform, family), "
          f"{time.perf_counter() - start:.1f} s in Fraction")
    print(f"{'invariant':>9}  {'worst eps*scale':>15}  {'kind':>8}")
    table = _worst_table(errors, kinds, NAMES)
    for name, (worst, kind) in zip(NAMES, table):
        print(f"{name:>9}  {worst:15.3f}  {kind:>8}")
    worst_all = max(worst for worst, _ in table)
    print(f"{'all':>9}  {worst_all:15.3f}  (bound {BOUND})")
    return worst_all


def _xform_record(seed: int) -> float:
    """Print the X pattern's record; return the closed forms' worst error."""
    import numpy as np

    from qubitpair.invariants import makhlin_stack, makhlin_xform_stack
    from qubitpair.states import bloch_decompose_stack, xform_matrices

    rows = {"random": x_parameters(np.random.default_rng(seed), PER_KIND), **family_grids()}
    kinds = [kind for kind, abcd in rows.items() for _ in abcd[0]]
    a, b, c, d = (np.concatenate(column) for column in zip(*rows.values()))
    start = time.perf_counter()
    tables = []
    for values in (makhlin_xform_stack(a, b, c, d),
                   makhlin_stack(*bloch_decompose_stack(xform_matrices(a, b, c, d)))):
        gaps = values[:, 11] - values[:, 3] * values[:, 3]
        errors = [xform_errors_in_eps(row + [gap], *params) for row, gap, *params
                  in zip(values.tolist(), gaps.tolist(), a, b, c, d)]
        tables.append(_worst_table(errors, kinds, XFORM_NAMES))
    print(f"\nX-pattern closed forms, seed {seed}: {len(kinds)} matrices ("
          + ", ".join(f"{len(abcd[0])} {kind}" for kind, abcd in rows.items())
          + f"), {time.perf_counter() - start:.1f} s in Fraction")
    print("against the exact invariants of the matrix; before: its Pauli traces "
          "and makhlin_stack")
    print(f"{'column':>9}  {'closed forms':>12}  {'kind':>17}  {'before':>8}  {'kind':>17}")
    for name, (worst, kind), (before, before_kind) in zip(XFORM_NAMES, *tables):
        print(f"{name:>9}  {worst:12.3f}  {kind:>17}  {before:8.3f}  {before_kind:>17}")
    worst_all = max(worst for worst, _ in tables[0])
    print(f"{'all':>9}  {worst_all:12.3f}  (bound {XFORM_BOUND})")
    return worst_all


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    within = _makhlin_record(args.seed) <= BOUND
    within &= _xform_record(args.seed) <= XFORM_BOUND
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
