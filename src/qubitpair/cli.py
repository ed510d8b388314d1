"""Command-line front end.

Subcommands: ``invariants``, ``classify``, ``generate``, ``sweep`` and
``selftest``.  ``generate`` is the one-point case of ``sweep``: both take a
model family and the same family flags.  Exit codes: 0 ok, 1
self-test/property failure, 2 input validation or an unwritable output
path, 3 domain precondition (e.g. non-symmetric input to classify).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .errors import NotSymmetricState, NotXForm, QubitPairError
from .invariants import makhlin_all, xform_invariants
from .models import FAMILIES, pair_parameters
from .selftest import format_report, run_selftest
from .separability import (
    CRITERIA, VERDICT_ENTANGLED, VERDICT_SEPARABLE, _classification_error, classify, evidence,
    evidence_stack,
)
from .states import XForm, bloch_decompose, is_symmetric, xform_extract, xform_matrices
from .stateio import read_state_file, state_payload, write_state_file
from .tolerances import SIGN_ZERO_BAND

#: Sweep columns: the CSV header, the order of each CSV line and of each JSON
#: row's keys.  Columns 4..11 are the evidence floats.
SWEEP_COLUMNS = (
    "family", "N", "M", "chi_t", "i1", "i2", "i4", "i10", "i12", "i14",
    "i12_minus_i4sq", "ppt_min_eig", "verdict", "criteria",
)


#: The fired criteria of each 3-bit mask (bit i is ``CRITERIA[i]``), sorted.
_CRITERIA_SETS = [sorted(name for bit, name in enumerate(CRITERIA) if mask >> bit & 1)
                  for mask in range(8)]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _classification_payload(cls) -> dict:
    return {
        "verdict": cls.verdict,
        "criteria": sorted(cls.criteria_fired),
        "ppt_min_eigenvalue": cls.ppt_min_eigenvalue,
        "i4_zero_fallback_used": cls.i4_zero_fallback_used,
    }


def _invariants_payload(rho: np.ndarray) -> dict:
    """The ``invariants`` report of a state that ``read_state_file`` validated.

    A symmetric state's 18 invariants are the ones ``classify`` read its
    verdict from, so the state is decomposed once.  A symmetric state that
    ``classify`` refuses because a criterion fires while its PT minimum
    eigenvalue is inside the zero band is reported with its invariants and
    no classification; a criterion firing on a PT spectrum positive beyond
    the band contradicts the theorem and is raised as ``classify`` raises it.
    """
    ev = cls = evidence(rho) if is_symmetric(rho) else None
    error = _classification_error(ev) if ev else None
    if error is not None:
        if ev.ppt_min_eigenvalue > SIGN_ZERO_BAND:
            raise error
        cls = None
    inv = ev.invariants if ev else makhlin_all(bloch_decompose(rho))
    payload: dict = {
        "invariants": {f"i{k}": getattr(inv, f"i{k}") for k in range(1, 19)},
        "symmetric": ev is not None,
        "symmetric_six": asdict(ev.six) if ev else None,
        "xform": None,
        "xform_six": None,
        "classification": _classification_payload(cls) if cls else None,
    }
    try:
        x = xform_extract(rho)
    except NotXForm:
        x = None
    if x is not None:
        payload["xform"] = {
            "a": x.a, "b_re": x.b.real, "b_im": x.b.imag, "c": x.c, "d": x.d,
        }
        payload["xform_six"] = asdict(xform_invariants(x))
    return payload


def _print_six(label: str, six: dict) -> None:
    parts = " ".join(f"{k}={_fmt(v)}" for k, v in six.items())
    print(f"{label}: {parts}")


def cmd_invariants(args) -> int:
    rho = read_state_file(args.state)
    payload = _invariants_payload(rho)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"state: {args.state}")
    print(f"symmetric: {'yes' if payload['symmetric'] else 'no'}")
    print(f"xform: {'yes' if payload['xform'] is not None else 'no'}")
    for k in range(1, 19):
        print(f"I{k:<2d} = {_fmt(payload['invariants'][f'i{k}'])}")
    if payload["symmetric_six"] is not None:
        _print_six("symmetric six", payload["symmetric_six"])
    if payload["xform_six"] is not None:
        _print_six("xform closed forms", payload["xform_six"])
    if payload["classification"] is not None:
        cls = payload["classification"]
        crit = ",".join(cls["criteria"]) or "-"
        print(
            f"verdict: {cls['verdict']} criteria: {crit} "
            f"ppt_min_eig={_fmt(cls['ppt_min_eigenvalue'])} "
            f"i4_zero_fallback={'yes' if cls['i4_zero_fallback_used'] else 'no'}"
        )
    return 0


def cmd_classify(args) -> int:
    rho = read_state_file(args.state)
    cls = classify(rho)
    if args.json:
        print(json.dumps(_classification_payload(cls), indent=2))
        return 0
    crit = ",".join(sorted(cls.criteria_fired)) or "-"
    print(f"verdict: {cls.verdict}")
    print(f"criteria: {crit}")
    print(f"ppt_min_eig: {_fmt(cls.ppt_min_eigenvalue)}")
    print(f"i4_zero_fallback: {'yes' if cls.i4_zero_fallback_used else 'no'}")
    return 0


def cmd_generate(args) -> int:
    points = _sweep_grid(args)
    if len(points) != 1:
        raise ValueError(f"generate takes one grid point, got {len(points)}")
    x = XForm(*(v.item() for v in pair_parameters(args.family, points, args.paper_literal)))
    if args.out:
        write_state_file(args.out, xform=x)
        print(f"wrote {args.out}: a={_fmt(x.a)} b_re={_fmt(x.b.real)} "
              f"b_im={_fmt(x.b.imag)} c={_fmt(x.c)} d={_fmt(x.d)}")
    else:
        print(json.dumps(state_payload(xform=x), indent=2))
    return 0


def _parse_int_list(text: str) -> list:
    """Comma list ('4,8') or inclusive range 'start:stop:step'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected start:stop:step, got {text!r}")
        start, stop, step = (int(p) for p in parts)
        if step <= 0:
            raise ValueError("step must be positive")
        return list(range(start, stop + 1, step))
    return [int(p) for p in text.split(",")]


def _parse_float_list(text: str) -> list:
    """Comma list ('0.1,0.2') or linspace 'lo:hi:count' (inclusive ends)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected lo:hi:count, got {text!r}")
        lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
        if num < 2:
            raise ValueError("count must be >= 2")
        return [float(v) for v in np.linspace(lo, hi, num)]
    return [float(p) for p in text.split(",")]


def _sweep_grid(args) -> list:
    """Grid points (N, M, chi_t) of ``generate`` or ``sweep``.

    The one family check: a flag the family does not take, or a missing
    family parameter, is an input error.
    """
    family, m_ratio = args.family, vars(args).get("m_ratio")
    foreign = [flag for flag, value, families in (
        ("--m", args.m, ("dicke",)),
        ("--m-ratio", m_ratio, ("dicke",)),
        ("--chit", args.chit, ("oat", "ising")),
        ("--paper-literal", args.paper_literal or None, ("oat",)),
    ) if value is not None and family not in families]
    if foreign:
        raise ValueError(f"{family} does not take {', '.join(foreign)}")
    ns = _parse_int_list(args.n)
    if family == "dicke":
        if (args.m is None) == (m_ratio is None):
            raise ValueError(f"dicke {args.command} needs " + (
                "exactly one of --m / --m-ratio" if args.command == "sweep" else "--m"))
        if m_ratio is not None:
            return [(n, m_ratio * n, None) for n in ns]
        return [(n, m, None) for n in ns for m in _parse_float_list(args.m)]
    if args.chit is None:
        raise ValueError(f"{family} {args.command} needs --chit")
    return [(n, None, chit) for n in ns for chit in _parse_float_list(args.chit)]


def _sweep_text(family: str, points: list, ev, as_json: bool) -> str:
    """The sweep file of a grid's points and their ``EvidenceStack``.

    Each row is one format string filled straight from the evidence arrays.
    CSV cells are ``_fmt``'s 17 digits.  JSON is the text ``json.dump(rows,
    indent=2)`` writes of the rows as dicts keyed by SWEEP_COLUMNS, floats
    as ``repr``.
    """
    num, none, quoted = ("%r", "null", '"%s"') if as_json else ("%.17g", "", "%s")
    cells = (quoted, "%d", "%s", "%s", *[num] * 8, quoted, "%s")
    if as_json:
        row = "  {\n" + ",\n".join(
            f'    "{name}": {cell}' for name, cell in zip(SWEEP_COLUMNS, cells)) + "\n  }"
        head, sep, tail = "[\n", ",\n", "\n]\n"
        fired_cells = ["[]" if not names else "[\n" + ",\n".join(
            f'      "{name}"' for name in names) + "\n    ]" for names in _CRITERIA_SETS]
    else:
        row = ",".join(cells)
        head, sep, tail = ",".join(SWEEP_COLUMNS) + "\n", "\n", "\n"
        fired_cells = [";".join(names) for names in _CRITERIA_SETS]
    per_point = zip(
        points,
        ev.invariants[:, [0, 1, 3, 9, 11, 13]].tolist(),  # I1, I2, I4, I10, I12, I14
        ev.i12_minus_i4sq.tolist(),
        ev.ppt_min_eigenvalue.tolist(),
        ev.separable.tolist(),
        (ev.criteria @ (1, 2, 4)).tolist(),  # the fired set as an index into _CRITERIA_SETS
    )
    return head + sep.join(row % (
        family, n, none if m is None else num % m, none if chi_t is None else num % chi_t,
        *six, gap, pt, VERDICT_SEPARABLE if separable else VERDICT_ENTANGLED, fired_cells[fired],
    ) for (n, m, chi_t), six, gap, pt, separable, fired in per_point) + tail


def cmd_sweep(args) -> int:
    points = _sweep_grid(args)
    if not points:
        raise ValueError("empty sweep grid")
    # The model pairs are valid X-pattern states by construction, so the
    # stack takes ``evidence_stack`` without ``classify``'s gates, and a
    # criterion that fires inside the PT band is written out, not raised.
    ev = evidence_stack(xform_matrices(*pair_parameters(args.family, points, args.paper_literal)))
    as_json = args.format == "json" or (
        args.format == "auto" and args.out.endswith(".json")
    )
    text = _sweep_text(args.family, points, ev, as_json)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {len(points)} rows to {args.out}")
    return 0


def cmd_selftest(args) -> int:
    report = run_selftest(seed=args.seed, count=args.count, out_dir=args.out)
    print(format_report(report))
    return 1 if report.failures else 0


def _add_family_command(sub, name: str, help_text: str, func) -> argparse.ArgumentParser:
    """A subcommand taking a model family and its grid flags, read by ``_sweep_grid``."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--n", required=True,
                   help="comma list '4,8' or inclusive range 'start:stop:step'")
    p.add_argument("--m", help="dicke: comma list of M values")
    p.add_argument("--chit", help="oat/ising: accumulated phase chi*t in radians, "
                                  "comma list or linspace 'lo:hi:count'")
    p.add_argument("--paper-literal", action="store_true",
                   help="oat: use the originally printed Im(b) exponent "
                        "instead of the self-consistent one")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitpair",
        description="Local-unitary invariants and separability analysis of "
                    "two-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="print all 18 invariants of a state file")
    p_inv.add_argument("state", help="path to a state JSON file")
    p_inv.add_argument("--json", action="store_true", help="machine-readable output")
    p_inv.set_defaults(func=cmd_invariants)

    p_cls = sub.add_parser("classify", help="separability verdict for a symmetric state")
    p_cls.add_argument("state")
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(func=cmd_classify)

    p_gen = _add_family_command(
        sub, "generate", "write the model state file of one grid point", cmd_generate)
    p_sweep = _add_family_command(
        sub, "sweep", "tabulate invariants over a parameter grid", cmd_sweep)
    p_gen.add_argument("--out", help="output path (stdout if omitted)")
    p_sweep.add_argument("--m-ratio", type=float,
                         help="dicke: set M = ratio * N per grid point")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=("auto", "csv", "json"), default="auto")

    p_self = sub.add_parser("selftest", help="run the seeded property suites")
    p_self.add_argument("--seed", type=int, default=42)
    p_self.add_argument("--count", type=int, default=500)
    p_self.add_argument("--out", default=".",
                        help="directory for counterexample files")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotSymmetricState as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QubitPairError, ValueError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
