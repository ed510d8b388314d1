"""Command-line front end.

Subcommands: ``invariants``, ``classify``, ``generate``, ``sweep`` and
``selftest``.  ``generate`` is the one-point case of ``sweep``: both take a
model family and the same family flags.  ``classify`` and ``invariants``
read a file with ``stateio.read_state``, so an ``xform`` file is
evaluated as ``sweep`` evaluates a row, by ``_xform_evidence``.  Exit
codes: 0 ok, 1 self-test/property failure, 2 input validation, an
unwritable output path or an input too large to allocate, 3 domain
precondition (e.g. non-symmetric input to classify).  A reader that
closes standard output early (``| head``) ends the command with exit 0
and nothing on standard error.  The console command (``entry``) prints
a warning as one ``warning: <message>`` line.

The commands are one table, ``COMMANDS``.  A call builds every command's
subparser, so the usage line, ``--help`` and the command choices are
always the same, but adds arguments only to the command its first word
names; any other first word (help, ``--``, a typo, none) builds them all,
as ``build_parser()`` does.  ``cmd_selftest`` imports ``selftest`` when it
runs, so the other commands never load it or ``sampling``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from .errors import InvalidDensityMatrix, NotSymmetricState, NotXForm, QubitPairError
from .invariants import xform_invariants
from .models import FAMILIES, pair_parameters
from .separability import (
    CRITERIA, VERDICT_ENTANGLED, VERDICT_SEPARABLE, _classification, _classification_error,
    _gated_evidence, _xform_evidence, classify,
)
from .states import XForm, is_symmetric, xform_extract
from .stateio import read_state, state_text, write_state_file, xform_fields
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


def _invariants_payload(state) -> dict:
    """The ``invariants`` report of a state that ``read_state`` validated,
    from one evaluation of it.

    An ``XForm`` takes the sweep's route, ``_xform_evidence``: it is
    symmetric by construction, and its X block is the form itself.  A
    matrix takes the evidence without its triplet gate, whose mask
    ``is_symmetric`` reads once, so the 18 invariants come from one Pauli
    decomposition whether the state is symmetric or not.  Only a symmetric
    state gets a classification.  One that ``classify`` refuses because a
    criterion fires while its PT minimum eigenvalue is inside the zero band
    is reported with its invariants and no classification; a criterion
    firing on a PT spectrum positive beyond the band contradicts the
    theorem and is raised as ``classify`` raises it.
    """
    if isinstance(state, XForm):
        x, symmetric, ev = state, True, _xform_evidence(*state._columns())
    else:
        x, symmetric, ev = None, is_symmetric(state), _gated_evidence(state[None], triplet=False)
    cls = _classification(ev)
    error = _classification_error(cls) if symmetric else None
    if error is not None and cls.ppt_min_eigenvalue > SIGN_ZERO_BAND:
        raise error
    payload: dict = {
        "invariants": {f"i{k}": getattr(cls.invariants, f"i{k}") for k in range(1, 19)},
        "symmetric": symmetric,
        "symmetric_six": asdict(cls.six) if symmetric else None,
        "xform": None,
        "xform_six": None,
        "classification": _classification_payload(cls) if symmetric and error is None else None,
    }
    # A matrix off the pattern has no X form, and so has one whose extracted
    # form XForm's rule refuses: c, the mean of the middle block's diagonal,
    # can lie below the floor although no eigenvalue of the matrix does.
    try:
        x = x or xform_extract(state)
    except (NotXForm, InvalidDensityMatrix):
        return payload
    payload["xform"] = {**xform_fields(x), "d": x.d}
    payload["xform_six"] = asdict(xform_invariants(x))
    return payload


def _print_six(label: str, six: dict) -> None:
    parts = " ".join(f"{k}={_fmt(v)}" for k, v in six.items())
    print(f"{label}: {parts}")


def cmd_invariants(args) -> int:
    payload = _invariants_payload(read_state(args.state))
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
    cls = classify(read_state(args.state))
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
        write_state_file(args.out, x)
        _print_six(f"wrote {args.out}", {**xform_fields(x), "d": x.d})
    else:
        sys.stdout.write(state_text(x))
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
    # ``pair_parameters`` has checked every point with ``XForm``'s rule, the
    # grid's one check: ``_xform_evidence`` runs no gate again, solves only
    # the partial transposes and reads the invariants from the pattern's
    # closed forms.  A criterion that fires inside the PT band is written
    # out, not raised.
    ev = _xform_evidence(*pair_parameters(args.family, points, args.paper_literal))
    as_json = args.format == "json" or (
        args.format == "auto" and args.out.endswith(".json")
    )
    text = _sweep_text(args.family, points, ev, as_json)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {len(points)} row{'' if len(points) == 1 else 's'} to {args.out}")
    return 0


def cmd_selftest(args) -> int:
    from .selftest import format_report, run_selftest

    report = run_selftest(seed=args.seed, count=args.count, out_dir=args.out)
    print(format_report(report))
    return 1 if report.failures else 0


def _invariants_arguments(p) -> None:
    p.add_argument("state", help="path to a state JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _classify_arguments(p) -> None:
    p.add_argument("state")
    p.add_argument("--json", action="store_true")


def _family_arguments(p) -> None:
    """A model family and its grid flags, read by ``_sweep_grid``."""
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--n", required=True,
                   help="comma list '4,8' or inclusive range 'start:stop:step'")
    p.add_argument("--m", help="dicke: comma list of M values")
    p.add_argument("--chit", help="oat/ising: accumulated phase chi*t in radians, "
                                  "comma list or linspace 'lo:hi:count'")
    p.add_argument("--paper-literal", action="store_true",
                   help="oat: use the originally printed Im(b) exponent "
                        "instead of the self-consistent one")


def _generate_arguments(p) -> None:
    _family_arguments(p)
    p.add_argument("--out", help="output path (stdout if omitted)")


def _sweep_arguments(p) -> None:
    _family_arguments(p)
    p.add_argument("--m-ratio", type=float, help="dicke: set M = ratio * N per grid point")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("auto", "csv", "json"), default="auto")


def _selftest_arguments(p) -> None:
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--out", default=".", help="directory for counterexample files")


#: The commands, in the order ``--help`` lists them: each name's help line,
#: handler, and the function that adds the command's arguments.
COMMANDS = {
    "invariants": ("print all 18 invariants of a state file", cmd_invariants,
                   _invariants_arguments),
    "classify": ("separability verdict for a symmetric state", cmd_classify,
                 _classify_arguments),
    "generate": ("write the model state file of one grid point", cmd_generate,
                 _generate_arguments),
    "sweep": ("tabulate invariants over a parameter grid", cmd_sweep, _sweep_arguments),
    "selftest": ("run the seeded property suites", cmd_selftest, _selftest_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``qubitpair`` parser, with every command's arguments by default.

    Every command gets its subparser, so the usage line, ``--help`` and the
    command choices never change; given a ``command``, only its subparser
    gets arguments.  argparse reads no other subparser, so a parser built
    for the command that ``argv`` names parses ``argv`` as the full one does.
    """
    parser = argparse.ArgumentParser(
        prog="qubitpair",
        description="Local-unitary invariants and separability analysis of "
                    "two-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, add_arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # a closed standard output, handled by entry()
        raise
    # OSError: an unwritable --out; MemoryError: a grid or count too large to allocate.
    except (QubitPairError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NotSymmetricState) else 2


def entry() -> None:
    # A warning prints as one line that names no path of the install.
    warnings.formatwarning = lambda message, *rest, **kwargs: f"warning: {message}\n"
    try:
        code = main()
        # Flush here, so that a reader who closed the pipe is seen in this try
        # and not at interpreter shutdown.
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at shutdown writes
        # nowhere instead of raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    entry()
