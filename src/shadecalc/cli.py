"""Command line frontend.

Subcommands: invariants, sweep, render, validate.  Exit codes: 0 on
success, 1 on parse, flag or output-file errors, 2 on genericity
exhaustion, 3 on precondition violations.  Reports are
byte-deterministic for fixed input, seed and flags.

Every subcommand's flags are declared once, in `SUBCOMMANDS`.  A call
that names a subcommand uses only that subcommand's parser, built once
per process on its first use; the whole parser (`build_parser`) is built
only for top-level help and for errors the subcommand's parser leaves to
it, so help and error text are argparse's own either way.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .diagram import render_diagram_svg
from .errors import CurveFileError, GenericityError, InstabilityError, PreconditionError
from .invariants import Grid, encomplexed_writhe, family_sweep, shade_number_empty_real
from .reportio import ReportEnvelope, emit_report, parse_curve_file
from .roots import DEFAULT_TARGET_RADIUS
from .scalars import QQ

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_GENERICITY = 2
EXIT_PRECONDITION = 3
MAX_GRID_SAMPLES = 10**5


def _invariants_flags(p):
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--centers", type=int, default=1, help="cross-checked centers")
    p.add_argument("--tol", type=float, default=DEFAULT_TARGET_RADIUS,
                   help="root refinement target")
    p.add_argument("--svg", help="also write the diagram SVG here")
    _fmt_flags(p)


def _sweep_flags(p):
    p.add_argument("--family", required=True, choices=["kae", "range"])
    p.add_argument("--epsilon", type=int, choices=[1, -1], help="kae: the family sign")
    p.add_argument("--d", type=int, help="range: curve degree")
    p.add_argument("--K", help="range: factor scale (rational)")
    p.add_argument("--grid", required=True, help="a:b:step, rational endpoints")
    p.add_argument("--seed", type=int, default=0)
    _fmt_flags(p)


def _render_flags(p):
    p.add_argument("--curve", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _validate_flags(p):
    p.add_argument("--curve", required=True)
    _fmt_flags(p)


def _fmt_flags(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--json", dest="fmt", action="store_const", const="json", default="json")
    g.add_argument("--text", dest="fmt", action="store_const", const="text")


# subcommand -> (its help line, the function that adds its flags)
SUBCOMMANDS = {
    "invariants": ("compute Cw or the shade number of a curve", _invariants_flags),
    "sweep": ("invariant sweep over a parameter family", _sweep_flags),
    "render": ("projected diagram as SVG", _render_flags),
    "validate": ("structural validation of a curve file", _validate_flags),
}


def build_parser():
    """The whole parser: the top level and every subcommand."""
    ap = argparse.ArgumentParser(
        prog="shadecalc",
        description="Encomplexed writhe, shade and linking numbers of real rational curves",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags) in SUBCOMMANDS.items():
        add_flags(sub.add_parser(name, help=help_line))
    return ap


@functools.cache
def _subparser(name):
    """One subcommand's parser, built on its first use in a process."""
    p = argparse.ArgumentParser(prog=f"shadecalc {name}")
    SUBCOMMANDS[name][1](p)
    return p


def parse_args(argv):
    """The namespace `build_parser().parse_args(argv)` gives, through
    only the named subcommand's parser when argv starts with one; that
    parser is built once per process (`_subparser`).  Its help, its flag
    errors and its namespace are those of the subparser in the whole
    tree, whose prog is also "shadecalc <name>".  Leftover arguments and
    any other argv go to the whole parser, so the top-level usage, help
    and "unrecognized arguments" error keep their bytes."""
    argv = list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        args, rest = _subparser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def _load(path):
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise CurveFileError(f"cannot read {path}: {e}") from e
    return parse_curve_file(data)


def _write(path, text):
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise CurveFileError(f"cannot write {path}: {e}") from e


def _parse_grid(spec: str) -> Grid:
    """The samples a, a + step, ..., up to b of "a:b:step" (rationals), as
    integers over one denominator: a + k step = (a0 + k s0) / den with
    den = lcm of a's and step's denominators.  No Fraction is built per
    sample; the count is checked before any sample is made."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise CurveFileError("grid must be a:b:step")
    try:
        a, b, step = (QQ(p) for p in parts)
    except (ValueError, ZeroDivisionError) as e:
        raise CurveFileError(f"bad grid value: {e}") from e
    if step <= 0 or b < a:
        raise CurveFileError("grid needs a <= b and step > 0")
    n = (b - a) // step + 1
    if n > MAX_GRID_SAMPLES:
        raise CurveFileError(f"grid has {n} samples, more than {MAX_GRID_SAMPLES}")
    den = math.lcm(a.denominator, step.denominator)
    a0, s0 = a.numerator * (den // a.denominator), step.numerator * (den // step.denominator)
    return Grid([a0 + k * s0 for k in range(n)], den)


def _invariant(model):
    """Cw for a real curve, else the shade number; `render` draws its projection."""
    return encomplexed_writhe if model.is_real() else shade_number_empty_real


def cmd_invariants(args, out):
    if args.centers < 1:
        raise CurveFileError("--centers must be >= 1")
    if not (0 < args.tol < math.inf):
        raise CurveFileError("--tol must be a positive finite number")
    model, center = _load(args.curve)
    flags = {
        "curve": args.curve,
        "seed": args.seed,
        "centers": args.centers,
        "tol": args.tol,
    }
    tol = min(max(args.tol, 1e-14), 1e-6)
    rep = _invariant(model)(model, seed=args.seed, centers=args.centers,
                            forced_center=center, tol=tol)
    payload = rep.describe()
    if args.svg:
        _write(args.svg, render_diagram_svg(model, rep.projection))
        payload["svg"] = args.svg
    out.write(emit_report(ReportEnvelope("invariants", flags, payload), args.fmt))
    return EXIT_OK


# the sweep flags each family takes
SWEEP_FLAGS = {"kae": ("epsilon",), "range": ("d", "K")}


def cmd_sweep(args, out):
    foreign = [f"--{f}" for f in ("epsilon", "d", "K")
               if f not in SWEEP_FLAGS[args.family] and getattr(args, f) is not None]
    if foreign:
        raise CurveFileError(f"{args.family} sweep does not take {', '.join(foreign)}")
    if args.family == "kae":
        if args.epsilon is None:
            raise CurveFileError("kae sweep needs --epsilon")
        extra = {"eps": args.epsilon}
    else:
        if not args.d or args.d < 1:
            raise CurveFileError("range sweep needs --d >= 1")
        try:
            K = QQ(args.K) if args.K else None
        except (ValueError, ZeroDivisionError) as e:
            raise CurveFileError(f"bad --K value: {e}") from e
        if K is not None and K <= 0:
            raise CurveFileError(f"bad --K value: {args.K} is not positive")
        extra = {"d": args.d, "K": K}
    grid = _parse_grid(args.grid)
    rep = family_sweep(args.family, grid, seed=args.seed, **extra)
    flags = {"family": args.family, "grid": args.grid, "seed": args.seed}
    flags.update({k: str(v) for k, v in extra.items() if v is not None})
    out.write(emit_report(ReportEnvelope("sweep", flags, rep.describe()), args.fmt))
    return EXIT_OK


def cmd_render(args, out):
    model, center = _load(args.curve)
    rep = _invariant(model)(model, seed=args.seed, forced_center=center)
    _write(args.out, render_diagram_svg(model, rep.projection))
    out.write(f"wrote {args.out}\n".encode())
    return EXIT_OK


def cmd_validate(args, out):
    model, center = _load(args.curve)
    payload = {**model._validation_report(), "forced_center": center is not None}
    out.write(emit_report(ReportEnvelope("validate", {"curve": args.curve}, payload), args.fmt))
    return EXIT_OK


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code else EXIT_OK
    out = sys.stdout.buffer
    try:
        if args.command == "invariants":
            return cmd_invariants(args, out)
        if args.command == "sweep":
            return cmd_sweep(args, out)
        if args.command == "render":
            return cmd_render(args, out)
        if args.command == "validate":
            return cmd_validate(args, out)
        return EXIT_PARSE
    except CurveFileError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_PARSE
    except (GenericityError,) as e:
        sys.stderr.write(f"genericity failure: {e}\n")
        return EXIT_GENERICITY
    except (PreconditionError, InstabilityError) as e:
        sys.stderr.write(f"precondition violation: {e}\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
