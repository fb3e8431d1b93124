"""Command line frontend.

Subcommands: invariants, sweep, render, validate.  Exit codes: 0 on
success, 1 on parse or flag errors, 2 on genericity exhaustion, 3 on
precondition violations.  Reports are byte-deterministic for fixed
input, seed and flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .diagram import render_diagram_svg, select_center
from .errors import CurveFileError, GenericityError, InstabilityError, PreconditionError
from .invariants import encomplexed_writhe, family_sweep, shade_number_empty_real
from .reportio import ReportEnvelope, emit_report, parse_curve_file
from .scalars import QQ

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_GENERICITY = 2
EXIT_PRECONDITION = 3


def build_parser():
    ap = argparse.ArgumentParser(
        prog="shadecalc",
        description="Encomplexed writhe, shade and linking numbers of real rational curves",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="compute Cw or the shade number of a curve")
    p_inv.add_argument("--curve", required=True, help="curve JSON file")
    p_inv.add_argument("--seed", type=int, default=0)
    p_inv.add_argument("--centers", type=int, default=1, help="cross-checked centers")
    p_inv.add_argument("--tol", type=float, default=1e-12, help="root refinement target")
    p_inv.add_argument("--svg", help="also write the diagram SVG here")
    _fmt_flags(p_inv)

    p_sw = sub.add_parser("sweep", help="invariant sweep over a parameter family")
    p_sw.add_argument("--family", required=True, choices=["kae", "range"])
    p_sw.add_argument("--epsilon", type=int, choices=[1, -1], help="kae: the family sign")
    p_sw.add_argument("--d", type=int, help="range: curve degree")
    p_sw.add_argument("--K", help="range: factor scale (rational)")
    p_sw.add_argument("--grid", required=True, help="a:b:step, rational endpoints")
    p_sw.add_argument("--seed", type=int, default=0)
    _fmt_flags(p_sw)

    p_r = sub.add_parser("render", help="projected diagram as SVG")
    p_r.add_argument("--curve", required=True)
    p_r.add_argument("--seed", type=int, default=0)
    p_r.add_argument("--out", required=True)

    p_v = sub.add_parser("validate", help="structural validation of a curve file")
    p_v.add_argument("--curve", required=True)
    _fmt_flags(p_v)
    return ap


def _fmt_flags(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--json", dest="fmt", action="store_const", const="json", default="json")
    g.add_argument("--text", dest="fmt", action="store_const", const="text")


def _load(path):
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise CurveFileError(f"cannot read {path}: {e}") from e
    return parse_curve_file(data)


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise CurveFileError("grid must be a:b:step")
    try:
        a, b, step = (QQ(p) for p in parts)
    except (ValueError, ZeroDivisionError) as e:
        raise CurveFileError(f"bad grid value: {e}") from e
    if step <= 0 or b < a:
        raise CurveFileError("grid needs a <= b and step > 0")
    out = []
    g = a
    while g <= b:
        out.append(g)
        g += step
    return out


def cmd_invariants(args, out):
    model, center = _load(args.curve)
    flags = {
        "curve": args.curve,
        "seed": args.seed,
        "centers": args.centers,
        "tol": args.tol,
    }
    tol = min(max(args.tol, 1e-14), 1e-6)
    invariant = encomplexed_writhe if model.is_real() else shade_number_empty_real
    rep = invariant(model, seed=args.seed, centers=args.centers, forced_center=center, tol=tol)
    payload = rep.describe()
    if args.svg:
        Path(args.svg).write_text(render_diagram_svg(model, rep.projection))
        payload["svg"] = args.svg
    out.write(emit_report(ReportEnvelope("invariants", flags, payload), args.fmt))
    return EXIT_OK


def cmd_sweep(args, out):
    if args.family == "kae":
        if args.epsilon is None:
            raise CurveFileError("kae sweep needs --epsilon")
        extra = {"eps": args.epsilon}
    else:
        if not args.d or args.d < 1:
            raise CurveFileError("range sweep needs --d >= 1")
        extra = {"d": args.d, "K": QQ(args.K) if args.K else None}
    grid = _parse_grid(args.grid)
    rep = family_sweep(args.family, grid, seed=args.seed, **extra)
    flags = {"family": args.family, "grid": args.grid, "seed": args.seed}
    flags.update({k: str(v) for k, v in extra.items() if v is not None})
    out.write(emit_report(ReportEnvelope("sweep", flags, rep.describe()), args.fmt))
    return EXIT_OK


def cmd_render(args, out):
    model, center = _load(args.curve)
    mode = "diagram" if model.is_real() else "shade"
    data = select_center(model, seed=args.seed, mode=mode, forced_center=center)
    Path(args.out).write_text(render_diagram_svg(model, data))
    out.write(f"wrote {args.out}\n".encode())
    return EXIT_OK


def cmd_validate(args, out):
    model, center = _load(args.curve)
    payload = model.validate()
    payload["forced_center"] = center is not None
    out.write(emit_report(ReportEnvelope("validate", {"curve": args.curve}, payload), args.fmt))
    return EXIT_OK


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
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
