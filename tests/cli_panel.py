"""Byte panel of the command line: one sha256 per command.

    python tests/cli_panel.py > panel.txt

Runs every command of the panel through `shadecalc.cli.main` in this one
process, from the repository root that holds this file, and prints one
line per command: the sha256 of its exit code, standard output, standard
error and (for `render` and `--svg`) the SVG it wrote, then the command
itself.  Run it in two checkouts and `diff` the outputs to compare their
bytes.

The panel: `invariants` on the 8 fixtures at seeds 0-29, the trefoil
over 4 centers at seeds 0-3, the trefoil and `kae_half_minus` at
`--tol 1e-6` and `--tol 1e-14` at seeds 0-3 (Newton stops once a root
disk meets the target radius, so the centers depend on it), `lp_line`, `kae_half_minus`, `hopf_pair`
and `unknot` over 3 centers at seeds 0-5 (the cross-check of both the
Cw and the sh path), kae sweeps of both signs on -1:1:1/8 at
seeds 0-3, range sweeps at d = 1-6 on -10:10:1/10 at the default K, at
d = 3, K = 10^4 on the ten benchmark grids, at d = 2 and 3 with
K = 1 on -2:2:1, at d = 1, K = 1000 from the exact lower end of the
one wall in steps of half its width (its ends and midpoint lie in the
wall; W_t has no real point there, so they are read off a narrower
isolation) and at d = 3, K = 10^4 through the fifth of the nine sorted
walls in steps of half its width, from half a width below it to half a
width above it (one sample on each side, three inside),
`invariants --svg` (the benchmark's SVG path) on
`unknot`, `lp_line`, `hopf_pair` and `kae_half_minus` at seeds 0-29,
`render` on the 8 fixtures at seeds 0-2, `validate` on the 8 fixtures,
`invariants` on each malformed curve file of
`test_cli.MALFORMED_CURVES` (the exit-1 parse path), written into the
panel's temporary directory and shown as TMP/malformed<k>.json, and
each argv of `test_cli.PARSER_ARGV` (help, the exit-1 flag path and
flags that parse; their curve path "c" does not exist).  Help text is
hashed as standard output; argparse wraps it at the terminal width
(`COLUMNS`), so compare panels run with the same width.  At
d = 3, K = 1 is too small to isolate the range family's real roots, so
that sweep runs the exact singular test (`_range_polys` and the gcd) on
every sample, where the others run it only inside walls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from shadecalc import cli  # noqa: E402
from shadecalc.invariants import range_collision_times  # noqa: E402
from test_cli import MALFORMED_CURVES, PARSER_ARGV  # noqa: E402

DATA = "src/shadecalc/data"
FIXTURES = sorted(p.stem for p in (ROOT / DATA).glob("*.json"))


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def commands(tmp):
    svg = os.path.join(tmp, "diagram.svg")
    for name in FIXTURES:
        for seed in range(30):
            yield ["invariants", "--curve", f"{DATA}/{name}.json", "--seed", str(seed)]
    for seed in range(4):
        yield ["invariants", "--curve", f"{DATA}/trefoil.json", "--seed", str(seed),
               "--centers", "4"]
    for name in ("trefoil", "kae_half_minus"):
        for tol in ("1e-6", "1e-14"):
            for seed in range(4):
                yield ["invariants", "--curve", f"{DATA}/{name}.json", "--seed", str(seed),
                       "--tol", tol]
    for name in ("lp_line", "kae_half_minus", "hopf_pair", "unknot"):
        for seed in range(6):
            yield ["invariants", "--curve", f"{DATA}/{name}.json", "--seed", str(seed),
                   "--centers", "3"]
    for seed in range(4):
        for eps in ("-1", "1"):
            yield ["sweep", "--family", "kae", "--epsilon", eps, "--grid=-1:1:1/8",
                   "--seed", str(seed)]
    for d in range(1, 7):
        yield ["sweep", "--family", "range", "--d", str(d), "--grid=-10:10:1/10"]
    for seed in range(41, 51):
        # the range_sweep benchmark's grid offset at this seed
        delta = Fraction(random.Random(seed).randrange(1000), 10000)
        yield ["sweep", "--family", "range", "--d", "3", "--K", "10000",
               f"--grid={_fmt(-10 + delta)}:{_fmt(10 + delta)}:1/10"]
    for d in (2, 3):
        yield ["sweep", "--family", "range", "--d", str(d), "--K", "1", "--grid=-2:2:1"]
    (lo, hi), = range_collision_times(1, 1000)
    yield ["sweep", "--family", "range", "--d", "1", "--K", "1000",
           f"--grid={_fmt(lo)}:{_fmt(2 * hi - lo)}:{_fmt((hi - lo) / 2)}"]
    lo, hi = range_collision_times(3, 10000)[4]
    half = (hi - lo) / 2
    yield ["sweep", "--family", "range", "--d", "3", "--K", "10000",
           f"--grid={_fmt(lo - half)}:{_fmt(hi + half)}:{_fmt(half)}"]
    for name in ("unknot", "lp_line", "hopf_pair", "kae_half_minus"):
        for seed in range(30):
            yield ["invariants", "--curve", f"{DATA}/{name}.json", "--seed", str(seed),
                   "--svg", svg]
    for name in FIXTURES:
        for seed in range(3):
            yield ["render", "--curve", f"{DATA}/{name}.json", "--seed", str(seed),
                   "--out", svg]
    for name in FIXTURES:
        yield ["validate", "--curve", f"{DATA}/{name}.json"]
    for k, (curve, _) in enumerate(MALFORMED_CURVES):
        path = os.path.join(tmp, f"malformed{k}.json")
        Path(path).write_text(json.dumps(curve))
        yield ["invariants", "--curve", path]
    yield from PARSER_ARGV


def run(argv, svg):
    out, err = io.BytesIO(), io.StringIO()

    class Stdout:
        buffer = out

        @staticmethod
        def write(text):  # argparse prints help as text
            out.write(text.encode())

    with contextlib.redirect_stdout(Stdout()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    h = hashlib.sha256()
    for part in (str(code).encode(), out.getvalue().replace(svg.encode(), b"OUT"),
                 err.getvalue().encode()):
        h.update(len(part).to_bytes(8, "little") + part)
    if os.path.exists(svg):
        h.update(Path(svg).read_bytes())
        os.remove(svg)
    return h.hexdigest()


def main():
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        svg = os.path.join(tmp, "diagram.svg")
        for argv in commands(tmp):
            shown = " ".join("OUT" if a == svg else a.replace(tmp, "TMP") for a in argv)
            print(run(argv, svg), shown, flush=True)


if __name__ == "__main__":
    main()
