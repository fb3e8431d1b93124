"""Byte panel of the command line: one sha256 per command.

    python tests/cli_panel.py > panel.txt

Runs every command of the panel through `shadecalc.cli.main` in this one
process, from the repository root that holds this file, and prints one
line per command: the sha256 of its exit code, standard output, standard
error and (for `render`) the SVG it wrote, then the command itself.  Run
it in two checkouts and `diff` the outputs to compare their bytes.

The panel: `invariants` on the 8 fixtures at seeds 0-29, the trefoil
over 4 centers at seeds 0-3, `lp_line`, `kae_half_minus`, `hopf_pair`
and `unknot` over 3 centers at seeds 0-5 (the cross-check of both the
Cw and the sh path), kae sweeps of both signs on -1:1:1/8 at
seeds 0-3, range sweeps at d = 1-6 on -10:10:1/10 at the default K, at
d = 3, K = 10^4 on the ten benchmark grids and at d = 2 and 3 with
K = 1 on -2:2:1, and `render` on the 8 fixtures at seeds 0-2.  At
d = 3, K = 1 is too small to isolate the range family's real roots, so
that sweep runs the exact singular test (`_range_polys` and the gcd) on
every sample, where the others run it only inside walls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from shadecalc import cli  # noqa: E402

DATA = "src/shadecalc/data"
FIXTURES = sorted(p.stem for p in (ROOT / DATA).glob("*.json"))


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def commands(svg):
    for name in FIXTURES:
        for seed in range(30):
            yield ["invariants", "--curve", f"{DATA}/{name}.json", "--seed", str(seed)]
    for seed in range(4):
        yield ["invariants", "--curve", f"{DATA}/trefoil.json", "--seed", str(seed),
               "--centers", "4"]
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
    for name in FIXTURES:
        for seed in range(3):
            yield ["render", "--curve", f"{DATA}/{name}.json", "--seed", str(seed),
                   "--out", svg]


def run(argv, svg):
    out, err = io.BytesIO(), io.StringIO()

    class Stdout:
        buffer = out

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
        for argv in commands(svg):
            shown = " ".join("OUT" if a == svg else a for a in argv)
            print(run(argv, svg), shown, flush=True)


if __name__ == "__main__":
    main()
