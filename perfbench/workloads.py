"""The four benchmark workloads: the CLI invocations of one job, the
answers the engine must give, and how the workload seed picks inputs.

Every job goes through the public entry point `shadecalc.cli.main(argv)`
and builds its curve model from file bytes or from the family, so no
per-model cache carries over between jobs.  WORKLOADS.md says why each
workload is in the set and which layer does most of its work.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DATA = "src/shadecalc/data"
OUT = "perfbench/out"
FIXTURES = ["hopf_pair", "k0_minus", "k0_plus", "kae_half_minus",
            "lp_line", "split_circles", "trefoil", "unknot"]

# trefoil_centers cycles through this fixed panel of CLI seeds: the cost
# of one job swings by tens of percent with the CLI seed (the elimination
# combinations of the smoothness check and the drawn centers), so a run
# that followed one seed would measure the seed, not the code.
TREFOIL_PANEL = (0, 1)

# kae_sweep cycles through this fixed panel of CLI seeds.  The sweep's
# smoothness check is seed-dependent: at CLI seeds 13, 19 and 40 (of
# 0..40) it misses the double point of the a = 0 member and reports a
# value there, a known engine defect recorded in WORKLOADS.md.  The
# panel keeps the benchmark's answers checkable on every workload seed.
KAE_PANEL = (0, 1, 2, 3)


@dataclass
class Call:
    argv: list
    expect_exit: int = 0
    svg: str | None = None


@dataclass
class Job:
    key: str  # names the job's input; equal keys must give equal bytes
    calls: list
    items: int


@dataclass
class Outcome:
    exit: int
    stdout: bytes
    stderr: str
    svg: bytes | None
    seconds: float


class _Stdout:
    """Stands in for sys.stdout: the CLI writes report bytes to .buffer."""

    def __init__(self):
        self.buffer = io.BytesIO()

    def write(self, text):
        self.buffer.write(text.encode())

    def flush(self):
        pass


def invoke(call: Call) -> Outcome:
    """Run one CLI invocation in this process, capturing its output;
    only the call of `main` itself is timed."""
    from shadecalc import cli

    if call.svg:
        Path(call.svg).unlink(missing_ok=True)
    out, err = _Stdout(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        t0 = time.perf_counter()
        rc = cli.main(call.argv)
        seconds = time.perf_counter() - t0
    finally:
        sys.stdout, sys.stderr = saved
    svg = Path(call.svg).read_bytes() if call.svg and Path(call.svg).exists() else None
    return Outcome(rc, out.buffer.getvalue(), err.getvalue(), svg, seconds)


def digest(job: Job, outcomes) -> str:
    """sha256 over every invocation's argv, exit code, report bytes,
    error text and SVG bytes."""
    h = hashlib.sha256()
    for call, o in zip(job.calls, outcomes):
        for part in ("\0".join(call.argv).encode(), str(o.exit).encode(),
                     o.stdout, o.stderr.encode(), o.svg or b""):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


def _result(o: Outcome):
    return json.loads(o.stdout)["result"]


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class Workload:
    name = ""

    def cycle(self, seed) -> list:
        """The jobs of one cycle, derived from the workload seed."""
        raise NotImplementedError

    def prepare(self, seed):
        """Oracle data computed once per run, outside the timed jobs."""
        return None

    def check(self, job, outcomes, oracle) -> list:
        """Problems with the job's answers; empty when all are right."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# trefoil_centers
# ---------------------------------------------------------------------------


class TrefoilCenters(Workload):
    name = "trefoil_centers"

    def cycle(self, seed):
        start = seed % len(TREFOIL_PANEL)
        seeds = TREFOIL_PANEL[start:] + TREFOIL_PANEL[:start]
        return [
            Job(f"cli_seed={s}", [Call(["invariants", "--curve", f"{DATA}/trefoil.json",
                                        "--seed", str(s), "--centers", "4"])], 1)
            for s in seeds
        ]

    def check(self, job, outcomes, oracle):
        r = _result(outcomes[0])
        kinds = [c["kind"] for c in r["crossings"]]
        problems = []
        if (r["Cw"], r["wr_part"], r["sh_part"]) != (4, "3", "1"):
            problems.append(f"Cw/wr/sh = {r['Cw']}/{r['wr_part']}/{r['sh_part']}, want 4/3/1")
        if (kinds.count("real-real"), kinds.count("solitary"), len(kinds)) != (9, 1, 10):
            problems.append(f"crossing kinds {sorted(kinds)}, want 9 real-real and 1 solitary")
        if r["centers_checked"] != 4:
            problems.append(f"centers_checked = {r['centers_checked']}, want 4")
        return problems


# ---------------------------------------------------------------------------
# kae_sweep
# ---------------------------------------------------------------------------


class KaeSweep(Workload):
    name = "kae_sweep"

    def cycle(self, seed):
        start = seed % len(KAE_PANEL)
        return [self._job(s) for s in KAE_PANEL[start:] + KAE_PANEL[:start]]

    def _job(self, s):
        calls = [Call(["sweep", "--family", "kae", "--epsilon", eps,
                       "--grid=-1:1:1/8", "--seed", str(s)]) for eps in ("-1", "1")]
        return Job(f"cli_seed={s}", calls, 34)

    def check(self, job, outcomes, oracle):
        problems = []
        for o in outcomes:
            r = _result(o)
            eps = r["parameters"]["eps"]
            for g, v, sing, err in zip(r["grid"], r["values"], r["singular"], r["errors"]):
                a = Fraction(g)
                want = None if a == 0 else _fmt(Fraction((a > 0) - (a < 0)))
                if v != want or sing != (a == 0) or (err is not None) != (a == 0):
                    problems.append(f"eps={eps} a={g}: value {v} singular {sing} "
                                    f"error {err!r}, want {want}")
            if len(r["grid"]) != 17:
                problems.append(f"eps={eps}: {len(r['grid'])} samples, want 17")
            if r["jumps"] != [{"from": "-1/8", "to": "1/8", "delta": "2"}]:
                problems.append(f"eps={eps}: jumps {r['jumps']}, want one +2 across a=0")
        return problems


# ---------------------------------------------------------------------------
# range_sweep
# ---------------------------------------------------------------------------


class RangeSweep(Workload):
    name = "range_sweep"
    d, K = 3, 10000

    def shift(self, seed) -> Fraction:
        """The grid offset delta in [0, 1/10), drawn from the seed."""
        return Fraction(random.Random(seed).randrange(1000), 10000)

    def cycle(self, seed):
        delta = self.shift(seed)
        grid = f"--grid={_fmt(-10 + delta)}:{_fmt(10 + delta)}:1/10"
        call = Call(["sweep", "--family", "range", "--d", str(self.d),
                     "--K", str(self.K), grid])
        return [Job(f"seed={seed}", [call], 201)]

    def prepare(self, seed):
        """Certified collision intervals of the family: the shade value
        flips sign exactly at these t."""
        from shadecalc.invariants import range_collision_times

        return range_collision_times(self.d, self.K)

    def check(self, job, outcomes, collisions):
        r = _result(outcomes[0])
        grid = [Fraction(g) for g in r["grid"]]
        problems = []
        if len(grid) != 201:
            problems.append(f"{len(grid)} samples, want 201")
        prev = None
        for g, v, sing, err in zip(grid, r["values"], r["singular"], r["errors"]):
            on_wall = any(lo <= g <= hi for lo, hi in collisions)
            if sing != on_wall:
                problems.append(f"t={_fmt(g)}: singular={sing}, collision interval hit={on_wall}")
            if sing:
                continue
            if v not in ("1/2", "-1/2") or err is not None:
                problems.append(f"t={_fmt(g)}: value {v} error {err!r}, want +-1/2")
                continue
            if prev is not None:
                inside = [(lo, hi) for lo, hi in collisions if hi > prev[0] and lo < g]
                straddle = any(lo <= prev[0] or hi >= g for lo, hi in inside)
                flips = len(inside) % 2
                if not straddle and (v != prev[1]) != bool(flips):
                    problems.append(f"value {prev[1]} -> {v} across ({_fmt(prev[0])}, {_fmt(g)}) "
                                    f"holding {len(inside)} collision(s)")
            prev = (g, v)
        return problems


# ---------------------------------------------------------------------------
# fixture_mix
# ---------------------------------------------------------------------------

# fixture -> (expected Cw, expected sh_part) of `invariants`
MIX_ANSWERS = {
    "unknot": (0, None),
    "lp_line": (None, "1/2"),
    "hopf_pair": (0, None),
    "kae_half_minus": (1, None),
}
MIX_DEGENERATE = ["split_circles", "k0_plus", "k0_minus"]


class FixtureMix(Workload):
    name = "fixture_mix"
    # CLI seeds per cycle: the centers drawn for one seed can cost a few
    # percent more or less, so a cycle averages over several
    seeds_per_cycle = 4

    def cycle(self, seed):
        n = self.seeds_per_cycle
        return [self._job(s) for s in range(n * seed, n * seed + n)]

    def _job(self, s):
        svg = f"{OUT}/fixture_mix.svg"
        calls = [Call(["validate", "--curve", f"{DATA}/{f}.json"]) for f in FIXTURES]
        calls += [Call(["invariants", "--curve", f"{DATA}/{f}.json", "--seed", str(s),
                        "--svg", svg], svg=svg) for f in MIX_ANSWERS]
        # the rejection calls run at the CLI's default seed, as the workload
        # is defined.  Known engine defect, left visible in WORKLOADS.md: at
        # --seed 21 or 27 k0_plus and k0_minus pass the smoothness check and
        # exit 0 with a number
        calls += [Call(["invariants", "--curve", f"{DATA}/{f}.json"], expect_exit=3)
                  for f in MIX_DEGENERATE]
        return Job(f"cli_seed={s}", calls, len(calls))

    def check(self, job, outcomes, oracle):
        problems = []
        for call, o in zip(job.calls, outcomes):
            what = f"{call.argv[0]} {Path(call.argv[2]).stem}"
            if o.exit == 3:
                continue  # expect_exit was checked by the runner
            r = _result(o)
            if call.argv[0] == "validate":
                if r["valid"] is not True:
                    problems.append(f"{what}: valid = {r['valid']}")
                continue
            want_cw, want_sh = MIX_ANSWERS[Path(call.argv[2]).stem]
            if r["Cw"] != want_cw or (want_sh is not None and r["sh_part"] != want_sh):
                problems.append(f"{what}: Cw {r['Cw']} sh {r['sh_part']}, "
                                f"want Cw {want_cw} sh {want_sh}")
            if not o.svg or b"<svg" not in o.svg:
                problems.append(f"{what}: no SVG diagram written")
        return problems


WORKLOADS = {w.name: w for w in (TrefoilCenters(), KaeSweep(), RangeSweep(), FixtureMix())}
