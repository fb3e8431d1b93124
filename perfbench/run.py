"""shadecalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or `all`) through `shadecalc.cli.main` in this single
process, checks every answer against the workload's oracle and prints
one line per metric, then, as the last line of standard output, one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.

--trace 0 measures the end-to-end metrics with no tracing.  --trace 1
runs the workload untraced for half the time and traced by the per-layer
ledger for the other half; it prints the per-layer metrics (per traced
job) and the tracing overhead.  Both repeat whole job cycles until the
time is up, so every run holds the same mix of inputs.

Results, report digests and the span ledger go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ledger import Ledger
from speed import SpeedProbe, factor_now
from workloads import WORKLOADS, digest, invoke

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
REFERENCE = ROOT / "perfbench" / "reference_digests.json"

# The engine reads SHADECALC_THREADS and numpy may start BLAS threads;
# the hash seed orders sets.  The benchmark re-executes itself with only
# these settings plus PATH and HOME, so no stray variable moves a number.
PINNED_ENV = {
    "SHADECALC_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LC_ALL": "C.UTF-8",
}
SETUP_SAMPLES = 5


def pinned_env():
    env = {k: os.environ[k] for k in ("PATH", "HOME") if k in os.environ}
    env.update(PINNED_ENV)
    return env


def environment(seed):
    import mpmath
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest():
    """sha256 of the engine sources and fixtures, for checkouts without git."""
    h = hashlib.sha256()
    src = ROOT / "src" / "shadecalc"
    for p in sorted(list(src.glob("*.py")) + list(src.glob("data/*.json"))):
        h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def measure_setup():
    """Median time, in reference seconds, of a fresh interpreter importing
    shadecalc.cli; one warm-up first so the bytecode cache is written.
    Each sample is rescaled by a calibration taken just before it."""
    cmd = [sys.executable, "-c", "import shadecalc.cli"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(cmd, env=env, check=True)
    times = []
    for _ in range(SETUP_SAMPLES):
        factor = factor_now()
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append((time.perf_counter() - t0) * factor)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


def run_job(wl, job, oracle, probe):
    outcomes, problems = [], []
    t0 = time.perf_counter()
    try:
        for call in job.calls:
            o = invoke(call)
            outcomes.append(o)
            if o.exit != call.expect_exit:
                problems.append(f"{' '.join(call.argv)}: exit {o.exit}, want {call.expect_exit}"
                                + (f" ({o.stderr.strip()})" if o.stderr else ""))
        if not problems:
            problems = wl.check(job, outcomes, oracle)
    except Exception as e:  # a crashing job is a failed job, the run goes on
        problems.append(f"exception: {type(e).__name__}: {e}")
    wall = sum(o.seconds for o in outcomes)
    return {
        "key": job.key,
        "wall_s": wall,
        "seconds": wall * probe.factor(t0, time.perf_counter()),
        "items": job.items,
        "problems": problems,
        "digest": digest(job, outcomes),
    }


def run_phase(wl, seed, seconds, oracle, probe, ledger=None, first_id=0):
    """Whole cycles of the workload's jobs until `seconds` have passed."""
    cycle = wl.cycle(seed)
    done = []
    deadline = time.perf_counter() + seconds
    while True:
        for job in cycle:
            if ledger is not None:
                ledger.job = first_id + len(done)
            done.append(run_job(wl, job, oracle, probe))
        if time.perf_counter() >= deadline:
            return done


def tail(times):
    """The highest percentile with at least ten jobs beyond it (all but
    one job when fewer than eleven ran), as (value, percentile, jobs
    beyond).  Below 20 jobs this percentile lies under the median."""
    xs = sorted(times)
    n = len(xs)
    rank = max(n - 10, 1)
    return xs[rank - 1], 100.0 * rank / n, n - rank


def check_digests(wl, jobs, reference, notices):
    """Equal inputs must give equal bytes within a run (a failure);
    a digest that differs from the recorded reference is only noticed."""
    seen = {}
    for j in jobs:
        first = seen.setdefault(j["key"], j["digest"])
        if j["digest"] != first:
            j["problems"].append("report bytes differ from an earlier job with the same input")
    ref = reference.get(wl.name, {})
    for key, d in sorted(seen.items()):
        if key in ref and ref[key] != d:
            notices.append(f"digest changed: {wl.name} {key} reference {ref[key][:16]} now {d[:16]}")
    return seen


def end_to_end(jobs, setup_s):
    times = [j["seconds"] for j in jobs]
    t_val, t_pct, t_beyond = tail(times)
    attempted = len(jobs)
    failed = sum(1 for j in jobs if j["problems"])
    metrics = {
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (t_val, "s"),
        "items_per_s": (sum(j["items"] for j in jobs) / sum(times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "jobs": attempted,
        "job_wall_s_p50": statistics.median(j["wall_s"] for j in jobs),
        "tail_percentile": t_pct,
        "tail_jobs_beyond": t_beyond,
        "fail_ratio": failed / attempted,
    }
    return metrics, detail


def run_workload(wl, seed, seconds, trace, reference, notices):
    oracle = wl.prepare(seed)
    if not trace:
        setup_s = measure_setup()
        with SpeedProbe() as probe:
            jobs = run_phase(wl, seed, seconds, oracle, probe)
        digests = check_digests(wl, jobs, reference, notices)
        metrics, detail = end_to_end(jobs, setup_s)
        return jobs, metrics, detail, digests

    ledger = Ledger()
    with SpeedProbe() as probe:
        plain = run_phase(wl, seed, seconds / 2, oracle, probe)
        ledger.install()
        t0 = time.perf_counter()
        try:
            traced = run_phase(wl, seed, seconds / 2, oracle, probe, ledger, first_id=len(plain))
        finally:
            ledger.uninstall()
        scale = probe.factor(t0, time.perf_counter())
    jobs = plain + traced
    digests = check_digests(wl, jobs, reference, notices)
    metrics = ledger.per_layer_metrics(len(traced), scale)
    p50 = statistics.median
    metrics["trace.overhead_s"] = (
        p50(j["seconds"] for j in traced) - p50(j["seconds"] for j in plain), "s")
    ledger.write_spans(OUT / f"spans-{wl.name}-seed{seed}.jsonl")
    detail = {"jobs_untraced": len(plain), "jobs_traced": len(traced), "spans": len(ledger.spans)}
    return jobs, metrics, detail, digests


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--update-digests", action="store_true",
                    help="record this run's report digests as the reference")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "shadecalc" / "cli.py").is_file():
        sys.stderr.write(f"error: no shadecalc sources under {ROOT / 'src'}\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all\n")
        return 2
    OUT.mkdir(exist_ok=True)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    attempted = failed = 0
    result_metrics = {}
    for name in names:
        wl = WORKLOADS[name]
        notices = []
        jobs, metrics, detail, digests = run_workload(
            wl, args.seed, args.seconds, args.trace, reference, notices)
        bad = [j for j in jobs if j["problems"]]
        attempted += len(jobs)
        failed += len(bad)
        for j in bad[:5]:
            print(f"FAIL {name} {j['key']}: " + "; ".join(j["problems"][:3]))
        for n in notices:
            print(n)
        for metric, (value, unit) in metrics.items():
            print(f"{name} {metric} = {value:.6g} {unit}")
        print(f"{name} " + " ".join(f"{k}={v:g}" for k, v in detail.items()))
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in metrics.items():
            result_metrics[prefix + metric] = {"value": value, "unit": unit}
        record = {
            "workload": name, "trace": args.trace, "seconds": args.seconds, "env": env,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
            "detail": detail, "notices": notices, "digests": digests, "jobs": jobs,
        }
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))
        if args.update_digests:
            reference.setdefault(name, {}).update(digests)
    if args.update_digests:
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    if os.environ.get("PERFBENCH_PINNED") != "1":
        env = pinned_env()
        env["PERFBENCH_PINNED"] = "1"
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    sys.exit(main())
