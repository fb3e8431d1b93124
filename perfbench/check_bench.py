"""Self-test of the benchmark.

    python3 perfbench/check_bench.py

Checks two properties the benchmark's numbers rest on:

1. Cold per-job state: two back-to-back trefoil_centers jobs in one
   process make the same number of smoothness checks and chord-system
   solves, so no per-model cache carries over from one job to the next.
2. Deterministic counters: two traced runs at one seed, the second with
   stray SHADECALC_THREADS and PYTHONHASHSEED values in its environment,
   give identical call counts and resultant, root and center counters on
   every workload.

Exits 0 when both hold.  Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3

# per-layer metrics that count work and must repeat exactly
DETERMINISTIC = (
    "chords.resultants_per_solve",
    "diagram.center_attempts",
    "poly.resultant.max_degree",
    "poly.resultant.max_coeff_bits",
    "roots.degree_sum",
    "roots.uncertified",
)


def check_cold_state():
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    os.chdir(ROOT)
    os.environ["SHADECALC_THREADS"] = "1"
    from ledger import Ledger
    from workloads import WORKLOADS, invoke

    job = WORKLOADS["trefoil_centers"].cycle(0)[0]
    ledger = Ledger()
    ledger.install()
    try:
        for job_id in (0, 1):
            ledger.job = job_id
            outcome = invoke(job.calls[0])
            if outcome.exit != 0:
                return [f"trefoil job {job_id} exited {outcome.exit}"]
    finally:
        ledger.uninstall()
    counts = Counter((name, job_id) for name, _t0, _t1, _p, job_id, _outer in ledger.spans)
    problems = []
    for name in ("invariants.smoothness", "chords.solve"):
        first, second = counts[(name, 0)], counts[(name, 1)]
        print(f"cold state: {name} calls per job {first}, {second}")
        if first != second or first == 0:
            problems.append(f"{name}: {first} calls in the first job, {second} in the second")
    return problems


def traced_counters(workload, stray):
    env = dict(os.environ)
    if stray:
        env.update(SHADECALC_THREADS="4", PYTHONHASHSEED="7")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        env=env, capture_output=True, text=True, timeout=600, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload}: traced run failed:\n{proc.stdout}{proc.stderr}")
    metrics = result["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(".calls") or k in DETERMINISTIC}


def check_counters():
    from workloads import WORKLOADS

    problems = []
    for workload in WORKLOADS:
        first = traced_counters(workload, stray=False)
        second = traced_counters(workload, stray=True)
        differ = sorted(k for k in first if first[k] != second.get(k))
        print(f"counters: {workload}: {len(first)} compared, {len(differ)} differ")
        problems += [f"{workload} {k}: {first[k]} then {second.get(k)}" for k in differ]
    return problems


def main():
    problems = check_cold_state() + check_counters()
    for p in problems:
        print("FAIL " + p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
