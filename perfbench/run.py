"""specbar benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a specbar checkout:

    python3 perfbench/run.py --workload barrier_sweep --seed 1 --seconds 10 --trace 0

The workload runs in a worker process of its own (worker.py) as a closed
loop of whole rounds of its operations, until --seconds have passed.  Set-up
is timed from process start to the first operation, in that worker and in
SETUP_PROBES more workers that stop there; setup_s is their median.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with --trace 0, the
per-layer ones with --trace 1).  The full record of the run goes to
perfbench/out/.  Without src/specbar and models/ beside this directory the
script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("barrier_sweep", "periodic_gap", "fd_truncation")
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0     # the whole run, probes included
# One BLAS thread: with two, the dense solve's wall time swings by a quarter
# from run to run on a 2-vCPU host, as threads wait for each other.
BLAS_THREADS = 1
MAX_SWEEP_THREADS = 2    # specbar's own width-sweep pool


def _worker_env(sweep_threads: int) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["SPECBAR_THREADS"] = str(sweep_threads)
    return env


def _run_worker(args, env, deadline, setup_only=False):
    """Run one worker; returns (spawn time, its JSON report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT),
           "--out-dir", str(HERE / "out")]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/specbar/__init__.py", "models") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a specbar checkout, missing {missing} under {ROOT}",
              file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    sweep_threads = min(MAX_SWEEP_THREADS, nproc)
    env = _worker_env(sweep_threads)
    deadline = start + TIME_LIMIT_S

    setups = []
    for _ in range(SETUP_PROBES):
        spawned, probe = _run_worker(args, env, deadline, setup_only=True)
        setups.append(probe["ready"] - spawned)
    spawned, rep = _run_worker(args, env, deadline)
    setups.append(rep["ready"] - spawned)

    if args.trace:
        metrics = rep["layers"]
    else:
        metrics = {
            "solve_s": {"value": rep["solve_s"], "unit": "s"},
            "cpu_s": {"value": rep["cpu_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MiB"},
        }
    result = {
        "correct": not rep["check_failures"],
        "attempted": rep["rounds"] * rep["ops_per_round"],
        "failed": rep["rounds"] * rep["failed_per_round"],
        "metrics": metrics,
    }
    record = dict(rep, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups,
                  nproc=nproc, run_wall_s=time.monotonic() - start, result=result)
    out = HERE / "out" / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
