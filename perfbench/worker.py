"""One workload in one process: set up, run whole rounds, check, report.

Started by run.py, never by hand.  Prints one JSON object as its last line:
the monotonic-clock time at which set-up ended (``ready``), and, unless
``--setup-only`` is given, the per-round figures, the check results and,
with ``--trace 1``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def _import_specbar(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import specbar
    import specbar.cli  # noqa: F401  (the converge operation calls specbar.cli.run)

    if Path(specbar.__file__).resolve().parent.parent != src:
        raise SystemExit(f"specbar was imported from {specbar.__file__}, not from {src}")
    return specbar


def _environment(np):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "specbar_threads": os.environ.get("SPECBAR_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out-dir", required=True, dest="out_dir")
    ap.add_argument("--setup-only", action="store_true", dest="setup_only")
    args = ap.parse_args(argv)

    import numpy as np

    import workloads

    root = Path(args.root)
    sb = _import_specbar(root)
    rng = np.random.default_rng(args.seed)
    workload = workloads.WORKLOADS[args.workload](sb, root, rng, Path(args.out_dir))
    ops = workload.ops()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(sb)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    rounds: list[dict] = []
    wall: list[float] = []
    cpu: list[float] = []
    errors: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        results = {}
        if tracer:
            tracer.enabled = True
        c0, t0 = time.process_time(), time.perf_counter()
        for name, op in ops:
            try:
                results[name] = op(results)
            except Exception as exc:  # a failed operation; the run goes on
                results[name] = exc
                errors.setdefault(name, f"{type(exc).__name__}: {exc}")
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.enabled = False
        wall.append(t1 - t0)
        cpu.append(c1 - c0)
        rounds.append(results)
        if t1 - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks: oracles on the first round, reproduction on the others.
    failures: list[str] = []
    failed_ops: set[str] = set(errors)
    first = rounds[0]
    if errors:
        failures.append(f"checks skipped, operations raised: {errors}")
    else:
        for name, msgs in workload.check(first, rng).items():
            if not msgs:
                continue
            print(f"check {args.workload}/{name}: " + "; ".join(msgs), file=sys.stderr)
            if name in workload.KNOWN_FAULTS:
                failed_ops.add(name)
            else:
                failures += msgs
        for k, later in enumerate(rounds[1:], start=2):
            if not workload.same(first, later):
                failures.append(f"round {k} does not reproduce round 1")
    report = {
        "ready": ready,
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "failed_per_round": len(failed_ops),
        "failed_ops": {name: errors.get(name) or workload.KNOWN_FAULTS[name]
                       for name in sorted(failed_ops)},
        "check_failures": failures,
        "solve_s": statistics.median(wall),
        "cpu_s": statistics.median(cpu),
        "round_wall_s": wall,
        "round_cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "env": _environment(np),
    }
    if tracer:
        report["layers"] = tracer.metrics(len(rounds))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
