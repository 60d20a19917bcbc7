"""Benchmark entry point: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 12 --trace 0

Each workload runs in fresh single-threaded worker processes (BLAS and
OpenMP capped at one thread).  With ``--trace 0`` the set-up is timed in
several processes and one worker runs timed rounds of the workload; the
end-to-end metrics are printed.  With ``--trace 1`` an untraced worker and
a traced worker each run for half the time and the per-layer metrics are
printed.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from stats import hd_quantile, median

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("verify-catalog", "orbits", "construct")
SETUP_PROBES = 4  # set-up-only processes; the measuring worker adds one more
DEADLINE_S = 170.0
# one BLAS/OpenMP thread; no bytecode files, so every set-up compiles alike
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float, **extra) -> dict:
    """Run one worker to completion and return its report."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    for key, value in extra.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    env = dict(os.environ, **WORKER_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    argv += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=remaining)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def job_s(report, key="item_ref_s") -> float:
    """Median over the worker's rounds of the summed item times."""
    return median([sum(r[key]) for r in report["rounds"]])


def end_to_end(args, deadline) -> tuple[dict, list]:
    probes = [spawn(args, deadline, seconds=0, setup_only=True) for _ in range(SETUP_PROBES)]
    report = spawn(args, deadline, seconds=args.seconds)
    setup = [p["setup_ref_s"] for p in probes + [report]]
    metrics = {
        "setup_s": (median(setup), "s"),
        "job_s": (job_s(report), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    # On verify-catalog and construct the items are few and unlike, so
    # these percentiles are no tail; job_s is the latency users see there.
    per_item = zip(*(r["item_ref_s"] for r in report["rounds"]))
    per_item_ms = [1e3 * median(times) for times in per_item]
    metrics["item_ms_p50"] = (hd_quantile(per_item_ms, 0.5), "ms")
    metrics["item_ms_p90"] = (hd_quantile(per_item_ms, 0.9), "ms")
    print(f"{len(report['rounds'])} rounds; unscaled wall times: job {job_s(report, 'item_s'):.3f} s, "
          f"set-up {median([p['setup_s'] for p in probes + [report]]):.3f} s", file=sys.stderr)
    return metrics, [report]


def per_layer(args, deadline) -> tuple[dict, list]:
    half = args.seconds / 2.0
    base = spawn(args, deadline, seconds=half)
    trace_dir = ROOT / ".perfbench" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    traced = spawn(args, deadline, seconds=half, trace=1,
                   trace_file=trace_dir / f"{args.workload}.npz")
    metrics = {}
    for name, (_, unit) in traced["layers"][0].items():
        metrics[name] = (median([layer[name][0] for layer in traced["layers"]]), unit)
    metrics["trace.overhead_s"] = (job_s(traced) - job_s(base), "s")
    return metrics, [base, traced]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "magflows" / "__init__.py").is_file():
        print(f"no magflows sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, reports = (per_layer if args.trace else end_to_end)(args, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
