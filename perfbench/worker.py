"""One workload in one fresh process: set up, run rounds, check, report.

Started by ``run.py``; prints one JSON object as its last line.  With
``--setup-only`` it builds the inputs and reports the set-up time alone.
With ``--trace 1`` the tracer is installed before any input is built and
each round's spans and counts are recorded.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import calibrate
from stats import median

ROOT = Path(__file__).resolve().parent.parent
PROBE_SHARE = 0.1  # probe time spent per second of operations
SPEED_WINDOW_S = 1.0  # probes this close to an operation measure its speed
MIN_PROBES = 7


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process; "
                        "the clock is shared between processes")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-file", help="where to write the spans of the first traced round")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    work_root = ROOT / ".perfbench" / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        setup_s = time.monotonic() - args.spawned
        calibrate.probe()  # first call pays one-off costs; not a measurement
        if args.setup_only:
            speed = median([calibrate.probe() for _ in range(MIN_PROBES)])
            print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_s * calibrate.REFERENCE_S / speed}))
            return 0
        report = run_rounds(workload, args, tracer)
        report["setup_s"] = setup_s
        report["setup_ref_s"] = setup_s * calibrate.REFERENCE_S / median(report["rounds"][0]["probe_s"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


def run_item(workload, item):
    """One timed operation: (start, end, result or None if it failed)."""
    t0 = time.perf_counter()
    try:
        result = workload.run(item)
        bad = workload.failed(result)
    except Exception as exc:  # an operation that raises is a failed operation
        result, bad = None, True
        print(f"{item.get('key', item.get('name'))}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return t0, time.perf_counter(), None if bad else result


def scale_to_reference(spans, probes) -> list:
    """Scale each operation's wall time to the reference speed.

    ``spans`` holds (start, end) of each operation and ``probes`` holds
    (time, probe seconds).  The speed near an operation is the median of
    the probes within SPEED_WINDOW_S of it, or of the MIN_PROBES probes
    nearest to its middle if the window holds fewer.
    """
    scaled = []
    for t0, t1 in spans:
        near = [s for t, s in probes if t0 - SPEED_WINDOW_S <= t <= t1 + SPEED_WINDOW_S]
        if len(near) < MIN_PROBES:
            mid = 0.5 * (t0 + t1)
            near = [s for _, s in sorted(probes, key=lambda p: abs(p[0] - mid))[:MIN_PROBES]]
        scaled.append((t1 - t0) * calibrate.REFERENCE_S / median(near))
    return scaled


def probe_for(seconds: float, probes: list) -> float:
    """Run probes while ``seconds`` of probing are owed; log (time,
    duration) of each and return what is still owed (zero or less)."""
    while seconds > 0.0:
        duration = calibrate.probe()
        probes.append((time.perf_counter() - 0.5 * duration, duration))
        seconds -= duration
    return seconds


def run_rounds(workload, args, tracer) -> dict:
    clock = time.perf_counter
    rounds, problems, layers = [], [], []
    attempted = failed = 0
    started = clock()
    while True:
        first = not rounds
        if tracer is not None:
            tracer.reset()
        spans, results, probes = [], [], []
        owed = probe_for(MIN_PROBES * calibrate.REFERENCE_S, probes)
        for item in workload.items:
            t0, t1, result = run_item(workload, item)
            spans.append((t0, t1))
            results.append(result)
            owed = probe_for(owed + PROBE_SHARE * (t1 - t0), probes)
        probe_for(MIN_PROBES * calibrate.REFERENCE_S, probes)
        item_s = [t1 - t0 for t0, t1 in spans]
        attempted += len(results)
        failed += sum(r is None for r in results)
        ref_s = scale_to_reference(spans, probes)
        if tracer is not None:
            metrics = tracer.layer_metrics()
            factor = sum(ref_s) / sum(item_s)
            for name, (value, unit) in metrics.items():
                if unit == "s":
                    metrics[name] = (value * factor, unit)
            metrics["cli.bytes_out"] = (sum(r.get("bytes_out", 0) for r in results if r), "B")
            if tracer.covered_s() > sum(item_s):
                problems.append("spans cover more time than the round took")
            layers.append(metrics)
            if first and args.trace_file:
                tracer.save(args.trace_file)
        for item, result in zip(workload.items, results):
            if result is not None:
                problems += workload.check(item, result, first)
        problems += workload.end_round()
        rounds.append({"item_s": item_s, "item_ref_s": ref_s, "probe_s": [p[1] for p in probes]})
        if clock() - started >= args.seconds:
            break
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "layers": layers,
    }


if __name__ == "__main__":
    sys.exit(main())
