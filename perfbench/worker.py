"""One workload in one fresh process: set-up, a closed loop of ops, results.

`run.py` starts this file with the BLAS pools pinned to one thread and a
fixed hash seed.  With ``--setup-only`` it only builds the workload and
reports when set-up ended.  Otherwise it runs ``max(1, seconds // cycle_s)``
whole cycles of ops, one op at a time, so the op count of a run does not
depend on how fast the machine happens to be.  With ``--trace 1`` it instead
runs exactly one traced cycle (so per-layer counts repeat for a seed), then
the same ops untraced, and reports the per-layer numbers and the tracing
overhead.

The last line of standard output is one JSON object for `run.py`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def run_ops(ops, tracer=None):
    """Run (label, callable) ops back to back; one record per op."""
    records = []
    for i, (label, fn) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            units, problems = fn()
            error = "; ".join(problems) or None
        except Exception:  # an op that raises is a failed op; the run goes on
            units, error = 0, traceback.format_exc(limit=4)
        records.append(
            {"op": label, "latency_s": time.perf_counter() - start, "units": units, "error": error}
        )
    return records


def measure(workload, seconds: float):
    cycles = max(1, int(seconds // workload.cycle_s))
    records = []
    start = time.perf_counter()
    for _ in range(cycles):
        records += run_ops(workload.cycle())
    return records, cycles, time.perf_counter() - start


def measure_traced(workload, tracer):
    """One traced cycle, then the same ops untraced; spans and overheads."""
    ops = workload.cycle(in_process=True)
    t0 = time.perf_counter()
    traced = run_ops(ops, tracer)
    traced_wall = time.perf_counter() - t0
    tracer.uninstall()
    t0 = time.perf_counter()
    untraced = run_ops(ops)
    untraced_wall = time.perf_counter() - t0
    extra = {
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    records = traced + untraced
    if workload.name == "scenario-cli":
        # the same files through the command line: the interpreter start
        by_label = dict(workload.ops())
        child_ops = [(label, by_label[label]) for label, _ in ops]
        t0 = time.perf_counter()
        children = run_ops(child_ops)
        child_wall = time.perf_counter() - t0
        extra["cli.process_start_s"] = (child_wall - untraced_wall) / len(ops)
        records += children
    return records, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced run's spans to this file")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    setup_done = time.monotonic()
    out = {"setup_done_monotonic": setup_done}
    try:
        if args.setup_only:
            pass
        elif args.trace:
            from layertrace import layer_metrics

            records, extra = measure_traced(workload, tracer)
            out["records"] = records
            out["layers"] = layer_metrics(tracer, extra)
            if args.spans:
                Path(args.spans).write_text(
                    json.dumps({"fields": ["name", "start_s", "end_s", "parent", "op"],
                                "spans": tracer.span_records()})
                )
        else:
            records, cycles, elapsed = measure(workload, args.seconds)
            out.update(records=records, cycles=cycles, timed_wall_s=elapsed)
    finally:
        workload.close()
    out["unit"] = workload.unit
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["children_peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
