"""crystaframe benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload <name> --seed <n> [--seconds <s>] --trace <0|1>

Each workload runs in its own fresh process (`worker.py`) as a closed loop
with one client, on one thread: the BLAS/OpenMP pools are pinned to 1 and
the hash seed is fixed.  ``--seconds`` defaults to ``run_seconds`` of
BENCHMARK.json and sets how many whole cycles of ops a run executes.
Every op's output is checked against a reference; a failed check counts as
a failed op and never stops the run.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; set-up is
timed in five fresh processes (the workload's own and four set-up-only
ones) and reported as their median.  ``--trace 1`` prints the per-layer
metrics of one traced cycle, plus the tracing overhead.  The last line of
standard output is one JSON object; the full result, with provenance and
any failures, is also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5
RUN_BUDGET_S = 175  # a whole run.py invocation, workers included
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many samples beyond it

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args_list, deadline):
    """Start worker.py, wait for it, return (start_monotonic, its JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args_list]
    start = time.monotonic()
    timeout = max(deadline - start, 1.0)
    # its own process group, so a timeout also stops the CLI runs it started
    with subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return start, json.loads(lines[-1])


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it.  With too few samples for that
    (the tiny test scale), the maximum, with 0 samples beyond."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def provenance(args, spec_path):
    def cache_kb(level):
        for index in range(8):
            base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
            try:
                if (base / "level").read_text().strip() == str(level) and \
                        (base / "type").read_text().strip() in ("Unified", "Data"):
                    return (base / "size").read_text().strip()
            except OSError:
                return "unknown"
        return "unknown"

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l2_cache": cache_kb(2),
        "l3_cache": cache_kb(3),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "benchmark_spec": str(spec_path.relative_to(ROOT)),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def summarise_records(records):
    failed = [r for r in records if r["error"]]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "failures": [{"op": r["op"], "error": r["error"]} for r in failed[:10]],
    }


def run_workload(name, args, spec):
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--scale", args.scale]
    result = {"workload": name, "provenance": provenance(args, ROOT / "BENCHMARK.json")}
    if args.trace:
        spans = OUT / f"{name}-seed{args.seed}-spans.json"
        _, res = run_worker([*common, "--trace", "1", "--spans", str(spans)], deadline)
        summary = summarise_records(res["records"])
        layers = res["layers"]
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        if missing:
            raise BenchError(f"the traced run did not report {missing}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        extra = {k: v for k, v in layers.items() if k not in metrics}
        result.update(summary, metrics=metrics, unlisted_layers=extra, spans_file=str(spans.relative_to(ROOT)))
    else:
        start, res = run_worker([*common, "--trace", "0"], deadline)
        setups = [res["setup_done_monotonic"] - start]
        for _ in range(SETUP_RUNS - 1):
            s, r = run_worker([*common, "--setup-only"], deadline)
            setups.append(r["setup_done_monotonic"] - s)
        records = res["records"]
        summary = summarise_records(records)
        latencies = [r["latency_s"] for r in records]
        units = sum(r["units"] for r in records if not r["error"])
        tail_value, tail_pct, tail_beyond = tail(latencies)
        values = {
            "setup_s": statistics.median(setups),
            "work_per_s": units / res["timed_wall_s"],
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_value,
            "peak_rss_mb": (res["peak_rss_kb"] + res["children_peak_rss_kb"]) / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        result.update(
            summary,
            metrics=metrics,
            failed_ratio=summary["failed"] / summary["attempted"],
            unit_of_work=res["unit"],
            work_units=units,
            cycles=res["cycles"],
            timed_wall_s=res["timed_wall_s"],
            op_tail={"percentile": tail_pct, "samples": len(latencies), "samples_beyond": tail_beyond},
            setup_samples_s=setups,
            ops=[{"op": r["op"], "latency_s": r["latency_s"]} for r in records],
        )
    suffix = "trace" if args.trace else "e2e"
    (OUT / f"{name}-seed{args.seed}-{suffix}.json").write_text(json.dumps(result, indent=1))
    return result


def print_human(result):
    print(f"workload {result['workload']}: {result['attempted']} ops attempted, {result['failed']} failed")
    if "cycles" in result:
        tail_info = result["op_tail"]
        print(f"  {result['cycles']} cycle(s), {result['timed_wall_s']:.3f} s timed; "
              f"unit of work: {result['unit_of_work']}; failed_ratio {result['failed_ratio']:.4g}")
        print(f"  op_tail_s is p{tail_info['percentile']:.1f} of {tail_info['samples']} ops "
              f"({tail_info['samples_beyond']} beyond it)")
    for name, m in result["metrics"].items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    for f in result["failures"]:
        print(f"  FAILED {f['op']}: {f['error'].strip().splitlines()[-1]}")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "crystaframe" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a crystaframe checkout (src/crystaframe or BENCHMARK.json missing)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a few small ops per workload, for the benchmark's own tests")
    args = ap.parse_args(argv)
    try:
        result = run_workload(args.workload, args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_human(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
