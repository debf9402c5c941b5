"""Tests of the benchmark itself, at a tiny scale.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc


def tiny(name, trace, seed=7):
    proc = bench("--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                 "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_each_workload_emits_every_metric(name):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = tiny(name, trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
        if trace == 0:
            assert all(v["value"] > 0 for v in res["metrics"].values())
        else:
            saved = json.loads((ROOT / ".perfbench_out" / f"{name}-seed7-trace.json").read_text())
            assert saved["unlisted_layers"] == {}


def test_layer_metrics_has_exactly_the_listed_keys():
    extra = {"trace.traced_wall_s": 1.0, "trace.untraced_wall_s": 1.0, "trace.overhead_s": 0.0}
    keys = set(layertrace.layer_metrics(layertrace.Tracer(), extra))
    assert keys == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", NAMES)
def test_full_cycle_puts_median_and_tail_on_distinct_ops(name):
    """A full-scale run (one cycle at run_seconds) has enough ops that the
    tail percentile, with 10 samples beyond it, lies above the median."""
    wl = workloads.WORKLOADS[name](1, "full")
    try:
        n = len(wl.cycle()) * max(1, int(SPEC["run_seconds"] // wl.cycle_s))
    finally:
        wl.close()
    assert n >= 37
    assert n - 11 > n // 2 + 5


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_counts_repeat_for_a_seed(name):
    counts = [
        {k: v["value"] for k, v in tiny(name, 1, seed=3)["metrics"].items() if v["unit"] == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_wrong_reference_is_a_failed_op_not_an_abort():
    refs = workloads.Classify.default_references()
    refs["classes"]["Z/8"] += 1
    wl = workloads.Classify(5, "tiny", references=refs)
    records = worker.run_ops(wl.cycle())
    failed = [r for r in records if r["error"]]
    assert len(records) == 2 and len(failed) == 1
    assert "Z/8" in failed[0]["op"] and "expected 153" in failed[0]["error"]


def test_golden_mismatch_is_a_failed_op():
    wl = workloads.ScenarioCLI(5, "tiny", references={"golden": {"classify_rank1_zp2.scn": b"{}\n"}})
    try:
        records = worker.run_ops(wl.cycle(in_process=True))
    finally:
        wl.close()
    errors = {r["op"]: r["error"] for r in records}
    assert "golden" in errors["run classify_rank1_zp2.scn"]
    assert errors["run generated_0.scn"] is None


def test_generated_scenarios_have_invertible_psi_and_stay_out_of_scenarios():
    before = sorted(p.name for p in (ROOT / "scenarios").iterdir())
    wl = workloads.ScenarioCLI(11, "full")
    try:
        generated = [f for f in wl.files if f.parent != ROOT / "scenarios"]
        assert len(generated) == sum(spec[-1] for spec in workloads.ScenarioCLI.GENERATED["full"])
        for path in generated:
            assert ROOT / ".perfbench_out" in path.parents
            text = path.read_text()
            p = int(re.search(r"^prime (\d+)$", text, re.M).group(1))
            for d, t, psi in re.findall(r"^window \w+ frame L d (\d) t (\d) psi ([\d,]+)$", text, re.M):
                flat = [int(x) for x in psi.split(",")]
                assert workloads._psi_invertible_mod_p(flat, int(d) + int(t), p)
    finally:
        wl.close()
    assert sorted(p.name for p in (ROOT / "scenarios").iterdir()) == before


def test_lemma_sweep_buckets_follow_the_class_table_proportions():
    alloc = workloads.LemmaSweep.allocate(27, 943)
    assert sum(alloc.values()) == 943
    assert max(alloc.values()) ** 2 <= 120_000  # one chunk holds the largest bucket pair
    assert all(n >= 1 for n in workloads.LemmaSweep.allocate(8, 24).values())


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(1, 41)]
    value, pct, beyond = run.tail(xs)
    assert (value, pct, beyond) == (30.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_fails_without_a_checkout():
    """A directory with only BENCHMARK.json and perfbench/ has no program."""
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
