"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Tiny call sets: one block each, small multistarts.
TINY = {"rediscover": ["--blocks", "1", "--starts", "100"],
        "sweep": ["--blocks", "1", "--starts", "20"],
        "termination": ["--blocks", "1"],
        "verify": ["--blocks", "2"]}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "call_p50_s": "s",
                    "call_tail_s": "s", "peak_rss_mb": "MB", "fail_ratio": "1"}


def bench(workload, *extra, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), *TINY[workload], *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_printed_with_unit(workload):
    lines, summary = parse(bench(workload))
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert summary["metrics"][metric["name"]]["value"] > 0
    for name, unit in END_TO_END_UNITS.items():
        printed = [ln for ln in lines if ln.startswith(name + " ")]
        omitted = [ln for ln in lines if ln.startswith(f"# {name} omitted")]
        assert omitted or printed and printed[0].split()[2] == unit, (name, lines)


def test_wrong_expected_value_counts_as_failure():
    _, good = parse(bench("rediscover"))
    assert good["correct"] and good["failed"] == 0
    lines, bad = parse(bench("rediscover", "--s412-shift", "1e-3"))
    assert not bad["correct"] and bad["failed"] == bad["attempted"] == 1
    assert "fail_ratio 1.0 1 (1 of 1 calls)" in lines


def test_traced_run_lists_every_layer_metric():
    lines, summary = parse(bench("verify", trace=1))
    assert summary["correct"]
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == names
    assert summary["metrics"]["elliptic.jacobi_eval.calls"]["value"] > 0
    assert summary["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert any(ln.startswith("# why: elliptic.self_share") for ln in lines)


def test_fails_without_sources():
    bare = ROOT / "perfbench" / "results" / "bare"   # inside the checkout, ignored by git
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = bench("verify", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
