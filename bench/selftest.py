"""Tests of the benchmark itself, at the smallest run sizes.

Run from the repository root (the file name keeps it out of the tier-1 suite):

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


@pytest.fixture(scope="module")
def runs():
    """Per workload: one timed run of a single round, two traced runs of one round."""
    out = {}
    for w in WORKLOADS:
        out[w] = {
            "timed": run.measure(w, SEED, 0, trace=0),
            "traced": [run.measure(w, SEED, 0, trace=1, trace_rounds=1) for _ in range(2)],
        }
    return out


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(runs, workload):
    timed, _ = runs[workload]["timed"]
    traced, _ = runs[workload]["traced"][0]
    assert _units(timed["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(traced["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (timed, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_exactly(runs, workload):
    (first, _), (second, _) = runs[workload]["traced"]
    timed = {"densify.verify_share", "trace.overhead_frac"}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s" and m["name"] not in timed]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_stdout_matches_untraced(runs, workload):
    _, timed_info = runs[workload]["timed"]
    _, traced_info = runs[workload]["traced"][0]
    plain, traced = traced_info["digests"][0::2], traced_info["digests"][1::2]
    assert plain == traced
    assert timed_info["digests"] == plain
    assert runs[workload]["traced"][1][1]["digests"] == traced_info["digests"]


def test_wrappers_are_removed(runs):
    import tracing

    def snapshot():
        return [vars(owner)[attr] for owner, attr in tracing.patch_targets()]

    before = snapshot()
    assert not any(hasattr(fn, "__wrapped__") for fn in before)
    tracer = tracing.Tracer()
    with tracer.installed("op"):
        assert all(hasattr(fn, "__wrapped__") for fn in snapshot())
    after = snapshot()
    assert all(a is b for a, b in zip(before, after))


def test_tail_keeps_ten_samples_beyond():
    times = [float(k) for k in range(40)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == run.TAIL_BEYOND
    assert pct == 75.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
