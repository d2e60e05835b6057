"""Smoke test of the end-to-end benchmark: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "tcp-rr": dict(warmup_rounds=2, measured_rounds=12),
    "tcp-batch": dict(warmup_rounds=2, measured_rounds=12),
    "sim-churn": dict(warmup_rounds=2, measured_rounds=16, fail_every=8),
}


def _run(workload: str, trace: int, out_dir: Path) -> dict:
    spec = dataclasses.replace(workloads.WORKLOADS[workload],
                               **TINY[workload])
    return bench.run(spec, seed=3, seconds=0, trace=trace,
                     out_dir=out_dir)["result"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload: str, trace: int,
                                               tmp_path: Path) -> None:
    result = _run(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        lines = (tmp_path / f"spans-{workload}-seed3.jsonl").read_text()
        assert len(lines.splitlines()) > 1


def test_sim_churn_exact_counts_repeat(tmp_path: Path) -> None:
    exact = ("sim.events_per_round", "sim.messages_per_round",
             "client.resubmitted", "virtual_round_us", "virtual_failover_us")
    first, second = (_run("sim-churn", 1, tmp_path)["metrics"]
                     for _ in range(2))
    assert first["client.resubmitted"]["value"] > 0
    assert first["virtual_failover_us"]["value"] > 0
    for name in exact:
        assert first[name] == second[name], name


def test_metric_names_match_benchmark_json() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
