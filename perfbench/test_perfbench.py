"""Checks of the benchmark itself, on shrunken workloads.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import run  # first: puts src/ on sys.path
import layers
import specs
import stages
from repro.kvstores import InMemoryStore, connect

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at a few hundred events, so a run takes seconds."""
    for name, spec in list(specs.WORKLOADS.items()):
        monkeypatch.setitem(specs.WORKLOADS, name, dataclasses.replace(spec, events=600))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def _run(capsys, *argv):
    code = run.main(["--seed", "3", "--seconds", "0", *argv])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_code():
    declared = _declared()
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: spec.why for name, spec in specs.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers.PER_LAYER


def test_timed_run_is_correct_and_complete(tiny, capsys):
    code, result = _run(capsys, "--workload", "incr-rocksdb", "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


class _LossyStore(InMemoryStore):
    """An oracle that ignores deletes."""

    def delete(self, key):
        self.stats.deletes += 1


def test_corrupted_oracle_fails_the_run(tiny, capsys, monkeypatch):
    monkeypatch.setattr(stages, "oracle_connector", lambda: connect(_LossyStore()))
    code, result = _run(capsys, "--workload", "incr-memory", "--trace", "0")
    assert code == 1
    assert result["correct"] is False


@pytest.mark.parametrize("workload", sorted(specs.WORKLOADS))
def test_traced_run_reports_every_layer(tiny, capsys, workload):
    cpus = os.sched_getaffinity(0)
    code, result = _run(capsys, "--workload", workload, "--trace", "1")
    assert code == 0 and result["correct"]
    assert os.sched_getaffinity(0) == cpus
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["bench.stage_coverage"] >= 0.95
    assert 0 < metrics["kvstores.share"] < 1
    spec = specs.WORKLOADS[workload]
    assert (metrics["kvstores.remote.syscalls_per_op"] > 0) == spec.remote
    assert (metrics["kvstores.lsm.flushes"] > 0) == (spec.store == "rocksdb")
    trace_path = os.path.join(run.OUT, f"trace_{workload.replace('-', '_')}.json")
    with open(trace_path) as handle:
        trace = json.load(handle)
    names = {event["name"] for event in trace["traceEvents"]}
    assert set(stages.STAGES) <= names
    assert sum(trace["otherData"]["op_counts"].values()) > 0


def test_round_trip_check_sees_a_changed_column(tiny):
    spec = specs.WORKLOADS["incr-memory"]
    trace = stages.make_gadget(spec, stages.make_events(spec, 1)).generate()
    stages.check_round_trip(trace, trace)
    changed = trace.select(range(len(trace) - 1))
    with pytest.raises(stages.CheckFailed):
        stages.check_round_trip(trace, changed)
