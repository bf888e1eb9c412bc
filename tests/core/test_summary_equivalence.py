"""``ReplayResult.summary()`` sorts once; its percentiles must equal
``latency_percentile`` and the row built from it must not change."""

import random

import pytest

from repro.core import EvaluationRow, ShardedReplayer, TraceReplayer
from repro.core.replayer import ReplayResult, ShardedReplayResult
from repro.kvstores import create_connector
from repro.trace import AccessTrace, OpType

PERCENTILES = {"p50_us": 50.0, "p99_us": 99.0, "p99.9_us": 99.9}


def reference_percentile(values, percentile):
    """The nearest-rank formula, computed independently of the result."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(
        len(ordered) - 1,
        max(0, int(round(percentile / 100.0 * (len(ordered) - 1)))),
    )
    return ordered[rank] / 1000.0


def assert_summary_matches(result):
    summary = result.summary()
    for key, percentile in PERCENTILES.items():
        assert summary[key] == result.latency_percentile(percentile)
    assert summary["throughput_kops"] == result.throughput_ops / 1000.0
    return summary


def exact_result(latencies):
    return ReplayResult("memory", sum(map(len, latencies.values())), 0.5,
                        latencies_ns=latencies)


def make_trace(n=600, distinct=41, seed=3):
    rng = random.Random(seed)
    trace = AccessTrace()
    for i in range(n):
        op = rng.choice((OpType.GET, OpType.PUT, OpType.MERGE, OpType.DELETE))
        size = 0 if op in (OpType.GET, OpType.DELETE) else 24
        trace.record(op, b"k%03d" % rng.randrange(distinct), size, i)
    return trace


class TestExactMode:
    def test_empty(self):
        summary = assert_summary_matches(exact_result({}))
        assert summary["p50_us"] == summary["p99.9_us"] == 0.0

    def test_empty_lists(self):
        assert_summary_matches(exact_result({op: [] for op in OpType}))

    def test_single_sample(self):
        summary = assert_summary_matches(exact_result({OpType.PUT: [1234]}))
        assert summary["p50_us"] == summary["p99.9_us"] == 1.234

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_multi_type(self, seed):
        rng = random.Random(seed)
        latencies = {
            op: [rng.randrange(1, 10**6) for _ in range(rng.randrange(1, 900))]
            for op in OpType
        }
        summary = assert_summary_matches(exact_result(latencies))
        pooled = [v for values in latencies.values() for v in values]
        for key, percentile in PERCENTILES.items():
            assert summary[key] == reference_percentile(pooled, percentile)

    def test_summary_leaves_samples_in_order(self):
        latencies = {OpType.GET: [5, 1, 3], OpType.PUT: [4, 2]}
        exact_result(latencies).summary()
        assert latencies == {OpType.GET: [5, 1, 3], OpType.PUT: [4, 2]}


class TestHistogramMode:
    def test_replayed_histograms(self):
        result = TraceReplayer(
            create_connector("memory"), use_histograms=True
        ).replay(make_trace())
        assert result.histograms
        assert_summary_matches(result)

    def test_sharded_summary(self):
        replayer = ShardedReplayer(create_connector("memory"), num_workers=3)
        result = replayer.replay(make_trace())
        assert isinstance(result, ShardedReplayResult)
        summary = result.summary()
        merged = result.merged_result()
        for key, percentile in PERCENTILES.items():
            assert summary[key] == merged.latency_percentile(percentile)
            assert summary[key] == result.latency_percentile(percentile)
        assert summary["throughput_kops"] == result.throughput_ops / 1000.0

    def test_sharded_exact_summary(self):
        replayer = ShardedReplayer(
            create_connector("memory"), num_workers=2, use_histograms=False
        )
        result = replayer.replay(make_trace())
        summary = result.summary()
        pooled = result.merged_result().all_latencies()
        for key, percentile in PERCENTILES.items():
            assert summary[key] == reference_percentile(pooled, percentile)


class TestEvaluationRow:
    def test_row_fields_match_the_reference(self):
        rng = random.Random(11)
        latencies = {
            op: [rng.randrange(100, 50_000) for _ in range(500)] for op in OpType
        }
        result = exact_result(latencies)
        row = EvaluationRow.from_result("fixed", result)
        pooled = [v for values in latencies.values() for v in values]
        assert row.p50_us == reference_percentile(pooled, 50.0)
        assert row.p99_us == reference_percentile(pooled, 99.0)
        assert row.p999_us == reference_percentile(pooled, 99.9)
        assert row.throughput_kops == result.throughput_ops / 1000.0

    def test_row_from_a_replay(self):
        result = TraceReplayer(create_connector("rocksdb")).replay(make_trace())
        row = EvaluationRow.from_result("fixed", result)
        pooled = result.all_latencies()
        assert len(pooled) == len(make_trace())
        assert row.p50_us == reference_percentile(pooled, 50.0)
        assert row.p99_us == reference_percentile(pooled, 99.0)
        assert row.p999_us == reference_percentile(pooled, 99.9)
