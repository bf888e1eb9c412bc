"""Per-replay binding of the hot-loop callables (``hot_calls``).

The replay loops resolve ``get/put/merge/delete`` and the
background-time probe once per replay.  These tests pin what that
binding may and may not change: a store that declares background work
still has it subtracted in every loop, the measured sync loop never asks
a store that keeps the default probe, patched and overriding methods
still run, and every op still lands in its op type's latency samples.
"""

import random

import pytest

from repro.core import TraceReplayer
from repro.core.evaluator import LockedConnector
from repro.faults import RetryPolicy
from repro.kvstores import InMemoryStore, create_connector
from repro.kvstores.api import KVStore
from repro.kvstores.connectors import (
    ReadModifyWriteConnector,
    StoreConnector,
    connect,
    declares_background,
    hot_calls,
)
from repro.trace import AccessTrace, OpType


def make_trace(n=400, distinct=37, seed=7):
    """All four op types over a small key space."""
    rng = random.Random(seed)
    kinds = (OpType.GET, OpType.PUT, OpType.MERGE, OpType.DELETE)
    trace = AccessTrace()
    for i in range(n):
        op = rng.choices(kinds, weights=(4, 3, 2, 1))[0]
        size = 0 if op in (OpType.GET, OpType.DELETE) else 16
        trace.record(op, b"key%03d" % rng.randrange(distinct), size, i)
    return trace


def no_retry_delay():
    return RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)


#: one replayer configuration per replay loop
LOOPS = {
    "sync": dict,
    "paced": lambda: dict(service_rate=1e6),
    "batched": lambda: dict(batch_size=8),
    "guarded": lambda: dict(retry_policy=no_retry_delay()),
    "batched_guarded": lambda: dict(batch_size=8, retry_policy=no_retry_delay()),
    "pipelined": lambda: dict(pipeline_depth=4),
}

#: loops that reach the store through per-op ``put``/``merge`` calls
PER_OP = ("sync", "paced", "guarded", "pipelined")


class ChargedStore(InMemoryStore):
    """Reports a background charge far above any op's latency, so each
    subtracted charge shows as a latency clamped to zero."""

    def __init__(self):
        super().__init__()
        self.probes = 0

    def take_background_ns(self) -> int:
        self.probes += 1
        return 10**12


class TestBinding:
    def test_pass_through_methods_bind_to_the_store(self):
        connector = create_connector("memory")
        get, put, merge, delete, probe = hot_calls(connector)
        for call, name in zip((get, put, merge, delete),
                              ("get", "put", "merge", "delete")):
            assert call.__self__ is connector.store
            assert call.__func__ is getattr(InMemoryStore, name)
        assert probe.__self__ is connector.store
        assert not declares_background(probe)

    def test_declared_probe_binds_to_the_store(self):
        connector = create_connector("rocksdb")
        probe = hot_calls(connector)[4]
        assert probe.__self__ is connector.store
        assert probe.__func__ is type(connector.store).take_background_ns
        assert declares_background(probe)

    def test_patched_probe_is_declared(self):
        connector = create_connector("memory")
        connector.take_background_ns = lambda: 0
        assert declares_background(hot_calls(connector)[4])

    def test_read_modify_write_merge_stays_on_the_connector(self):
        connector = create_connector("berkeleydb")
        assert isinstance(connector, ReadModifyWriteConnector)
        get, _, merge, _, _ = hot_calls(connector)
        assert get.__self__ is connector.store
        assert merge.__self__ is connector
        assert merge.__func__ is ReadModifyWriteConnector.merge

    def test_wrapper_connectors_keep_their_own_methods(self):
        wrapper = LockedConnector(create_connector("memory"))
        calls = hot_calls(wrapper)
        assert all(call.__self__ is wrapper for call in calls)

    def test_instance_patch_wins(self):
        connector = create_connector("memory")

        def put(key, value):
            pass

        connector.put = put
        assert hot_calls(connector)[1] is put

    def test_bound_method_of_another_connector_is_kept(self):
        connector = create_connector("memory")
        other = create_connector("memory")
        connector.get = other.get
        assert hot_calls(connector)[0].__self__ is other


class TestBackgroundSubtraction:
    @pytest.mark.parametrize("loop", sorted(LOOPS))
    def test_declared_background_is_subtracted(self, loop):
        store = ChargedStore()
        trace = make_trace()
        result = TraceReplayer(connect(store), **LOOPS[loop]()).replay(trace)
        samples = result.all_latencies()
        assert len(samples) == len(trace)
        assert store.probes > 0
        assert set(samples) == {0}

    def test_measured_sync_loop_never_calls_the_default_probe(self, monkeypatch):
        calls = []

        def spy(self):
            calls.append(self)
            return 0

        monkeypatch.setattr(KVStore, "take_background_ns", spy)
        trace = make_trace()
        result = TraceReplayer(create_connector("memory")).replay(trace)
        assert len(result.all_latencies()) == len(trace)
        assert calls == []

    def test_wrapped_loops_still_ask_through_the_wrappers(self, monkeypatch):
        calls = []

        def spy(self):
            calls.append(self)
            return 0

        monkeypatch.setattr(KVStore, "take_background_ns", spy)
        trace = make_trace()
        TraceReplayer(
            create_connector("memory"), **LOOPS["guarded"]()
        ).replay(trace)
        assert len(calls) == len(trace)


class TestPatchedCallablesRun:
    @pytest.mark.parametrize("loop", PER_OP)
    def test_instance_patched_put_runs(self, loop):
        connector = create_connector("memory")
        original = connector.put
        seen = []

        def put(key, value):
            seen.append(key)
            original(key, value)

        connector.put = put
        trace = make_trace()
        TraceReplayer(connector, **LOOPS[loop]()).replay(trace)
        assert len(seen) == trace.op_counts()[OpType.PUT]

    @pytest.mark.parametrize("loop", PER_OP)
    def test_read_modify_write_merge_runs(self, loop, monkeypatch):
        merged = []
        original = ReadModifyWriteConnector.merge

        def merge(self, key, operand):
            merged.append(key)
            original(self, key, operand)

        monkeypatch.setattr(ReadModifyWriteConnector, "merge", merge)
        trace = make_trace()
        connector = create_connector("berkeleydb")
        TraceReplayer(connector, **LOOPS[loop]()).replay(trace)
        assert len(merged) == trace.op_counts()[OpType.MERGE]
        oracle = StoreConnector(InMemoryStore())
        TraceReplayer(oracle, measure_latency=False).replay(trace)
        for key in trace.unique_keys():
            assert connector.get(key) == oracle.get(key)


class TestSampleCounts:
    @pytest.mark.parametrize("store", ["memory", "rocksdb"])
    @pytest.mark.parametrize("loop", sorted(LOOPS))
    def test_per_type_counts_match_the_trace(self, store, loop):
        trace = make_trace()
        result = TraceReplayer(
            create_connector(store), **LOOPS[loop]()
        ).replay(trace)
        counts = {op: len(values) for op, values in result.latencies_ns.items()}
        assert counts == trace.op_counts()
