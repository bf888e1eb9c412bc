"""The traced run: per-layer numbers measured from outside each layer.

Nothing inside the program is instrumented.  The store is wrapped in a
timing proxy (:class:`TimedStore`) that counts every call exactly, sums
its nanoseconds per op type and records one call of each type in
:data:`SAMPLE_EVERY` as a span.  For the remote workload the proxy
wraps the store handed to ``StoreServer`` (server-side store time) and
:class:`TimedClient` wraps the client's pipeline session (client-side
call time).  Each layer's self time is its span minus the part its
children cover.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import deque
from typing import Dict, List

from repro.core import LatencyHistogram, TraceReplayer
from repro.kvstores import KVStore

from specs import Workload
from stages import (
    STAGES,
    Spans,
    check_operations,
    check_round_trip,
    check_state,
    open_session,
    run_pass,
)

#: one connector call in this many, per op type, is recorded as a span
SAMPLE_EVERY = 64

_OP_NAMES = ("get", "put", "merge", "delete")

#: name -> unit of the per-layer metrics (``--trace 1``)
PER_LAYER = {
    "datasets.generate_s": "s",
    "datasets.events": "count",
    "core.driver.run_s": "s",
    "core.driver.ns_per_access": "ns",
    "core.driver.accesses_per_event": "count",
    "core.driver.dropped_late_events": "count",
    "trace.save_s": "s",
    "trace.load_s": "s",
    "trace.bytes_per_op": "bytes",
    "core.replayer.self_ns_per_op": "ns",
    "core.replayer.unmeasured_kops": "kops",
    "core.replayer.measure_tax_ratio": "ratio",
    "core.histogram.record_ns": "ns",
    "core.evaluator.row_s": "s",
    "kvstores.get_ns": "ns",
    "kvstores.put_ns": "ns",
    "kvstores.merge_ns": "ns",
    "kvstores.delete_ns": "ns",
    "kvstores.share": "ratio",
    "kvstores.lsm.flushes": "count",
    "kvstores.lsm.compactions": "count",
    "kvstores.lsm.write_amp": "ratio",
    "kvstores.lsm.read_bytes_per_get": "bytes",
    "kvstores.lsm.block_cache_hit_ratio": "ratio",
    "kvstores.lsm.level_files": "count",
    "kvstores.lsm.background_ms": "ms",
    "kvstores.remote.syscalls_per_op": "count",
    "kvstores.remote.server_store_ns": "ns",
    "kvstores.remote.wire_ns_per_op": "ns",
    "bench.trace_overhead_ratio": "ratio",
    "bench.stage_coverage": "ratio",
}


class TimedStore(KVStore):
    """Timing proxy around a connector, usable wherever a store or a
    connector is (``StoreServer`` wraps it with ``connect``)."""

    def __init__(self, inner, spans: Spans) -> None:
        super().__init__()
        self.name = inner.name
        self._inner = inner
        self._spans = spans
        self.calls = [0, 0, 0, 0]
        self.ns = [0, 0, 0, 0]
        self.background_ns = 0

    def _account(self, code: int, start: int) -> None:
        elapsed = time.perf_counter_ns() - start
        self.ns[code] += elapsed
        self.calls[code] += 1
        # per type: ops alternate in fixed patterns (get, put, get, ...),
        # so one counter over all types would sample only one of them
        if self.calls[code] % SAMPLE_EVERY == 0:
            self._spans.add("kv." + _OP_NAMES[code], start, elapsed,
                            sampled_1_in=SAMPLE_EVERY)

    def get(self, key):
        start = time.perf_counter_ns()
        value = self._inner.get(key)
        self._account(0, start)
        return value

    def put(self, key, value):
        start = time.perf_counter_ns()
        self._inner.put(key, value)
        self._account(1, start)

    def merge(self, key, operand):
        start = time.perf_counter_ns()
        self._inner.merge(key, operand)
        self._account(2, start)

    def delete(self, key):
        start = time.perf_counter_ns()
        self._inner.delete(key)
        self._account(3, start)

    def take_background_ns(self) -> int:
        spent = self._inner.take_background_ns()
        self.background_ns += spent
        return spent

    def close(self) -> None:
        self._inner.close()
        super().close()

    @property
    def total_ns(self) -> int:
        return sum(self.ns)


class _TimedSession:
    def __init__(self, inner, owner: "TimedClient") -> None:
        self._inner = inner
        self._owner = owner

    def submit(self, opcode, key, value, arrival_ns):
        start = time.perf_counter_ns()
        self._inner.submit(opcode, key, value, arrival_ns)
        self._owner.call_ns += time.perf_counter_ns() - start

    def drain(self):
        start = time.perf_counter_ns()
        self._inner.drain()
        self._owner.call_ns += time.perf_counter_ns() - start


class TimedClient:
    """Times the client-side calls of a pipelined remote replay."""

    def __init__(self, inner) -> None:
        self.name = inner.name
        self._inner = inner
        self.call_ns = 0

    def pipeline(self, depth, on_complete):
        return _TimedSession(self._inner.pipeline(depth, on_complete), self)


def _wrapper(spans: Spans):
    def wrap(inner, client: bool = False):
        return TimedClient(inner) if client else TimedStore(inner, spans)

    return wrap


def _replay_kops(spec: Workload, trace, measure: bool):
    """Untraced replay into a fresh store; returns (kops, result)."""
    session = open_session(spec)
    try:
        result = TraceReplayer(
            session.connector, measure_latency=measure,
            pipeline_depth=spec.pipeline_depth,
        ).replay(trace)
    finally:
        session.close()
    return result.throughput_ops / 1000.0, result


def _record_ns(result) -> float:
    """Mean cost of ``LatencyHistogram.record`` over a replay's samples."""
    samples: List[int] = result.all_latencies()
    histogram = LatencyHistogram()
    start = time.perf_counter_ns()
    deque(map(histogram.record, samples), maxlen=0)
    return (time.perf_counter_ns() - start) / max(1, len(samples))


def _user_write_bytes(trace) -> int:
    keys = trace.unique_keys()
    return sum(
        len(keys[kid]) + size
        for code, kid, size in zip(trace.op_codes, trace.key_ids, trace.value_sizes)
        if code in (1, 2)
    )


def traced_round(spec: Workload, seed: int, path: str) -> tuple:
    """One traced pass plus the untraced replays it is compared with.

    Returns ``(metrics, spans, ops)``.
    """
    spans = Spans()
    run = run_pass(spec, seed, path, spans, wrap=_wrapper(spans))
    session = run.session
    client = session.client
    ops = len(run.loaded)
    replay_ns = spans.seconds("replay") * 1e9
    if client is not None:
        store: TimedStore = session.served
        client_ns = session.connector.call_ns
    else:
        store = session.connector
        client_ns = store.total_ns
    # read every counter before the check's own reads move them
    m: Dict[str, float] = {
        f"kvstores.{name}_ns": store.ns[code] / store.calls[code]
        if store.calls[code] else 0.0
        for code, name in enumerate(_OP_NAMES)
    }
    m.update(_lsm_metrics(session.store, store, run.loaded))
    m["kvstores.share"] = store.total_ns / replay_ns
    m["core.replayer.self_ns_per_op"] = (replay_ns - client_ns) / ops
    m["kvstores.remote.syscalls_per_op"] = (
        (client.send_calls + client.recv_calls) / ops if client else 0.0
    )
    m["kvstores.remote.server_store_ns"] = store.total_ns / ops if client else 0.0
    m["kvstores.remote.wire_ns_per_op"] = (
        (client_ns - store.total_ns) / ops if client else 0.0
    )
    spans.extras.update(
        op_counts=dict(zip(_OP_NAMES, store.calls)),
        op_total_ns=dict(zip(_OP_NAMES, store.ns)),
        client_call_ns=client_ns,
    )
    try:
        check_round_trip(run.trace, run.loaded)
        check_operations(run.result, run.loaded)
        check_state(session.reader, run.loaded)
    finally:
        session.close()
    traced_kops = run.result.throughput_ops / 1000.0
    measured_kops, measured = _replay_kops(spec, run.loaded, measure=True)
    unmeasured_kops, _ = _replay_kops(spec, run.loaded, measure=False)
    driver_s = spans.seconds("driver")
    m.update({
        "datasets.generate_s": spans.seconds("dataset"),
        "datasets.events": run.events,
        "core.driver.run_s": driver_s,
        "core.driver.ns_per_access": driver_s * 1e9 / ops,
        "core.driver.accesses_per_event": ops / run.events,
        "core.driver.dropped_late_events": run.gadget.driver.dropped_late_events,
        "trace.save_s": spans.seconds("save"),
        "trace.load_s": spans.seconds("load"),
        "trace.bytes_per_op": run.trace_bytes / ops,
        "core.replayer.unmeasured_kops": unmeasured_kops,
        "core.replayer.measure_tax_ratio": unmeasured_kops / measured_kops,
        "core.histogram.record_ns": _record_ns(measured),
        "core.evaluator.row_s": spans.seconds("row"),
        "bench.trace_overhead_ratio": measured_kops / traced_kops,
        "bench.stage_coverage": (
            sum(spans.seconds(name) for name in STAGES) / spans.seconds("pipeline")
        ),
    })
    return m, spans, ops


def _lsm_metrics(lsm, proxy: TimedStore, trace) -> Dict[str, float]:
    """LSM internals from the store's own counters (zero elsewhere)."""
    m = dict.fromkeys((
        "kvstores.lsm.flushes", "kvstores.lsm.compactions",
        "kvstores.lsm.write_amp", "kvstores.lsm.read_bytes_per_get",
        "kvstores.lsm.block_cache_hit_ratio", "kvstores.lsm.level_files",
    ), 0.0)
    m["kvstores.lsm.background_ms"] = proxy.background_ns / 1e6
    if lsm is None or not hasattr(lsm, "level_file_counts"):
        return m
    stats = lsm.stats
    cache = lsm.block_cache
    lookups = cache.hits + cache.misses
    m["kvstores.lsm.flushes"] = stats.flushes
    m["kvstores.lsm.compactions"] = stats.compactions
    m["kvstores.lsm.write_amp"] = stats.bytes_written / max(1, _user_write_bytes(trace))
    m["kvstores.lsm.read_bytes_per_get"] = (
        (stats.bytes_read - lsm.compaction_stats.bytes_in) / max(1, stats.gets)
    )
    m["kvstores.lsm.block_cache_hit_ratio"] = cache.hits / lookups if lookups else 0.0
    m["kvstores.lsm.level_files"] = sum(lsm.level_file_counts())
    return m


def self_times(spans: Spans) -> Dict[str, float]:
    """Self time per stage in ms: span minus the children it covers.
    ``replay``'s children are the proxied connector calls (exact sums,
    not the sampled spans); ``pipeline``'s are the stages."""
    extras = spans.extras
    out = {name: spans.seconds(name) * 1e3 for name in STAGES}
    out["replay"] -= extras.get("client_call_ns", 0) / 1e6
    out["pipeline"] = (spans.seconds("pipeline")
                       - sum(spans.seconds(name) for name in STAGES)) * 1e3
    return out


def write_chrome_trace(spans: Spans, path: str, meta: Dict) -> None:
    """Stage and sampled per-op spans as Chrome trace-event JSON."""
    own = self_times(spans)
    lanes = sorted({event[1] for event in spans.events})
    events = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
         "args": {"name": "replay client" if lane == 1 else "store server"}}
        for lane in lanes
    ]
    for name, lane, start, dur, args in spans.events:
        args = dict(args)
        if name in own:
            args["self_ms"] = round(own[name], 3)
        events.append({
            "name": name, "ph": "X", "pid": 1, "tid": lane,
            "ts": (start - spans.origin_ns) / 1e3, "dur": dur / 1e3,
            "args": args,
        })
    other = dict(meta)
    other.update(spans.extras)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": other}, handle)


def median_metrics(rounds: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(r[name] for r in rounds) for name in PER_LAYER}


def traced_run(spec: Workload, seed: int, seconds: float, path: str,
               trace_path: str, meta: Dict):
    """Traced rounds until ``seconds`` pass; returns the median round's
    metrics, the number of rounds and the ops attempted."""
    deadline = time.perf_counter() + seconds
    rounds: List[Dict[str, float]] = []
    attempted = 0
    while not rounds or time.perf_counter() < deadline:
        metrics, spans, ops = traced_round(spec, seed, path)
        rounds.append(metrics)
        attempted += 3 * ops
    write_chrome_trace(spans, trace_path, meta)
    return median_metrics(rounds), len(rounds), attempted

