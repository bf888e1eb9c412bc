"""Background LSM maintenance: worker equivalence, stalls, quiesce.

Covers the guarantees the background mode makes on top of the inline
store:

* **Equivalence** -- a background store and an inline store fed the
  same operations agree on every key, every scan, and a clean scrub
  (hypothesis property).
* **Backpressure accounting** -- write stalls are counted and their
  time (and only that time -- never worker busy time) flows through
  ``take_background_ns`` exactly once.
* **Observability** -- the queue-depth/stall gauges register, and
  flush/compaction spans land on the ``lsm-flush-worker`` /
  ``lsm-compaction-worker`` lanes.
* **Quiesce** -- ``flush``/``scrub``/``close`` drain the workers so
  nothing races a half-written sstable or gets lost on shutdown.
"""

import sys
import threading
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.kvstores.lsm import LSMConfig, RocksLSMStore
from repro.kvstores.storage import MemoryStorage
from repro.obs import metrics, tracing


def tiny(**overrides):
    defaults = dict(
        write_buffer_size=1024,
        block_cache_size=4096,
        level_base_bytes=8192,
        target_file_size=4096,
        max_levels=4,
        l0_compaction_trigger=2,
    )
    defaults.update(overrides)
    return LSMConfig(**defaults)


def bg_store(**overrides):
    return RocksLSMStore(
        tiny(background=True, **overrides), storage=MemoryStorage()
    )


KEYS = st.integers(min_value=0, max_value=40).map(lambda i: b"k%02d" % i)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, st.binary(min_size=1, max_size=80)),
        st.tuples(st.just("delete"), KEYS, st.just(b"")),
        st.tuples(st.just("merge"), KEYS, st.binary(min_size=1, max_size=8)),
    ),
    min_size=1,
    max_size=300,
)


def apply_ops(store, ops):
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
        elif op == "delete":
            store.delete(key)
        else:
            store.merge(key, value)


class TestBackgroundInlineEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=OPS)
    def test_same_contents_as_inline(self, ops):
        inline = RocksLSMStore(tiny(), storage=MemoryStorage())
        background = bg_store()
        try:
            apply_ops(inline, ops)
            apply_ops(background, ops)
            background.quiesce()
            for key in {key for _, key, _ in ops}:
                assert background.get(key) == inline.get(key)
            assert list(background.scan(b"k00", b"k99")) == list(
                inline.scan(b"k00", b"k99")
            )
            report = background.scrub()
            assert report.clean
        finally:
            background.close()
            inline.close()

    def test_flush_drains_queue(self):
        store = bg_store()
        try:
            for i in range(300):
                store.put(b"k%03d" % i, b"v" * 40)
            store.flush()
            assert store.immutable_queue_depth == 0
            assert not store._memtable
            assert store.get(b"k000") == b"v" * 40
        finally:
            store.close()

    def test_background_compactions_run(self):
        store = bg_store()
        try:
            for i in range(600):
                store.put(b"k%03d" % (i % 60), b"v" * 60)
            store.quiesce()
            assert store.stats.flushes > 0
            assert store.stats.compactions > 0
            assert len(store._levels[0]) < store.config.l0_compaction_trigger
        finally:
            store.close()


class TestStallAccounting:
    def stalled_store(self):
        """Slow workers + a one-deep queue so writers must stall."""
        return bg_store(
            max_immutable_memtables=1,
            background_delay_s=0.02,
        )

    def test_write_stalls_counted_and_timed(self):
        store = self.stalled_store()
        try:
            for i in range(300):
                store.put(b"k%03d" % i, b"v" * 40)
            assert store.write_stall_count > 0
            assert store.write_stall_ns > 0
        finally:
            store.close()

    def test_take_background_ns_reports_stall_time_once(self):
        store = self.stalled_store()
        try:
            for i in range(300):
                store.put(b"k%03d" % i, b"v" * 40)
            stall_ns = store.write_stall_ns
            taken = store.take_background_ns()
            assert taken >= stall_ns > 0
            # drained: a second take must not double-count
            assert store.take_background_ns() == 0
        finally:
            store.close()

    def test_concurrent_takes_lose_and_double_count_nothing(self):
        """A replayer taking while a writer stalls: every stall delta is
        taken exactly once, whether or not a take skipped the lock."""
        store = self.stalled_store()
        deltas = []
        add = store._add_background_ns

        def recording_add(delta):
            deltas.append(delta)
            add(delta)

        store._add_background_ns = recording_add

        def write():
            for i in range(300):
                store.put(b"k%03d" % i, b"v" * 40)

        writer = threading.Thread(target=write, daemon=True)
        taken = []
        deadline = time.monotonic() + 30.0
        # switch threads as often as the interpreter allows, so takes
        # interleave with the writer's stall accounting
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writer.start()
            while writer.is_alive() and time.monotonic() < deadline:
                taken.append(store.take_background_ns())
                time.sleep(0)
            writer.join(timeout=5.0)
            assert not writer.is_alive()
            taken.append(store.take_background_ns())
            assert store.write_stall_count > 0
            assert sum(deltas) > 0
            assert sum(taken) == sum(deltas)
            assert store.take_background_ns() == 0
        finally:
            sys.setswitchinterval(interval)
            writer.join(timeout=5.0)
            store.close()

    def test_worker_busy_time_not_charged_to_writers(self):
        """Un-stalled background runs charge (almost) nothing: worker
        busy time is concurrent, not client-visible."""
        store = bg_store(max_immutable_memtables=64, l0_stall_trigger=1000)
        try:
            for i in range(300):
                store.put(b"k%03d" % i, b"v" * 40)
            store.quiesce()
            assert store.write_stall_count == 0
            assert store.take_background_ns() == 0
            assert store._bg.flush_ns > 0  # the worker did work though
        finally:
            store.close()

    def test_inline_mode_has_zero_stalls(self):
        store = RocksLSMStore(tiny(), storage=MemoryStorage())
        for i in range(300):
            store.put(b"k%03d" % i, b"v" * 40)
        assert store.write_stall_count == 0
        assert store.write_stall_ns == 0
        assert store.immutable_queue_depth < store.config.max_write_buffers
        store.flush()
        assert store.immutable_queue_depth == 0


class TestObservability:
    def test_maintenance_gauges_registered(self):
        registry = metrics.MetricsRegistry()
        store = bg_store()
        try:
            metrics.register_store(registry, store)
            names = registry.names()
            for gauge in (
                "lsm.immutable_queue_depth",
                "lsm.write_stall_count",
                "lsm.write_stall_ms",
            ):
                assert gauge in names
            for i in range(200):
                store.put(b"k%03d" % i, b"v" * 40)
            store.quiesce()
            sample = registry.sample()
            assert sample["lsm.immutable_queue_depth"] == 0
            assert sample["lsm.write_stall_count"] == store.write_stall_count
        finally:
            store.close()

    def test_worker_span_lanes(self):
        with tracing.tracing() as tracer:
            store = bg_store()
            try:
                for i in range(600):
                    store.put(b"k%03d" % (i % 60), b"v" * 60)
                store.quiesce()
            finally:
                store.close()
            lanes = set(tracer.lane_names().values())
            assert "lsm-flush-worker" in lanes
            assert "lsm-compaction-worker" in lanes
            names = {entry[0] for entry in tracer.spans()}
            assert "lsm.flush" in names


class TestQuiesce:
    def test_scrub_quiesces_workers_first(self):
        store = bg_store(background_delay_s=0.01)
        try:
            for i in range(300):
                store.put(b"k%03d" % i, b"v" * 40)
            report = store.scrub()  # must not race a half-built sstable
            assert report.clean
            assert store.immutable_queue_depth == 0
            assert not store._bg.flush_busy
            assert not store._bg.compact_busy
        finally:
            store.close()

    def test_close_drains_and_joins_workers(self):
        storage = MemoryStorage()
        store = RocksLSMStore(tiny(background=True), storage=storage)
        for i in range(300):
            store.put(b"k%03d" % i, b"v" * 40)
        bg = store._bg
        store.close()
        assert not bg.flush_thread.is_alive()
        assert not bg.compact_thread.is_alive()

        revived = RocksLSMStore(tiny(), storage=storage)
        revived.recover()
        for i in range(300):
            assert revived.get(b"k%03d" % i) == b"v" * 40

    def test_worker_error_surfaces_to_writer(self):
        store = bg_store()
        try:
            boom = RuntimeError("injected worker failure")
            with store._mutex:
                store._bg.error = boom
            with pytest.raises(RuntimeError, match="injected worker"):
                store.quiesce()
        finally:
            store._bg.error = None
            store.close()
