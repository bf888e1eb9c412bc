"""One pass of the paper's pipeline, timed stage by stage, plus checks.

A pass is what a user runs to get one result row:

    datasets.generate_borg -> Gadget.generate (Driver.run)
    -> AccessTrace.save -> AccessTrace.load
    -> create_connector (or StoreServer + RemoteStoreClient)
    -> TraceReplayer.replay -> EvaluationRow.from_result

Every stage is timed from outside, around the call into its public
function, by a :class:`Spans` recorder.  The recorder also serves the
traced run, where it is exported as a Chrome trace.
"""

from __future__ import annotations

import gc
import hashlib
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core import (
    EvaluationRow,
    Gadget,
    GadgetConfig,
    TraceReplayer,
    make_workload,
)
from repro.datasets import BorgConfig, generate_borg
from repro.kvstores import (
    InMemoryStore,
    RemoteStoreClient,
    StoreServer,
    connect,
    create_connector,
    create_store,
)
from repro.trace import AccessTrace

from specs import Workload

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: the stages of one pass, in order; their spans tile the pass span
STAGES = ("dataset", "driver", "save", "load", "open", "replay", "row")

_GADGET_CONFIG = GadgetConfig(interleave="time")


class Spans:
    """In-memory span recorder: ``(name, lane, start_ns, dur_ns, args)``.

    Spans are kept in a list and written out when the run ends; lanes
    are small integers assigned per thread in order of first use.
    """

    def __init__(self) -> None:
        self.events: List[tuple] = []
        self.origin_ns = time.perf_counter_ns()
        self._lanes: Dict[int, int] = {}
        #: run-level totals exported next to the spans
        self.extras: Dict[str, Any] = {}

    def lane(self) -> int:
        ident = threading.get_ident()
        lane = self._lanes.get(ident)
        if lane is None:
            lane = self._lanes[ident] = len(self._lanes) + 1
        return lane

    def add(self, name: str, start_ns: int, dur_ns: int, **args: Any) -> None:
        self.events.append((name, self.lane(), start_ns, dur_ns, args))

    @contextmanager
    def span(self, name: str, **args: Any):
        start = time.perf_counter_ns()
        try:
            yield args
        finally:
            self.add(name, start, time.perf_counter_ns() - start, **args)

    def seconds(self, name: str) -> float:
        """Duration of the most recent span called ``name``."""
        for event in reversed(self.events):
            if event[0] == name:
                return event[3] / 1e9
        raise KeyError(name)


@dataclass
class Session:
    """An open store as the replayer sees it, with what closing needs."""

    connector: Any
    #: the embedded store under the connector (None when remote)
    store: Any = None
    client: Optional[RemoteStoreClient] = None
    server: Optional[StoreServer] = None
    #: connector used to read the final state back for the check
    reader: Any = None
    #: the store handed to the server (remote workloads)
    served: Any = None

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.stop()
        else:
            self.connector.close()


def open_session(spec: Workload, wrap=None) -> Session:
    """Open the workload's store.  ``wrap`` (traced runs) wraps the
    embedded connector -- the server-side one for remote workloads --
    and, for remote workloads, is also called with the client."""
    if not spec.remote:
        inner = create_connector(spec.store)
        connector = wrap(inner) if wrap else inner
        return Session(connector, store=inner.store, reader=connector)
    store = create_store(spec.store)
    served = wrap(connect(store)) if wrap else store
    server = StoreServer(served).start()
    try:
        client = RemoteStoreClient("127.0.0.1", server.port)
    except Exception:
        server.stop()
        raise
    connector = wrap(client, client=True) if wrap else client
    return Session(connector, client=client, server=server, reader=client,
                   served=served)


def make_events(spec: Workload, seed: int):
    tasks, _jobs = generate_borg(BorgConfig(
        seed=seed,
        target_events=spec.events,
        value_size=spec.value_size,
        **spec.borg,
    ))
    return tasks


def make_gadget(spec: Workload, tasks) -> Gadget:
    model = make_workload(spec.operator)
    model.value_size = spec.value_size
    return Gadget(model, [tasks], _GADGET_CONFIG)


@dataclass
class Pass:
    """What one pipeline pass leaves behind."""

    events: int
    trace: AccessTrace
    loaded: AccessTrace
    session: Session
    result: Any
    gadget: Gadget
    trace_bytes: int


def run_pass(spec: Workload, seed: int, path: str, spans: Spans,
             wrap=None) -> Pass:
    """One dataset -> row pass; the caller closes ``Pass.session``."""
    # start every pass from an empty young generation, so the collector
    # does the same work in each pass's generation stages
    gc.collect()
    with spans.span("pipeline"):
        with spans.span("dataset"):
            tasks = make_events(spec, seed)
        with spans.span("driver"):
            gadget = make_gadget(spec, tasks)
            trace = gadget.generate()
        with spans.span("save"):
            trace.save(path)
        with spans.span("load"):
            loaded = AccessTrace.load(path)
        with spans.span("open"):
            session = open_session(spec, wrap)
        try:
            with spans.span("replay"):
                result = TraceReplayer(
                    session.connector, pipeline_depth=spec.pipeline_depth
                ).replay(loaded)
            with spans.span("row"):
                EvaluationRow.from_result(spec.name, result)
        except BaseException:
            session.close()
            raise
    return Pass(len(tasks), trace, loaded, session, result, gadget,
                os.path.getsize(path))


# -- correctness ---------------------------------------------------------


class CheckFailed(Exception):
    """The program's output disagrees with what it should be."""


def check_round_trip(saved: AccessTrace, loaded: AccessTrace) -> None:
    """``save`` -> ``load`` must keep every column and the key pool."""
    for column in ("op_codes", "key_ids", "value_sizes", "timestamps"):
        if getattr(saved, column) != getattr(loaded, column):
            raise CheckFailed(f"trace round trip changed column {column}")
    if saved.unique_keys() != loaded.unique_keys():
        raise CheckFailed("trace round trip changed the key pool")


def check_operations(result, trace: AccessTrace) -> None:
    if result.operations != len(trace):
        raise CheckFailed(
            f"replay reported {result.operations} operations for a "
            f"{len(trace)}-op trace"
        )


def state_digest(reader, keys) -> str:
    """Digest of ``get(k)`` over ``keys``; needs no ``scan``, so it works
    for every store and through a remote client."""
    digest = hashlib.sha256()
    for key in keys:
        value = reader.get(key)
        digest.update(len(key).to_bytes(4, "little"))
        digest.update(key)
        if value is None:
            digest.update(b"\x00")
        else:
            digest.update(b"\x01" + len(value).to_bytes(8, "little"))
            digest.update(value)
    return digest.hexdigest()


def oracle_connector():
    """The reference store a replay's final state is compared with."""
    return connect(InMemoryStore())


def check_state(reader, trace: AccessTrace) -> None:
    """Final contents must equal an in-memory oracle replay of ``trace``."""
    oracle = oracle_connector()
    try:
        TraceReplayer(oracle, measure_latency=False).replay(trace)
        keys = trace.unique_keys()
        expected = state_digest(oracle, keys)
    finally:
        oracle.close()
    if state_digest(reader, keys) != expected:
        raise CheckFailed("final store contents differ from the in-memory oracle")


# -- set-up --------------------------------------------------------------

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import repro.core, repro.datasets, repro.kvstores, repro.trace\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Import time of the harness's packages in a fresh interpreter
    (interpreter start-up excluded)."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, SRC],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def open_seconds(spec: Workload) -> float:
    """Store open, server start and client connect, then close."""
    start = time.perf_counter()
    session = open_session(spec)
    elapsed = time.perf_counter() - start
    session.close()
    return elapsed
