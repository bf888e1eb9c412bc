"""The benchmark's workloads: one Gadget pipeline configuration each.

Every workload feeds synthetic Borg task events (seeded from the
command line) through one predefined Gadget operator and replays the
resulting state-access trace, closed-loop with a single client, into
one store.  Sizes are chosen so that one pipeline pass takes about a
second on a 2-CPU host, so that a run repeats the pass a few dozen
times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    #: why the workload is in the benchmark (one line)
    why: str
    #: predefined Gadget operator workload (``repro.core.WORKLOADS``)
    operator: str
    #: store the trace is replayed into (``repro.kvstores.STORE_NAMES``)
    store: str
    #: Borg task events generated per pass
    events: int
    #: value size of events and of the state the operator writes
    value_size: int
    #: ``BorgConfig`` fields that differ from the Borg defaults
    borg: Dict[str, float] = field(default_factory=dict)
    #: serve the store from a ``StoreServer`` over loopback
    remote: bool = False
    #: in-flight window of the replay (None replays synchronously)
    pipeline_depth: Optional[int] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "incr-memory",
            "sliding-incremental into the in-memory store: the store does "
            "almost nothing, so the harness's own cost (driver, replay loop, "
            "latency sink, row) dominates",
            operator="sliding-incremental",
            store="memory",
            events=5_000,
            value_size=64,
        ),
        Workload(
            "incr-rocksdb",
            "the same get-then-put stream into rocksdb: a working set that "
            "the memtable and block cache serve exercises the LSM read path "
            "beside WAL, flush and compaction",
            operator="sliding-incremental",
            store="rocksdb",
            events=3_000,
            value_size=64,
        ),
        Workload(
            "incr-remote-p16",
            "the incr-memory stream over loopback to a StoreServer at "
            "pipeline depth 16: the only workload that measures framing, "
            "syscalls and server dispatch",
            operator="sliding-incremental",
            store="memory",
            events=3_000,
            value_size=64,
            remote=True,
            pipeline_depth=16,
        ),
    )
}

#: seed of the workload records in NOTES.md
DEFAULT_SEED = 42
#: seed kept out of every tuning run, for checking a later claim
HELD_OUT_SEED = 1_000_003
