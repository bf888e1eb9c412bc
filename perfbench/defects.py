"""Open defect: berkeleydb loses a merge on dense sliding-holistic.

    python3 perfbench/defects.py [--seed 42]

Replays sliding-holistic over dense Borg (8,000 events, 256 B values,
25 ms task gap) into every store and compares each final state with
the in-memory oracle through the benchmark's own digest check.  Prints
one line per store and exits 1 while any store disagrees.  berkeleydb
does (see NOTES.md); it is kept out of the timed workloads, and this
check is never to be run disabled.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.core import TraceReplayer  # noqa: E402
from repro.kvstores import STORE_NAMES, create_connector  # noqa: E402

from specs import Workload  # noqa: E402
from stages import CheckFailed, check_state, make_events, make_gadget  # noqa: E402

DENSE_HOLISTIC = Workload(
    "bdb-holistic",
    "reproduces the lost berkeleydb merge",
    operator="sliding-holistic",
    store="berkeleydb",
    events=8_000,
    value_size=256,
    borg={"task_event_gap_ms": 25.0},
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    trace = make_gadget(DENSE_HOLISTIC, make_events(DENSE_HOLISTIC, args.seed)).generate()
    print(f"{len(trace)} ops over {trace.distinct_keys()} keys, seed {args.seed}")
    broken = []
    for name in STORE_NAMES:
        connector = create_connector(name)
        try:
            TraceReplayer(connector, measure_latency=False).replay(trace)
            check_state(connector, trace)
            print(f"{name:12s} matches the oracle")
        except CheckFailed as exc:
            print(f"{name:12s} DEFECT: {exc}")
            broken.append(name)
        finally:
            connector.close()
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
