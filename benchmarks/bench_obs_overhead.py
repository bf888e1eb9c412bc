"""Telemetry overhead benchmark: what does observability cost a replay?

The obs package promises to be **no-op by default**: a replay without a
:class:`ReplayTelemetry` must run the same loops it ran before the
package existed, and the permanent instrumentation sites in the stores
must cost one global load each while tracing is off.  This benchmark
measures that promise on the hottest configuration (memory store --
nothing to hide the replayer's own cost behind) and on the LSM store
whose flush/compaction/WAL paths carry span sites:

* **pre_obs_equivalent** -- ``TraceReplayer._run`` called directly,
  bypassing the telemetry session wrapper entirely; this is the code
  path that existed before the obs package.
* **telemetry_off** -- the public ``replay()`` with no telemetry
  attached: one ``None`` check per replay plus the disabled span sites.
* **metrics_only** -- a sampler thread at 100ms plus the per-op
  latency tee into the shared progress histogram.
* **full_tracing** -- metrics plus an installed span tracer (the span
  sites light up; per-op paths stay untraced by design).
* **measure_off** -- the public ``replay()`` with
  ``measure_latency=False``: no per-op timer, probe or sink.  Its best
  rep over telemetry_off's best is the store's ``measure_tax_ratio``,
  what measuring latency itself costs the replay.

Each cell reports the median of ``REPS`` runs by throughput plus the
fastest rep, with reps interleaved round-robin across modes (after one
discarded warmup run) so slow machine drift cancels out of the
mode-vs-mode ratios.  The headline claim, asserted below:
**telemetry_off is within 2% of pre_obs_equivalent**, comparing
best-of reps -- on a shared single CPU, scheduler noise only ever
slows a run down, so the fastest rep is the cleanest estimate of each
mode's true speed (smoke mode skips the assertion).

Writes ``BENCH_obs_overhead.json`` next to the repo root.

Run:  PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--smoke]
"""

from __future__ import annotations

import json
import os
import random

from _harness import SMOKE, env_block, one_cpu_note, scaled, write_bench

from repro.core import TraceReplayer  # noqa: E402
from repro.kvstores import create_connector  # noqa: E402
from repro.obs import ReplayTelemetry  # noqa: E402
from repro.trace import AccessTrace, OpType  # noqa: E402

SEED = 42
VALUE_SIZE = 64
NUM_KEYS = 2_000

REPS = scaled(5, 1)

#: ops per run, sized per store so every run lasts long enough to
#: measure: the memory store clears 1.5M+ ops/s, so 50k ops finish in
#: ~30ms -- inside a single scheduler timeslice, where run-to-run
#: noise swamps a 2% claim
OPS_BY_STORE = {"memory": 300_000, "rocksdb": 50_000}
if SMOKE:
    OPS_BY_STORE = {"memory": 2_000, "rocksdb": 2_000}

STORES = ("memory", "rocksdb")


def make_trace(ops: int) -> AccessTrace:
    """50/50 get/put over uniform keys: a balanced hot loop."""
    rng = random.Random(SEED)
    trace = AccessTrace()
    for i in range(ops):
        key = b"key%06d" % rng.randrange(NUM_KEYS)
        if rng.random() < 0.5:
            trace.record(OpType.GET, key, 0, i)
        else:
            trace.record(OpType.PUT, key, VALUE_SIZE, i)
    return trace


def _run(store_name, trace, mode, scratch_dir):
    connector = create_connector(store_name)
    telemetry = None
    if mode == "metrics_only":
        telemetry = ReplayTelemetry(
            metrics_path=os.path.join(scratch_dir, "bench.jsonl")
        )
    elif mode == "full_tracing":
        telemetry = ReplayTelemetry(
            trace_path=os.path.join(scratch_dir, "bench.trace.json"),
            metrics_path=os.path.join(scratch_dir, "bench.jsonl"),
        )
    replayer = TraceReplayer(
        connector, telemetry=telemetry,
        measure_latency=mode != "measure_off",
    )
    try:
        if mode == "pre_obs_equivalent":
            result = replayer._run(trace)  # the pre-obs replay body
        else:
            result = replayer.replay(trace)
    finally:
        connector.close()
    summary = result.summary()
    return {
        "throughput_kops": summary["throughput_kops"],
        "p50_us": summary["p50_us"],
        "p99_us": summary["p99_us"],
    }


MODES = (
    "pre_obs_equivalent",
    "telemetry_off",
    "metrics_only",
    "full_tracing",
    "measure_off",
)


def measure_modes(store_name, trace, scratch_dir):
    """Median-of-REPS per mode, with reps interleaved round-robin.

    Running all reps of one mode as a block, then the next mode's
    block, lets slow machine drift (thermal, page cache, allocator
    growth) land entirely on whichever mode ran last and show up as
    fake overhead.  Interleaving pairs every mode with every part of
    the run, so drift cancels out of the mode-vs-mode ratios.
    """
    _run(store_name, trace, MODES[0], scratch_dir)  # warmup, discarded
    runs = {mode: [] for mode in MODES}
    for _ in range(REPS):
        for mode in MODES:
            runs[mode].append(_run(store_name, trace, mode, scratch_dir))
    picked = {}
    for mode, cells in runs.items():
        cells.sort(key=lambda r: r["throughput_kops"])
        cell = dict(cells[len(cells) // 2])
        # On a shared single CPU, noise only ever slows a run down, so
        # the fastest rep is the cleanest estimate of each mode's true
        # speed; the overhead claim compares those.  The median stays
        # in the cell as the typical-run number.
        cell["best_throughput_kops"] = cells[-1]["throughput_kops"]
        picked[mode] = cell
    return picked


def main():
    import tempfile

    results = {
        "env": env_block(),
        "method": {
            "operations": dict(OPS_BY_STORE),
            "workload": "50% get / 50% put, uniform keys",
            "reps_per_cell": REPS,
            "aggregation": (
                "cells report the median rep by throughput, plus "
                "best_throughput_kops (fastest rep); reps are "
                "interleaved round-robin across modes after one "
                "discarded warmup run, and the overhead claims compare "
                "best-of reps, since on a shared single CPU scheduler "
                "noise only ever slows a run down"
            ),
            "modes": list(MODES),
            "baseline": (
                "pre_obs_equivalent calls TraceReplayer._run directly -- "
                "the replay body as it existed before the obs package, "
                "with no telemetry session wrapper"
            ),
            "measure_tax_ratio": (
                "per store: best measure_off kops / best telemetry_off "
                "kops -- the cost of measuring latency at all"
            ),
        },
        "note": one_cpu_note(
            "the sampler thread and the replay share one core and the "
            "GIL, so metrics_only / full_tracing overheads here are "
            "upper bounds."
        ),
        "stores": {},
    }

    with tempfile.TemporaryDirectory(prefix="bench_obs_") as scratch:
        for store_name in STORES:
            ops = OPS_BY_STORE[store_name]
            print(f"\n== {store_name} ({ops} ops) ==")
            trace = make_trace(ops)
            picked = measure_modes(store_name, trace, scratch)
            cells = {}
            base_best = None
            for mode in MODES:
                cell = picked[mode]
                if base_best is None:
                    base_best = cell["best_throughput_kops"]
                cell["relative_throughput"] = round(
                    cell["best_throughput_kops"] / base_best, 4
                )
                for key in (
                    "throughput_kops", "best_throughput_kops",
                    "p50_us", "p99_us",
                ):
                    cell[key] = round(cell[key], 1)
                cells[mode] = cell
                print(
                    f"  {mode:<20} {cell['best_throughput_kops']:>8.1f} kops "
                    f"best ({cell['relative_throughput']:.3f}x)  "
                    f"median {cell['throughput_kops']:.1f}  "
                    f"p50={cell['p50_us']:.1f}us p99={cell['p99_us']:.1f}us"
                )
            cells["measure_tax_ratio"] = round(
                cells["measure_off"]["best_throughput_kops"]
                / cells["telemetry_off"]["best_throughput_kops"], 3
            )
            print(f"  measure_tax_ratio    {cells['measure_tax_ratio']:.3f}x")
            results["stores"][store_name] = cells

    claims = {
        f"{store}_off_vs_pre_obs": results["stores"][store]["telemetry_off"][
            "relative_throughput"
        ]
        for store in STORES
    }
    claims.update(
        {
            f"{store}_full_tracing_vs_pre_obs": results["stores"][store][
                "full_tracing"
            ]["relative_throughput"]
            for store in STORES
        }
    )
    results["claims"] = claims

    write_bench("obs_overhead", results)
    print(json.dumps(claims, indent=2))

    if not SMOKE:
        for store in STORES:
            assert claims[f"{store}_off_vs_pre_obs"] >= 0.98, (
                f"{store}: telemetry-off replay more than 2% below the "
                f"pre-obs-equivalent path"
            )
    return results


if __name__ == "__main__":
    main()
