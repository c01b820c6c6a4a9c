"""Regenerate perfbench/expected.json: exact counters of every simulation
the benchmark can run, for any seed.

Run from the root of a checkout::

    python3 perfbench/record.py --workers 2

Counters come from the stepped serve loop without strict checks, the
reference the fast loop is proven bit-identical to.  A change that alters
simulated behaviour on purpose regenerates this file and says so.  The
script first rescans the resident walks run-resident draws from and stops
if they differ from ``ops.RESIDENT_WALKS``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

sys.path[:0] = [os.path.join(os.getcwd(), "src"),
                os.path.dirname(os.path.abspath(__file__))]

#: Seeds the benchmark was built and tuned with (the default, 7, among them).
TUNING_SEEDS = tuple(range(26)) + (5000,)
#: Seed held back while the benchmark was built; checked once at the end.
HELD_BACK_SEED = 1009


def _counters(spec):
    """Expected-counter key and counters of one simulation."""
    import ops
    from repro.core.experiment import policy_config, workload_trace
    from repro.core.simulator import Simulator
    workload, design, instructions, seed = spec
    config = policy_config(design, ops.CAPACITY_UOPS,
                           ops.MAX_ENTRIES_PER_LINE)
    trace = workload_trace(workload, instructions, seed=seed)
    result = Simulator(trace, config, design).run()
    return ops.expect_key(*spec), ops.counters_of(ops.record_of(result))


def _resident(seed):
    """``seed`` when every design makes at most RESIDENT_MAX_FILLS fills
    on that walk of RESIDENT, else None."""
    import ops
    from repro.core.experiment import (POLICY_LABELS, policy_config,
                                       workload_trace)
    from repro.core.simulator import Simulator
    trace = workload_trace(ops.RESIDENT, ops.INSTRUCTIONS, seed=seed)
    for design in POLICY_LABELS:
        config = policy_config(design, ops.CAPACITY_UOPS,
                               ops.MAX_ENTRIES_PER_LINE)
        result = Simulator(trace, config, design).run()
        if result.uop_cache_fills > ops.RESIDENT_MAX_FILLS:
            return None
    return seed


def write_expected(path, counters) -> None:
    """One line per simulation, so a change in counters diffs cleanly."""
    head = json.dumps({"reference": "stepped loop, strict checks off",
                       "tuning_seeds": list(TUNING_SEEDS),
                       "held_back_seed": HELD_BACK_SEED})
    lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(counters.items())]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(head[:-1] + ', "counters": {\n' +
                     ",\n".join(lines) + "\n}}\n")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    import ops

    context = multiprocessing.get_context("spawn")
    with context.Pool(args.workers) as pool:
        walks = tuple(seed for seed in pool.map(_resident, ops.RESIDENT_SCAN)
                      if seed is not None)
    if walks != ops.RESIDENT_WALKS:
        print(f"error: the resident walks are now {walks}; update "
              "ops.RESIDENT_WALKS", file=sys.stderr)
        return 1

    # Every seed maps onto one of SEED_SLOTS input slots, and run-resident
    # draws its walks from a finite pool: record all of both.
    specs = set()
    for slot in range(ops.SEED_SLOTS):
        for name in (ops.SweepPressured.name, ops.ServeMixed.name):
            specs.update(ops.make(name, slot, "").specs())
    specs.update((ops.RESIDENT, design, ops.INSTRUCTIONS, walk)
                 for walk in walks for design in ops.POLICY_LABELS)
    # Grouped so each worker reuses a trace across the designs run on it.
    order = sorted(specs, key=lambda s: (s[0], s[2], s[3], s[1]))
    with context.Pool(args.workers) as pool:
        counters = dict(pool.map(_counters, order, chunksize=5))
    write_expected(os.path.join(here, "expected.json"), counters)
    print(f"recorded {len(counters)} simulations for {ops.SEED_SLOTS} "
          f"seed slots and {len(walks)} resident walks")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
