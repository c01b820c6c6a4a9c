"""Benchmark of the uop-cache simulator: what its users wait for.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-pressured --seed 7 \\
        --seconds 20 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` is the separate traced run: it times the workload untraced,
then again with every layer wrapped in spans, prints each per-layer metric
with its unit and share of op wall time, and writes the spans to
``.perfbench/spans-<workload>-<seed>.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("error: run from the root of a checkout that holds "
              "src/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"),
                    os.path.dirname(os.path.abspath(__file__))]
    # A terminated run still unwinds, so the service's worker is stopped;
    # the forked worker itself keeps the default action.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.register_at_fork(after_in_child=lambda: signal.signal(
        signal.SIGTERM, signal.SIG_DFL))
    import harness
    return harness.run(args, root)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
