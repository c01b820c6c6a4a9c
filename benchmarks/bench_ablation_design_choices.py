"""Ablations for the design choices DESIGN.md calls out (not a paper figure).

1. CLASP maximum line span (2 vs 3 lines): the paper fixes 2 to bound SMC
   probe cost; how much fetch ratio is left on the table?
2. Uop cache fetch latency (2 vs 4 cycles): how sensitive are the gains to
   the OC pipeline depth?
3. Loop cache on/off on top of the baseline: how much decoder/OC traffic
   does a 32-uop loop buffer absorb?
"""

import dataclasses

from conftest import BENCH_INSTRUCTIONS, publish

from repro.analysis.tables import render_table
from repro.common.config import LoopCacheConfig, baseline_config, clasp_config
from repro.core.experiment import workload_trace
from repro.core.simulator import Simulator

WORKLOADS = ("bm-cc", "bm-lla", "bm-x64")


def test_ablation_clasp_span_and_latency(benchmark):
    def compute():
        rows = {}
        for name in WORKLOADS:
            trace = workload_trace(name, BENCH_INSTRUCTIONS)
            configs = {
                "base": baseline_config(2048),
                "clasp2": clasp_config(2048),
                "clasp3": clasp_config(2048).with_uop_cache(
                    clasp_max_lines=3),
                "oc-lat4": baseline_config(2048).with_uop_cache(
                    fetch_latency_cycles=4),
                "loopbuf": dataclasses.replace(
                    baseline_config(2048),
                    loop_cache=LoopCacheConfig(enabled=True,
                                               capacity_uops=32)),
            }
            rows[name] = {
                label: Simulator(trace, config.with_fast_mode(),
                                 label).run().upc
                for label, config in configs.items()}
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    normalized = {
        name: {label: upc / row["base"] for label, upc in row.items()}
        for name, row in rows.items()}
    publish("ablation", render_table(
        normalized,
        title="Ablations: UPC normalized to baseline "
        "(clasp span, OC latency, loop buffer)",
        column_order=["base", "clasp2", "clasp3", "oc-lat4", "loopbuf"]))

    for row in normalized.values():
        # A deeper OC pipeline should not help.
        assert row["oc-lat4"] <= row["base"] + 0.01
