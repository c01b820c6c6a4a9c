"""Fig. 9: percentage of uop cache entries spanning I-cache line boundaries
once CLASP relaxes the line-boundary termination.

Paper's shape: a significant fraction (tens of percent) of entries span
lines, and exactly zero do in the baseline."""

from conftest import BENCH_INSTRUCTIONS, BENCH_WORKLOADS, publish

from repro.analysis.figures import fig9_spanning_entries
from repro.analysis.tables import render_series
from repro.core.experiment import job_config, workload_trace
from repro.core.simulator import Simulator


def test_fig09_entries_spanning_lines(benchmark):
    def compute():
        clasp_results = {}
        baseline_results = {}
        for name in BENCH_WORKLOADS:
            trace = workload_trace(name, BENCH_INSTRUCTIONS)
            clasp_results[name] = Simulator(
                trace, job_config("clasp"), "clasp").run()
            baseline_results[name] = Simulator(
                trace, job_config("baseline"), "baseline").run()
        return fig9_spanning_entries(clasp_results), baseline_results

    spanning, baseline_results = benchmark.pedantic(
        compute, rounds=1, iterations=1)
    publish("fig09", render_series(
        spanning, title="Fig. 9: fraction of entries spanning I-cache "
        "line boundaries under CLASP"))

    assert spanning["average"] > 0.02
    assert all(r.entries_spanning_lines_fraction == 0.0
               for r in baseline_results.values())
