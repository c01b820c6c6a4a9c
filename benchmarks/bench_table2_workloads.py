"""Table II: the workload suite with measured branch MPKI.

Regenerates the paper's workload table, with the branch MPKI our TAGE+BTB+RAS
front end actually measures on each synthetic trace next to the paper's
reported values.  The paper's MPKI came from real application traces; ours
documents how closely each synthetic profile lands (ordering is the claim,
not absolute equality).
"""

from conftest import BENCH_INSTRUCTIONS, BENCH_WORKLOADS, publish

from repro.analysis.tables import render_table2
from repro.core.experiment import job_config, workload_trace
from repro.core.simulator import Simulator


def test_table2_workload_suite(benchmark):
    def compute():
        measured = {}
        for name in BENCH_WORKLOADS:
            trace = workload_trace(name, BENCH_INSTRUCTIONS)
            result = Simulator(trace, job_config("baseline"), "b2k").run()
            measured[name] = result.branch_mpki
        return measured

    measured = benchmark.pedantic(compute, rounds=1, iterations=1)
    publish("table2", "Table II: workloads and branch MPKI\n" +
            render_table2(measured))
    assert all(m > 0 for m in measured.values())
