"""Counters-only fast mode: proven equivalent to the normal serve loop.

Three layers of proof, mirroring how the optimizations were built:

- *golden parity*: fast mode must reproduce every committed golden snapshot
  field-for-field — the same files the normal path is pinned to, never
  regenerated for fast mode;
- *differential*: the oracle's fast-vs-normal runner on all five designs
  (full ``SimulationResult`` surface, loop cache enabled too);
- *properties* (hypothesis): the TAGE static-index cache and the fused
  ``observe()`` match the reference ``predict()``/``update()`` pair on
  arbitrary branch streams, and the backend's batched ``admit_inst()``
  matches per-uop ``admit()`` on arbitrary latency streams.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend.core import OutOfOrderBackend
from repro.branch.tage import TagePredictor
from repro.common.config import (
    BranchPredictorConfig,
    SimulatorConfig,
    TelemetryConfig,
)
from repro.common.errors import ConfigError
from repro.core.experiment import (
    DEFAULT_SEED,
    POLICY_LABELS,
    policy_config,
    workload_trace,
)
from repro.core.simulator import Simulator
from repro.isa.uop import Uop, UopKind
from repro.oracle import diff_fast_mode
from repro.workloads.engine import create_engine

from test_golden import GOLDEN_RUNS, _first_divergence, _golden_path

SLOW = settings(max_examples=25,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)

#: A small TAGE (4 tables, 64-entry) so hypothesis reaches collisions,
#: allocations and useful-bit decay within short branch streams.
_SMALL_TAGE = BranchPredictorConfig(num_tagged_tables=4,
                                    table_entries_log2=6,
                                    base_entries_log2=6)

#: (pc, taken) branch streams over a small PC set (collisions on purpose).
_branch_streams = st.lists(
    st.tuples(st.integers(0, 2 ** 20).map(lambda v: v * 2),
              st.booleans()),
    max_size=300)


# --------------------------------------------------------------------------
# Config surface.
# --------------------------------------------------------------------------

class TestFastModeConfig:

    def test_with_fast_mode_round_trip(self):
        config = SimulatorConfig()
        assert not config.fast_mode
        fast = config.with_fast_mode()
        assert fast.fast_mode and not config.fast_mode
        assert not fast.with_fast_mode(False).fast_mode

    def test_fast_mode_rejects_telemetry(self):
        with pytest.raises(ConfigError):
            SimulatorConfig(fast_mode=True,
                            telemetry=TelemetryConfig(enabled=True))


# --------------------------------------------------------------------------
# Golden parity: the committed snapshots, via the fast path.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("workload,design,instructions", GOLDEN_RUNS,
                         ids=[f"{w}-{d}" for w, d, _ in GOLDEN_RUNS])
def test_fast_mode_reproduces_golden(workload, design, instructions):
    path = _golden_path(workload, design)
    assert path.exists(), f"golden file {path} missing"
    config = dataclasses.replace(policy_config(design, 2048),
                                 warmup_instructions=0).with_fast_mode()
    trace = workload_trace(workload, instructions, seed=DEFAULT_SEED)
    actual = Simulator(trace, config, design).run().to_dict()
    expected = json.loads(path.read_text())
    divergence = _first_divergence(expected, actual)
    if divergence:
        where, want, got = divergence
        pytest.fail(f"fast mode diverges from golden {workload}/{design} "
                    f"at '{where}': golden={want!r} fast={got!r}")


# --------------------------------------------------------------------------
# Differential: full result surface, every design, warmup and loop cache.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("design", POLICY_LABELS)
def test_fast_vs_normal_all_designs(design):
    trace = workload_trace("bm-x64", 4000, seed=DEFAULT_SEED)
    config = policy_config(design, 1024)
    report = diff_fast_mode(trace, config, design, raise_on_divergence=True)
    assert report.ok and report.counters


def test_fast_vs_normal_with_warmup_and_loop_cache():
    trace = workload_trace("bm-x64", 4000, seed=DEFAULT_SEED)
    config = dataclasses.replace(
        policy_config("f-pwac", 1024), warmup_instructions=1000,
        loop_cache=dataclasses.replace(
            SimulatorConfig().loop_cache, enabled=True))
    diff_fast_mode(trace, config, "f-pwac", raise_on_divergence=True)


def test_fast_mode_never_builds_trace_records():
    """The fast loop, loop-cache path included, reads the trace's columns;
    the per-record objects are left for the stepped loop to build."""
    trace = create_engine("synthetic", workload="bm-x64",
                          params={}).build_trace(4000, DEFAULT_SEED)
    config = dataclasses.replace(
        policy_config("f-pwac", 1024), loop_cache=dataclasses.replace(
            SimulatorConfig().loop_cache, enabled=True)).with_fast_mode()
    result = Simulator(trace, config, "f-pwac", strict=True).run()
    assert result.uops_from_loop_cache > 0
    assert trace._records is None


def test_diff_fast_mode_reports_field_path():
    trace = workload_trace("bm-x64", 1500, seed=DEFAULT_SEED)
    report = diff_fast_mode(trace, policy_config("baseline", 1024), "b")
    assert report.ok
    assert "behavior:mispredict" in report.coverage


# --------------------------------------------------------------------------
# TAGE: static index cache and fused observe().
# --------------------------------------------------------------------------

@given(stream=_branch_streams, probe_pc=st.integers(0, 2 ** 20))
@SLOW
def test_index_statics_match_table_index(stream, probe_pc):
    """(static ^ fold) & mask must equal the reference hash at any history."""
    tage = TagePredictor(_SMALL_TAGE)
    for pc, taken in stream:
        tage.observe(pc, taken)
    statics = tage._index_statics(probe_pc)
    for table in range(tage._num_tables):
        fast_index = (statics[table] ^
                      tage._index_folds[table].value) & tage._index_mask
        assert fast_index == tage._table_index(probe_pc, table)


def _tage_state(tage):
    return {
        "tags": tage._table_tags,
        "counters": tage._table_counters,
        "useful": tage._table_useful,
        "base": tage._base,
        "use_alt": tage._use_alt_on_new,
        "rng": tage._rng_state,
        "history": tage._history_bits,
        "folds": [[fold.value for fold in triple]
                  for triple in tage._fold_triples],
        "predictions": tage.predictions,
        "mispredictions": tage.mispredictions,
    }


@given(stream=_branch_streams)
@SLOW
def test_observe_equals_predict_then_update(stream):
    """The fused walk must leave twin predictors in identical states."""
    fused = TagePredictor(_SMALL_TAGE)
    reference = TagePredictor(_SMALL_TAGE)
    for pc, taken in stream:
        fused_prediction = fused.observe(pc, taken)
        reference_prediction = reference.predict(pc)
        mispredicted = reference.update(pc, taken)
        assert fused_prediction == reference_prediction
        assert mispredicted == (reference_prediction != taken)
        assert _tage_state(fused) == _tage_state(reference)


# --------------------------------------------------------------------------
# Backend: batched admit_inst() vs per-uop admit().
# --------------------------------------------------------------------------

def _backend_state(backend):
    return {
        "dispatch": (backend._dispatch.cycle, backend._dispatch.used,
                     backend._dispatch.busy_cycles),
        "retire": (backend._retire.cycle, backend._retire.used,
                   backend._retire.busy_cycles),
        "dispatch_ring": list(backend._dispatch_ring),
        "retire_ring": list(backend._retire_ring),
        "last_retire": backend._last_retire,
        "uops_retired": backend.uops_retired,
        "last_cycle": backend.last_cycle,
    }


@given(insts=st.lists(
    st.tuples(st.lists(st.sampled_from(list(UopKind)),
                       min_size=1, max_size=4),
              st.integers(0, 3)),
    max_size=120))
@SLOW
def test_admit_inst_matches_per_uop_admit(insts):
    """Same uop streams, same arrivals: identical timing and limiter state."""
    batched = OutOfOrderBackend()
    reference = OutOfOrderBackend()
    arrival = 0
    for kinds, gap in insts:
        arrival += gap
        uops = [Uop(pc=arrival * 16, inst_length=4, kind=kind,
                    slot=slot, num_slots=len(kinds))
                for slot, kind in enumerate(kinds)]
        # Loads are encoded as -1, exactly as the fast serve loop does.
        latencies = tuple(-1 if uop.kind is UopKind.LOAD
                          else uop.exec_latency for uop in uops)
        complete = batched.admit_inst(latencies, arrival)
        timing = None
        for uop in uops:
            timing = reference.admit(uop, arrival)
        assert timing is not None and complete == timing.complete
        assert _backend_state(batched) == _backend_state(reference)


def test_admit_inst_empty_instruction_returns_arrival():
    backend = OutOfOrderBackend()
    assert backend.admit_inst((), 17) == 17
    assert backend.uops_retired == 0
