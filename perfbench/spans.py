"""Layer spans for the traced benchmark run.

The traced run wraps the public functions of each simulator layer with
spans recorded from the benchmark's own files; nothing inside ``src/`` is
edited.  A span has a name, a start, an end and a parent.  Coarse spans
(ops, sweeps, simulator runs, service batches) are kept one by one.  Hot
spans (one per branch, uop-cache access, back-end admit, ...) run hundreds
of thousands of times per op, so they are kept aggregated per
``(name, parent name)`` edge with their call count, total and self time;
keeping each one would cost more memory than the simulation itself.

A span's self time is its duration minus the time of the child spans it
encloses on the same thread.  Everything is kept in memory and written out
by :meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.experiment import POLICY_LABELS

_clock = time.perf_counter


class _ThreadState:
    __slots__ = ("thread", "stack", "edges", "spans")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        # Frames: [child seconds, span name, kept span id or None].
        self.stack: List[list] = [[0.0, None, None]]
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.edges: Dict[Tuple[str, Optional[str]], List[float]] = {}
        # Kept spans: (id, name, start, end, parent id)
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []


class Tracer:
    """In-memory span recorder, one stack per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self.epoch = _clock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def wrap(self, name: str, fn: Callable, keep: bool = False) -> Callable:
        """``fn`` wrapped in a span called ``name``."""
        state_of = self._state
        new_id = self._new_id

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            stack = state.stack
            span_id = None
            if keep:
                span_id = new_id()
                parent_id = next((frame[2] for frame in reversed(stack)
                                  if frame[2] is not None), None)
            frame = [0.0, name, span_id]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                parent = stack[-1]
                parent[0] += duration
                edge = state.edges.get((name, parent[1]))
                if edge is None:
                    edge = state.edges[(name, parent[1])] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[0]
                if keep:
                    state.spans.append((span_id, name, start, end,
                                        parent_id))
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def totals(self) -> Dict[str, List[float]]:
        """``name -> [calls, total s, self s]`` over all threads."""
        out: Dict[str, List[float]] = {}
        for state in self._states:
            for (name, _parent), (calls, total, self_s) in \
                    state.edges.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return out

    def write(self, path: str, extra: Dict[str, Any]) -> None:
        spans = []
        edges = []
        for state in self._states:
            for span_id, name, start, end, parent in state.spans:
                spans.append({"id": span_id, "name": name,
                              "start": start - self.epoch,
                              "end": end - self.epoch, "parent": parent,
                              "thread": state.thread})
            for (name, parent), (calls, total, self_s) in \
                    state.edges.items():
                edges.append({"name": name, "parent": parent,
                              "thread": state.thread, "calls": calls,
                              "total_s": total, "self_s": self_s})
        spans.sort(key=lambda span: span["id"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(extra, spans=spans, edges=edges), handle,
                      indent=1)


# ------------------------------------------------------------ layer hooks

def _hook_points() -> List[Tuple[Any, str, str, bool]]:
    """(owner, attribute, span name, keep) for every wrapped function."""
    import ops
    from repro.backend.core import OutOfOrderBackend
    from repro.branch.predictor import BranchPredictionUnit
    from repro.caches.hierarchy import MemoryHierarchy
    from repro.core import fastpath
    from repro.core.metrics import SimulationResult
    from repro.core.simulator import Simulator
    from repro.frontend.loopcache import LoopCache
    from repro.power.decoder import DecoderPowerModel
    from repro.runner import executor
    from repro.service.server import SimulationService
    from repro.service.store import ResultStore
    from repro.service.supervisor import WorkerPool
    from repro.uopcache.cache import UopCache
    from repro.workloads.engine import SyntheticMarkovEngine

    return [
        (SyntheticMarkovEngine, "build_trace", "workloads.build_trace", True),
        (fastpath, "trace_view", "core.trace_view", True),
        (Simulator, "__init__", "core.sim_init", True),
        (Simulator, "run", "core.loop", True),
        (fastpath.FastPath, "run", "core.loop", True),
        (Simulator, "check_invariants", "core.strict_check", False),
        (SimulationResult, "to_dict", "core.serialize", False),
        (ops, "serialize", "core.serialize", False),
        (BranchPredictionUnit, "observe", "branch.observe", False),
        (BranchPredictionUnit, "observe_fast", "branch.observe", False),
        (UopCache, "lookup", "uopcache.lookup", False),
        (UopCache, "lookup_fast", "uopcache.lookup", False),
        (UopCache, "fill", "uopcache.fill", False),
        (MemoryHierarchy, "fetch_instruction_line", "caches.ifetch", False),
        (MemoryHierarchy, "fetch_instruction_line_fast", "caches.ifetch",
         False),
        (MemoryHierarchy, "access_data", "caches.dfetch", False),
        (MemoryHierarchy, "access_data_fast", "caches.dfetch", False),
        (OutOfOrderBackend, "admit", "backend.admit", False),
        (OutOfOrderBackend, "admit_inst", "backend.admit", False),
        (LoopCache, "observe_taken_branch", "frontend.loopcache", False),
        (LoopCache, "observe_other_flow", "frontend.loopcache", False),
        (DecoderPowerModel, "record_decode_burst", "power.decode", False),
        (executor.SweepRunner, "run", "runner.run", True),
        (executor, "execute_job", "runner.execute_job", True),
        (SimulationService, "execute", "service.execute", True),
        (ResultStore, "get", "service.store_get", False),
        (ResultStore, "put", "service.store_put", False),
        (WorkerPool, "run_batch", "service.pool", True),
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every hook point; returns the function that restores them."""
    saved = []
    for owner, attribute, name, keep in _hook_points():
        original = owner.__dict__[attribute]
        saved.append((owner, attribute, original))
        setattr(owner, attribute, tracer.wrap(name, original, keep))

    def uninstall() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
    return uninstall


# ---------------------------------------------------------- layer metrics

#: Self-time layer metrics: (metric base, span names summed, the end-to-end
#: metric the layer should move and on which workload).
TIMED_LAYERS: List[Tuple[str, Tuple[str, ...], str]] = [
    ("workloads.build_trace", ("workloads.build_trace",),
     "op_p50_s on sweep-pressured and serve-mixed; setup_s only on "
     "run-resident"),
    ("core.trace_view", ("core.trace_view",),
     "as workloads.build_trace"),
    ("core.sim_init", ("core.sim_init",),
     "op_p50_s on sweep-pressured and run-resident"),
    ("core.loop_self", ("core.loop",),
     "kinst_per_s on run-resident (fast loop) and sweep-pressured "
     "(stepped loop)"),
    ("core.strict_check", ("core.strict_check",),
     "kinst_per_s on sweep-pressured only"),
    ("core.serialize", ("core.serialize",),
     "op_p50_s on run-resident and serve-mixed"),
    ("branch.observe", ("branch.observe",),
     "kinst_per_s on all three workloads"),
    ("uopcache.lookup", ("uopcache.lookup",),
     "kinst_per_s on all three workloads"),
    ("uopcache.fill", ("uopcache.fill",),
     "op_p50_s on sweep-pressured; not run-resident"),
    ("caches.ifetch", ("caches.ifetch",), "kinst_per_s on run-resident"),
    ("caches.dfetch", ("caches.dfetch",), "kinst_per_s on run-resident"),
    ("backend.admit", ("backend.admit",),
     "kinst_per_s on run-resident first"),
    ("frontend.loopcache", ("frontend.loopcache",),
     "small; recorded so its share shows"),
    ("power.decode", ("power.decode",),
     "small; recorded so its share shows"),
    ("runner.overhead", ("runner.run",),
     "op_p50_s on sweep-pressured only"),
    ("service.execute_self", ("service.execute",),
     "op_p50_s on serve-mixed only"),
    ("service.store_get", ("service.store_get",),
     "op_p50_s on serve-mixed only"),
    ("service.store_put", ("service.store_put",),
     "op_p50_s on serve-mixed only"),
    ("service.pool", ("service.pool",),
     "op_p50_s and kinst_per_s on serve-mixed only"),
]

#: Call-count metrics: (metric name, span name).
CALL_COUNTS: List[Tuple[str, str]] = [
    ("workloads.build_trace_calls", "workloads.build_trace"),
    ("core.trace_view_calls", "core.trace_view"),
    ("core.sim_init_calls", "core.sim_init"),
    ("core.loop_calls", "core.loop"),
    ("core.strict_check_calls", "core.strict_check"),
    ("core.serialize_calls", "core.serialize"),
    ("branch.calls", "branch.observe"),
    ("uopcache.lookups", "uopcache.lookup"),
    ("uopcache.fill_calls", "uopcache.fill"),
    ("caches.ifetch_calls", "caches.ifetch"),
    ("caches.dfetch_calls", "caches.dfetch"),
    ("backend.admit_calls", "backend.admit"),
    ("frontend.loopcache_calls", "frontend.loopcache"),
    ("power.decode_calls", "power.decode"),
    ("runner.sweeps", "runner.run"),
    ("service.requests", "service.roundtrip"),
    ("service.store_get_calls", "service.store_get"),
    ("service.store_put_calls", "service.store_put"),
    ("service.pool_batches", "service.pool"),
]

COMPACTION_KINDS = ("rac", "pwac", "f-pwac")
#: ``uopcache.fills.<design>`` counts fills per this many instructions.
FILLS_PER_INSTRUCTIONS = 30_000
#: Self-time metrics computed as differences rather than from one span.
DERIVED_LAYERS = ("service.http", "op.other")


def _per_layer() -> Dict[str, Tuple[str, str]]:
    metrics: Dict[str, Tuple[str, str]] = {}
    for base in [base for base, _n, _m in TIMED_LAYERS] + \
            list(DERIVED_LAYERS):
        metrics[f"{base}_s"] = ("s", "lower")
        metrics[f"{base}_share"] = ("%", "lower")
    for metric, _span in CALL_COUNTS:
        metrics[metric] = ("count", "lower")
    metrics.update({
        "uopcache.hit_rate": ("ratio", "higher"),
        "uopcache.sim_lookups": ("count", "lower"),
        "uopcache.sim_fills": ("count", "lower"),
        "uopcache.compacted_fills": ("count", "higher"),
        "uopcache.compacted_per_fill": ("ratio", "higher"),
        "branch.mpki": ("1/kinst", "lower"),
        "caches.l1i_hit_rate": ("ratio", "higher"),
        "caches.l1d_hit_rate": ("ratio", "higher"),
        "service.store_hits": ("count", "higher"),
        "service.store_misses": ("count", "lower"),
        "service.hit_ratio": ("ratio", "higher"),
        "service.worker_restarts": ("count", "lower"),
        "trace.ops": ("count", "higher"),
        "trace.op_wall_s": ("s", "lower"),
        "trace.kinst_per_s_untraced": ("kinst/s", "higher"),
        "trace.kinst_per_s_traced": ("kinst/s", "higher"),
        "trace.overhead_pct": ("%", "lower"),
    })
    for kind in COMPACTION_KINDS:
        metrics[f"uopcache.compacted_fills.{kind}"] = ("count", "higher")
    for design in POLICY_LABELS:
        metrics[f"uopcache.fills.{design}"] = ("count/run", "lower")
    return metrics


#: Every per-layer metric the traced run reports: name -> (unit, better).
PER_LAYER = _per_layer()

#: The end-to-end metric each derived metric should move (printed beside it).
MOVES: Dict[str, str] = {f"{base}_s": moves
                         for base, _names, moves in TIMED_LAYERS}
MOVES["service.http_s"] = "op_p50_s on serve-mixed only"
MOVES["op.other_s"] = "benchmark-side remainder; should not move"


def layer_metrics(tracer: Tracer, op_wall: float) -> Dict[str, float]:
    """Self seconds, shares of op wall time and call counts."""
    totals = tracer.totals()

    def get(span: str, index: int) -> float:
        return totals.get(span, [0, 0.0, 0.0])[index]

    metrics: Dict[str, float] = {}
    attributed = 0.0
    for base, names, _moves in TIMED_LAYERS:
        seconds = sum(get(name, 2) for name in names)
        metrics[f"{base}_s"] = seconds
        attributed += seconds
    # The HTTP round trip and the batch it carries run on different
    # threads, so the protocol's cost is the difference of their totals.
    http = get("service.roundtrip", 1) - get("service.execute", 1)
    metrics["service.http_s"] = http
    metrics["op.other_s"] = op_wall - attributed - http
    for name in [base for base, _n, _m in TIMED_LAYERS] + \
            list(DERIVED_LAYERS):
        metrics[f"{name}_share"] = 100.0 * metrics[f"{name}_s"] / op_wall
    for metric, span in CALL_COUNTS:
        metrics[metric] = get(span, 0)
    return metrics


def shape_metrics(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Exact simulated counts of the traced ops' simulations."""
    lookups = sum(r["uop_cache_lookups"] for r in records)
    hits = sum(r["uop_cache_hits"] for r in records)
    fills = sum(r["uop_cache_fills"] for r in records)
    instructions = sum(r["instructions"] for r in records)
    mispredicts = sum(r["branch_mispredicts"] for r in records)
    compacted = {kind: sum(r["fill_kind_counts"].get(kind, 0)
                           for r in records)
                 for kind in COMPACTION_KINDS}
    metrics: Dict[str, float] = {
        "uopcache.hit_rate": hits / lookups if lookups else 0.0,
        "uopcache.sim_lookups": lookups,
        "uopcache.sim_fills": fills,
        "uopcache.compacted_fills": sum(compacted.values()),
        "uopcache.compacted_per_fill":
            sum(compacted.values()) / fills if fills else 0.0,
        "branch.mpki": 1000.0 * mispredicts / instructions
        if instructions else 0.0,
        "caches.l1i_hit_rate": _mean([r["l1i_hit_rate"] for r in records]),
        "caches.l1d_hit_rate": _mean([r["l1d_hit_rate"] for r in records]),
    }
    for kind in COMPACTION_KINDS:
        metrics[f"uopcache.compacted_fills.{kind}"] = sum(
            r["fill_kind_counts"].get(kind, 0) for r in records
            if r["config_label"] == kind)
    for design in POLICY_LABELS:
        runs = [r for r in records if r["config_label"] == design]
        metrics[f"uopcache.fills.{design}"] = _mean(
            [r["uop_cache_fills"] * FILLS_PER_INSTRUCTIONS / r["instructions"]
             for r in runs])
    return metrics


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
