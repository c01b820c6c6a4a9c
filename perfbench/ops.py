"""The three benchmark workloads: set-up, one op, and what each op checks.

Every workload is driven through the simulator's public functions only.
An op returns the simulated instructions it completed, the simulation
records it produced (checked afterwards against exact expected counters)
and any error it saw.  ``rotation`` is the number of ops after which the
input mix repeats; a timed run always ends on a whole rotation, so every
run times the same mix.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import shutil
import sys
import tempfile
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.common.integrity import canonical_json
from repro.core.experiment import (POLICY_LABELS, clear_trace_cache,
                                   policy_config, workload_trace)
from repro.core.fastpath import trace_view
from repro.core.metrics import SimulationResult
from repro.core.simulator import Simulator
from repro.runner import RunnerConfig, SweepRunner, build_policy_jobs
from repro.service import (JobSpec, PoolConfig, ServiceServer,
                           SimulationService)
from repro.workloads.suite import clear_workload_cache, get_workload

CAPACITY_UOPS = 2048
MAX_ENTRIES_PER_LINE = 2
INSTRUCTIONS = 30_000
#: A workload seeded ``s`` takes its inputs from slot ``s mod SEED_SLOTS``.
#: expected.json records every simulation of every slot, so any seed's
#: ops are checked against recorded counters, with no reference run in
#: the timed process.
SEED_SLOTS = 64

#: Compaction-heavy workloads: every fill kind fires on them at 2K uops.
PRESSURED = ("bm-cc", "sp-pg_rnk", "bm-z")
#: The suite's most uop-cache-resident workload at 2K uops.
RESIDENT = "bm-x64"
#: A walk of RESIDENT is resident when every design makes at most this many
#: uop-cache fills on it at 2K uops and 30K instructions.
RESIDENT_MAX_FILLS = 40
#: run-resident refuses to record below this uop-cache hit rate.
RESIDENT_MIN_HIT_RATE = 0.99
#: Walk seeds of RESIDENT scanned for resident walks.
RESIDENT_SCAN = range(400)
#: The resident walks among RESIDENT_SCAN, as ``record.py`` finds them.
#: Residency differs from walk to walk: 56 of these 400 walks are
#: resident, while walk 140 fills 787 times and hits 0.906.  run-resident
#: draws its traces from this pool, so every run times the hit path the
#: workload stands for.
RESIDENT_WALKS = (
    5, 7, 25, 33, 46, 48, 54, 57, 62, 68, 71, 80, 84, 89, 90, 93, 94, 95,
    103, 108, 114, 115, 120, 149, 151, 155, 158, 162, 173, 177, 197, 202,
    210, 221, 223, 230, 243, 249, 261, 279, 288, 295, 315, 328, 330, 342,
    351, 352, 360, 367, 371, 373, 374, 375, 378, 390)
#: run-resident traces per run.  A resident walk's op cost still differs
#: from the next one's by about a quarter, so a run averages over several.
RESIDENT_TRACES = 8

#: serve-mixed: each op posts SERVE_FRESH never-seen specs (store misses)
#: and SERVE_HITS specs stored by earlier ops (store hits).
SERVE_WORKLOADS = ("bm-x64", "bm-cc")
SERVE_INSTRUCTIONS = 20_000
SERVE_FRESH = 2
SERVE_HITS = 6
#: Upper bound on serve ops per run: the expected counters cover the specs
#: of this many ops, and a faster program simply ends its run early.
SERVE_MAX_OPS = 120


def record_of(result: SimulationResult) -> Dict[str, Any]:
    """The fields of one simulation the benchmark checks and reports."""
    return {
        "workload": result.workload,
        "config_label": result.config_label,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "uops": result.uops,
        "uop_cache_lookups": result.uop_cache_lookups,
        "uop_cache_hits": result.uop_cache_hits,
        "uop_cache_fills": result.uop_cache_fills,
        "fill_kind_counts": {kind.value: count for kind, count
                             in result.fill_kind_counts.items()},
        "branch_mispredicts": result.branch_mispredicts,
        "l1i_hit_rate": result.l1i_hit_rate,
        "l1d_hit_rate": result.l1d_hit_rate,
    }


def counters_of(record: Dict[str, Any]) -> Dict[str, Any]:
    """The exact counters an op's simulation must reproduce."""
    return {"cycles": record["cycles"], "uops": record["uops"],
            "uop_cache_hits": record["uop_cache_hits"],
            "fill_kind_counts": dict(record["fill_kind_counts"])}


def expect_key(workload: str, design: str, instructions: int,
               seed: int) -> str:
    return f"{workload}/{design}/{instructions}/{seed}"


class Op:
    """Outcome of one op."""

    __slots__ = ("instructions", "records", "errors", "store_hits",
                 "store_misses")

    def __init__(self) -> None:
        self.instructions = 0
        self.store_hits = 0
        self.store_misses = 0
        #: (expected-counter key, record) per simulation the op ran.
        self.records: List[Tuple[str, Dict[str, Any]]] = []
        self.errors: List[str] = []


class SweepPressured:
    """The Fig. 15-22 policy sweep, as ``repro sweep-policy`` runs it.

    Op ``i`` sweeps workload ``i mod 3`` on trace seed
    ``seed mod SEED_SLOTS + i // 3``, so each rotation is a fresh set of
    traces and a run averages over more than one walk of each program.
    """

    name = "sweep-pressured"
    rotation = len(PRESSURED)
    #: The expected counters cover this many ops (eight trace seeds); a
    #: program fast enough to reach it ends its run early.
    max_ops = 8 * len(PRESSURED)

    def __init__(self, seed: int) -> None:
        self.seed = seed % SEED_SLOTS
        self.runner: Optional[SweepRunner] = None

    def setup(self) -> None:
        clear_workload_cache()
        clear_trace_cache()
        for workload in PRESSURED:
            get_workload(workload)
        # jobs=1: forked workers on a two-core host would time the
        # scheduler, not the sweep.
        self.runner = SweepRunner(RunnerConfig(jobs=1))
        self.op(0)

    def op(self, index: int) -> Op:
        workload = PRESSURED[index % len(PRESSURED)]
        seed = self.seed + index // len(PRESSURED)
        out = Op()
        clear_trace_cache()
        assert self.runner is not None
        results, report = self.runner.run(build_policy_jobs(
            [workload], POLICY_LABELS, CAPACITY_UOPS, MAX_ENTRIES_PER_LINE,
            INSTRUCTIONS, seed=seed))
        if not report.ok or len(results) != len(POLICY_LABELS):
            out.errors.append(report.describe())
        for result in results.values():
            out.instructions += result.instructions
            out.records.append((expect_key(
                workload, result.config_label, INSTRUCTIONS, seed),
                record_of(result)))
        return out

    def close(self) -> None:
        clear_trace_cache()

    def specs(self) -> List[Tuple[str, str, int, int]]:
        return [(workload, design, INSTRUCTIONS, self.seed + rotation)
                for rotation in range(self.max_ops // len(PRESSURED))
                for workload in PRESSURED for design in POLICY_LABELS]


class RunResident:
    """Fast-mode single runs, as ``repro run --fast-mode`` runs them.

    Set-up builds RESIDENT_TRACES traces, on walks of RESIDENT_WALKS that
    the seed samples, and their views.  Ops rotate over the five designs,
    then the traces.
    """

    name = "run-resident"
    rotation = len(POLICY_LABELS) * RESIDENT_TRACES
    max_ops = sys.maxsize

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.walks = random.Random(seed).sample(RESIDENT_WALKS,
                                                RESIDENT_TRACES)
        self.traces: List[Any] = []
        self.configs: Dict[str, Any] = {}

    def setup(self) -> None:
        clear_workload_cache()
        clear_trace_cache()
        self.configs = {design: policy_config(
            design, CAPACITY_UOPS, MAX_ENTRIES_PER_LINE).with_fast_mode()
            for design in POLICY_LABELS}
        config = self.configs[POLICY_LABELS[0]]
        self.traces = []
        for seed in self.walks:
            trace = workload_trace(RESIDENT, INSTRUCTIONS, seed=seed)
            trace_view(trace, config.memory.l1i.line_bytes,
                       config.branch.max_not_taken_branches_per_pw)
            self.traces.append(trace)
        self.op(0)

    def op(self, index: int) -> Op:
        design = POLICY_LABELS[index % len(POLICY_LABELS)]
        which = index // len(POLICY_LABELS) % len(self.traces)
        out = Op()
        result = Simulator(self.traces[which], self.configs[design],
                           design).run()
        serialize(result)
        out.instructions = result.instructions
        out.records.append((expect_key(RESIDENT, design, INSTRUCTIONS,
                                       self.walks[which]),
                            record_of(result)))
        return out

    def close(self) -> None:
        self.traces = []
        clear_trace_cache()

    def specs(self) -> List[Tuple[str, str, int, int]]:
        return [(RESIDENT, design, INSTRUCTIONS, seed)
                for seed in self.walks for design in POLICY_LABELS]


def serialize(result: SimulationResult) -> str:
    """What ``repro run`` does with a result: ``to_dict`` plus JSON."""
    return json.dumps(result.to_dict())


def serve_spec(number: int) -> JobSpec:
    """The ``number``-th fresh spec of the serve-mixed sequence.

    Spec ``number`` runs trace seed ``number``; a run seeded with ``s``
    posts specs ``s mod SEED_SLOTS``, and on, so every spec it posts is new
    to its fresh store.
    """
    return JobSpec(
        workload=SERVE_WORKLOADS[number % len(SERVE_WORKLOADS)],
        design=POLICY_LABELS[(number // len(SERVE_WORKLOADS))
                             % len(POLICY_LABELS)],
        capacity_uops=CAPACITY_UOPS,
        max_entries_per_line=MAX_ENTRIES_PER_LINE,
        num_instructions=SERVE_INSTRUCTIONS, seed=number)


class ServeMixed:
    """The ``repro serve`` path, driven as a closed loop by one client."""

    name = "serve-mixed"
    rotation = len(POLICY_LABELS)
    max_ops = SERVE_MAX_OPS

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed % SEED_SLOTS
        self.scratch = scratch
        self.store_dir: Optional[str] = None
        self.service: Optional[SimulationService] = None
        self.server: Optional[ServiceServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.thread: Optional[threading.Thread] = None
        #: Canonical bytes of each payload a miss stored, by spec number.
        self.stored: Dict[int, str] = {}
        # The traced run wraps this to time the HTTP round trip.
        self.request = self._request

    def setup(self) -> None:
        clear_workload_cache()
        clear_trace_cache()
        for workload in SERVE_WORKLOADS:
            get_workload(workload)   # the forked worker inherits the images
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        self.service = SimulationService(
            self.store_dir, pool_config=PoolConfig(workers=1, retries=0))
        self.service.start()
        self.server = ServiceServer(self.service, port=0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="serve-loop", daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.server.start(),
                                         self.loop).result()
        self.stored = {}
        # Warm-up: store the specs the first timed op reads back.
        first = [self.seed + k for k in range(SERVE_HITS)]
        out = self._batch(first, [])
        if out.errors:
            raise RuntimeError("serve warm-up failed: " +
                               "; ".join(out.errors))

    def op(self, index: int) -> Op:
        base = self.seed + SERVE_HITS + SERVE_FRESH * index
        fresh = [base + k for k in range(SERVE_FRESH)]
        hits = list(range(base - SERVE_HITS, base))
        return self._batch(fresh, hits)

    def _batch(self, fresh: List[int], hits: List[int]) -> Op:
        out = Op()
        specs = {number: serve_spec(number) for number in fresh + hits}
        body = json.dumps({"jobs": [specs[n].to_dict()
                                    for n in fresh + hits]})
        status, payload = self.request("POST", "/run", body)
        if status != 200:
            out.errors.append(f"HTTP {status}: {payload.get('error')}")
            return out
        if payload.get("failures") or not payload.get("complete"):
            out.errors.append(f"quarantined: {payload.get('failures')}")
        cached = set(payload.get("cached", []))
        results = payload.get("results", {})
        for number in fresh + hits:
            key = specs[number].key
            result = results.get(key)
            if result is None:
                out.errors.append(f"no result for spec {number}")
                continue
            text = canonical_json(result)
            if number in hits:
                out.store_hits += 1
                if key not in cached:
                    out.errors.append(f"spec {number} missed the store")
                elif text != self.stored.get(number):
                    out.errors.append(f"spec {number}: stored payload "
                                      "changed between put and get")
                continue
            out.store_misses += 1
            if key in cached:
                out.errors.append(f"fresh spec {number} hit the store")
            self.stored[number] = text
            record = record_of(SimulationResult.from_dict(result))
            out.instructions += record["instructions"]
            spec = specs[number]
            out.records.append((expect_key(spec.workload, spec.design,
                                           spec.num_instructions,
                                           spec.seed), record))
        return out

    def _request(self, method: str, path: str, body: str = ""
                 ) -> Tuple[int, Dict[str, Any]]:
        """One HTTP request on a new connection (the server closes each)."""
        assert self.server is not None
        connection = http.client.HTTPConnection("127.0.0.1",
                                                self.server.port,
                                                timeout=120)
        try:
            connection.request(method, path, body=body.encode("utf-8"))
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")[1]

    def close(self) -> None:
        if self.loop is not None and self.server is not None:
            asyncio.run_coroutine_threadsafe(self.server.stop(),
                                             self.loop).result()
            asyncio.run_coroutine_threadsafe(
                self.loop.shutdown_default_executor(), self.loop).result()
            self.loop.call_soon_threadsafe(self.loop.stop)
        if self.thread is not None:
            self.thread.join(timeout=30)
        if self.loop is not None:
            self.loop.close()
        if self.service is not None:
            self.service.close()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
        self.loop = self.thread = self.server = self.service = None
        self.store_dir = None
        clear_trace_cache()

    def specs(self) -> List[Tuple[str, str, int, int]]:
        last = self.seed + SERVE_HITS + SERVE_FRESH * SERVE_MAX_OPS
        return [(s.workload, s.design, s.num_instructions, s.seed)
                for s in map(serve_spec, range(self.seed, last))]


def make(name: str, seed: int, scratch: str):
    if name == SweepPressured.name:
        return SweepPressured(seed)
    if name == RunResident.name:
        return RunResident(seed)
    if name == ServeMixed.name:
        return ServeMixed(seed, scratch)
    raise ValueError(name)


WORKLOADS = (SweepPressured.name, RunResident.name, ServeMixed.name)

