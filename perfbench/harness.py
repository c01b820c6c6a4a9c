"""Timing loop, output checks, coverage preconditions and metrics."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import ops
import spans

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

Run = Tuple[List[float], List[ops.Op]]


def info(message: str) -> None:
    print(message, flush=True)


def timed_ops(workload, first: int, seconds: float, max_ops: int,
              min_ops: int = 0) -> Run:
    """Ops from index ``first`` until ``seconds`` have passed and at least
    ``min_ops`` ran, ending on a whole rotation; at most ``max_ops``."""
    latencies: List[float] = []
    outcomes: List[ops.Op] = []
    begin = time.perf_counter()
    while len(latencies) < max_ops:
        start = time.perf_counter()
        outcome = workload.op(first + len(latencies))
        end = time.perf_counter()
        latencies.append(end - start)
        outcomes.append(outcome)
        done = len(latencies)
        if done >= min_ops and done % workload.rotation == 0 and \
                end - begin >= seconds:
            break
    return latencies, outcomes


def setup_repeated(workload, repeats: int) -> float:
    """Median time of ``repeats`` full set-ups; the last one stays up."""
    times = []
    for repeat in range(repeats):
        if repeat:
            workload.close()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    info(f"setup_s samples: {' '.join(f'{t:.4f}' for t in times)}")
    return statistics.median(times)


def tail(latencies: List[float]) -> Optional[Tuple[float, float, int]]:
    """(latency, percentile, samples) at the highest percentile that still
    has ten samples beyond it; None when that is not above the median."""
    ordered = sorted(latencies)
    count = len(ordered)
    index = count - 11
    if index <= (count - 1) / 2:
        return None
    return ordered[index], 100.0 * (index + 1) / count, count


def check(outcomes: List[ops.Op], expected: Dict[str, Any]
          ) -> Tuple[int, List[str]]:
    """Number of failed ops, with a message for each."""
    failed = 0
    messages: List[str] = []
    for number, outcome in enumerate(outcomes):
        errors = list(outcome.errors)
        for key, record in outcome.records:
            want = expected.get(key)
            got = ops.counters_of(record)
            if want is None:
                errors.append(f"{key}: no expected counters recorded")
            elif got != want:
                errors.append(f"{key}: counters {got} != expected {want}")
        if errors:
            failed += 1
            messages.append(f"op {number}: " + "; ".join(errors))
    return failed, messages


def coverage(workload, outcomes: List[ops.Op],
             expected: Dict[str, Any]) -> List[str]:
    """Reasons to refuse the run: the workload stopped stressing the layer
    it was chosen for."""
    problems: List[str] = []
    records = [(key, record) for outcome in outcomes
               for key, record in outcome.records]
    if workload.name == ops.SweepPressured.name:
        for kind in spans.COMPACTION_KINDS:
            if not any(record["fill_kind_counts"].get(kind, 0)
                       for _key, record in records
                       if record["config_label"] == kind):
                problems.append(f"design {kind} made no {kind} fills")
        for key, record in records:
            want = expected.get(key)
            if want is None:
                continue
            for kind in spans.COMPACTION_KINDS:
                if want["fill_kind_counts"].get(kind, 0) and \
                        not record["fill_kind_counts"].get(kind, 0):
                    problems.append(f"{key}: zero {kind} fills where the "
                                    "expected counters have them")
    if workload.name == ops.RunResident.name:
        for key, record in records:
            rate = record["uop_cache_hits"] / record["uop_cache_lookups"]
            if rate < ops.RESIDENT_MIN_HIT_RATE:
                problems.append(f"{key}: uop-cache hit rate {rate:.4f} "
                                f"< {ops.RESIDENT_MIN_HIT_RATE}")
            if record["uop_cache_fills"] > ops.RESIDENT_MAX_FILLS:
                problems.append(f"{key}: {record['uop_cache_fills']} "
                                f"uop-cache fills > "
                                f"{ops.RESIDENT_MAX_FILLS}")
    return problems


def kinst_per_s(run: Run) -> float:
    """Simulated kilo-instructions completed per timed second."""
    instructions = sum(outcome.instructions for outcome in run[1])
    return instructions / 1000.0 / sum(run[0])


def run(args, root: str) -> int:
    if args.workload not in ops.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(ops.WORKLOADS)}", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "expected.json"), encoding="utf-8") as f:
        expected = json.load(f)["counters"]
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workload = ops.make(args.workload, args.seed, scratch)
    max_ops = workload.max_ops

    tracer = None
    traced: Run = ([], [])
    health: Dict[str, Any] = {}
    try:
        if args.trace:
            # The traced run reports no setup_s, so one set-up will do;
            # it splits its time between an untraced and a traced pass
            # over the same number of ops.
            setup_repeated(workload, 1)
            untraced = timed_ops(workload, 0, args.seconds / 2,
                                 max_ops // 2)
            tracer = spans.Tracer()
            uninstall = spans.install(tracer)
            workload.op = tracer.wrap("op", workload.op, keep=True)
            if isinstance(workload, ops.ServeMixed):
                workload.request = tracer.wrap(
                    "service.roundtrip", workload.request, keep=True)
            try:
                traced = timed_ops(workload, len(untraced[0]), 0.0,
                                   len(untraced[0]),
                                   min_ops=len(untraced[0]))
            finally:
                uninstall()
                workload.op = workload.op.__wrapped__
                if isinstance(workload, ops.ServeMixed):
                    workload.request = workload.request.__wrapped__
        else:
            setup_s = setup_repeated(workload, SETUP_REPEATS)
            untraced = timed_ops(workload, 0, args.seconds, max_ops)
        if isinstance(workload, ops.ServeMixed):
            health = workload.health()
    finally:
        workload.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcomes = untraced[1] + traced[1]
    failed, messages = check(outcomes, expected)
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    problems = coverage(workload, outcomes, expected)
    if problems:
        for problem in problems:
            print(f"COVERAGE {problem}", file=sys.stderr)
        print(f"error: refusing to record {workload.name}: it no longer "
              "stresses the layer it was chosen for", file=sys.stderr)
        return 3

    if args.trace:
        metrics = trace_metrics(tracer, workload, untraced, traced, health)
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        path = os.path.join(scratch, f"spans-{args.workload}-"
                            f"{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "metrics": metrics})
        info(f"spans written to {os.path.relpath(path, root)}")
    else:
        latencies = untraced[0]
        metrics = {"setup_s": setup_s, "kinst_per_s": kinst_per_s(untraced),
                   "op_p50_s": statistics.median(latencies),
                   "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "kinst_per_s": "kinst/s", "op_p50_s": "s",
                 "peak_rss_mb": "MB"}
        info(f"{workload.name} seed {args.seed}: {len(latencies)} ops in "
             f"{sum(latencies):.2f} s timed")
        for name, value in metrics.items():
            info(f"  {name:12s} {value:.6g} {units[name]}")
        at_tail = tail(latencies)
        if at_tail is None:
            info(f"  op_tail_s    not reported: {len(latencies)} ops leave "
                 "no percentile above the median with ten samples beyond")
        else:
            value, percentile, count = at_tail
            info(f"  op_tail_s    {value:.6g} s at p{percentile:.1f} of "
                 f"{count} ops")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


def trace_metrics(tracer: spans.Tracer, workload, untraced: Run,
                  traced: Run, health: Dict[str, Any]) -> Dict[str, float]:
    op_wall = sum(traced[0])
    metrics = spans.layer_metrics(tracer, op_wall)
    metrics.update(spans.shape_metrics(
        [record for outcome in traced[1]
         for _key, record in outcome.records]))
    hits = sum(outcome.store_hits for outcome in traced[1])
    misses = sum(outcome.store_misses for outcome in traced[1])
    metrics.update({
        "service.store_hits": hits,
        "service.store_misses": misses,
        "service.hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "service.worker_restarts":
            health.get("events", {}).get("worker_restart", 0),
        "trace.ops": len(traced[0]),
        "trace.op_wall_s": op_wall,
        "trace.kinst_per_s_untraced": kinst_per_s(untraced),
        "trace.kinst_per_s_traced": kinst_per_s(traced),
    })
    metrics["trace.overhead_pct"] = 100.0 * (
        metrics["trace.kinst_per_s_untraced"] /
        metrics["trace.kinst_per_s_traced"] - 1.0)
    info(f"{workload.name}: {len(traced[0])} traced ops ({op_wall:.2f} s) "
         f"after {len(untraced[0])} untraced ops")
    for name, (unit, _better) in spans.PER_LAYER.items():
        if name.endswith("_share"):
            continue
        line = f"  {name:32s} {metrics[name]:12.6g} {unit:9s}"
        share = metrics.get(name[:-2] + "_share")
        if share is not None:
            line += f" {share:6.2f}% of op wall"
        if name in spans.MOVES:
            line += f"  moves {spans.MOVES[name]}"
        info(line)
    return metrics
