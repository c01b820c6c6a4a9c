"""Workload and trace (de)serialization.

Traces are expensive to generate and experiments want bit-identical inputs
across machines and sessions, so both the static program image (with its
branch behaviours) and dynamic traces can be saved to gzipped JSON:

- :func:`save_workload` / :func:`load_workload` — the program image and
  behaviours (the equivalent of shipping a binary);
- :func:`save_trace` / :func:`load_trace` — a resolved dynamic trace bound
  to its program (the equivalent of shipping a SimNow trace).

The format is versioned; loading a file written by an incompatible version
raises :class:`~repro.common.errors.WorkloadError`.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Dict, Union

from ..common.errors import WorkloadError
from ..isa.instruction import BranchKind, InstClass, X86Instruction
from .generator import (
    BiasedBehavior,
    IndirectBehavior,
    LoopBehavior,
    Workload,
    WorkloadProfile,
)
from .program import BasicBlock, Function, Program
from .trace import Trace

FORMAT_VERSION = 1

PathLike = Union[str, Path]


def _inst_to_dict(inst: X86Instruction) -> Dict:
    return {
        "a": inst.address,
        "l": inst.length,
        "c": inst.inst_class.value,
        "u": inst.uop_count,
        "i": inst.imm_disp_count,
        "bk": inst.branch_kind.value,
        "bt": inst.branch_target,
        "m": inst.is_microcoded,
        "r": inst.reads_memory,
        "w": inst.writes_memory,
    }


def _inst_from_dict(data: Dict) -> X86Instruction:
    return X86Instruction(
        address=data["a"],
        length=data["l"],
        inst_class=InstClass(data["c"]),
        uop_count=data["u"],
        imm_disp_count=data["i"],
        branch_kind=BranchKind(data["bk"]),
        branch_target=data["bt"],
        is_microcoded=data["m"],
        reads_memory=data["r"],
        writes_memory=data["w"],
    )


def _behavior_to_dict(behavior) -> Dict:
    if isinstance(behavior, LoopBehavior):
        return {"kind": "loop", "trip": behavior.trip_count}
    if isinstance(behavior, BiasedBehavior):
        return {"kind": "biased", "p": behavior.taken_probability}
    if isinstance(behavior, IndirectBehavior):
        return {"kind": "indirect", "targets": list(behavior.targets),
                "weights": list(behavior.weights)}
    raise WorkloadError(f"unknown behavior type {type(behavior).__name__}")


def _behavior_from_dict(data: Dict):
    kind = data["kind"]
    if kind == "loop":
        return LoopBehavior(trip_count=data["trip"])
    if kind == "biased":
        return BiasedBehavior(taken_probability=data["p"])
    if kind == "indirect":
        return IndirectBehavior(targets=tuple(data["targets"]),
                                weights=tuple(data["weights"]))
    raise WorkloadError(f"unknown behavior kind {kind!r}")


def _workload_to_dict(workload: Workload) -> Dict:
    program = workload.program
    return {
        "profile_name": workload.profile.name,
        "entry": program.entry,
        "functions": [
            {"name": function.name,
             "blocks": [[_inst_to_dict(inst) for inst in block.instructions]
                        for block in function.blocks]}
            for function in program.functions],
        "behaviors": {str(pc): _behavior_to_dict(behavior)
                      for pc, behavior in workload.behaviors.items()},
    }


def _workload_from_dict(data: Dict) -> Workload:
    functions = [
        Function(name=fn["name"],
                 blocks=[BasicBlock(
                     instructions=[_inst_from_dict(i) for i in block])
                     for block in fn["blocks"]])
        for fn in data["functions"]]
    program = Program(functions, entry=data["entry"])
    behaviors = {int(pc): _behavior_from_dict(b)
                 for pc, b in data["behaviors"].items()}
    profile = WorkloadProfile(name=data["profile_name"])
    return Workload(profile=profile, program=program, behaviors=behaviors)


def _write(path: PathLike, payload: Dict) -> None:
    payload["version"] = FORMAT_VERSION
    with gzip.open(Path(path), "wt", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))


def _read(path: PathLike, expected_kind: str) -> Dict:
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"no such file: {path}")
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise WorkloadError(f"cannot read {path}: {error}") from error
    if payload.get("version") != FORMAT_VERSION:
        raise WorkloadError(
            f"{path}: format version {payload.get('version')} "
            f"(expected {FORMAT_VERSION})")
    if payload.get("kind") != expected_kind:
        raise WorkloadError(
            f"{path}: contains a {payload.get('kind')!r}, "
            f"expected {expected_kind!r}")
    return payload


def save_workload(workload: Workload, path: PathLike) -> None:
    """Write a program image + behaviours to a gzipped JSON file."""
    _write(path, {"kind": "workload",
                  "workload": _workload_to_dict(workload)})


def load_workload(path: PathLike) -> Workload:
    """Load a program image + behaviours.

    The profile on the loaded workload carries only the original name (the
    generation parameters are not needed to replay: the image is final).
    """
    payload = _read(path, "workload")
    return _workload_from_dict(payload["workload"])


def save_trace(trace: Trace, path: PathLike) -> None:
    """Write a resolved trace (with its program image) to a file."""
    _write(path, {
        "kind": "trace",
        "name": trace.name,
        "workload": _workload_to_dict(
            Workload(profile=WorkloadProfile(name=trace.name),
                     program=trace.program, behaviors={})),
        "pcs": list(trace.pcs),
        "next_pcs": list(trace.next_pcs),
        "mems": [-1 if addr is None else addr for addr in trace.mem_addrs],
    })


def load_trace(path: PathLike) -> Trace:
    """Load a trace previously written by :func:`save_trace`."""
    payload = _read(path, "trace")
    workload = _workload_from_dict(payload["workload"])
    pcs = payload["pcs"]
    next_pcs = payload["next_pcs"]
    mems = payload["mems"]
    if not (len(pcs) == len(next_pcs) == len(mems)):
        raise WorkloadError("corrupt trace: column lengths differ")
    return Trace.from_columns(
        workload.program, pcs, next_pcs,
        [None if mem < 0 else mem for mem in mems], name=payload["name"])
