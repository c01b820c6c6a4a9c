"""Dynamic trace representation.

A trace is the resolved execution path of a program: one record per retired
instruction carrying its PC, the *actual* next PC (which encodes taken /
not-taken), and a data address for memory instructions.  Traces are replayed
many times (once per simulated configuration), so they are stored
column-wise — three parallel lists ``pcs``, ``next_pcs`` and ``mem_addrs``
that the fast serve loop's :class:`~repro.core.fastpath.TraceView` shares
without copying — and the trace owns a reference to its static
:class:`~repro.workloads.program.Program`.  The per-record
:class:`DynamicInst` view (:attr:`Trace.records`) is built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from ..common.errors import WorkloadError
from ..isa.instruction import X86Instruction
from .program import Program


@dataclass(frozen=True)
class DynamicInst:
    """One dynamic (retired) instruction."""

    __slots__ = ("pc", "next_pc", "mem_addr")

    pc: int
    next_pc: int
    mem_addr: Optional[int]

    def taken(self, inst: X86Instruction) -> bool:
        """Whether this dynamic instance diverted from sequential flow."""
        return self.next_pc != inst.end_address


class Trace:
    """An immutable dynamic instruction trace bound to its program image.

    ``Trace(program, records)`` builds the columns from a record list (and
    keeps the list as :attr:`records`); :meth:`from_columns` adopts three
    ready columns, and then :attr:`records` is only built if a caller asks
    for it.  The columns are shared, never copied: nothing may mutate them.
    """

    def __init__(self, program: Program, records: Sequence[DynamicInst],
                 name: str = "trace") -> None:
        records = list(records)
        self._init(program, [record.pc for record in records],
                   [record.next_pc for record in records],
                   [record.mem_addr for record in records], name)
        self._records: Optional[List[DynamicInst]] = records

    @classmethod
    def from_columns(cls, program: Program, pcs: List[int],
                     next_pcs: List[int], mem_addrs: List[Optional[int]],
                     name: str = "trace") -> "Trace":
        """A trace over ready columns (adopted, not copied)."""
        trace = cls.__new__(cls)
        trace._init(program, pcs, next_pcs, mem_addrs, name)
        trace._records = None
        return trace

    def _init(self, program: Program, pcs: List[int], next_pcs: List[int],
              mem_addrs: List[Optional[int]], name: str) -> None:
        if not pcs:
            raise WorkloadError("trace must contain at least one record")
        if not len(pcs) == len(next_pcs) == len(mem_addrs):
            raise WorkloadError(
                f"trace columns differ in length: {len(pcs)} pcs, "
                f"{len(next_pcs)} next_pcs, {len(mem_addrs)} mem_addrs")
        self.program = program
        self.pcs = pcs
        self.next_pcs = next_pcs
        self.mem_addrs = mem_addrs
        self.name = name

    @property
    def records(self) -> List[DynamicInst]:
        """The trace as :class:`DynamicInst` records, built on first use."""
        records = self._records
        if records is None:
            records = list(map(DynamicInst, self.pcs, self.next_pcs,
                               self.mem_addrs))
            self._records = records
        return records

    def __len__(self) -> int:
        return len(self.pcs)

    def __iter__(self) -> Iterator[DynamicInst]:
        return iter(self.records)

    def __getitem__(self, index: int) -> DynamicInst:
        return self.records[index]

    def prefix(self, count: int) -> "Trace":
        """The first ``count`` records as a trace of their own."""
        return Trace.from_columns(self.program, self.pcs[:count],
                                  self.next_pcs[:count],
                                  self.mem_addrs[:count], name=self.name)

    @property
    def num_dynamic_uops(self) -> int:
        at = self.program.at
        return sum(at(pc).uop_count for pc in self.pcs)

    def validate(self) -> None:
        """Check every record decodes and control flow is coherent.

        Raises :class:`WorkloadError` on the first inconsistency.  O(n); meant
        for tests and workload development, not the simulation hot path.
        """
        pcs = self.pcs
        next_pcs = self.next_pcs
        total = len(pcs)
        for i, pc in enumerate(pcs):
            next_pc = next_pcs[i]
            inst = self.program.at(pc)  # raises if undecodable
            if next_pc != inst.end_address and not inst.is_branch:
                raise WorkloadError(
                    f"record {i}: non-branch at {pc:#x} changed control flow")
            if inst.is_unconditional_transfer and next_pc == inst.end_address:
                # An unconditional transfer may still "fall through" only if its
                # target happens to equal the next sequential address.
                if inst.branch_target is not None and \
                        inst.branch_target != inst.end_address:
                    raise WorkloadError(
                        f"record {i}: unconditional branch at {pc:#x} "
                        "fell through")
            if i + 1 < total and pcs[i + 1] != next_pc:
                raise WorkloadError(
                    f"record {i}: next_pc {next_pc:#x} does not match "
                    f"following record pc {pcs[i + 1]:#x}")

    def branch_stats(self) -> "TraceBranchStats":
        total = len(self.pcs)
        branches = taken = conditional = 0
        at = self.program.at
        for pc, next_pc in zip(self.pcs, self.next_pcs):
            inst = at(pc)
            if inst.is_branch:
                branches += 1
                if inst.is_conditional_branch:
                    conditional += 1
                if next_pc != inst.end_address:
                    taken += 1
        return TraceBranchStats(
            instructions=total, branches=branches,
            conditional_branches=conditional, taken_branches=taken)


@dataclass(frozen=True)
class TraceBranchStats:
    instructions: int
    branches: int
    conditional_branches: int
    taken_branches: int

    @property
    def branch_density(self) -> float:
        return self.branches / self.instructions if self.instructions else 0.0
