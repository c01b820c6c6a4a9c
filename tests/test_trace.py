"""Unit tests for trace representation and validation."""

import hashlib

import pytest

from repro.common.errors import WorkloadError
from repro.core.fastpath import trace_view
from repro.workloads.engine import create_engine
from repro.isa.instruction import BranchKind, InstClass, X86Instruction
from repro.workloads.program import BasicBlock, Function, Program
from repro.workloads.trace import DynamicInst, Trace
from repro.workloads.tracefile import pack_bytes, unpack_bytes


def build_program():
    """Two instructions and a conditional branch back to the first."""
    a = X86Instruction(address=0x100, length=4, inst_class=InstClass.ALU,
                       uop_count=1)
    b = X86Instruction(address=0x104, length=4, inst_class=InstClass.LOAD,
                       uop_count=1, reads_memory=True)
    br = X86Instruction(address=0x108, length=2, inst_class=InstClass.BRANCH,
                        uop_count=1, branch_kind=BranchKind.CONDITIONAL,
                        branch_target=0x100)
    block = BasicBlock(instructions=[a, b, br])
    return Program([Function(name="f", blocks=[block])])


def records_loop_twice():
    return [
        DynamicInst(pc=0x100, next_pc=0x104, mem_addr=None),
        DynamicInst(pc=0x104, next_pc=0x108, mem_addr=0x8000),
        DynamicInst(pc=0x108, next_pc=0x100, mem_addr=None),   # taken
        DynamicInst(pc=0x100, next_pc=0x104, mem_addr=None),
        DynamicInst(pc=0x104, next_pc=0x108, mem_addr=0x8008),
        DynamicInst(pc=0x108, next_pc=0x10A, mem_addr=None),   # not taken
    ]


class TestDynamicInst:
    def test_taken_detection(self):
        program = build_program()
        branch = program.at(0x108)
        taken = DynamicInst(pc=0x108, next_pc=0x100, mem_addr=None)
        fallthrough = DynamicInst(pc=0x108, next_pc=0x10A, mem_addr=None)
        assert taken.taken(branch)
        assert not fallthrough.taken(branch)


class TestTrace:
    def test_len_and_iteration(self):
        trace = Trace(build_program(), records_loop_twice())
        assert len(trace) == 6
        assert [r.pc for r in trace][:3] == [0x100, 0x104, 0x108]

    def test_indexing(self):
        trace = Trace(build_program(), records_loop_twice())
        assert trace[2].pc == 0x108

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            Trace(build_program(), [])

    def test_num_dynamic_uops(self):
        trace = Trace(build_program(), records_loop_twice())
        assert trace.num_dynamic_uops == 6

    def test_validate_accepts_good_trace(self):
        Trace(build_program(), records_loop_twice()).validate()

    def test_validate_rejects_nonbranch_divert(self):
        records = [DynamicInst(pc=0x100, next_pc=0x108, mem_addr=None)]
        with pytest.raises(WorkloadError):
            Trace(build_program(), records).validate()

    def test_validate_rejects_mismatched_successor(self):
        records = [
            DynamicInst(pc=0x100, next_pc=0x104, mem_addr=None),
            DynamicInst(pc=0x108, next_pc=0x10A, mem_addr=None),
        ]
        with pytest.raises(WorkloadError):
            Trace(build_program(), records).validate()

    def test_validate_rejects_undecodable_pc(self):
        records = [DynamicInst(pc=0x999, next_pc=0x99D, mem_addr=None)]
        with pytest.raises(WorkloadError):
            Trace(build_program(), records).validate()

    def test_branch_stats(self):
        trace = Trace(build_program(), records_loop_twice())
        stats = trace.branch_stats()
        assert stats.instructions == 6
        assert stats.branches == 2
        assert stats.conditional_branches == 2
        assert stats.taken_branches == 1
        assert stats.branch_density == pytest.approx(2 / 6)


def walked_trace(instructions=3000, seed=11):
    return create_engine("synthetic", workload="bm-cc",
                         params={}).build_trace(instructions, seed)


class TestColumnarTrace:
    """The walker fills the trace's columns directly; the record view,
    the record-built constructor and the packed form must all agree."""

    #: SHA-256 of ``pack_bytes(walked_trace())``: the packed format and
    #: the walk must not move when the in-memory layout does.
    PACKED_SHA256 = (
        "a1c3e64f484dca7f7a8a7e30ee40b91c7dd06ea01582f5747894ee94b0ae5186")

    def test_walker_columns_match_record_built_trace(self):
        walked = walked_trace()
        rebuilt = Trace(walked.program, walked.records, name=walked.name)
        assert rebuilt.pcs == walked.pcs
        assert rebuilt.next_pcs == walked.next_pcs
        assert rebuilt.mem_addrs == walked.mem_addrs
        assert len(rebuilt) == len(walked) == 3000

    def test_records_round_trip(self):
        records = records_loop_twice()
        trace = Trace(build_program(), records)
        assert trace.pcs == [r.pc for r in records]
        assert trace.next_pcs == [r.next_pc for r in records]
        assert trace.mem_addrs == [r.mem_addr for r in records]
        columnar = Trace.from_columns(build_program(), trace.pcs,
                                      trace.next_pcs, trace.mem_addrs)
        assert columnar.records == records
        assert columnar.records is columnar.records   # built once

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(WorkloadError):
            Trace.from_columns(build_program(), [0x100, 0x104], [0x104],
                               [None, None])

    def test_prefix(self):
        walked = walked_trace()
        prefix = walked.prefix(100)
        assert prefix.records == walked.records[:100]
        assert prefix.name == walked.name

    def test_packed_bytes_unchanged(self):
        packed = pack_bytes(walked_trace())
        assert hashlib.sha256(packed).hexdigest() == self.PACKED_SHA256
        unpacked = unpack_bytes(packed)
        assert unpacked.pcs == walked_trace().pcs
        assert pack_bytes(unpacked) == packed

    def test_trace_view_shares_the_columns(self):
        trace = walked_trace()
        view = trace_view(trace, 64, 2)
        assert view.pcs is trace.pcs
        assert view.next_pcs is trace.next_pcs
        assert view.mem_addrs is trace.mem_addrs
        assert trace._records is None     # the fast loop needs no records
