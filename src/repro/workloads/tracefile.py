"""Compact, versioned, CRC-enveloped on-disk trace format (``.uoptrace``).

The gzipped-JSON format in :mod:`repro.workloads.serialization` is
convenient but bulky and silently tolerant: a flipped bit inside a number
still parses.  This module defines the *packed* trace format that
:class:`~repro.workloads.engine.TraceReplayEngine` replays — small enough
to commit, and paranoid enough that every corruption is a loud,
descriptive :class:`~repro.common.errors.WorkloadError`.

Layout (all multi-byte integers little-endian)::

    offset 0   magic      b"UOPTRACE"                       (8 bytes)
    offset 8   version    u16  (FORMAT_VERSION)
    offset 10  nsections  u16  (always 3)
    then, per section:
               tag        u8   (0x01 META / 0x02 PROG / 0x03 RECS)
               length     varint  (payload bytes)
               payload    <length bytes>
               crc32      u32  (of the payload bytes)

Sections, in file order:

- **META** — canonical JSON (:func:`repro.common.integrity.canonical_json`):
  trace name, record count, and free-form provenance (the engine, workload,
  seeds and instruction count that produced the trace) so ``repro
  trace-info`` can say where a file came from.
- **PROG** — the program image + branch behaviours as zlib-compressed
  canonical JSON (the same dict shape ``serialization.save_workload``
  writes), because replay must decode every PC the records visit.
- **RECS** — the dynamic records, delta-encoded.  Consecutive records obey
  ``pc[i+1] == next_pc[i]`` (a validated trace invariant), so only the
  first PC is stored absolutely; each record then contributes one zigzag
  varint ``next_pc - pc``, which is the instruction length (1 byte) for
  every straight-line instruction.  Memory addresses are a sparse side
  channel: varint count, then (record-index delta, zigzag address delta)
  pairs.

Integrity: the magic/version reject foreign files, each section CRC turns
bit rot into a named error, and decoding checks for truncation and
trailing garbage.  ``pack_bytes`` is canonical — equal traces produce
byte-identical files — so round-trip tests can assert bit-equality.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..common.errors import WorkloadError
from ..common.integrity import canonical_json
from .generator import Workload, WorkloadProfile
from .serialization import _workload_from_dict, _workload_to_dict
from .trace import Trace

MAGIC = b"UOPTRACE"
FORMAT_VERSION = 1

_TAG_META = 0x01
_TAG_PROG = 0x02
_TAG_RECS = 0x03
_TAG_NAMES = {_TAG_META: "META", _TAG_PROG: "PROG", _TAG_RECS: "RECS"}

PathLike = Union[str, Path]


# ------------------------------------------------------------ varint codec

def _write_varint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint."""
    if value < 0:
        raise WorkloadError(f"cannot varint-encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= 0 else (-value << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


class _Reader:
    """Bounds-checked cursor over a byte buffer; truncation is an error."""

    def __init__(self, data: bytes, context: str) -> None:
        self._data = data
        self._pos = 0
        self._context = context

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)

    def take(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise WorkloadError(
                f"truncated trace file: {self._context} ends at byte "
                f"{len(self._data)} but {count} more byte(s) were expected "
                f"at offset {self._pos}")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def varint(self) -> int:
        value = 0
        shift = 0
        while True:
            byte = self.take(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 70:
                raise WorkloadError(
                    f"malformed varint in {self._context}: "
                    "more than 10 continuation bytes")

    def svarint(self) -> int:
        return _unzigzag(self.varint())


# ------------------------------------------------------------------- pack

def _encode_records(trace: Trace) -> bytes:
    out = bytearray()
    pcs = trace.pcs
    _write_varint(out, len(pcs))
    _write_varint(out, pcs[0])
    for pc, next_pc in zip(pcs, trace.next_pcs):
        _write_varint(out, _zigzag(next_pc - pc))
    mems = [(index, addr)
            for index, addr in enumerate(trace.mem_addrs)
            if addr is not None]
    _write_varint(out, len(mems))
    last_index = 0
    last_addr = 0
    for index, addr in mems:
        _write_varint(out, index - last_index)
        _write_varint(out, _zigzag(addr - last_addr))
        last_index = index
        last_addr = addr
    return bytes(out)


def _decode_records(payload: bytes, declared: int
                    ) -> Tuple[List[int], List[int], List[Optional[int]]]:
    """The RECS payload as (pcs, next_pcs, mem_addrs) trace columns."""
    reader = _Reader(payload, "RECS section")
    count = reader.varint()
    if count != declared:
        raise WorkloadError(
            f"record count mismatch: META declares {declared} record(s) "
            f"but RECS encodes {count}")
    if count == 0:
        raise WorkloadError("packed trace contains no records")
    pcs = [reader.varint()]
    next_pcs: List[int] = []
    for _ in range(count):
        next_pc = pcs[-1] + reader.svarint()
        next_pcs.append(next_pc)
        pcs.append(next_pc)
    mem_addrs: List[Optional[int]] = [None] * count
    mem_count = reader.varint()
    index = 0
    addr = 0
    for position in range(mem_count):
        index += reader.varint()
        addr += reader.svarint()
        if index >= count:
            raise WorkloadError(
                f"memory side channel entry {position} points past the "
                f"last record ({index} >= {count})")
        if position and mem_addrs[index] is not None:
            raise WorkloadError(
                f"memory side channel repeats record index {index}")
        mem_addrs[index] = addr
    if not reader.exhausted:
        raise WorkloadError("trailing garbage after the RECS payload")
    pcs.pop()       # the last next_pc starts no record
    return pcs, next_pcs, mem_addrs


def _section(tag: int, payload: bytes) -> bytes:
    out = bytearray()
    out.append(tag)
    _write_varint(out, len(payload))
    out.extend(payload)
    out.extend(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    return bytes(out)


def pack_bytes(trace: Trace,
               provenance: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialize a trace (with its program image) to packed bytes.

    ``provenance`` is free-form JSON-able metadata recorded in the META
    section (engine name, workload, seeds, ...); it does not affect replay.
    """
    meta: Dict[str, Any] = {
        "name": trace.name,
        "records": len(trace),
    }
    if provenance:
        meta["provenance"] = provenance
    workload = Workload(profile=WorkloadProfile(name=trace.name),
                        program=trace.program, behaviors={})
    program_json = canonical_json(_workload_to_dict(workload))
    out = bytearray()
    out.extend(MAGIC)
    out.extend(struct.pack("<HH", FORMAT_VERSION, 3))
    out.extend(_section(_TAG_META,
                        canonical_json(meta).encode("utf-8")))
    out.extend(_section(_TAG_PROG,
                        zlib.compress(program_json.encode("utf-8"), 9)))
    out.extend(_section(_TAG_RECS, _encode_records(trace)))
    return bytes(out)


def pack_trace(trace: Trace, path: PathLike,
               provenance: Optional[Dict[str, Any]] = None) -> int:
    """Write ``trace`` to ``path`` in packed form; returns bytes written."""
    data = pack_bytes(trace, provenance)
    Path(path).write_bytes(data)
    return len(data)


# ----------------------------------------------------------------- unpack

def _read_sections(data: bytes) -> Dict[int, bytes]:
    if data[:len(MAGIC)] != MAGIC:
        raise WorkloadError(
            "not a packed trace file (bad magic; expected "
            f"{MAGIC!r}, found {bytes(data[:len(MAGIC)])!r})")
    reader = _Reader(data, "trace file header")
    reader.take(len(MAGIC))
    version, nsections = struct.unpack("<HH", reader.take(4))
    if version != FORMAT_VERSION:
        raise WorkloadError(
            f"unsupported trace format version {version} "
            f"(this build reads version {FORMAT_VERSION})")
    sections: Dict[int, bytes] = {}
    for _ in range(nsections):
        tag = reader.take(1)[0]
        name = _TAG_NAMES.get(tag, f"0x{tag:02x}")
        length = reader.varint()
        payload = _Reader(data[reader._pos:], f"{name} section payload") \
            .take(length)
        reader._pos += length
        (crc,) = struct.unpack("<I", reader.take(4))
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise WorkloadError(
                f"CRC mismatch in {name} section (bit rot or torn "
                "write); refusing to unpack")
        if tag in sections:
            raise WorkloadError(f"duplicate {name} section")
        sections[tag] = payload
    if not reader.exhausted:
        raise WorkloadError(
            f"trailing garbage: {len(data) - reader._pos} byte(s) after "
            "the last section")
    for tag in (_TAG_META, _TAG_PROG, _TAG_RECS):
        if tag not in sections:
            raise WorkloadError(f"missing {_TAG_NAMES[tag]} section")
    return sections


def _decode_meta(payload: bytes) -> Dict[str, Any]:
    try:
        meta = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WorkloadError(
            f"META section is not valid JSON: {error}") from error
    if not isinstance(meta, dict) or "name" not in meta \
            or "records" not in meta:
        raise WorkloadError("META section is missing name/records fields")
    if not isinstance(meta["records"], int) or meta["records"] < 1:
        raise WorkloadError(
            f"META declares an invalid record count {meta['records']!r}")
    return meta


def _decode_program(payload: bytes) -> Workload:
    try:
        text = zlib.decompress(payload).decode("utf-8")
        data = json.loads(text)
    except (zlib.error, UnicodeDecodeError,
            json.JSONDecodeError) as error:
        raise WorkloadError(
            f"PROG section failed to decompress/parse: {error}") from error
    try:
        return _workload_from_dict(data)
    except (KeyError, TypeError, ValueError) as error:
        raise WorkloadError(
            f"PROG section holds a malformed program: {error}") from error


def unpack_bytes(data: bytes, validate: bool = True) -> Trace:
    """Decode packed bytes into a :class:`Trace`.

    Every structural problem — bad magic, wrong version, truncation, CRC
    mismatch, incoherent records — raises a descriptive
    :class:`WorkloadError`; nothing unpacks silently.
    """
    sections = _read_sections(data)
    meta = _decode_meta(sections[_TAG_META])
    workload = _decode_program(sections[_TAG_PROG])
    pcs, next_pcs, mem_addrs = _decode_records(sections[_TAG_RECS],
                                               meta["records"])
    trace = Trace.from_columns(workload.program, pcs, next_pcs, mem_addrs,
                               name=meta["name"])
    if validate:
        try:
            trace.validate()
        except WorkloadError as error:
            raise WorkloadError(
                f"packed trace is internally inconsistent: {error}") \
                from error
    return trace


def unpack_trace(path: PathLike, validate: bool = True) -> Trace:
    """Read and decode a packed trace file."""
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"no such trace file: {path}")
    try:
        data = path.read_bytes()
    except OSError as error:
        raise WorkloadError(f"cannot read {path}: {error}") from error
    try:
        return unpack_bytes(data, validate=validate)
    except WorkloadError as error:
        raise WorkloadError(f"{path}: {error}") from error


def trace_info(path: PathLike) -> Dict[str, Any]:
    """Integrity-check a packed file and summarize it (for ``trace-info``).

    Returns a JSON-able dict: name, record count, provenance, program
    shape, and per-section byte sizes.  Raises :class:`WorkloadError` on
    any integrity failure, exactly as :func:`unpack_trace` would.
    """
    path = Path(path)
    trace = unpack_trace(path)
    data = path.read_bytes()
    sections = _read_sections(data)
    meta = _decode_meta(sections[_TAG_META])
    stats = trace.branch_stats()
    return {
        "path": str(path),
        "file_bytes": len(data),
        "version": FORMAT_VERSION,
        "name": meta["name"],
        "records": meta["records"],
        "provenance": meta.get("provenance", {}),
        "program": {
            "functions": len(trace.program.functions),
            "static_instructions": trace.program.num_instructions,
            "static_uops": trace.program.num_static_uops,
            "code_bytes": trace.program.code_bytes,
        },
        "dynamic": {
            "branches": stats.branches,
            "taken_branches": stats.taken_branches,
            "branch_density": round(stats.branch_density, 4),
            "uops": trace.num_dynamic_uops,
        },
        "sections": {_TAG_NAMES[tag]: len(payload)
                     for tag, payload in sorted(sections.items())},
    }
