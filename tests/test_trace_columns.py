"""The column contract of a trace chunk.

A :class:`~repro.cpu.trace.TraceChunk` holds its five columns as typed
buffers: ``kinds`` a ``bytearray`` of kind codes, ``blocking`` a
``bytearray`` of 0/1, and ``addresses``, ``values`` and ``args``
``array('q')``. Every producer gives that layout, a synthesized chunk
survives the record codec byte for byte, a machine's trace set costs
about a ``.wtr`` record per op, and the cyclic collector finds nothing
to walk inside it.
"""

import gc
import sys
from array import array

import pytest

from repro.cpu.trace import (
    KIND_NAMES,
    OP_BARRIER,
    OP_LOAD,
    OP_STORE,
    OP_THINK,
    TraceChunk,
    TraceOp,
)
from repro.traces.format import (
    RECORD_BYTES,
    TraceCorruptionError,
    chunk_columns,
    chunk_to_records,
    pack_records,
    records_to_chunk,
)
from repro.workloads import APP_PROFILES
from repro.workloads.generator import build_core_trace, build_traces

_OPS = [
    TraceOp(OP_THINK, arg=7),
    TraceOp(OP_LOAD, address=0x40, blocking=False),
    TraceOp(OP_STORE, address=-(2**63), value=2**63 - 1),
    TraceOp(OP_BARRIER, arg=3),
]


def _columns(chunk):
    return (chunk.kinds, chunk.addresses, chunk.values, chunk.args, chunk.blocking)


def _layout(chunk):
    """Each column's type, typecode and buffer bytes."""
    return [
        (type(column), getattr(column, "typecode", None), memoryview(column).tobytes())
        for column in _columns(chunk)
    ]


def _appended():
    chunk = TraceChunk()
    for op in _OPS:
        chunk.append(op)
    return chunk


_PRODUCERS = {
    "empty": TraceChunk,
    "append": _appended,
    "from_ops": lambda: TraceChunk.from_ops(_OPS),
    "slice": lambda: TraceChunk.from_ops(_OPS).slice(1, 3),
    "build_core_trace": lambda: build_core_trace(APP_PROFILES["radiosity"], 3, 16, 200, 1),
    "records_to_chunk": lambda: records_to_chunk(
        chunk_to_records(TraceChunk.from_ops(_OPS))
    ),
}


@pytest.mark.parametrize("producer", sorted(_PRODUCERS))
def test_every_producer_gives_the_typed_columns(producer):
    chunk = _PRODUCERS[producer]()
    kinds, addresses, values, args, blocking = _columns(chunk)
    assert type(kinds) is bytearray and type(blocking) is bytearray
    for column in (addresses, values, args):
        assert type(column) is array and column.typecode == "q"
    assert len({len(column) for column in _columns(chunk)}) == 1
    assert set(kinds) <= set(range(len(KIND_NAMES)))
    assert set(blocking) <= {0, 1}


def test_op_views_keep_names_and_bools():
    chunk = TraceChunk.from_ops(_OPS)
    assert [(op.kind, op.address, op.value, op.arg, op.blocking) for op in chunk] == [
        (op.kind, op.address, op.value, op.arg, op.blocking) for op in _OPS
    ]
    assert all(type(op.blocking) is bool for op in chunk)


def test_synthesized_chunk_survives_the_record_codec():
    chunk = build_core_trace(APP_PROFILES["radiosity"], 5, 16, 400, 2)
    back = records_to_chunk(pack_records(*chunk_columns(chunk)).tobytes())
    assert _layout(back) == _layout(chunk)


def test_a_nonzero_blocking_byte_decodes_as_one():
    raw = bytearray(chunk_to_records(TraceChunk.from_ops([TraceOp(OP_LOAD)])))
    raw[1] = 7  # the blocking field of the only record
    assert list(records_to_chunk(bytes(raw)).blocking) == [1]


def test_a_machine_trace_set_costs_about_a_record_per_op():
    """64-core blackscholes at 1,600 memops: at most 27 bytes per op,
    counted from the columns' allocated sizes (a ``.wtr`` record is 26),
    and nothing in a column for the cyclic collector to walk."""
    traces = build_traces(APP_PROFILES["blackscholes"], 64, 1600, 0)
    ops = sum(len(chunk) for chunk in traces)
    columns = [column for chunk in traces for column in _columns(chunk)]
    assert ops > 200_000
    assert sum(sys.getsizeof(column) for column in columns) <= 27 * ops
    # The bytearrays are untracked. CPython (3.10 on) tracks every
    # array.array, a heap type, but one refers to nothing but its type,
    # so a full collection visits three objects per chunk, not one per op.
    assert not any(gc.is_tracked(chunk.kinds) for chunk in traces)
    assert not any(gc.is_tracked(chunk.blocking) for chunk in traces)
    assert all(gc.get_referents(column) in ([], [array]) for column in columns)


@pytest.mark.parametrize("code", [len(KIND_NAMES), 250, 255])
def test_records_to_chunk_rejects_an_unknown_kind_code(code):
    raw = bytearray(chunk_to_records(TraceChunk.from_ops(_OPS)))
    raw[2 * RECORD_BYTES] = code  # the kind field of the third record
    with pytest.raises(TraceCorruptionError):
        records_to_chunk(bytes(raw))
