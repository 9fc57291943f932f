"""Canonical trace-file format: round-trip, integrity, and converters.

The hypothesis property is the core contract: *any* per-core op stream
written through :class:`TraceWriter` comes back from
:class:`TraceReader` column-for-column identical — kinds re-interned,
chunk boundaries invisible to the consumer. The corruption tests lock
the failure side: a truncated file or a flipped payload byte must raise
:class:`TraceCorruptionError`/:class:`TraceFormatError`, never return
wrong records.
"""

from __future__ import annotations

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.traces.format as trace_format
from repro.cpu.trace import (
    KIND_CODES,
    OP_BARRIER,
    OP_LOAD,
    OP_RMW,
    OP_STORE,
    OP_THINK,
    TraceChunk,
    TraceOp,
)
from repro.traces.format import (
    MAGIC,
    RECORD_BYTES,
    TraceCorruptionError,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    available_codec,
    chunk_columns,
    chunk_to_records,
    records_to_chunk,
    trace_info,
    validate_trace,
)
from repro.traces.record import convert_csv, record_app_trace

KINDS = (OP_THINK, OP_LOAD, OP_STORE, OP_RMW, OP_BARRIER)

#: One op: (kind, address, value, arg, blocking). Bounds match the
#: signed-64-bit record fields.
op_strategy = st.tuples(
    st.sampled_from(KINDS),
    st.integers(min_value=0, max_value=2**62),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.integers(min_value=0, max_value=2**62),
    st.booleans(),
)

streams_strategy = st.lists(  # one list of ops per core
    st.lists(op_strategy, max_size=60), min_size=1, max_size=4
)


def _write_streams(path, streams, chunk_records=16, codec=None):
    with TraceWriter(
        path, num_cores=len(streams), chunk_records=chunk_records, codec=codec
    ) as writer:
        for core, ops in enumerate(streams):
            for kind, address, value, arg, blocking in ops:
                writer.append_op(core, kind, address, value, arg, blocking)
    return writer


def _read_streams(path):
    streams = []
    with TraceReader(path) as reader:
        for core in range(reader.num_cores):
            ops = []
            for chunk in reader.iter_core(core):
                for op in chunk:
                    ops.append((op.kind, op.address, op.value, op.arg, op.blocking))
            streams.append(ops)
    return streams


# ----------------------------------------------------------- round trips


@settings(max_examples=40, deadline=None)
@given(streams=streams_strategy, chunk_records=st.integers(1, 32))
def test_roundtrip_property(tmp_path_factory, streams, chunk_records):
    """Write → read returns every op of every core, in order, exactly."""
    path = tmp_path_factory.mktemp("wtr") / "trace.wtr"
    writer = _write_streams(path, streams, chunk_records=chunk_records)
    assert writer.trace_id  # content digest populated on close
    assert _read_streams(path) == streams


def test_roundtrip_reinterns_kinds(tmp_path):
    """Round-tripped kinds are their codes, and an op view's kind is the
    module constant (pointer-comparable)."""
    path = tmp_path / "t.wtr"
    _write_streams(path, [[(OP_LOAD, 64, 0, 0, True), (OP_BARRIER, 0, 0, 0, True)]])
    with TraceReader(path) as reader:
        chunk = reader.read_chunk(0, 0)
    assert list(chunk.kinds) == [KIND_CODES[OP_LOAD], KIND_CODES[OP_BARRIER]]
    assert chunk.op(0).kind is OP_LOAD
    assert chunk.op(1).kind is OP_BARRIER


def test_record_codec_rejects_ragged_payload():
    with pytest.raises(TraceCorruptionError):
        records_to_chunk(b"\x00" * (RECORD_BYTES + 1))


def test_record_codec_rejects_unknown_kind():
    chunk = TraceChunk.from_ops([TraceOp(OP_LOAD)])
    raw = bytearray(chunk_to_records(chunk))
    raw[0] = 250  # kind code far outside the table
    with pytest.raises(TraceCorruptionError):
        records_to_chunk(bytes(raw))


def test_explicit_zlib_codec_roundtrips(tmp_path):
    path = tmp_path / "t.wtr"
    streams = [[(OP_STORE, 128 * i, i, 0, True) for i in range(50)]]
    _write_streams(path, streams, codec="zlib")
    assert _read_streams(path) == streams
    assert trace_info(path)["codec"] == "zlib"


def test_available_codec_is_known():
    assert available_codec() in ("zstd", "zlib")


# --------------------------------------------------------- index metadata


def test_index_chunking_and_barrier_counts(tmp_path):
    path = tmp_path / "t.wtr"
    ops = []
    for i in range(10):
        ops.append((OP_LOAD, 64 * i, 0, 0, True))
        ops.append((OP_BARRIER, 0, 0, 0, True))
    _write_streams(path, [ops], chunk_records=4)  # 20 records -> 5 chunks
    with TraceReader(path) as reader:
        assert reader.num_chunks(0) == 5
        assert [reader.chunk_length(0, i) for i in range(5)] == [4] * 5
        assert reader.barrier_counts(0) == [2, 4, 6, 8, 10]
        assert reader.total_records == 20
        with pytest.raises(TraceFormatError):
            reader.chunk_length(0, 5)
        with pytest.raises(TraceFormatError):
            reader.read_chunk(1, 0)


def test_trace_info_and_validate(tmp_path):
    path = tmp_path / "t.wtr"
    info = record_app_trace(path, "radix", 4, 120, trace_seed=3, chunk_records=32)
    assert info["app"] == "radix"
    assert info["num_cores"] == 4
    assert info["records"] == sum(info["records_per_core"])
    assert info["trace_id"]
    assert info["metadata"]["memops_per_core"] == 120
    assert info["compression_ratio"] > 0
    report = validate_trace(path)
    assert report["ok"] is True
    assert report["records"] == info["records"]
    assert report["trace_id"] == info["trace_id"]


def test_trace_id_is_content_addressed(tmp_path):
    """Same stream → same id regardless of path; different stream differs."""
    streams = [[(OP_LOAD, 64, 0, 0, True)], [(OP_STORE, 128, 1, 0, True)]]
    a = _write_streams(tmp_path / "a.wtr", streams)
    b = _write_streams(tmp_path / "b.wtr", streams)
    assert a.trace_id == b.trace_id
    c = _write_streams(tmp_path / "c.wtr", list(reversed(streams)))
    assert c.trace_id != a.trace_id


# ------------------------------------------------------------- corruption


def _record_small(path):
    record_app_trace(path, "radix", 2, 80, trace_seed=1, chunk_records=16)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "t.wtr"
    _record_small(path)
    data = path.read_bytes()
    for keep in (len(data) - 1, len(data) // 2, 10):
        clipped = tmp_path / f"clip{keep}.wtr"
        clipped.write_bytes(data[:keep])
        with pytest.raises(TraceFormatError):
            with TraceReader(clipped) as reader:
                validate_trace(clipped)


def test_corrupt_payload_byte_rejected(tmp_path):
    path = tmp_path / "t.wtr"
    _record_small(path)
    data = bytearray(path.read_bytes())
    # Flip a byte inside the first chunk's compressed payload (the chunk
    # frames start right after MAGIC + header; corrupt well past that).
    header_len = struct.unpack("<I", bytes(data[len(MAGIC):len(MAGIC) + 4]))[0]
    target = len(MAGIC) + 4 + header_len + 40
    data[target] ^= 0xFF
    bad = tmp_path / "bad.wtr"
    bad.write_bytes(bytes(data))
    with pytest.raises(TraceCorruptionError):
        validate_trace(bad)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "not-a-trace.wtr"
    path.write_bytes(b"definitely not a trace file" * 4)
    with pytest.raises(TraceFormatError):
        TraceReader(path)


# ----------------------------------------------------------------- writer


def test_writer_is_atomic_on_abort(tmp_path):
    path = tmp_path / "t.wtr"
    writer = TraceWriter(path, num_cores=1)
    writer.append_op(0, OP_LOAD, 64)
    writer.abort()
    assert not path.exists()
    assert not list(tmp_path.iterdir())  # tmp file cleaned up too


def test_writer_rejects_bad_input(tmp_path):
    writer = TraceWriter(tmp_path / "t.wtr", num_cores=2)
    try:
        with pytest.raises(ValueError):
            writer.append_op(2, OP_LOAD)
        with pytest.raises(TraceFormatError):
            writer.append_op(0, "teleport")
    finally:
        writer.abort()
    with pytest.raises(ValueError):
        TraceWriter(tmp_path / "u.wtr", num_cores=0)
    with pytest.raises(ValueError):
        TraceWriter(tmp_path / "v.wtr", num_cores=1, chunk_records=0)


# -------------------------------------------------------------- converter


def test_convert_csv_roundtrip(tmp_path):
    src = tmp_path / "ops.csv"
    src.write_text(
        "# comment then ops\n"
        "0,load,0x40\n"
        "0,store,64,7,0,1\n"
        "1,think,0,0,12\n"
        "0,barrier\n"
        "1,barrier\n"
    )
    out = tmp_path / "ops.wtr"
    info = convert_csv(src, out, app="imported-test")
    assert info["num_cores"] == 2
    assert info["records"] == 5
    assert info["app"] == "imported-test"
    streams = _read_streams(out)
    assert streams[0] == [
        (OP_LOAD, 0x40, 0, 0, True),
        (OP_STORE, 64, 7, 0, True),
        (OP_BARRIER, 0, 0, 0, True),
    ]
    assert streams[1] == [
        (OP_THINK, 0, 0, 12, True),
        (OP_BARRIER, 0, 0, 0, True),
    ]


def test_convert_csv_rejects_bad_rows(tmp_path):
    out = tmp_path / "out.wtr"
    bad_kind = tmp_path / "k.csv"
    bad_kind.write_text("0,teleport,64\n")
    with pytest.raises(TraceFormatError):
        convert_csv(bad_kind, out)
    bad_int = tmp_path / "i.csv"
    bad_int.write_text("0,load,sixty-four\n")
    with pytest.raises(TraceFormatError):
        convert_csv(bad_int, out)
    assert not out.exists()  # converter aborts, no partial file


# ------------------------------------------------------------ writer errors


def _broken_compress(codec, data):
    raise RuntimeError("compressor failed")


def _broken_fsync(fd):
    raise OSError(28, "No space left on device")


class TestWriterErrors:
    """A writer that fails, in its appends or in its close, raises the
    error and leaves neither the final file nor its temporary file."""

    def test_compression_error_in_an_append_inside_with(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trace_format, "_compress", _broken_compress)
        with pytest.raises(RuntimeError, match="compressor failed"):
            with TraceWriter(tmp_path / "t.wtr", num_cores=1, chunk_records=4) as writer:
                for i in range(10):
                    writer.append_op(0, OP_LOAD, 64 * i)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("use_with", [True, False])
    @pytest.mark.parametrize("failure", ["compress", "fsync"])
    def test_failing_close_aborts(self, tmp_path, monkeypatch, failure, use_with):
        """Only partial chunks, so the first frame is compressed in
        ``close()``; ``__exit__`` calls ``close()`` on the success path."""
        if failure == "compress":
            monkeypatch.setattr(trace_format, "_compress", _broken_compress)
        else:
            monkeypatch.setattr(os, "fsync", _broken_fsync)
        path = tmp_path / "t.wtr"
        with pytest.raises((RuntimeError, OSError)):
            if use_with:
                with TraceWriter(path, num_cores=2, chunk_records=4) as writer:
                    writer.append_op(1, OP_STORE, 64, 1)
            else:
                writer = TraceWriter(path, num_cores=2, chunk_records=4)
                writer.append_op(1, OP_STORE, 64, 1)
                writer.close()
        assert not list(tmp_path.iterdir())
        assert writer._file.closed
        with pytest.raises(TraceFormatError):
            writer.append_op(0, OP_LOAD)  # the failed writer is closed


def test_column_and_op_appends_write_the_same_file(tmp_path):
    """However a core's ops are split across calls, the frames are the
    same: columns in uneven pieces (one empty, some spanning a chunk
    boundary) give the file that one op at a time gives."""
    streams = [
        [(KINDS[(i * c) % 5], 64 * i, i, i % 3, bool(i % 2)) for i in range(n)]
        for c, n in enumerate((11, 0, 7, 25))
    ]
    one_by_one = _write_streams(tmp_path / "ops.wtr", streams, chunk_records=4)
    columns = []
    for ops in streams:
        chunk = TraceChunk.from_ops(TraceOp(*op) for op in ops)
        columns.append(chunk_columns(chunk))
    with TraceWriter(tmp_path / "cols.wtr", num_cores=4, chunk_records=4) as writer:
        for core, cols in enumerate(columns):
            for start, stop in ((0, 3), (3, 3), (3, 9), (9, None)):
                writer.append_columns(core, *(col[start:stop] for col in cols))
    assert writer.trace_id == one_by_one.trace_id
    assert (tmp_path / "cols.wtr").read_bytes() == (tmp_path / "ops.wtr").read_bytes()
    # Ops and columns mixed on one core: a one-op buffer grows to a chunk.
    with TraceWriter(tmp_path / "mixed.wtr", num_cores=4, chunk_records=4) as writer:
        for core, (ops, cols) in enumerate(zip(streams, columns)):
            for kind, address, value, arg, blocking in ops[:1]:
                writer.append_op(core, kind, address, value, arg, blocking)
            for start, stop in ((1, 2), (2, 6), (6, None)):
                writer.append_columns(core, *(col[start:stop] for col in cols))
    assert (tmp_path / "mixed.wtr").read_bytes() == (tmp_path / "ops.wtr").read_bytes()
