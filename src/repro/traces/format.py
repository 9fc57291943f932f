"""The canonical on-disk trace format (``.wtr``): chunked, compressed,
CRC-protected, and read in O(one chunk) memory.

Layout (all integers little-endian)::

    magic      8 bytes  b"WDTRACE\\x01"
    header     u4 length + that many bytes of UTF-8 JSON
    chunks     zero or more chunk frames, core-major order:
                 u4 core | u4 chunk_index | u4 n_records
                 u4 comp_len | u4 crc32  | comp_len payload bytes
    index      8 bytes  b"WDTRIDX\\x01", then u4 length + JSON
    trailer    u8 index_offset + b"WDTRIDX\\x01"

A chunk payload is ``n_records`` fixed-width records (``RECORD_DTYPE``:
kind u1, blocking u1, address i8, value i8, arg i8 — 26 bytes each),
compressed with the codec named in the header. The CRC32 covers the
*uncompressed* record bytes, so a flipped bit is caught whether it
corrupts the compressed stream (decompression error) or survives it.

The footer index repeats every chunk's frame coordinates plus its
*barrier count* — the per-chunk cumulative barrier information that
barrier-safe segment cuts (:mod:`repro.traces.sharding`) are computed
from without touching the chunk payloads. ``trace_id`` is a sha256 over
the header and every chunk's (core, index, n_records, crc) tuple: a
content digest that names the reference stream independent of file path,
codec, or chunk size boundaries being rewritten byte-identically.

Codec selection is stdlib-safe: ``zstd`` via the ``zstandard`` package or
the Python 3.14+ ``compression.zstd`` module when importable, else
``zlib`` (always available). A reader needs the codec a file was written
with; asking for a zstd file on a zlib-only interpreter raises
:class:`TraceFormatError` naming the missing dependency rather than
producing garbage.

Reading the trailer requires a seekable file; everything else streams.
"""

from __future__ import annotations

import functools
import json
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.cpu.trace import CODE_BARRIER, KIND_CODES, KIND_NAMES, TraceChunk

MAGIC = b"WDTRACE\x01"
INDEX_MAGIC = b"WDTRIDX\x01"
FORMAT_VERSION = 1

#: Records per chunk unless the writer is told otherwise. 8192 records
#: is ~208 KiB uncompressed — small enough that a reader holding one
#: chunk per core stays in cache, large enough to amortize frame
#: overhead and compression startup.
DEFAULT_CHUNK_RECORDS = 8192

_CHUNK_HEADER = struct.Struct("<IIIII")  # core, index, n_records, comp_len, crc
_TRAILER = struct.Struct("<Q")  # index offset

#: The fixed-width record layout, also spelled out in the header so a
#: reader can reject a file whose writer disagreed about the schema.
RECORD_FIELDS = (
    ("kind", "u1"),
    ("blocking", "u1"),
    ("address", "<i8"),
    ("value", "<i8"),
    ("arg", "<i8"),
)
RECORD_BYTES = 1 + 1 + 8 + 8 + 8


class TraceFormatError(RuntimeError):
    """The file is not a readable trace (bad magic, version, codec, ...)."""


class TraceCorruptionError(TraceFormatError):
    """The file parsed but a chunk failed its integrity check."""


# ----------------------------------------------------------------- codecs


def _zstd_module():
    """The first importable zstd binding, or ``None``."""
    try:
        import zstandard  # type: ignore

        return zstandard
    except ImportError:
        pass
    try:  # Python 3.14+ stdlib
        from compression import zstd  # type: ignore

        return zstd
    except ImportError:
        return None


def available_codec() -> str:
    """The best codec this interpreter can write: ``zstd`` or ``zlib``."""
    return "zstd" if _zstd_module() is not None else "zlib"


def _compress(codec: str, data: bytes) -> bytes:
    if codec == "zlib":
        return zlib.compress(data, 6)
    if codec == "zstd":
        module = _zstd_module()
        if module is None:
            raise TraceFormatError(
                "codec 'zstd' requested but no zstd module is importable "
                "(install 'zstandard', or write with codec='zlib')"
            )
        if hasattr(module, "ZstdCompressor"):  # the zstandard package
            return module.ZstdCompressor().compress(data)
        return module.compress(data)  # compression.zstd
    raise TraceFormatError(f"unknown trace codec {codec!r}")


def _decompress(codec: str, data: bytes) -> bytes:
    if codec == "zlib":
        try:
            return zlib.decompress(data)
        except zlib.error as error:
            raise TraceCorruptionError(f"zlib payload corrupt: {error}") from None
    if codec == "zstd":
        module = _zstd_module()
        if module is None:
            raise TraceFormatError(
                "this trace was written with codec 'zstd' but no zstd "
                "module is importable here (install 'zstandard')"
            )
        try:
            if hasattr(module, "ZstdDecompressor"):
                return module.ZstdDecompressor().decompress(data)
            return module.decompress(data)
        except Exception as error:  # zstd bindings raise their own types
            raise TraceCorruptionError(f"zstd payload corrupt: {error}") from None
    raise TraceFormatError(f"unknown trace codec {codec!r}")


# ------------------------------------------------------------ record codec


@functools.lru_cache(maxsize=None)
def _record_dtype():
    import numpy as np

    return np.dtype([(name, spec) for name, spec in RECORD_FIELDS])


def pack_records(kinds, addresses, values, args, blocking, out=None):
    """Pack five equal-length columns into records of the
    :data:`RECORD_FIELDS` layout.

    ``kinds`` holds the uint8 codes of :data:`~repro.cpu.trace.KIND_CODES`
    and ``blocking`` bools (or 0/1). The records go into ``out`` (a record
    array of the columns' length) when given, else into a new array;
    either way that array is returned.
    """
    import numpy as np

    if out is None:
        out = np.empty(len(kinds), dtype=_record_dtype())
    out["kind"] = kinds
    out["blocking"] = blocking
    out["address"] = addresses
    out["value"] = values
    out["arg"] = args
    return out


def chunk_columns(chunk: TraceChunk):
    """A :class:`TraceChunk`'s five columns as numpy arrays over its
    buffers (no copy), in :func:`pack_records` order."""
    import numpy as np

    return (
        np.frombuffer(chunk.kinds, dtype=np.uint8),
        np.frombuffer(chunk.addresses, dtype=np.int64),
        np.frombuffer(chunk.values, dtype=np.int64),
        np.frombuffer(chunk.args, dtype=np.int64),
        np.frombuffer(chunk.blocking, dtype=np.uint8),
    )


def chunk_to_records(chunk: TraceChunk) -> bytes:
    """Serialize a chunk's columns as fixed-width record bytes."""
    return pack_records(*chunk_columns(chunk)).tobytes()


def records_to_chunk(data: bytes) -> TraceChunk:
    """Rebuild a :class:`TraceChunk` from fixed-width record bytes.

    The record fields become the chunk's typed columns
    (:meth:`TraceChunk.from_columns`, which reads the little-endian
    fields as native int64), so a round-tripped chunk is
    indistinguishable from a generator-built one to every consumer.
    """
    import numpy as np

    if len(data) % RECORD_BYTES:
        raise TraceCorruptionError(
            f"record payload is {len(data)} bytes, "
            f"not a multiple of {RECORD_BYTES}"
        )
    records = np.frombuffer(data, dtype=_record_dtype())
    kinds = records["kind"]
    if len(kinds) and kinds.max() >= len(KIND_NAMES):
        raise TraceCorruptionError("record payload contains an unknown op kind")
    return TraceChunk.from_columns(
        kinds, records["address"], records["value"], records["arg"],
        records["blocking"],
    )


# ----------------------------------------------------------------- writer


class TraceWriter:
    """Streaming trace writer: feed per-core ops, get a canonical file.

    Each core's appends fill a record buffer of up to ``chunk_records``
    records; a full buffer is compressed and written as a frame at once,
    and every core's partial last buffer at :meth:`close`, in core order.
    The writer holds one buffer per core, so memory stays
    O(num_cores × chunk) whatever the trace length. The file is assembled
    at a temporary path and atomically renamed into place on
    :meth:`close` — a killed writer never leaves a half-written file
    where a reader would look, and a failed close or an exception inside
    ``with`` removes the temporary file.

    Use as a context manager::

        with TraceWriter(path, num_cores=16, app="radiosity") as writer:
            writer.append_chunk(core, chunk)
        writer.trace_id  # content digest, available after close
    """

    def __init__(
        self,
        path: Union[str, Path],
        num_cores: int,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        codec: Optional[str] = None,
        app: str = "",
        metadata: Optional[Dict] = None,
    ) -> None:
        import hashlib
        import os

        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        if chunk_records <= 0:
            raise ValueError("chunk_records must be positive")
        self.path = Path(path)
        self.num_cores = num_cores
        self.chunk_records = chunk_records
        self.codec = codec if codec is not None else available_codec()
        self.app = app
        self.metadata = dict(metadata or {})
        self.trace_id: Optional[str] = None
        self._tmp_path = self.path.with_name(
            f"{self.path.name}.tmp.{os.getpid()}"
        )
        #: Each core's partly filled record buffer (None: none yet), and
        #: how many of its records are filled.
        self._buffers: List = [None] * num_cores
        self._filled = [0] * num_cores
        self._chunk_counts = [0] * num_cores
        self._record_counts = [0] * num_cores
        self._index: List[List[int]] = []
        self._digest = hashlib.sha256()
        self._closed = False
        header = {
            "version": FORMAT_VERSION,
            "codec": self.codec,
            "num_cores": num_cores,
            "chunk_records": chunk_records,
            "record_fields": [list(field) for field in RECORD_FIELDS],
            "app": app,
            "metadata": self.metadata,
        }
        header_blob = json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self._tmp_path, "wb")
        self._file.write(MAGIC)
        self._file.write(struct.pack("<I", len(header_blob)))
        self._file.write(header_blob)
        self._digest.update(header_blob)

    # ------------------------------------------------------------- appends

    def append_columns(
        self, core: int, kinds, addresses, values, args, blocking
    ) -> None:
        """Append ops for ``core`` given as five numpy columns, in
        :func:`pack_records` order (kinds as uint8 codes); any length."""
        self._check_core(core)
        total = len(kinds)
        start = 0
        while start < total:
            filled = self._filled[core]
            stop = min(total, start + self.chunk_records - filled)
            end = filled + stop - start
            pack_records(
                kinds[start:stop],
                addresses[start:stop],
                values[start:stop],
                args[start:stop],
                blocking[start:stop],
                out=self._buffer(core, end)[filled:end],
            )
            self._fill(core, end)
            start = stop

    def append_chunk(self, core: int, chunk: TraceChunk) -> None:
        """Append a chunk of ops for ``core`` (any length; re-chunked)."""
        self.append_columns(core, *chunk_columns(chunk))

    def append_op(
        self,
        core: int,
        kind: str,
        address: int = 0,
        value: int = 0,
        arg: int = 0,
        blocking: bool = True,
    ) -> None:
        """Append one op (the converter's entry point)."""
        code = KIND_CODES.get(kind)
        if code is None:
            raise TraceFormatError(f"unknown trace op kind {kind!r}")
        self._check_core(core)
        filled = self._filled[core]
        # One record, its fields in RECORD_FIELDS order.
        self._buffer(core, filled + 1)[filled] = (
            code, bool(blocking), int(address), int(value), int(arg)
        )
        self._fill(core, filled + 1)

    # -------------------------------------------------------------- frames

    def _check_core(self, core: int) -> None:
        if self._closed:
            raise TraceFormatError("writer is closed")
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core {core} out of range [0, {self.num_cores})")

    def _buffer(self, core: int, end: int):
        """``core``'s record buffer, grown to hold ``end`` records."""
        import numpy as np

        buffer = self._buffers[core]
        if buffer is None:
            # Only as large as this append needs, so a core's partial
            # last chunk holds just its records until close().
            buffer = np.empty(end, dtype=_record_dtype())
        elif len(buffer) < end:
            filled = self._filled[core]
            buffer = np.empty(self.chunk_records, dtype=_record_dtype())
            buffer[:filled] = self._buffers[core][:filled]
        self._buffers[core] = buffer
        return buffer

    def _fill(self, core: int, end: int) -> None:
        """Mark ``end`` records of ``core``'s buffer filled; a full
        buffer is written as a frame and dropped."""
        if end == self.chunk_records:
            self._write_frame(core, self._buffers[core])
            self._buffers[core] = None
            end = 0
        self._filled[core] = end

    def _write_frame(self, core: int, records) -> None:
        """Write ``records`` (a record array) as ``core``'s next chunk."""
        import numpy as np

        index = self._chunk_counts[core]
        n_records = len(records)
        crc = zlib.crc32(records) & 0xFFFFFFFF
        payload = _compress(self.codec, records)
        barriers = int(np.count_nonzero(records["kind"] == CODE_BARRIER))
        offset = self._file.tell()
        self._file.write(
            _CHUNK_HEADER.pack(core, index, n_records, len(payload), crc)
        )
        self._file.write(payload)
        self._index.append(
            [core, index, n_records, offset, len(payload), crc, barriers]
        )
        self._digest.update(struct.pack("<IIII", core, index, n_records, crc))
        self._chunk_counts[core] = index + 1
        self._record_counts[core] += n_records

    # --------------------------------------------------------------- close

    def close(self) -> str:
        """Flush residues, write the index, atomically land the file.

        Returns the ``trace_id`` content digest. If closing fails, the
        writer aborts (the temporary file is removed) and the error is
        raised.
        """
        if self._closed:
            return self.trace_id or ""
        try:
            self._land()
        except BaseException:
            self.abort()
            raise
        self._closed = True
        return self.trace_id

    def _land(self) -> None:
        import os

        for core in range(self.num_cores):
            filled = self._filled[core]
            if filled:
                self._write_frame(core, self._buffers[core][:filled])
        self.trace_id = self._digest.hexdigest()
        index_blob = json.dumps(
            {
                "version": FORMAT_VERSION,
                "trace_id": self.trace_id,
                "chunks": self._index,
                "chunk_counts": self._chunk_counts,
                "record_counts": self._record_counts,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        index_offset = self._file.tell()
        self._file.write(INDEX_MAGIC)
        self._file.write(struct.pack("<I", len(index_blob)))
        self._file.write(index_blob)
        self._file.write(_TRAILER.pack(index_offset))
        self._file.write(INDEX_MAGIC)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        os.replace(self._tmp_path, self.path)

    def abort(self) -> None:
        """Discard the partial file (error paths)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            try:
                self._tmp_path.unlink()
            except OSError:
                pass

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


# ----------------------------------------------------------------- reader


class TraceReader:
    """Random-access + streaming reader over a canonical trace file.

    Opening parses only the header and the footer index; chunk payloads
    are read (and CRC-checked) on demand, one at a time, so iterating a
    billion-reference trace holds O(one chunk) in memory.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._file = open(self.path, "rb")
        try:
            self._parse_header()
            self._parse_index()
        except TraceFormatError:
            self._file.close()
            raise
        except (OSError, ValueError, struct.error) as error:
            self._file.close()
            raise TraceFormatError(
                f"{self.path} is not a readable trace: {error}"
            ) from None

    # -------------------------------------------------------------- parsing

    def _parse_header(self) -> None:
        magic = self._file.read(len(MAGIC))
        if magic != MAGIC:
            raise TraceFormatError(
                f"{self.path}: bad magic {magic!r} (not a trace file)"
            )
        (header_len,) = struct.unpack("<I", self._read_exact(4))
        header = json.loads(self._read_exact(header_len).decode("utf-8"))
        version = header.get("version")
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"{self.path}: trace format version {version!r} is not "
                f"supported (expected {FORMAT_VERSION})"
            )
        fields = [tuple(field) for field in header.get("record_fields", [])]
        if fields != [tuple(f) for f in RECORD_FIELDS]:
            raise TraceFormatError(
                f"{self.path}: record schema {fields!r} does not match "
                f"this reader ({RECORD_FIELDS!r})"
            )
        self.codec: str = header["codec"]
        self.num_cores: int = header["num_cores"]
        self.chunk_records: int = header["chunk_records"]
        self.app: str = header.get("app", "")
        self.metadata: Dict = header.get("metadata", {})
        if self.codec == "zstd" and _zstd_module() is None:
            raise TraceFormatError(
                f"{self.path} was written with codec 'zstd' but no zstd "
                "module is importable here (install 'zstandard')"
            )

    def _parse_index(self) -> None:
        trailer_len = _TRAILER.size + len(INDEX_MAGIC)
        self._file.seek(0, 2)
        size = self._file.tell()
        if size < trailer_len:
            raise TraceFormatError(f"{self.path}: truncated (no trailer)")
        self._file.seek(size - trailer_len)
        trailer = self._read_exact(trailer_len)
        if trailer[_TRAILER.size:] != INDEX_MAGIC:
            raise TraceFormatError(
                f"{self.path}: trailer magic missing — file truncated or "
                "written by an interrupted writer"
            )
        (index_offset,) = _TRAILER.unpack(trailer[: _TRAILER.size])
        if index_offset >= size:
            raise TraceFormatError(f"{self.path}: index offset out of range")
        self._file.seek(index_offset)
        if self._read_exact(len(INDEX_MAGIC)) != INDEX_MAGIC:
            raise TraceFormatError(f"{self.path}: index magic mismatch")
        (index_len,) = struct.unpack("<I", self._read_exact(4))
        index = json.loads(self._read_exact(index_len).decode("utf-8"))
        self.trace_id: str = index["trace_id"]
        #: Every chunk: [core, index, n_records, offset, comp_len, crc,
        #: barrier_count], in file order.
        self.chunks: List[List[int]] = index["chunks"]
        self.chunk_counts: List[int] = index["chunk_counts"]
        self.record_counts: List[int] = index["record_counts"]
        self._by_core: Dict[Tuple[int, int], List[int]] = {
            (entry[0], entry[1]): entry for entry in self.chunks
        }

    def _read_exact(self, n: int) -> bytes:
        data = self._file.read(n)
        if len(data) != n:
            raise TraceFormatError(
                f"{self.path}: truncated (wanted {n} bytes, got {len(data)})"
            )
        return data

    # --------------------------------------------------------------- access

    @property
    def total_records(self) -> int:
        return sum(self.record_counts)

    def num_chunks(self, core: int) -> int:
        return self.chunk_counts[core]

    def barrier_counts(self, core: int) -> List[int]:
        """Cumulative barrier count after each of ``core``'s chunks."""
        counts: List[int] = []
        total = 0
        for index in range(self.chunk_counts[core]):
            total += self._by_core[(core, index)][6]
            counts.append(total)
        return counts

    def chunk_length(self, core: int, index: int) -> int:
        """Record count of one chunk, from the index (no payload read)."""
        entry = self._by_core.get((core, index))
        if entry is None:
            raise TraceFormatError(
                f"{self.path}: no chunk {index} for core {core}"
            )
        return entry[2]

    def read_chunk(self, core: int, index: int) -> TraceChunk:
        """Read, integrity-check, and decode one chunk."""
        entry = self._by_core.get((core, index))
        if entry is None:
            raise TraceFormatError(
                f"{self.path}: no chunk {index} for core {core}"
            )
        _, _, n_records, offset, comp_len, crc, _ = entry
        self._file.seek(offset)
        header = _CHUNK_HEADER.unpack(self._read_exact(_CHUNK_HEADER.size))
        if header[:2] != (core, index) or header[3] != comp_len:
            raise TraceCorruptionError(
                f"{self.path}: chunk frame at offset {offset} disagrees "
                "with the index"
            )
        payload = self._read_exact(comp_len)
        raw = _decompress(self.codec, payload)
        if (zlib.crc32(raw) & 0xFFFFFFFF) != crc:
            raise TraceCorruptionError(
                f"{self.path}: CRC mismatch in chunk {index} of core {core}"
            )
        chunk = records_to_chunk(raw)
        if len(chunk.kinds) != n_records:
            raise TraceCorruptionError(
                f"{self.path}: chunk {index} of core {core} decoded "
                f"{len(chunk.kinds)} records, index says {n_records}"
            )
        return chunk

    def iter_core(
        self, core: int, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[TraceChunk]:
        """Yield ``core``'s chunks in ``[start, stop)``, one at a time."""
        end = self.chunk_counts[core] if stop is None else stop
        for index in range(start, end):
            yield self.read_chunk(core, index)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ------------------------------------------------------------- diagnostics


def trace_info(path: Union[str, Path]) -> Dict:
    """Header + index summary without touching any chunk payload."""
    with TraceReader(path) as reader:
        size = Path(path).stat().st_size
        raw_bytes = reader.total_records * RECORD_BYTES
        return {
            "path": str(path),
            "version": FORMAT_VERSION,
            "codec": reader.codec,
            "app": reader.app,
            "num_cores": reader.num_cores,
            "chunk_records": reader.chunk_records,
            "chunks": len(reader.chunks),
            "records": reader.total_records,
            "records_per_core": list(reader.record_counts),
            "barriers_per_core": [
                (counts[-1] if counts else 0)
                for counts in (
                    reader.barrier_counts(core)
                    for core in range(reader.num_cores)
                )
            ],
            "file_bytes": size,
            "compression_ratio": (round(raw_bytes / size, 3) if size else 0.0),
            "trace_id": reader.trace_id,
            "metadata": reader.metadata,
        }


def validate_trace(path: Union[str, Path]) -> Dict:
    """Full-scan integrity check: decompress + CRC every chunk.

    Raises :class:`TraceCorruptionError`/:class:`TraceFormatError` on the
    first problem; returns a summary dict when the file is clean.
    """
    with TraceReader(path) as reader:
        records = 0
        for core in range(reader.num_cores):
            for index in range(reader.chunk_counts[core]):
                records += len(reader.read_chunk(core, index).kinds)
        if records != reader.total_records:
            raise TraceCorruptionError(
                f"{path}: index claims {reader.total_records} records, "
                f"chunks decoded {records}"
            )
        return {
            "path": str(path),
            "ok": True,
            "chunks": len(reader.chunks),
            "records": records,
            "trace_id": reader.trace_id,
        }
