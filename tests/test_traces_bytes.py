"""Recorded and converted ``.wtr`` files, pinned byte for byte.

The other trace tests pin ``trace_id``s and replay digests; these pin
whole files by sha256, so a frame written out of order, a changed
record or compressed payload, or a changed header or index shows here.
They use only the recording entry points, so they run on any version
of the writer.
"""

from __future__ import annotations

import hashlib

from repro.traces.record import convert_csv, record_app_trace

#: sha256 of whole files as zlib 1.2.13 compresses them (the codec is
#: named in every case, so the interpreter's zstd support cannot change
#: the bytes).
PINNED_FILES = {
    "record": "9e8863ab854292bdf77c18b2be0d21dc2254fdda62c76f318713b23c4f1b5c90",
    "record-memops-0": "bec053acf6cde1295d8c1b9520bce006d541f5db406bec553991f104f3b73324",
    "convert": "64f16cda9a77d290e47d0898d5acbe40594b1671335a2132faf93df55de9d065",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedBytes:
    def test_record_app_trace_bytes(self, tmp_path):
        """Four cores, several full 64-record chunks each plus a partial."""
        path = tmp_path / "radiosity.wtr"
        info = record_app_trace(
            path, "radiosity", 4, 300, chunk_records=64, codec="zlib"
        )
        assert info["records_per_core"] == [566, 570, 582, 584]
        assert _sha256(path) == PINNED_FILES["record"]

    def test_record_app_trace_without_memops_bytes(self, tmp_path):
        path = tmp_path / "radiosity-0.wtr"
        record_app_trace(path, "radiosity", 4, 0, chunk_records=64, codec="zlib")
        assert _sha256(path) == PINNED_FILES["record-memops-0"]

    def test_convert_csv_bytes(self, tmp_path):
        """Cores interleave line by line, so full chunks of different
        cores interleave in the file and the partial ones close it."""
        kinds = ("load", "store", "think", "rmw", "barrier")
        lines = [
            f"{(i * 7) % 3},{kinds[i % 5]},0x{64 * i:x},{i},{i % 4},{i % 2}"
            for i in range(23)
        ]
        src = tmp_path / "ops.csv"
        src.write_text("# interleaved cores\n" + "\n".join(lines) + "\n")
        out = tmp_path / "ops.wtr"
        info = convert_csv(src, out, app="imported", chunk_records=3, codec="zlib")
        assert info["records_per_core"] == [8, 8, 7]
        assert _sha256(out) == PINNED_FILES["convert"]

