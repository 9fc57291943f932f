"""Replay a recorded trace file through the full machine.

Every shape runs on :mod:`repro.harness.runner`'s one machine builder,
drive loop and harvest; a replay differs from a live ``run_app`` only in
its per-core sources, which stream chunks from the file instead of
synthesizing them.

* **Continuous** (``snapshot_every == 0``): one machine streams every
  chunk through :meth:`Core.run_trace`'s ``chunk_source`` seam. The
  refill is synchronous — no event is scheduled, no time passes — so the
  event sequence is *identical* to a live ``run_app`` of the same ops,
  and the result digest matches the generator-driven run bit for bit
  (the golden tests lock this for every backend).

* **Segmented** (``snapshot_every > 0``): the trace is cut into
  barrier-safe windows of roughly that many chunks per core (see
  :func:`repro.traces.sharding.plan_segments`); each segment runs to
  full event-queue drain on a machine **freshly constructed and
  restored** from the previous segment's snapshot, then captures the
  next snapshot. Because every boundary — interrupted or not — executes
  the same construct+restore sequence, killing the process mid-trace
  and resuming from the last durable snapshot yields a byte-identical
  final digest to the uninterrupted segmented run. (The segmented
  digest is a deterministic function of the snapshot interval; it is
  not required to equal the continuous digest.)

* **Windowed** (:func:`replay_window`): one barrier-safe window replayed
  cold — cycle 0, empty caches — which is the unit a trace-sharded
  campaign fans out across workers. Each window's result stands alone
  and is the same on whichever worker runs it.

Memory stays O(num_cores × chunk) in every shape: the reader hands out
one decompressed chunk at a time and the core drops its previous chunk
on refill.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cpu.trace import TraceChunk
from repro.harness.runner import drive, execute, fresh_machine, harvest
from repro.traces.format import TraceFormatError, TraceReader
from repro.traces.snapshot import (
    capture_machine,
    load_snapshot,
    restore_machine,
    save_snapshot,
)


def result_digest(result) -> str:
    """Canonical sha256 of a result — the replay-identity currency.

    Hashes the full ``to_dict()`` payload as sorted-key compact JSON, so
    two results are digest-equal iff they are byte-identical under the
    executor's serialization contract.
    """
    blob = json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ------------------------------------------------------------ chunk sources


def _chunk_source(reader: TraceReader, core: int, start: int, stop: int):
    """First chunk + a pull-one-more callable for chunks ``[start, stop)``.

    The pull happens inside the core's own wake-up, so only one chunk per
    core is ever decompressed and bound at a time.
    """
    if start >= stop:
        return TraceChunk(), None
    first = reader.read_chunk(core, start)
    cursor = [start + 1]

    def pull() -> Optional[TraceChunk]:
        index = cursor[0]
        if index >= stop:
            return None
        cursor[0] = index + 1
        return reader.read_chunk(core, index)

    return first, pull


def _sources(reader: TraceReader, window: Sequence[Tuple[int, int]]):
    """Per-core sources for ``window``'s chunk ranges, and their record count.

    The sources are a generator, so each core's first chunk is read as the
    core is attached and nothing but the core holds it after its refill.
    """
    sources = (
        _chunk_source(reader, core, start, stop)
        for core, (start, stop) in enumerate(window)
    )
    records = sum(
        reader.chunk_length(core, index)
        for core, (start, stop) in enumerate(window)
        for index in range(start, stop)
    )
    return sources, records


def _check_reader(reader: TraceReader, config, expect_trace_id: str = "") -> None:
    if reader.num_cores != config.num_cores:
        raise TraceFormatError(
            f"trace was recorded for {reader.num_cores} cores; "
            f"config has {config.num_cores}"
        )
    if expect_trace_id and reader.trace_id != expect_trace_id:
        raise TraceFormatError(
            f"{reader.path}: trace_id {reader.trace_id} does not match the "
            f"expected {expect_trace_id} (file re-recorded since planning?)"
        )


# -------------------------------------------------------------- entry points


def replay_trace(
    path: Union[str, Path],
    config,
    snapshot_every: int = 0,
    snapshot_path: Optional[Union[str, Path]] = None,
    check: bool = True,
    machine_sink: Optional[List] = None,
    expect_trace_id: str = "",
):
    """Replay the whole trace at ``path`` on a machine built from ``config``.

    ``snapshot_every`` > 0 selects segmented execution with a snapshot
    roughly every that many chunks per core (cut points are shifted to
    the nearest barrier-safe boundary). ``snapshot_path`` makes each
    boundary durable: if the file already exists and matches this trace,
    replay *resumes* from it — the SIGKILL-recovery path — and the file
    is removed after a completed run.
    """
    from repro.traces.sharding import plan_segments

    with TraceReader(path) as reader:
        _check_reader(reader, config, expect_trace_id)
        app = reader.app or "trace"
        if snapshot_every <= 0:
            window = [(0, reader.num_chunks(node)) for node in range(config.num_cores)]
            sources, records = _sources(reader, window)
            return execute(config, app, sources, records, check, machine_sink)

        cuts = plan_segments(reader, snapshot_every)
        start_segment = 0
        snap: Optional[Dict] = None
        if snapshot_path is not None and Path(snapshot_path).exists():
            snap = load_snapshot(snapshot_path)
            progress = snap.get("progress", {})
            if progress.get("trace_id") != reader.trace_id:
                raise TraceFormatError(
                    f"snapshot {snapshot_path} belongs to trace "
                    f"{progress.get('trace_id')}, not {reader.trace_id}"
                )
            if progress.get("snapshot_every") != snapshot_every:
                raise TraceFormatError(
                    f"snapshot {snapshot_path} was taken with "
                    f"snapshot_every={progress.get('snapshot_every')}, "
                    f"requested {snapshot_every}"
                )
            start_segment = progress["segment"]

        previous = [0] * config.num_cores
        if start_segment > 0:
            previous = list(cuts[start_segment - 1])
        for segment in range(start_segment, len(cuts)):
            # Each segment's machine is released once its snapshot is
            # taken; the last one once it is harvested.
            last = segment == len(cuts) - 1
            sink = machine_sink if last else None
            with fresh_machine(config, sink) as (machine, cores, barrier):
                if snap is not None:
                    restore_machine(machine, cores, snap)
                window = [
                    (previous[node], cuts[segment][node])
                    for node in range(config.num_cores)
                ]
                sources, records = _sources(reader, window)
                drive(machine, cores, sources, records, f"{app}[segment {segment}]")
                if last:
                    if check:
                        machine.check_coherence()
                    result = harvest(machine, cores, app)
                    break
                snap = capture_machine(
                    machine,
                    cores,
                    barrier,
                    progress={
                        "segment": segment + 1,
                        "trace_id": reader.trace_id,
                        "snapshot_every": snapshot_every,
                    },
                )
            previous = list(cuts[segment])
            if snapshot_path is not None:
                save_snapshot(snapshot_path, snap)
        if snapshot_path is not None:
            # The run completed; a leftover snapshot would wrongly resume
            # a future identical invocation past its final segment.
            try:
                os.remove(snapshot_path)
            except FileNotFoundError:
                pass
        return result


def replay_window(
    path: Union[str, Path],
    config,
    window: Sequence[Sequence[int]],
    check: bool = True,
    expect_trace_id: str = "",
):
    """Cold-replay one barrier-safe chunk window (the sharded-campaign unit).

    ``window`` is a per-core sequence of ``(start_chunk, stop_chunk)``
    ranges as produced by :func:`repro.traces.sharding.plan_windows`.
    The machine starts empty at cycle 0, so per-window results are
    independent of which worker runs them.
    """
    with TraceReader(path) as reader:
        _check_reader(reader, config, expect_trace_id)
        if len(window) != config.num_cores:
            raise TraceFormatError(
                f"window covers {len(window)} cores, config has "
                f"{config.num_cores}"
            )
        spans = [(int(start), int(stop)) for start, stop in window]
        sources, records = _sources(reader, spans)
        return execute(config, reader.app or "trace", sources, records, check)
