"""Barrier-safe trace partitioning.

A cut through a multi-core trace is *safe* only where every core has
completed the same number of barrier operations: a window that hands one
core ops beyond barrier ``B`` while another core's window stops short of
``B`` parks the first core at the barrier forever (its release depends
on ops outside the window). :func:`plan_segments` finds such cuts from
the per-chunk barrier counts in the trace footer index — no payload is
decompressed — by fix-point equalization: propose a cut every ~N chunks,
then advance each core's cut until all cumulative barrier counts agree.

The same plan serves two executions:

* **Segmented replay** (:func:`repro.traces.replay.replay_trace` with
  ``snapshot_every``): machine state flows across cuts via snapshots;
  cuts are quiescent points.
* **Sharded campaigns**: each window from :func:`plan_windows` is
  replayed *cold* (cycle 0, empty caches) on whichever worker claims
  it, and stored as its own result, labelled by shard. A window's
  result is the same no matter which worker ran it or when. Windowed
  results are their own deterministic quantity: each window
  cold-starts, so together they differ from a continuous replay's
  totals — by design, and by the same reasoning as the segmented digest
  being a function of the snapshot interval.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.traces.format import TraceReader

#: Per-core chunk cut positions for one segment boundary.
Cut = List[int]
#: Per-core (start_chunk, stop_chunk) ranges for one window.
Window = List[Tuple[int, int]]


def plan_segments(reader: TraceReader, chunks_per_segment: int) -> List[Cut]:
    """Cumulative barrier-safe cuts, roughly ``chunks_per_segment`` apart.

    Returns a list of cuts; each cut is a per-core chunk index, strictly
    increasing for at least one core per step, with the final cut always
    the end of the trace. A proposed cut is advanced per-core until every
    core's cumulative barrier count at its cut agrees; if the counts
    cannot be equalized (imported traces with uneven barrier use), the
    remainder of the trace becomes a single final segment.
    """
    if chunks_per_segment <= 0:
        raise ValueError("chunks_per_segment must be positive")
    num_cores = reader.num_cores
    cum = [reader.barrier_counts(core) for core in range(num_cores)]
    totals = [reader.num_chunks(core) for core in range(num_cores)]

    def barriers_before(core: int, index: int) -> int:
        return cum[core][index - 1] if index > 0 else 0

    cuts: List[Cut] = []
    starts = [0] * num_cores
    while any(starts[c] < totals[c] for c in range(num_cores)):
        ends = [
            min(starts[c] + chunks_per_segment, totals[c])
            for c in range(num_cores)
        ]
        # Fix point: lift every core to the running max barrier count.
        # Ends are monotone non-decreasing and bounded by the totals, so
        # this terminates; a core that overshoots (a chunk holding several
        # barriers) raises the max and pulls the others along.
        while True:
            target = max(barriers_before(c, ends[c]) for c in range(num_cores))
            moved = False
            for c in range(num_cores):
                while ends[c] < totals[c] and barriers_before(c, ends[c]) < target:
                    ends[c] += 1
                    moved = True
            if not moved:
                break
        balanced = len({barriers_before(c, ends[c]) for c in range(num_cores)}) == 1
        at_end = all(ends[c] == totals[c] for c in range(num_cores))
        if not balanced and not at_end:
            # No equalizable boundary ahead: finish in one final segment.
            ends = list(totals)
        if ends == starts:  # pragma: no cover - defensive against stalls
            ends = list(totals)
        cuts.append(list(ends))
        starts = ends
    if not cuts:  # empty trace: one no-op segment keeps callers uniform
        cuts.append(list(totals))
    return cuts


def plan_windows(
    path_or_reader, chunks_per_window: int, max_windows: int = 0
) -> List[Window]:
    """Barrier-safe ``(start, stop)`` chunk windows covering the trace.

    Accepts a path or an open :class:`TraceReader`. ``max_windows`` > 0
    re-plans with a coarser stride until the plan fits — the campaign
    frontend uses this to match a requested shard count.
    """
    if isinstance(path_or_reader, TraceReader):
        return _plan_windows(path_or_reader, chunks_per_window, max_windows)
    with TraceReader(path_or_reader) as reader:
        return _plan_windows(reader, chunks_per_window, max_windows)


def _plan_windows(
    reader: TraceReader, chunks_per_window: int, max_windows: int
) -> List[Window]:
    stride = chunks_per_window
    while True:
        cuts = plan_segments(reader, stride)
        if max_windows <= 0 or len(cuts) <= max_windows:
            break
        stride *= 2
    windows: List[Window] = []
    previous = [0] * reader.num_cores
    for cut in cuts:
        windows.append(
            [(previous[c], cut[c]) for c in range(reader.num_cores)]
        )
        previous = cut
    return windows
