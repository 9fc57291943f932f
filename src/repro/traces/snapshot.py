"""Quiescent-point machine snapshots for segmented trace replay.

A long recorded trace is replayed as a sequence of *segments*: run a
window of chunks to full event-queue drain, capture the machine's
architectural state here, persist it atomically, and continue — always
by constructing a **fresh** machine and restoring the snapshot into it.
Because the uninterrupted segmented run and a SIGKILL-then-resume run
both execute the identical construct+restore sequence at every segment
boundary, their final results are byte-identical: resumability falls
out of the segmented-execution contract rather than being a separate
best-effort path.

Snapshots are taken only at *quiescent points* — the event queue fully
drained between segments — which keeps the captured surface small and
exact: no in-flight messages, no MSHRs, no busy directory transactions,
no wireless arbitration. :func:`capture_machine` asserts all of that
(raising :class:`SnapshotError` on any violation) rather than trusting
the caller, so a snapshot can never silently drop protocol state.

What *is* captured, exhaustively:

* cache arrays — per-set resident lines in insertion (LRU) order with
  state/dirty/data/update-count, each controller's RNG state and request
  serial (plus rival-backend scalars like ``_phase``/``_hyb_serial``);
* directory arrays — the lazily-allocated set dict in allocation order
  (empty sets included: allocation order is observable via dict order),
  entries in LRU order with the full pointer/overflow/W-state fields;
* main memory lines and per-controller busy horizons;
* mesh link/pair-ordering horizons still relevant to the future (past
  horizons cannot affect a later send, so they are left out);
* wireless channel busy horizon and per-node backoff RNG states;
* the stats registry — counters/latencies/binned/exact in insertion
  order, so a restored registry reports in the same order it would have
  live (result serialization preserves dict order);
* per-core :class:`~repro.cpu.core.CoreResult` accumulators;
* the clock and the root RNG state.

Persistence goes through :func:`repro.harness.ioutils.atomic_write_json`
(tmp + fsync + rename), so a SIGKILL mid-save leaves the previous
snapshot intact — the resume path simply replays one more segment.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.harness.ioutils import atomic_write_json
from repro.mem.cache_array import CacheLine

#: Bump on any change to the snapshot layout; loads reject other versions.
SNAPSHOT_SCHEMA_VERSION = 1

#: Rival-backend per-controller scalars captured when present (the
#: pluggable backends subclass the stock controllers and add only these).
_EXTRA_SCALARS = ("_phase", "_hyb_serial")


class SnapshotError(RuntimeError):
    """A snapshot cannot be taken, loaded, or restored."""


# --------------------------------------------------------------- quiescence


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise SnapshotError(f"machine not quiescent: {what}")


def assert_quiescent(machine, cores, barrier=None) -> None:
    """Verify nothing is in flight anywhere; raise :class:`SnapshotError`.

    A fully drained event queue implies all of this, but each structure is
    checked independently so a protocol bug (or a future structure that
    self-schedules) fails loudly at the capture site instead of producing
    a snapshot that silently drops state.
    """
    sim = machine.sim
    _require(sim.pending_events == 0, f"{sim.pending_events} events still queued")
    for cache in machine.caches:
        node = cache.node
        _require(len(cache.mshrs) == 0, f"cache {node} has live MSHRs")
        _require(not cache._evicting, f"cache {node} has evictions in flight")
        _require(
            not cache._pending_wireless,
            f"cache {node} has pending wireless writes",
        )
        _require(not cache._rmw_watch, f"cache {node} has RMW watches armed")
        for line in cache.array.lines():
            _require(
                line.pinned == 0,
                f"cache {node} line 0x{line.line:x} is pinned",
            )
    for directory in machine.directories:
        for entry in directory.array.entries():
            _require(
                not entry.busy and entry.transaction is None,
                f"directory {directory.node} entry 0x{entry.line:x} is busy",
            )
            _require(
                not entry.deferred,
                f"directory {directory.node} entry 0x{entry.line:x} has "
                "deferred requests",
            )
    if machine.tone is not None:
        _require(not machine.tone._operations, "tone channel has live operations")
    wireless = machine.wireless
    if wireless is not None:
        _require(not wireless._pending, "wireless channel has queued requests")
        _require(
            wireless._active_request is None, "wireless transmission in flight"
        )
        _require(not wireless._jammed_lines, "wireless lines still jammed")
        _require(
            wireless._arbitration_scheduled_at is None,
            "wireless arbitration scheduled",
        )
    if barrier is not None:
        _require(not barrier._arrived, "cores parked at a phase barrier")
    for core in cores:
        _require(
            core._outstanding_loads == 0 and core._wb_occupancy == 0,
            f"core {core.node} has outstanding memory traffic",
        )


# ------------------------------------------------------------------ capture


def _words_out(data) -> List[List[int]]:
    """A line's sparse words as ``[word, value]`` pairs, insertion order."""
    return [[int(w), int(v)] for w, v in data.items()]


def _extras_out(component) -> Dict[str, int]:
    return {
        name: getattr(component, name)
        for name in _EXTRA_SCALARS
        if hasattr(component, name)
    }


def _capture_cache(cache) -> Dict:
    sets_out = []
    for index, cache_set in enumerate(cache.array._sets):
        if not cache_set:
            continue
        sets_out.append(
            [
                index,
                [
                    [ln.line, ln.state, ln.dirty, _words_out(ln.data), ln.update_count]
                    for ln in cache_set.values()
                ],
            ]
        )
    out = {
        "rng": cache._rng._state,
        "serial": cache._request_serial,
        "sets": sets_out,
    }
    extras = _extras_out(cache)
    if extras:
        out["extra"] = extras
    return out


def _capture_directory(directory) -> Dict:
    # The outer dict's order *is* state: sets are allocated lazily on first
    # reference and victim scans walk per-set dicts in insertion order, so
    # empty-but-allocated sets are saved too.
    sets_out = []
    for index, dir_set in directory.array._sets.items():
        sets_out.append(
            [
                index,
                [
                    [
                        e.line,
                        e.state,
                        e.owner,
                        sorted(e.sharers),
                        e.broadcast,
                        sorted(e.coarse_regions),
                        e.sharer_count,
                        _words_out(e.data),
                        e.has_data,
                        e.dirty,
                    ]
                    for e in dir_set.values()
                ],
            ]
        )
    out: Dict = {"sets": sets_out}
    extras = _extras_out(directory)
    if extras:
        out["extra"] = extras
    return out


def _capture_stats(stats) -> Dict:
    return {
        "counters": [[name, c.value] for name, c in stats._counters.items()],
        "latencies": [
            [name, s.count, s.total, s.min, s.max]
            for name, s in stats._latencies.items()
        ],
        "binned": [
            [name, [list(b) for b in h.bins], list(h.counts), h.overflow]
            for name, h in stats._binned.items()
        ],
        "exact": [
            [name, [[int(v), int(c)] for v, c in h.counts.items()]]
            for name, h in stats._exact.items()
        ],
    }


def _capture_core(core) -> Dict:
    result = core.result
    return {
        "instructions": result.instructions,
        "memory_stall_cycles": result.memory_stall_cycles,
        "sync_stall_cycles": result.sync_stall_cycles,
        "finish_cycle": result.finish_cycle,
        "load_latency": _latency_out(result.load_latency),
        "store_latency": _latency_out(result.store_latency),
        "latency_hist": result.latency_hist.to_dict(),
    }


def _latency_out(stat) -> List:
    return [stat.count, stat.total, stat.min, stat.max]


def _capture_mesh(mesh, now: int) -> Dict:
    # Entries at or before ``now`` can never influence a future send: a
    # pair-order entry only matters through ``t + 1`` (the earliest next
    # delivery) and a link only through ``t`` (the cycle it frees up), and
    # no message departs before ``now``. So they are left out.
    return {
        "pair_order": [
            [src, dst, t] for (src, dst), t in mesh._pair_order.items() if t + 1 > now
        ],
        "links": [
            [a, b, t] for (a, b), t in mesh._link_busy_until.items() if t > now
        ],
    }


def capture_machine(machine, cores, barrier=None, progress: Optional[Dict] = None) -> Dict:
    """Capture a fully-drained machine's architectural state as a dict.

    ``progress`` is an opaque caller payload (replay cursors, segment
    numbers) stored verbatim under ``"progress"`` — the snapshot module
    itself is agnostic to what drives the machine between snapshots.
    """
    assert_quiescent(machine, cores, barrier)
    sim = machine.sim
    snap: Dict = {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "now": sim.now,
        "sim_rng": sim.rng._state,
        "caches": [_capture_cache(cache) for cache in machine.caches],
        "directories": [_capture_directory(d) for d in machine.directories],
        "memory": [
            [line, _words_out(data)] for line, data in machine.memory._lines.items()
        ],
        "memory_controllers": [
            mc._busy_until for mc in machine.memory_controllers
        ],
        "mesh": _capture_mesh(machine.mesh, sim.now),
        "stats": _capture_stats(machine.stats),
        "cores": [_capture_core(core) for core in cores],
    }
    if machine.wireless is not None:
        snap["wireless"] = {
            "busy_until": machine.wireless._busy_until,
            "backoff": [p._rng._state for p in machine.wireless._backoff],
            # MAC-specific state beyond the backoff streams (token position,
            # CSMA persistence RNG, FDMA sub-channel horizons; {} for brs).
            "mac": machine.wireless._mac.snapshot(),
        }
        errors = machine.wireless._errors
        if errors is not None:
            snap["wireless"]["errors_rng"] = errors._rng._state
    if progress is not None:
        snap["progress"] = progress
    return snap


# ------------------------------------------------------------------ restore


def _restore_cache(cache, payload: Dict) -> None:
    cache._rng._state = payload["rng"]
    cache._request_serial = payload["serial"]
    array = cache.array
    resident = 0
    for index, lines in payload["sets"]:
        cache_set = array._sets[index]
        for line, state, dirty, words, update_count in lines:
            entry = CacheLine(line, state)
            entry.dirty = dirty
            entry.data = {int(w): int(v) for w, v in words}
            entry.update_count = update_count
            cache_set[line] = entry
            resident += 1
    array._resident = resident
    _restore_extras(cache, payload)


def _restore_directory(directory, payload: Dict) -> None:
    from repro.coherence.directory import DirectoryEntry

    array = directory.array
    for index, entries in payload["sets"]:
        dir_set = array._sets[index] = {}
        for (
            line,
            state,
            owner,
            sharers,
            broadcast,
            coarse_regions,
            sharer_count,
            words,
            has_data,
            dirty,
        ) in entries:
            entry = DirectoryEntry(line)
            entry.state = state
            entry.owner = owner
            entry.sharers = set(sharers)
            entry.broadcast = broadcast
            entry.coarse_regions = set(coarse_regions)
            entry.sharer_count = sharer_count
            entry.data = {int(w): int(v) for w, v in words}
            entry.has_data = has_data
            entry.dirty = dirty
            dir_set[line] = entry
    _restore_extras(directory, payload)


def _restore_extras(component, payload: Dict) -> None:
    for name, value in payload.get("extra", {}).items():
        if name not in _EXTRA_SCALARS:
            raise SnapshotError(f"unknown controller extra {name!r} in snapshot")
        if not hasattr(component, name):
            raise SnapshotError(
                f"snapshot carries {name!r} but "
                f"{type(component).__name__} has no such state "
                "(protocol backend mismatch?)"
            )
        setattr(component, name, value)


def _restore_stats(stats, payload: Dict) -> None:
    # Walking the saved lists in order appends any dynamically-created
    # collector in its original creation position; collectors the fresh
    # machine already built keep theirs. Registry report order — which
    # result serialization preserves — therefore matches the live run.
    for name, value in payload["counters"]:
        stats.counter(name).value = value
    for name, count, total, lo, hi in payload["latencies"]:
        stat = stats.latency(name)
        stat.count, stat.total, stat.min, stat.max = count, total, lo, hi
    for name, bins, counts, overflow in payload["binned"]:
        hist = stats.histogram(name, [tuple(b) for b in bins])
        if len(hist.counts) != len(counts):
            raise SnapshotError(f"binned histogram {name!r} bin count changed")
        # In place: components bind the counts list itself (e.g. the mesh's
        # _hop_counts), so rebinding would orphan their writes.
        hist.counts[:] = counts
        hist.overflow = overflow
    for name, items in payload["exact"]:
        hist = stats.exact_histogram(name)
        hist.counts.clear()
        for value, count in items:
            hist.counts[value] = count


def _restore_core(core, payload: Dict) -> None:
    result = core.result
    result.instructions = payload["instructions"]
    result.memory_stall_cycles = payload["memory_stall_cycles"]
    result.sync_stall_cycles = payload["sync_stall_cycles"]
    result.finish_cycle = payload["finish_cycle"]
    _restore_latency(result.load_latency, payload["load_latency"])
    _restore_latency(result.store_latency, payload["store_latency"])
    # In place: the core binds the histogram's record method at construction.
    hist = result.latency_hist
    saved = payload["latency_hist"]
    hist.count = saved["count"]
    hist.total = saved["total"]
    hist.min = saved["min"]
    hist.max = saved["max"]
    hist.buckets[:] = [0] * hist.NUM_BUCKETS
    for key, value in saved.get("buckets", {}).items():
        hist.buckets[int(key)] = int(value)


def _restore_latency(stat, saved: List) -> None:
    stat.count, stat.total, stat.min, stat.max = saved


def restore_machine(machine, cores, snapshot: Dict) -> None:
    """Load ``snapshot`` into a freshly constructed machine + cores.

    The machine must be newly built from the *same* config that produced
    the snapshot (empty arrays, zero clock); restore is purely additive
    and does not clear pre-existing state.
    """
    if snapshot.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot schema {snapshot.get('schema')!r} != "
            f"supported {SNAPSHOT_SCHEMA_VERSION}"
        )
    sim = machine.sim
    if sim.now != 0 or sim.pending_events:
        raise SnapshotError("restore target machine is not freshly constructed")
    if len(snapshot["caches"]) != len(machine.caches):
        raise SnapshotError(
            f"snapshot has {len(snapshot['caches'])} caches, "
            f"machine has {len(machine.caches)} (config mismatch?)"
        )
    if len(snapshot["cores"]) != len(cores):
        raise SnapshotError("snapshot core count does not match")
    sim.now = snapshot["now"]
    sim.rng._state = snapshot["sim_rng"]
    for cache, payload in zip(machine.caches, snapshot["caches"]):
        _restore_cache(cache, payload)
    for directory, payload in zip(machine.directories, snapshot["directories"]):
        _restore_directory(directory, payload)
    memory = machine.memory._lines
    for line, words in snapshot["memory"]:
        memory[line] = {int(w): int(v) for w, v in words}
    for mc, busy_until in zip(
        machine.memory_controllers, snapshot["memory_controllers"]
    ):
        mc._busy_until = busy_until
    mesh = machine.mesh
    for src, dst, t in snapshot["mesh"]["pair_order"]:
        mesh._pair_order[(src, dst)] = t
    for a, b, t in snapshot["mesh"]["links"]:
        mesh._link_busy_until[(a, b)] = t
    wireless_saved = snapshot.get("wireless")
    if (wireless_saved is None) != (machine.wireless is None):
        raise SnapshotError("snapshot wireless presence does not match config")
    if wireless_saved is not None:
        machine.wireless._busy_until = wireless_saved["busy_until"]
        for policy, state in zip(
            machine.wireless._backoff, wireless_saved["backoff"]
        ):
            policy._rng._state = state
        # Absent in snapshots recorded before MAC backends were pluggable;
        # those ran brs, whose extra state is empty.
        mac_saved = wireless_saved.get("mac")
        if mac_saved:
            machine.wireless._mac.restore(mac_saved)
        errors_rng = wireless_saved.get("errors_rng")
        if errors_rng is not None and machine.wireless._errors is not None:
            machine.wireless._errors._rng._state = errors_rng
    _restore_stats(machine.stats, snapshot["stats"])
    for core, payload in zip(cores, snapshot["cores"]):
        _restore_core(core, payload)


# -------------------------------------------------------------- persistence


def save_snapshot(path: Union[str, Path], snapshot: Dict) -> None:
    """Atomically persist ``snapshot`` (tmp + fsync + rename)."""
    atomic_write_json(Path(path), snapshot)


def load_snapshot(path: Union[str, Path]) -> Dict:
    """Load and schema-check a snapshot written by :func:`save_snapshot`."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot load snapshot {path}: {exc}") from None
    if not isinstance(snapshot, dict) or snapshot.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"{path}: not a version-{SNAPSHOT_SCHEMA_VERSION} snapshot"
        )
    return snapshot
