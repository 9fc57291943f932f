"""Trace synthesis: profile -> per-core operation traces.

``build_traces`` is a pure function of (profile, num_cores, length, seed):
the same inputs always yield the same traces, so the Baseline and WiDir
machines are driven by *identical* reference streams and their cycle counts
are directly comparable.

A trace is organized into ``profile.phases`` barrier-separated phases. Inside
a phase, each memory-reference slot draws an access class from the profile's
fractions (private-hot / private-streaming / shared / migratory), lock
sections are interleaved every ``lock_interval`` references, and geometric
think gaps between references realize the profile's memory intensity.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.cpu.trace import OP_LOAD, TraceChunk
from repro.engine.rng import DeterministicRng
from repro.workloads.layout import WORD, AddressLayout
from repro.workloads.patterns import (
    emit_barrier_episode,
    emit_lock_section,
    emit_migratory_access,
    emit_shared_access,
    emit_streaming_access,
)
from repro.workloads.profiles import AppProfile

#: ``randint(0, 1 << 30)`` as one modulus: the value a hot-set store writes.
_STORE_VALUE_SPAN = (1 << 30) + 1


def _pick_group_size(weights: Dict[int, float], rng: DeterministicRng) -> int:
    if not weights:
        return 8
    roll = rng.random()
    cumulative = 0.0
    for size, weight in weights.items():
        cumulative += weight
        if roll < cumulative:
            return size
    return next(reversed(weights))


def build_core_trace(
    profile: AppProfile,
    core: int,
    num_cores: int,
    memops: int,
    seed: int = 0,
) -> TraceChunk:
    """Synthesize one core's trace with ``memops`` memory-reference slots.

    Operations go straight into the columns of a struct-of-arrays
    :class:`~repro.cpu.trace.TraceChunk`, the core's native format. The
    RNG is the buffered (vectorized-refill) stream, which produces
    bit-for-bit the draws of the scalar stream.

    Every slot starts with a think gap, and most slots then reference the
    core's private hot set. Both are written inline below rather than
    through an emitter, with every per-core constant hoisted out of the
    slot loop; the draws and their order are exactly those of
    :meth:`~repro.engine.rng.DeterministicRng.geometric` followed by a
    write roll, an index ``randint`` and, for a store, a value ``randint``.
    """
    rng = DeterministicRng(seed).split(f"{profile.name}-core{core}").buffered()
    layout = AddressLayout(num_cores)
    chunk = TraceChunk()
    think_mean = max(1, round((1.0 - profile.mem_ratio) / max(profile.mem_ratio, 1e-6)))
    phases = max(1, profile.phases)
    per_phase = max(1, memops // phases)
    cold_cursor = [core * 17]  # de-correlate the streaming walks across cores
    since_lock = rng.randint(0, profile.lock_interval) if profile.lock_interval else 0
    # A shared visit emits `burst` references, so the per-visit roll must be
    # deflated for `shared_fraction` to hold as a fraction of *references*:
    # p = f / (b*(1-f) + f).
    f = profile.shared_fraction
    b = max(1, profile.shared_burst)
    shared_roll = f / (b * (1.0 - f) + f) if f > 0 else 0.0
    cold_roll = shared_roll + profile.cold_fraction
    sharing_weights = profile.sharing_weights()

    rng_random = rng.random
    next_u64 = rng.next_u64
    append_think = chunk.append_think
    append_load = chunk.append_load
    append_store = chunk.append_store
    # Think gaps: the geometric inverse CDF, with its constant denominator
    # log(1 - 1/mean) computed once. A mean of 1 draws nothing.
    log_keep = math.log(1.0 - 1.0 / think_mean) if think_mean > 1 else 0.0
    hot_base = layout.private_hot(core, 0)
    hot_words = max(1, profile.hot_words)
    write_fraction = profile.write_fraction

    for phase in range(phases):
        emitted = 0
        while emitted < per_phase:
            emitted += 1
            if log_keep:
                append_think(max(1, math.ceil(math.log(1.0 - rng_random()) / log_keep)))
            else:
                append_think(1)
            roll = rng_random()
            if roll < shared_roll:
                if (
                    profile.migratory_fraction > 0.0
                    and rng_random() < profile.migratory_fraction
                ):
                    emit_migratory_access(
                        chunk, rng, layout, core, cold_cursor[0], profile.shared_words
                    )
                    emitted += 1  # migratory visits emit two references
                else:
                    emitted += emit_shared_access(
                        chunk,
                        rng,
                        layout,
                        core,
                        _pick_group_size(sharing_weights, rng),
                        profile.shared_words,
                        profile.shared_write_fraction,
                        profile.shared_burst,
                    ) - 1
            elif roll < cold_roll:
                emit_streaming_access(
                    chunk, layout, core, cold_cursor, profile.cold_region_lines
                )
            else:
                # One reference into the private hot set (expected L1 hit).
                write = rng_random() < write_fraction
                address = hot_base + next_u64() % hot_words * WORD
                if write:
                    append_store(address, next_u64() % _STORE_VALUE_SPAN)
                else:
                    append_load(address)
            if profile.lock_interval:
                since_lock += 1
                if since_lock >= profile.lock_interval:
                    since_lock = 0
                    emit_lock_section(
                        chunk,
                        rng,
                        layout,
                        rng.randint(0, max(0, profile.locks - 1)),
                        profile.lock_spin_reads,
                        profile.lock_critical_ops,
                    )
        emit_barrier_episode(chunk, layout, phase, profile.barrier_spin_reads)

    _apply_blocking_fractions(chunk, rng, profile.load_block_fraction)
    return chunk


def _apply_blocking_fractions(
    chunk: TraceChunk, rng: DeterministicRng, block_fraction: float
) -> None:
    """Mark the profile's fraction of *private* loads as use-dependent.

    Shared-data, lock, and barrier loads stay blocking unconditionally:
    reads of shared structures feed immediate uses (pointer dereferences,
    flag tests), which is precisely why the paper's coherence misses sit on
    the critical path. Operates on the chunk columns in place; the rng
    draws occur in trace order, one per eligible private load — the exact
    sequence the per-op loop drew.
    """
    from repro.workloads.layout import SHARED_BASE

    kinds = chunk.kinds
    addresses = chunk.addresses
    blocking = chunk.blocking
    rng_random = rng.random
    for i, kind in enumerate(kinds):
        if kind == OP_LOAD and blocking[i] and addresses[i] < SHARED_BASE:
            blocking[i] = rng_random() < block_fraction


def iter_core_trace_chunks(
    profile: AppProfile,
    core: int,
    num_cores: int,
    memops: int,
    seed: int = 0,
    chunk_records: int = 8192,
):
    """Yield one core's trace as successive chunks of ``chunk_records`` ops.

    This is the recording seam: the trace recorder consumes these slices
    and the replay frontend streams them back through
    ``Core.run_trace(chunk_source=...)``. The underlying stream is the
    *same* :func:`build_core_trace` output — sliced, not re-generated —
    so a recorded trace is op-for-op identical to the live generator on
    every kernel and every protocol backend (the replay golden-digest
    tests lock this). Memory here is O(one core's trace); the written
    file is then replayable in O(chunk).
    """
    chunk = build_core_trace(profile, core, num_cores, memops, seed)
    total = len(chunk.kinds)
    for start in range(0, total, chunk_records):
        yield chunk.slice(start, min(start + chunk_records, total))
    if total == 0:
        yield TraceChunk()


#: Memoized machine traces. ``build_traces`` is pure and the harness calls
#: it twice per experiment point (once for Baseline, once for WiDir) with
#: identical arguments — synthesis was ~a quarter of end-to-end wall time in
#: the seed. :class:`~repro.workloads.profiles.AppProfile` is a frozen
#: dataclass, so the argument tuple is hashable; exotic unhashable profiles
#: (tests constructing ad-hoc objects) skip the cache.
_TRACE_CACHE: "OrderedDict[Tuple, List[TraceChunk]]" = OrderedDict()
_TRACE_CACHE_CAP = 8


def build_traces(
    profile: AppProfile,
    num_cores: int,
    memops_per_core: int,
    seed: int = 0,
) -> List[TraceChunk]:
    """Build the whole machine's traces (one chunk per core).

    Results are memoized on the (pure) argument tuple. Cached hits return
    a fresh *outer list*; the :class:`~repro.cpu.trace.TraceChunk` objects
    themselves are shared — the cores consume them strictly read-only
    (``blocking`` is finalized at synthesis time).
    """
    try:
        key = (profile, num_cores, memops_per_core, seed)
        cached = _TRACE_CACHE.get(key)
    except TypeError:  # unhashable ad-hoc profile: build uncached
        key = None
        cached = None
    if cached is not None:
        _TRACE_CACHE.move_to_end(key)
        return list(cached)
    traces = [
        build_core_trace(profile, core, num_cores, memops_per_core, seed)
        for core in range(num_cores)
    ]
    if key is not None:
        _TRACE_CACHE[key] = traces
        if len(_TRACE_CACHE) > _TRACE_CACHE_CAP:
            _TRACE_CACHE.popitem(last=False)
        return list(traces)
    return traces
