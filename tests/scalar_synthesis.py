"""The scalar trace synthesizer: the reference the vectorized generator
must match column for column.

:func:`scalar_core_trace` walks a core's memory-reference slots one at a
time, drawing each random value with a
:class:`~repro.engine.rng.DeterministicRng` method call and appending each
op through the access-pattern emitters below. It defines the reference
stream: :func:`repro.workloads.generator.build_core_trace` computes the
same draws in numpy blocks and must return identical columns
(``tests/test_synthesis_equivalence.py``).

The emitters each model one archetypal sharing behaviour from the
coherence literature:

* **streaming** — a sequential walk over a region far larger than the L1
  (pure capacity misses, read-mostly);
* **group read/write sharing** — the pattern the paper targets: a group of
  cores frequently reading and occasionally writing the same lines;
* **migratory** — one core at a time read-modify-writes a datum, then the
  next core takes over;
* **lock section** — test-and-test-and-set acquire (spin loads + RMW),
  a short critical section, and a releasing store;
* **barrier episode** — an RMW on the barrier counter, spin loads on it,
  and the cross-core alignment op.

The commonest slot — a think gap followed by a reference into the core's
private hot set — is written inline in the slot loop.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.cpu.trace import (
    CODE_LOAD,
    KIND_NAMES,
    TraceChunk,
    barrier,
    load,
    rmw,
    store,
    think,
)
from repro.engine.rng import DeterministicRng
from repro.workloads.layout import SHARED_BASE, WORD, AddressLayout
from repro.workloads.profiles import AppProfile

#: ``randint(0, 1 << 30)`` as one modulus: the value a hot-set store writes.
_STORE_VALUE_SPAN = (1 << 30) + 1


def emit_streaming_access(
    chunk: TraceChunk,
    layout: AddressLayout,
    core: int,
    cursor: List[int],
    region_lines: int,
    write: bool = False,
) -> None:
    """One reference of a sequential walk (expected L1 capacity miss).

    ``cursor`` is a single-element list carrying the walk position across
    calls; stepping a full line each time defeats spatial reuse, which is
    what makes every reference a miss once the region exceeds the L1.
    """
    address = layout.private_cold(core, cursor[0] % region_lines)
    cursor[0] += 1
    if write:
        chunk.append(store(address, cursor[0]))
    else:
        # Streaming loads are prefetch-friendly: model as non-blocking.
        chunk.append(load(address, blocking=False))


def emit_shared_access(
    chunk: TraceChunk,
    rng: DeterministicRng,
    layout: AddressLayout,
    core: int,
    group_size: int,
    shared_words: int,
    write_fraction: float,
    burst: int = 1,
) -> int:
    """A visit to data shared by this core's group (the WiDir pattern).

    Emits ``burst`` consecutive references to the same shared word — mostly
    reads, with at most one write per visit — modelling the read-dominant
    reuse between remote writes that shared data exhibits in practice.
    Returns the number of references emitted.
    """
    size = min(group_size, layout.num_cores)
    group_id = layout.group_of(core, size)
    address = layout.shared_word(
        size, group_id, rng.randint(0, max(0, shared_words - 1))
    )
    count = max(1, burst)
    # Per-sharer write intensity scales inversely with the group size: a
    # variable shared machine-wide is written proportionally less often by
    # each sharer (or it would not stay shared). ``write_fraction`` is the
    # group-of-8 value; wider groups write less, narrower ones more.
    effective_write = min(0.5, write_fraction * 8.0 / size)
    write_at = count - 1 if rng.random() < effective_write else -1
    for i in range(count):
        if i == write_at:
            chunk.append(store(address, rng.randint(0, 1 << 30)))
        else:
            chunk.append(load(address))
    return count


def emit_migratory_access(
    chunk: TraceChunk,
    rng: DeterministicRng,
    layout: AddressLayout,
    core: int,
    token: int,
    shared_words: int,
) -> None:
    """Read-modify-write of a migratory datum (exclusive ping-ponging)."""
    # Migratory data is modelled as pairwise-shared lines indexed by a
    # token that advances with program progress, so ownership migrates.
    address = layout.shared_word(2, token % 8, rng.randint(0, max(0, shared_words - 1)))
    chunk.append(load(address))
    chunk.append(store(address, token))


def emit_lock_section(
    chunk: TraceChunk,
    rng: DeterministicRng,
    layout: AddressLayout,
    lock_id: int,
    spin_reads: int,
    critical_ops: int,
) -> None:
    """Test-and-test-and-set acquire, critical section, release.

    The spin loads put the lock line into wide read-sharing — at high core
    counts this is the canonical source of the paper's 50+-sharers bin.
    """
    lock_address = layout.lock(lock_id)
    for _ in range(spin_reads):
        chunk.append(load(lock_address))
    chunk.append(rmw(lock_address))
    # Critical section: touch the data the lock guards (its own line, so
    # these stores do not collide with other cores' lock acquisitions).
    for i in range(critical_ops):
        address = layout.lock_data(lock_id, i)
        if rng.random() < 0.5:
            chunk.append(load(address))
        else:
            chunk.append(store(address, rng.randint(0, 1 << 20)))
    chunk.append(store(lock_address, 0))  # release


def emit_barrier_episode(
    chunk: TraceChunk,
    layout: AddressLayout,
    phase: int,
    spin_reads: int,
) -> None:
    """Arrive at a barrier: bump the counter, spin on it, then align."""
    barrier_address = layout.barrier_word(phase)
    chunk.append(rmw(barrier_address))
    for _ in range(spin_reads):
        chunk.append(load(barrier_address))
    chunk.append(barrier(phase))


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


def scalar_core_trace(
    profile: AppProfile,
    core: int,
    num_cores: int,
    memops: int,
    seed: int = 0,
) -> TraceChunk:
    """Synthesize one core's trace with ``memops`` memory-reference slots,
    one draw and one op at a time (see the module docstring)."""
    rng = DeterministicRng(seed).split(f"{profile.name}-core{core}")
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
    append = chunk.append
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
                append(think(max(1, math.ceil(math.log(1.0 - rng_random()) / log_keep))))
            else:
                append(think(1))
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
                    append(store(address, next_u64() % _STORE_VALUE_SPAN))
                else:
                    append(load(address))
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
    the critical path. The rng draws occur in trace order, one per eligible
    private load, after every synthesis draw.
    """
    kinds = chunk.kinds
    addresses = chunk.addresses
    blocking = chunk.blocking
    rng_random = rng.random
    for i, kind in enumerate(kinds):
        if kind == CODE_LOAD and blocking[i] and addresses[i] < SHARED_BASE:
            blocking[i] = rng_random() < block_fraction


def column_lists(chunk: TraceChunk) -> List[list]:
    """A chunk's five columns as plain lists, in the form the synthesis
    tests compare and hash: kind names, ints and bools."""
    return [
        [KIND_NAMES[code] for code in chunk.kinds],
        list(chunk.addresses),
        list(chunk.values),
        list(chunk.args),
        [bool(flag) for flag in chunk.blocking],
    ]
