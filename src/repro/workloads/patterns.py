"""Reusable access-pattern emitters.

Each emitter appends operations straight to the columns of a
:class:`~repro.cpu.trace.TraceChunk`, modelling one archetypal sharing
behaviour from the coherence literature:

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
private hot set — is written inline by
:func:`~repro.workloads.generator.build_core_trace`, which runs it once per
memory-reference slot.

The emitters take a :class:`~repro.engine.rng.DeterministicRng` so a trace
is a pure function of (profile, config, seed).
"""

from __future__ import annotations

from typing import List

from repro.cpu.trace import TraceChunk
from repro.engine.rng import DeterministicRng
from repro.workloads.layout import AddressLayout


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
        chunk.append_store(address, cursor[0])
    else:
        # Streaming loads are prefetch-friendly: model as non-blocking.
        chunk.append_load(address, blocking=False)


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
            chunk.append_store(address, rng.randint(0, 1 << 30))
        else:
            chunk.append_load(address)
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
    chunk.append_load(address)
    chunk.append_store(address, token)


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
        chunk.append_load(lock_address)
    chunk.append_rmw(lock_address)
    # Critical section: touch the data the lock guards (its own line, so
    # these stores do not collide with other cores' lock acquisitions).
    for i in range(critical_ops):
        address = layout.lock_data(lock_id, i)
        if rng.random() < 0.5:
            chunk.append_load(address)
        else:
            chunk.append_store(address, rng.randint(0, 1 << 20))
    chunk.append_store(lock_address, 0)  # release


def emit_barrier_episode(
    chunk: TraceChunk,
    layout: AddressLayout,
    phase: int,
    spin_reads: int,
) -> None:
    """Arrive at a barrier: bump the counter, spin on it, then align."""
    barrier_address = layout.barrier_word(phase)
    chunk.append_rmw(barrier_address)
    for _ in range(spin_reads):
        chunk.append_load(barrier_address)
    chunk.append_barrier(phase)
