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

Each slot is a think gap and then one access pattern:

* **private hot set** — one reference into the core's small working set
  (an expected L1 hit), a store with probability ``write_fraction``;
* **streaming** — one step of a sequential walk over a region far larger
  than the L1 (a capacity miss); the loads are prefetch-friendly, so
  non-blocking;
* **group read/write sharing** — the pattern the paper targets:
  ``shared_burst`` references to one word shared by this core's group,
  reads except that the visit's last reference may be a write;
* **migratory** — a load and a store of a pairwise-shared datum indexed by
  a token that advances with program progress, so ownership migrates.

A **lock section** (test-and-test-and-set: spin loads, an RMW, a critical
section on the line after the lock, a releasing store) follows every
``lock_interval``-th slot, and a **barrier episode** (an RMW on the
phase's counter, spin loads on it, the alignment op) ends each phase.

Every random choice comes from the core's own SplitMix64 stream, in this
order. The stream starts with the lock phase (when locks are on). Per
slot: a think draw (when the think mean exceeds 1), the class roll, then a
hot slot's write flag, index and, for a store, value; nothing for a
streaming slot; for a shared-class slot, the migratory flag (when the
profile has migratory data), then a migratory index, or a shared visit's
group-size pick (when the profile has a sharing mix), index, write flag
and, for a write, value. After a slot, a due lock section draws its lock
id and, per critical op, a load/store flag and a store's value. Last
comes one use-dependence draw per blocking private load, in trace order.

Synthesis does not make those draws one at a time. Draw ``i`` is a pure
function of ``i`` (:func:`~repro.engine.rng.draw_block`), so each core's
stream is drawn in numpy blocks; tables give, for a slot starting at any
draw, its class, its reference count and how many draws it takes; a
short walk over those tables finds where each slot, lock section and
phase end falls; and vectorized numpy fills the five
:class:`~repro.cpu.trace.TraceChunk` columns. The result equals, column
for column and type for type, the one-draw-at-a-time loop kept in
``tests/scalar_synthesis.py`` as the reference.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

from repro.cpu.trace import (
    CODE_BARRIER,
    CODE_LOAD,
    CODE_RMW,
    CODE_STORE,
    CODE_THINK,
    TraceChunk,
)
from repro.engine.rng import DeterministicRng, draw_block
from repro.workloads.layout import SHARED_BASE, AddressLayout
from repro.workloads.profiles import AppProfile

#: Slot classes.
_HOT, _COLD, _MIGRATORY, _SHARED = 0, 1, 2, 3

#: ``randint(0, 1 << 30)`` as one modulus: the value a hot-set or shared
#: store writes; ``randint(0, 1 << 20)``: a critical-section store's.
_STORE_VALUE_SPAN = (1 << 30) + 1
_LOCK_VALUE_SPAN = (1 << 20) + 1

#: Headroom on the expected draw count when sizing a core's first block.
_BLOCK_SLACK = 1.15


class _Shape:
    """One profile's per-slot constants on one machine size: thresholds,
    spans, and where each draw of a slot sits after the slot's first."""

    def __init__(self, profile: AppProfile, num_cores: int) -> None:
        think_mean = max(1, round((1.0 - profile.mem_ratio) / max(profile.mem_ratio, 1e-6)))
        # The geometric inverse CDF's constant denominator, log(1 - 1/mean).
        # A mean of 1 draws nothing.
        self.log_keep = math.log(1.0 - 1.0 / think_mean) if think_mean > 1 else 0.0
        self.phases = max(1, profile.phases)
        # A shared visit emits `burst` references, so the per-visit roll must be
        # deflated for `shared_fraction` to hold as a fraction of *references*:
        # p = f / (b*(1-f) + f).
        f = profile.shared_fraction
        self.burst = b = max(1, profile.shared_burst)
        self.shared_roll = f / (b * (1.0 - f) + f) if f > 0 else 0.0
        self.cold_roll = self.shared_roll + profile.cold_fraction
        self.write_fraction = profile.write_fraction
        self.migratory_fraction = profile.migratory_fraction
        # The group-size pick takes the first size whose running weight sum
        # (added in `sharing_weights()` order) exceeds the roll, else the
        # last; without a sharing mix it draws nothing and takes 8.
        weights = profile.sharing_weights()
        self.cumulative: List[float] = []
        total = 0.0
        for weight in weights.values():
            total += weight
            self.cumulative.append(total)
        self.group_sizes = [min(size, num_cores) for size in weights or (8,)]
        # Per-sharer write intensity scales inversely with the group size: a
        # variable shared machine-wide is written proportionally less often by
        # each sharer (or it would not stay shared). `shared_write_fraction`
        # is the group-of-8 value; wider groups write less, narrower ones more.
        self.group_writes = [
            min(0.5, profile.shared_write_fraction * 8.0 / size)
            for size in self.group_sizes
        ]
        self.hot_words = max(1, profile.hot_words)
        self.shared_words = max(1, profile.shared_words)
        self.cold_region_lines = profile.cold_region_lines
        self.lock_interval = profile.lock_interval
        self.locks = max(1, profile.locks)
        self.lock_spin_reads = profile.lock_spin_reads
        self.lock_critical_ops = profile.lock_critical_ops
        self.barrier_spin_reads = profile.barrier_spin_reads
        self.load_block_fraction = profile.load_block_fraction

        # Draw offsets from a slot's first draw.
        think = 1 if self.log_keep else 0
        self.roll = think
        self.flag = think + 1  # hot write flag, or the migratory flag
        self.index = think + 2  # hot or migratory index
        self.group = self.flag + (1 if self.migratory_fraction > 0.0 else 0)
        self.shared_index = self.group + (1 if self.cumulative else 0)
        #: The most draws one slot can take.
        self.max_draws = max(self.index + 2, self.shared_index + 3)

    def refs(self, cls):
        """How many references slots of classes ``cls`` emit."""
        import numpy as np

        return np.array([1, 1, 2, self.burst])[cls]

    def expected_draws(self, per_phase: int) -> int:
        """The draws a core should take, with headroom: its first block."""
        p_shared = min(1.0, self.shared_roll)
        p_hot = max(0.0, 1.0 - self.cold_roll)
        migratory = max(0.0, self.migratory_fraction)
        visit_refs = migratory * 2 + (1.0 - migratory) * self.burst
        refs_per_slot = 1.0 - p_shared + p_shared * visit_refs
        visit_draws = self.shared_index - self.group + 2 + max(self.group_writes)
        draws_per_slot = (
            self.flag
            + p_hot * (2 + self.write_fraction)
            + p_shared * (self.group - self.flag + migratory + (1.0 - migratory) * visit_draws)
        )
        slots = self.phases * (per_phase / refs_per_slot + 1)
        draws = slots * draws_per_slot
        if self.lock_interval:
            draws += (slots / self.lock_interval + 1) * (2 + 1.5 * self.lock_critical_ops)
        return int(draws * _BLOCK_SLACK) + 1


def think_gaps(unit, log_keep: float):
    """Think gap lengths for think draws ``unit`` (a float64 array):
    ``max(1, ceil(log(1 - u) / log_keep))`` each, as ``math.log`` rounds.

    numpy's vectorized ``log`` need not round like libm's in the last
    bit. That can move ``ceil`` only where the quotient lies next to an
    integer, so those gaps are recomputed with ``math.log``.
    """
    import numpy as np

    quotient = np.log(1.0 - unit) / log_keep
    gaps = np.maximum(np.ceil(quotient), 1.0).astype(np.int64)
    near = np.abs(quotient - np.rint(quotient)) <= 1e-9 * np.maximum(quotient, 1.0)
    for i in np.flatnonzero(near).tolist():
        gaps[i] = max(1, math.ceil(math.log(1.0 - float(unit[i])) / log_keep))
    return gaps


def _modulo(raw, span: int):
    """``raw % span`` as int64: a ``randint(0, span - 1)`` per draw."""
    import numpy as np

    return (raw % np.uint64(span)).astype(np.int64)


def _shared_visits(shape: _Shape, unit, at):
    """The group choice, index-draw position and write flag of the shared
    visits whose slots start at draws ``at``."""
    import numpy as np

    if shape.cumulative:
        below = unit[at + shape.group][:, None] < np.array(shape.cumulative)
        choice = np.where(below.any(axis=1), below.argmax(axis=1), len(shape.cumulative) - 1)
    else:
        choice = np.zeros(len(at), dtype=np.int64)
    index_at = at + shape.shared_index
    write = unit[index_at + 1] < np.array(shape.group_writes)[choice]
    return choice, index_at, write


def _slot_tables(shape: _Shape, unit, lo: int, hi: int):
    """For a slot starting at each draw ``lo <= p < hi``: its class and
    how many draws it takes (the next slot starts that many draws on).
    ``unit`` must hold draws up to ``hi + shape.max_draws``.

    Hot and streaming slots are resolved at every position; the shared
    class's further draws only where the roll is shared.
    """
    import numpy as np

    roll = unit[lo + shape.roll:hi + shape.roll]
    cls = np.where(roll < shape.cold_roll, _COLD, _HOT).astype(np.int8)
    hot_write = unit[lo + shape.flag:hi + shape.flag] < shape.write_fraction
    steps = np.where(cls == _HOT, shape.index + 1 + hot_write, shape.flag)
    shared = np.flatnonzero(roll < shape.shared_roll)
    if len(shared):
        start = shared + lo
        if shape.migratory_fraction > 0.0:
            migratory = unit[start + shape.flag] < shape.migratory_fraction
            cls[shared[migratory]] = _MIGRATORY
            steps[shared[migratory]] = shape.index + 1
            shared, start = shared[~migratory], start[~migratory]
        _, _, write = _shared_visits(shape, unit, start)
        cls[shared] = _SHARED
        steps[shared] = shape.shared_index + 2 + write
    return cls, steps


class _Draws:
    """One core's stream, drawn ahead in blocks, and its slot tables.

    ``raw`` and ``unit`` hold draws ``0 .. positions + shape.max_draws - 1``
    (see :func:`~repro.engine.rng.draw_block`); ``cls``, ``steps`` and
    ``emits`` describe the slot that would start at each draw below
    ``positions``. The walk reads the two lists, whose entries are small
    ints (CPython's shared small-int objects, so the lists allocate no
    int per position); the fill reads ``cls``.
    """

    def __init__(self, rng: DeterministicRng, shape: _Shape, positions: int) -> None:
        self.rng = rng
        self.shape = shape
        self.raw, self.unit = draw_block(rng, 0, positions + shape.max_draws)
        self.cls, steps = _slot_tables(shape, self.unit, 0, positions)
        self.steps: List[int] = steps.tolist()
        self.emits: List[int] = shape.refs(self.cls).tolist()
        self.positions = positions

    def reach(self, position: int) -> None:
        """Continue the stream until a slot may start at ``position``."""
        import numpy as np

        while position >= self.positions:
            count = max(64, self.positions // 4)
            raw, unit = draw_block(self.rng, len(self.raw), count)
            self.raw = np.concatenate((self.raw, raw))
            self.unit = np.concatenate((self.unit, unit))
            cls, steps = _slot_tables(
                self.shape, self.unit, self.positions, self.positions + count
            )
            self.cls = np.concatenate((self.cls, cls))
            self.steps += steps.tolist()
            self.emits += self.shape.refs(cls).tolist()
            self.positions += count


class _Walk(NamedTuple):
    starts: List[int]  # each slot's first draw
    lock_slots: List[int]  # the slot each lock section follows
    lock_draws: List[int]  # each lock section's lock-id draw
    critical_draws: List[int]  # each critical op's load/store flag draw
    phase_ends: List[int]  # each phase's last slot
    end: int  # the first draw after synthesis


def _walk(draws: _Draws, per_phase: int) -> _Walk:
    """Follow the slot control flow over the slot tables: the per-slot
    Python is one table step, the lock counter and the phase ends."""
    shape = draws.shape
    interval = shape.lock_interval
    critical_ops = shape.lock_critical_ops
    steps, emits, limit = draws.steps, draws.emits, draws.positions
    starts: List[int] = []
    lock_slots: List[int] = []
    lock_draws: List[int] = []
    critical_draws: List[int] = []
    phase_ends: List[int] = []
    p = 0
    since_lock = 0
    if interval:
        since_lock = int(draws.raw[0]) % (interval + 1)
        p = 1
    for _ in range(shape.phases):
        emitted = 0
        while emitted < per_phase:
            if p >= limit:
                draws.reach(p)
                limit = draws.positions
            starts.append(p)
            emitted += emits[p]
            p += steps[p]
            if interval:
                since_lock += 1
                if since_lock >= interval:
                    since_lock = 0
                    draws.reach(p + 2 * critical_ops)
                    limit = draws.positions
                    lock_slots.append(len(starts) - 1)
                    lock_draws.append(p)
                    unit = draws.unit
                    p += 1
                    for _ in range(critical_ops):
                        critical_draws.append(p)
                        p += 1 if unit[p] < 0.5 else 2
        phase_ends.append(len(starts) - 1)
    return _Walk(starts, lock_slots, lock_draws, critical_draws, phase_ends, p)


def _fill(draws: _Draws, walk: _Walk, core: int, num_cores: int):
    """Scatter every slot's, lock section's and barrier episode's ops into
    the five columns, then draw the use-dependence of private loads."""
    import numpy as np

    shape = draws.shape
    raw, unit = draws.raw, draws.unit
    layout = AddressLayout(num_cores)
    starts = np.array(walk.starts, dtype=np.int64)
    cls = draws.cls[starts]
    refs = shape.refs(cls)
    lock_after = np.zeros(len(starts), dtype=bool)
    lock_after[walk.lock_slots] = True
    phase_last = np.zeros(len(starts), dtype=bool)
    phase_last[walk.phase_ends] = True
    spin, critical_ops = shape.lock_spin_reads, shape.lock_critical_ops
    lock_ops = spin + critical_ops + 2
    barrier_ops = shape.barrier_spin_reads + 2
    ops = 1 + refs + lock_ops * lock_after + barrier_ops * phase_last
    ends = np.cumsum(ops)
    think_at = ends - ops
    first = think_at + 1  # each slot's first reference
    total = int(ends[-1])

    kinds = np.zeros(total, dtype=np.uint8)
    addresses = np.zeros(total, dtype=np.int64)
    values = np.zeros(total, dtype=np.int64)
    args = np.zeros(total, dtype=np.int64)
    blocking = np.ones(total, dtype=bool)

    kinds[think_at] = CODE_THINK
    args[think_at] = think_gaps(unit[starts], shape.log_keep) if shape.log_keep else 1

    hot = cls == _HOT
    at, o = starts[hot], first[hot]
    write = unit[at + shape.flag] < shape.write_fraction
    kinds[o] = np.where(write, CODE_STORE, CODE_LOAD)
    addresses[o] = layout.private_hot(core, _modulo(raw[at + shape.index], shape.hot_words))
    values[o[write]] = _modulo(raw[at[write] + shape.index + 1], _STORE_VALUE_SPAN)

    cold = cls == _COLD
    o = first[cold]
    cursor = core * 17 + np.arange(len(o))  # de-correlate the walks across cores
    kinds[o] = CODE_LOAD
    addresses[o] = layout.private_cold(core, cursor % shape.cold_region_lines)
    blocking[o] = False

    migratory = cls == _MIGRATORY
    if migratory.any():
        # A visit's token is the streaming cursor when the visit starts.
        token = core * 17 + (np.cumsum(cold) - cold)[migratory]
        at, o = starts[migratory], first[migratory]
        address = layout.shared_word(
            2, token % 8, _modulo(raw[at + shape.index], shape.shared_words)
        )
        kinds[o] = CODE_LOAD
        kinds[o + 1] = CODE_STORE
        addresses[o] = address
        addresses[o + 1] = address
        values[o + 1] = token

    shared = cls == _SHARED
    if shared.any():
        at, o = starts[shared], first[shared]
        choice, index_at, write = _shared_visits(shape, unit, at)
        groups = [layout.group_of(core, size) for size in shape.group_sizes]
        address = layout.shared_word(
            np.array(shape.group_sizes)[choice],
            np.array(groups)[choice],
            _modulo(raw[index_at], shape.shared_words),
        )
        visit = o[:, None] + np.arange(shape.burst)
        kinds[visit] = CODE_LOAD
        addresses[visit] = address[:, None]
        last = o[write] + shape.burst - 1
        kinds[last] = CODE_STORE
        values[last] = _modulo(raw[index_at[write] + 2], _STORE_VALUE_SPAN)

    if walk.lock_slots:
        o = first[walk.lock_slots] + refs[walk.lock_slots]
        lock_id = _modulo(raw[walk.lock_draws], shape.locks)
        lock = layout.lock(lock_id)
        spins = o[:, None] + np.arange(spin)
        kinds[spins] = CODE_LOAD
        addresses[spins] = lock[:, None]
        kinds[o + spin] = CODE_RMW
        addresses[o + spin] = lock
        if critical_ops:
            flag_at = np.array(walk.critical_draws).reshape(-1, critical_ops)
            store = unit[flag_at] >= 0.5
            critical = o[:, None] + spin + 1 + np.arange(critical_ops)
            kinds[critical] = np.where(store, CODE_STORE, CODE_LOAD)
            addresses[critical] = layout.lock_data(lock_id[:, None], np.arange(critical_ops))
            values[critical[store]] = _modulo(raw[flag_at[store] + 1], _LOCK_VALUE_SPAN)
        release = o + lock_ops - 1
        kinds[release] = CODE_STORE
        addresses[release] = lock

    o = first[walk.phase_ends] + refs[walk.phase_ends] + lock_ops * lock_after[walk.phase_ends]
    phase = np.arange(shape.phases)
    barrier = layout.barrier_word(phase)
    kinds[o] = CODE_RMW
    addresses[o] = barrier
    spins = o[:, None] + 1 + np.arange(shape.barrier_spin_reads)
    kinds[spins] = CODE_LOAD
    addresses[spins] = barrier[:, None]
    kinds[o + barrier_ops - 1] = CODE_BARRIER
    args[o + barrier_ops - 1] = phase

    # Shared-data, lock and barrier loads stay blocking unconditionally:
    # reads of shared structures feed immediate uses (pointer dereferences,
    # flag tests), which is precisely why the paper's coherence misses sit
    # on the critical path. The profile's fraction of the private loads is
    # use-dependent, one draw each after every synthesis draw.
    private = np.flatnonzero((kinds == CODE_LOAD) & blocking & (addresses < SHARED_BASE))
    if len(private):
        _, block = draw_block(draws.rng, walk.end, len(private))
        blocking[private] = block < shape.load_block_fraction

    return kinds, addresses, values, args, blocking


def synthesize_columns(
    profile: AppProfile, core: int, num_cores: int, memops: int, seed: int = 0
):
    """One core's trace as five numpy columns: kinds (uint8
    :data:`~repro.cpu.trace.KIND_CODES`), addresses, values, args (int64)
    and blocking (bool).

    This is the recording seam: :func:`~repro.traces.record.record_app_trace`
    writes these arrays straight into trace frames, and
    :func:`build_core_trace` turns the same arrays into a core's
    :class:`~repro.cpu.trace.TraceChunk`, so a recorded trace is
    op-for-op what the live generator runs.
    """
    shape = _Shape(profile, num_cores)
    per_phase = max(1, memops // shape.phases)
    rng = DeterministicRng(seed).split(f"{profile.name}-core{core}")
    draws = _Draws(rng, shape, shape.expected_draws(per_phase))
    return _fill(draws, _walk(draws, per_phase), core, num_cores)


def build_core_trace(
    profile: AppProfile,
    core: int,
    num_cores: int,
    memops: int,
    seed: int = 0,
) -> TraceChunk:
    """Synthesize one core's trace with ``memops`` memory-reference slots.

    :func:`synthesize_columns`' arrays become the typed columns of a
    struct-of-arrays :class:`~repro.cpu.trace.TraceChunk`, the core's
    native format. The draws, and so every column, are those of the
    scalar reference (see the module docstring).
    """
    return TraceChunk.from_columns(
        *synthesize_columns(profile, core, num_cores, memops, seed)
    )


#: The machine trace set built last, as ``(key, traces)``. ``build_traces``
#: is pure, and the runs that reuse a set run next to each other: a pair's
#: two machines, a profile's warm run, a campaign agent that leases both
#: halves of a pair, and a plan's runs, which the executor groups by trace
#: set. So the memo keeps one set, and a miss drops it before the next is
#: synthesized: no process holds two. ``AppProfile`` is a frozen
#: dataclass, so the argument tuple is hashable; exotic unhashable
#: profiles (tests constructing ad-hoc objects) skip the memo.
_LAST_TRACES: Optional[Tuple[Tuple, List[TraceChunk]]] = None


def build_traces(
    profile: AppProfile,
    num_cores: int,
    memops_per_core: int,
    seed: int = 0,
) -> List[TraceChunk]:
    """Build the whole machine's traces (one chunk per core).

    The set built last is memoized on the (pure) argument tuple, so a
    repeat of the last call synthesizes nothing; any other call drops
    that set first. Hits return a fresh *outer list*; the
    :class:`~repro.cpu.trace.TraceChunk` objects themselves are shared —
    the cores consume them strictly read-only (``blocking`` is finalized
    at synthesis time).
    """
    global _LAST_TRACES
    key = (profile, num_cores, memops_per_core, seed)
    try:
        hash(key)
    except TypeError:  # unhashable ad-hoc profile: build unmemoized
        key = None
    if key is not None and _LAST_TRACES is not None and _LAST_TRACES[0] == key:
        return list(_LAST_TRACES[1])
    _LAST_TRACES = None  # free the last set before building the next
    traces = [
        build_core_trace(profile, core, num_cores, memops_per_core, seed)
        for core in range(num_cores)
    ]
    if key is None:
        return traces
    _LAST_TRACES = (key, traces)
    return list(traces)
