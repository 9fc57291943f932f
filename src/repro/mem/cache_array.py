"""Set-associative cache array with true-LRU replacement.

This models the tag/data array only; all coherence decisions live in the
controllers. Lines carry actual word values (a dict of word-index -> int),
which lets the test suite verify *functional* coherence — a read really does
observe the most recent write — rather than just counting events.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.engine.errors import SimulationError


class CacheLine:
    """One resident line: coherence state, data words, WiDir metadata."""

    __slots__ = ("line", "state", "dirty", "data", "update_count", "pinned")

    def __init__(self, line: int, state: str) -> None:
        self.line = line
        self.state = state
        self.dirty = False
        #: Word index -> 64-bit value. Sparse: untouched words are implicit 0.
        self.data: Dict[int, int] = {}
        #: WiDir UpdateCount (2-bit saturating counter in hardware).
        self.update_count = 0
        #: Non-zero while the line must not be evicted (RMW in flight or a
        #: wireless write pending in the transceiver). Counts nested pins.
        self.pinned = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = "D" if self.dirty else "-"
        return f"CacheLine(0x{self.line:x}, {self.state}{flag})"


class CacheArray:
    """Tag/data array: ``num_sets`` sets of ``associativity`` ways, true LRU.

    Each set is a plain insertion-ordered dict from line address to
    :class:`CacheLine`, most-recently-used last (an LRU touch deletes and
    re-inserts the key, which moves it to the end — the same ordering an
    ``OrderedDict.move_to_end`` gives, without the heavier per-set object).
    ``Pinned`` lines (RMW in flight) are skipped when choosing a victim.

    The tag array is public: ``sets[line & set_mask]`` is the set ``line``
    maps to. The core's issue loop (:meth:`Core._step
    <repro.cpu.core.Core._step>`) does an L1 hit against it directly: a
    ``get``, then the LRU touch :meth:`lookup` makes. Only
    :meth:`insert` and :meth:`remove` may add or drop a line.
    """

    def __init__(self, num_sets: int, associativity: int) -> None:
        if num_sets <= 0 or num_sets & (num_sets - 1):
            raise SimulationError(f"num_sets must be a power of two, got {num_sets}")
        if associativity < 1:
            raise SimulationError("associativity must be >= 1")
        self.num_sets = num_sets
        self.associativity = associativity
        self.set_mask = num_sets - 1
        self.sets: list[Dict[int, CacheLine]] = [{} for _ in range(num_sets)]
        self._resident = 0
        #: Machine-wide line -> holder bitmask this array keeps current
        #: (see :meth:`track_holders`); None when nothing reads one.
        self._holders: Optional[Dict[int, int]] = None
        self._holder_bit = 0

    def track_holders(self, holders: Dict[int, int], node: int) -> None:
        """Keep bit ``node`` of ``holders[line]`` set while ``line`` is here.

        :meth:`insert` and :meth:`remove` are the only ways a line enters
        or leaves the array, so they maintain the index; a line whose last
        holder leaves is dropped from ``holders``.
        """
        self._holders = holders
        self._holder_bit = 1 << node

    def _set_of(self, line: int) -> Dict[int, CacheLine]:
        return self.sets[line & self.set_mask]

    def __len__(self) -> int:
        return self._resident

    def __contains__(self, line: int) -> bool:
        entry = self._set_of(line).get(line)
        return entry is not None and entry.state != "I"

    def lookup(self, line: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line, updating LRU order unless ``touch=False``.

        The controllers resolve tags here: every protocol message, miss
        and retry. An L1 hit does not call it; the core makes the same
        ``get`` and touch inline (see the class docstring). ``_set_of`` is
        inlined all the same.
        """
        cache_set = self.sets[line & self.set_mask]
        entry = cache_set.get(line)
        if entry is None:
            return None
        if touch:
            # LRU touch: delete + re-insert moves the key to the end of the
            # insertion order (MRU position).
            del cache_set[line]
            cache_set[line] = entry
        return entry

    def needs_victim(self, line: int) -> bool:
        """True if inserting ``line`` requires evicting another line first."""
        cache_set = self._set_of(line)
        return line not in cache_set and len(cache_set) >= self.associativity

    def victim_for(self, line: int) -> Optional[CacheLine]:
        """The LRU non-pinned line that must leave to make room for ``line``.

        Returns None when no eviction is needed. Raises if every way in the
        set is pinned (the controllers bound pinning to one line per core, so
        this can only happen with associativity 1 under an RMW — a
        configuration the controllers reject).
        """
        if not self.needs_victim(line):
            return None
        for candidate in self._set_of(line).values():  # LRU order: oldest first
            if not candidate.pinned:
                return candidate
        raise SimulationError("all ways pinned; cannot pick an eviction victim")

    def insert(self, line: int, state: str) -> CacheLine:
        """Install ``line``; the caller must already have evicted a victim."""
        cache_set = self._set_of(line)
        if line in cache_set:
            raise SimulationError(f"line 0x{line:x} already resident")
        if len(cache_set) >= self.associativity:
            raise SimulationError(
                f"set for line 0x{line:x} is full; evict a victim before insert"
            )
        entry = CacheLine(line, state)
        cache_set[line] = entry
        self._resident += 1
        holders = self._holders
        if holders is not None:
            holders[line] = holders.get(line, 0) | self._holder_bit
        return entry

    def remove(self, line: int) -> CacheLine:
        """Evict ``line`` and return its final contents."""
        cache_set = self._set_of(line)
        entry = cache_set.pop(line, None)
        if entry is None:
            raise SimulationError(f"line 0x{line:x} is not resident")
        self._resident -= 1
        holders = self._holders
        if holders is not None:
            others = holders[line] & ~self._holder_bit
            if others:
                holders[line] = others
            else:
                del holders[line]
        return entry

    def ways_of(self, line: int) -> Iterator[CacheLine]:
        """Resident lines in the set ``line`` maps to, LRU first."""
        return iter(list(self._set_of(line).values()))

    def lines(self) -> Iterator[CacheLine]:
        """Iterate over every resident line (tests and invariant checkers)."""
        for cache_set in self.sets:
            yield from cache_set.values()

    def set_occupancy(self, line: int) -> int:
        """Number of resident ways in the set ``line`` maps to."""
        return len(self._set_of(line))
