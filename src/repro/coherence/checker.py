"""Global coherence invariant checking — quiescent and online.

The checker inspects the *whole machine* — every private cache and every
directory slice — and verifies the invariants that any correct realization
of the protocol must maintain at quiescent points:

* **SWMR**: a line held Modified/Exclusive anywhere is held nowhere else.
* **Directory accuracy**: a non-busy directory entry's state agrees with the
  private caches (owner really holds E/M; every S holder is recorded unless
  its eviction notice is still in flight; W holders do not exceed
  SharerCount).
* **Value agreement**: all Shared/Wireless copies of a word, the LLC copy,
  and (when no dirty copy exists) memory agree.

Tests call :meth:`CoherenceChecker.check` between phases and at the end of a
run; it raises :class:`~repro.engine.errors.ProtocolError` with a precise
description on the first violation.

:class:`OnlineInvariantMonitor` applies the same per-line predicates *during*
a run (paper-hunting mode for the verification subsystem, enabled by
``SystemConfig.check_interval``): controllers report every line they touch,
and a periodic sweep validates SWMR immediately plus directory accuracy and
value agreement once the line is *quiet* — no wired message, wireless frame,
tone operation, MSHR, eviction buffer, pending wireless write, or busy home
entry still refers to it. That per-line quiescence predicate is what lets the
strong invariants run mid-simulation without false positives from legal
transient windows (e.g. a committed-but-undelivered WirUpd).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.coherence.states import (
    DIR_EXCLUSIVE,
    DIR_SHARED,
    DIR_WIRELESS,
    EXCLUSIVE,
    MODIFIED,
    SHARED,
    WIRELESS,
)
from repro.engine.errors import ProtocolError


class CoherenceChecker:
    """Walks caches and directories validating cross-component invariants."""

    def __init__(self, caches, directories, memory) -> None:
        self.caches = caches
        self.directories = directories
        self.memory = memory
        #: Home node -> directory slice (static for the machine's life).
        self._directory_by_home: Dict[int, object] = {
            d.node: d for d in directories
        }

    # ------------------------------------------------------------- lookups

    def _holders(self) -> Dict[int, List]:
        holders: Dict[int, List] = {}
        for cache in self.caches:
            for entry in cache.array.lines():
                holders.setdefault(entry.line, []).append((cache.node, entry))
        return holders

    def line_holders(self, line: int) -> List[Tuple[int, object]]:
        """(node, entry) pairs for every private cache holding ``line``.

        The per-line dual of :meth:`_holders`, used by the online monitor
        which only looks at recently touched lines.
        """
        entries: List[Tuple[int, object]] = []
        for cache in self.caches:
            entry = cache.array.lookup(line, touch=False)
            if entry is not None:
                entries.append((cache.node, entry))
        return entries

    def home_directory(self, line: int):
        """The directory slice homing ``line`` (None in degenerate setups)."""
        return self._directory_by_home.get(self.caches[0].amap.home_of(line))

    # ----------------------------------------------------- quiescent check

    def check(self, quiescent: bool = True) -> None:
        """Validate all invariants; raise :class:`ProtocolError` on failure.

        ``quiescent=True`` additionally enforces the directory-accuracy and
        value-agreement invariants, which only hold when no transaction is
        in flight (no pending events touching the memory system).
        """
        holders = self._holders()
        self._check_swmr(holders)
        if quiescent:
            self._check_directory_accuracy(holders)
            self._check_value_agreement(holders)

    def _check_swmr(self, holders: Dict[int, List]) -> None:
        for line, entries in holders.items():
            self.check_swmr_line(line, entries)

    def check_swmr_line(self, line: int, entries: List) -> None:
        """SWMR for one line: at most one M/E holder, and then no others.

        This invariant is window-free — it must hold at *every* cycle, so
        the online monitor applies it without any quiescence gating.
        """
        exclusive = [n for n, e in entries if e.state in (MODIFIED, EXCLUSIVE)]
        if len(exclusive) > 1:
            raise ProtocolError(
                f"SWMR violated for line 0x{line:x}: "
                f"multiple exclusive holders {exclusive}"
            )
        if exclusive and len(entries) > 1:
            others = [n for n, e in entries if e.state not in (MODIFIED, EXCLUSIVE)]
            raise ProtocolError(
                f"SWMR violated for line 0x{line:x}: exclusive holder "
                f"{exclusive[0]} coexists with holders {others}"
            )

    def _check_directory_accuracy(self, holders: Dict[int, List]) -> None:
        for directory in self.directories:
            for entry in directory.array.entries():
                if entry.busy:
                    continue
                self.check_entry_accuracy(entry, holders.get(entry.line, []))

    def check_entry_accuracy(self, entry, cached: List) -> None:
        """One non-busy directory entry agrees with the caches' holdings."""
        if entry.state == DIR_EXCLUSIVE:
            owners = [n for n, e in cached if e.state in (MODIFIED, EXCLUSIVE)]
            if owners != [entry.owner]:
                raise ProtocolError(
                    f"directory E entry 0x{entry.line:x} names owner "
                    f"{entry.owner} but caches hold {owners}"
                )
        elif entry.state == DIR_SHARED:
            actual = {n for n, e in cached if e.state == SHARED}
            if not actual.issubset(entry.sharers):
                raise ProtocolError(
                    f"directory S entry 0x{entry.line:x} misses sharers "
                    f"{actual - entry.sharers}"
                )
        elif entry.state == DIR_WIRELESS:
            actual = {n for n, e in cached if e.state == WIRELESS}
            if len(actual) > entry.sharer_count:
                raise ProtocolError(
                    f"directory W entry 0x{entry.line:x} counts "
                    f"{entry.sharer_count} sharers but caches hold "
                    f"{sorted(actual)}"
                )

    @staticmethod
    def _dense(data: Dict[int, int]) -> Dict[int, int]:
        """Drop zero-valued words: sparse line images treat them as implicit."""
        return {word: value for word, value in data.items() if value != 0}

    def _check_value_agreement(self, holders: Dict[int, List]) -> None:
        for line, entries in holders.items():
            self.check_value_line(line, entries)

    def check_value_line(self, line: int, entries: List) -> None:
        """All S/W copies of ``line`` (and a clean LLC copy) agree."""
        shared_copies = [e for _, e in entries if e.state in (SHARED, WIRELESS)]
        if len(shared_copies) < 1:
            return
        reference = shared_copies[0]
        for other in shared_copies[1:]:
            if self._dense(other.data) != self._dense(reference.data):
                raise ProtocolError(
                    f"divergent shared copies of line 0x{line:x}: "
                    f"{reference.data} vs {other.data}"
                )
        home = self.home_directory(line)
        if home is None:
            return
        dir_entry = home.array.lookup(line, touch=False)
        if (
            dir_entry is not None
            and dir_entry.has_data
            and not dir_entry.busy
            and dir_entry.state in (DIR_SHARED, DIR_WIRELESS)
            and self._dense(dir_entry.data) != self._dense(reference.data)
        ):
            raise ProtocolError(
                f"LLC copy of line 0x{line:x} diverges from sharers: "
                f"{dir_entry.data} vs {reference.data}"
            )


class OnlineInvariantMonitor:
    """Incremental invariant sweeps while the simulation runs.

    Installed by :class:`~repro.system.Manycore` when
    ``config.check_interval > 0``. Controllers call :meth:`touch` for every
    line they process; the mesh reports wired sends/deliveries so the
    monitor can tell when a line has traffic in flight. Every ``interval``
    cycles (armed lazily — the monitor never keeps an otherwise-drained
    event queue alive), a sweep over the touched set applies:

    * **SWMR** — unconditionally (window-free invariant).
    * **Holder index** — unconditionally, on machines that keep one
      (``Manycore.holders``): the line's bitmask names exactly the caches
      holding it, and every cache with an RMW watch on it.
    * **Directory accuracy + value agreement** — only when the line is
      *quiet* per :meth:`line_quiet`; non-quiet lines carry to the next
      sweep.

    Violations raise :class:`ProtocolError` tagged with the offending cycle,
    which surfaces *at the event that broke the machine* instead of at the
    end-of-run quiescent check — the property the fuzz campaigns' shrink
    pass depends on for small reproducers.

    The monitor only observes: it draws no random numbers, sends no
    messages, and mutates no protocol state, so enabling it cannot change
    simulated behaviour — only when a violation is detected.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.checker = machine.checker
        self.interval = machine.config.check_interval
        if self.interval <= 0:
            raise ValueError("OnlineInvariantMonitor needs check_interval > 0")
        self._touched: Set[int] = set()
        #: line -> wired messages currently on the mesh for that line.
        self._wired_inflight: Dict[int, int] = {}
        self._armed = False
        #: Diagnostics surfaced in verification campaign summaries.
        self.sweeps = 0
        self.lines_checked = 0

    # ------------------------------------------------------------- wiring

    def install(self) -> None:
        """Attach the observation hooks to every controller and the mesh."""
        for cache in self.machine.caches:
            cache._monitor = self
        for directory in self.machine.directories:
            directory._monitor = self
        self.machine.mesh.monitor = self

    # -------------------------------------------------------------- hooks

    def touch(self, line: int) -> None:
        """A controller processed traffic for ``line``; queue it for checks."""
        self._touched.add(line)
        if not self._armed:
            self._armed = True
            self.sim.schedule(self.interval, self._sweep)

    def msg_sent(self, line: int) -> None:
        """Mesh hook: a wired message for ``line`` entered the network."""
        self._wired_inflight[line] = self._wired_inflight.get(line, 0) + 1
        self.touch(line)

    def msg_delivered(self, line: int) -> None:
        """Mesh hook: a wired message for ``line`` reached its handler."""
        count = self._wired_inflight.get(line, 0)
        if count <= 1:
            self._wired_inflight.pop(line, None)
        else:
            self._wired_inflight[line] = count - 1

    # ---------------------------------------------------------- predicate

    def line_quiet(self, line: int) -> bool:
        """True when no transaction could legally leave ``line`` transient.

        Checks, in rough order of cost: wired messages in flight, wireless
        frames queued/on-air, a ToneAck in progress, any cache-side
        transient structure (MSHR, eviction buffer, pending wireless write,
        RMW watch), and the home entry being busy or holding deferred
        requests.
        """
        if self._wired_inflight.get(line):
            return False
        machine = self.machine
        wireless = machine.wireless
        if wireless is not None and wireless.line_in_flight(line):
            return False
        tone = machine.tone
        if tone is not None and tone.in_flight(line):
            return False
        for cache in machine.caches:
            if (
                cache.mshrs.get(line) is not None
                or line in cache._evicting
                or line in cache._pending_wireless
                or line in cache._rmw_watch
            ):
                return False
        home = self.checker.home_directory(line)
        if home is not None:
            entry = home.array.lookup(line, touch=False)
            if entry is not None and (entry.busy or entry.deferred):
                return False
        return True

    def open_lines(self) -> List[int]:
        """Lines awaiting a sweep, sorted. Once the queue has drained, these
        are the lines the last sweep found not quiet: each holds something
        open that nothing queued can close."""
        return sorted(self._touched)

    # -------------------------------------------------------------- sweep

    def _check_holder_index(self, line: int, entries) -> None:
        """WirUpd delivery trusts the holder index; check it against the
        arrays. An RMW watch arms only on a resident W line, so a watcher
        must be in the index too."""
        holders = self.machine.holders
        if holders is None:
            return
        mask = holders.get(line, 0)
        held = 0
        for node, _entry in entries:
            held |= 1 << node
        if mask != held:
            raise ProtocolError(
                f"line 0x{line:x}: holder index reads {mask:#x} but the "
                f"caches holding it are {held:#x}"
            )
        for cache in self.machine.caches:
            if line in cache._rmw_watch and not mask >> cache.node & 1:
                raise ProtocolError(
                    f"line 0x{line:x}: cache {cache.node} has an RMW watch "
                    "but is not in the holder index"
                )

    def _sweep(self) -> None:
        self._armed = False
        self.sweeps += 1
        checker = self.checker
        carry: Set[int] = set()
        for line in self._touched:
            self.lines_checked += 1
            entries = checker.line_holders(line)
            try:
                checker.check_swmr_line(line, entries)
                self._check_holder_index(line, entries)
                if self.line_quiet(line):
                    home = checker.home_directory(line)
                    if home is not None:
                        dir_entry = home.array.lookup(line, touch=False)
                        if dir_entry is not None and not dir_entry.busy:
                            checker.check_entry_accuracy(dir_entry, entries)
                    checker.check_value_line(line, entries)
                else:
                    carry.add(line)
            except ProtocolError as exc:
                raise ProtocolError(
                    f"[online @ cycle {self.sim.now}] {exc}"
                ) from exc
        self._touched = carry
        # Re-arm only while other events are queued: a stuck machine then
        # drains, and its run is judged a deadlock at once.
        if carry and self.sim.queued_behind(self._sweep):
            self._armed = True
            self.sim.schedule(self.interval, self._sweep)
