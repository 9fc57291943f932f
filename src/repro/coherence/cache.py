"""The private (L1) cache controller: MESI plus the WiDir W state.

The controller implements every private-cache transition of the paper's
Figure 4a / Table I. It is retry-structured: a core access that cannot
complete locally allocates (or joins) an MSHR and re-executes once the
outstanding transaction finishes, which keeps every race window explicit in
one place — the message and frame handlers.

Wired-side races covered here:

* invalidations arriving while this cache's own upgrade is queued at the
  directory (the line is handed over, the queued upgrade is later served as
  a full miss);
* forwarded requests arriving for a line this cache is mid-eviction on
  (served from the eviction buffer until the directory's PutAck);
* NACKs from a directory that is mid S->W transition (bounced request is
  retried, and the tone is dropped — paper Section III-B1 case iii).

Wireless-side behaviour (Table I, Section IV-C):

* W-state stores broadcast a WirUpd and merge locally only at the channel's
  serialization point;
* received WirUpds bump UpdateCount and trigger self-invalidation + PutW at
  the threshold;
* WirDwgr downgrades W->S and re-issues any pending wireless writes as wired
  upgrades; WirInv invalidates and re-issues them as wired misses;
* wireless RMWs monitor the channel between issue and commit and retry from
  scratch if the line is updated or invalidated under them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.coherence import messages as mk
from repro.coherence.states import (
    EXCLUSIVE,
    INVALID,
    MODIFIED,
    SHARED,
    WIRELESS,
)
from repro.config.system import SystemConfig
from repro.engine.errors import ProtocolError, SimulationError
from repro.engine.rng import DeterministicRng
from repro.engine.simulator import Simulator
from repro.mem.address import AddressMap
from repro.mem.cache_array import CacheArray, CacheLine
from repro.mem.mshr import MshrFile
from repro.noc.mesh import MeshNetwork
from repro.noc.message import Message
from repro.stats.collectors import StatsRegistry
from repro.wireless.channel import WirelessDataChannel
from repro.wireless.frames import WirelessFrame
from repro.wireless.tone import ToneChannel

#: Cycles before re-sending a request the directory bounced (plus jitter).
NACK_RETRY_CYCLES = 12
#: Cycles before re-trying an access stalled on a full MSHR file.
MSHR_FULL_RETRY_CYCLES = 4


class _PendingWirelessWrite:
    """A W-state store sitting in the transceiver awaiting its commit slot."""

    __slots__ = ("request", "address", "value", "on_done")

    def __init__(self, request, address: int, value: int, on_done) -> None:
        self.request = request
        self.address = address
        self.value = value
        self.on_done = on_done


class CacheController:
    """One tile's private data cache and its coherence state machine."""

    def __init__(
        self,
        sim: Simulator,
        node: int,
        config: SystemConfig,
        amap: AddressMap,
        noc: MeshNetwork,
        stats: StatsRegistry,
        rng: DeterministicRng,
        wireless: Optional[WirelessDataChannel] = None,
        tone: Optional[ToneChannel] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.config = config
        self.amap = amap
        self.noc = noc
        self.wireless = wireless
        self.tone = tone
        self.array = CacheArray(config.l1.num_sets, config.l1.associativity)
        self.mshrs = MshrFile(config.core.max_outstanding_misses)
        self._rng = rng
        self._hit_latency = config.l1.round_trip_cycles
        self._update_threshold = config.directory.update_count_threshold
        # Permission sets come from the protocol backend — a backend must
        # opt in to W-state readability rather than inherit WiDir's. They
        # are public, with ``array``: the core's issue loop does L1 hits
        # against them itself (:meth:`Core._step <repro.cpu.core.Core._step>`).
        from repro.coherence.backend import get_backend

        backend = get_backend(config.protocol)
        self.readable_states = backend.readable_states
        self.writable_states = backend.writable_states
        # Address decomposition constants, hoisted from ``amap``: the access
        # engine below runs once per miss and retry, and the two method
        # calls per access were measurable. The arithmetic is identical to
        # AddressMap.line_of / word_of.
        self._line_shift = amap.line_bytes.bit_length() - 1
        self._offset_mask = amap.line_bytes - 1
        self._word_shift = AddressMap.WORD_BYTES.bit_length() - 1
        #: Evicted-but-unacked E/M lines: line -> {"data", "dirty"}.
        self._evicting: Dict[int, Dict] = {}
        #: W-state stores awaiting their wireless commit, per line.
        self._pending_wireless: Dict[int, List[_PendingWirelessWrite]] = {}
        #: In-flight wireless RMW per line (at most one per core).
        self._rmw_watch: Dict[int, Dict] = {}
        #: Monotonic serial for outgoing GetS/GetX (stale-Nack filtering).
        self._request_serial = 0
        #: Online invariant monitor hook (set by OnlineInvariantMonitor
        #: .install(); None — the default — costs one attribute test per
        #: message/frame and nothing else).
        self._monitor = None
        #: Observability hook (set by Observability.install(); None — the
        #: default — costs one attribute test per hook site and nothing
        #: else; see repro.obs.hooks).
        self._obs = None

        # Hot-path counters are stored as bound ``Counter.add`` methods
        # (see StatsRegistry.adder): one call, no per-event attribute walk
        # through the Counter object.
        s = stats
        # The three CPU entry-point counters are kept as Counter *objects*
        # and bumped with a direct ``.value += 1`` (cheaper still than the
        # bound-method adders used for the colder counters below). A core
        # counts its own loads and stores and folds them into the same
        # counters (:meth:`Core._fold <repro.cpu.core.Core._fold>`).
        self._loads_counter = s.counter(f"l1.{node}.loads")
        self._stores_counter = s.counter(f"l1.{node}.stores")
        self._rmws_counter = s.counter(f"l1.{node}.rmws")
        self._accesses_counter = s.counter("l1.total.accesses")
        self._read_misses = s.adder(f"l1.{node}.read_misses")
        self._write_misses = s.adder(f"l1.{node}.write_misses")
        self._mshr_joins = s.adder(f"l1.{node}.mshr_joins")
        self._wireless_writes = s.adder(f"l1.{node}.wireless_writes")
        self._self_invalidations = s.adder(f"l1.{node}.self_invalidations")
        self._nacks = s.adder(f"l1.{node}.nacks")
        self._read_misses_total = s.adder("l1.total.read_misses")
        self._write_misses_total = s.adder("l1.total.write_misses")
        self._wireless_writes_total = s.adder("l1.total.wireless_writes")

    # ------------------------------------------------------------ CPU API

    def load(self, address: int, on_done: Callable[[int], None]) -> None:
        """Read a word; ``on_done(value)`` fires when the data is available."""
        self._loads_counter.value += 1
        self._accesses_counter.value += 1
        self._do_load(address, on_done)

    def load_miss(self, address: int, on_done: Callable[[int], None]) -> None:
        """A load the core's inline hit check missed.

        Its only caller is :meth:`Core._step <repro.cpu.core.Core._step>`,
        which has already counted the load and touched a resident line.
        """
        line = address >> self._line_shift
        self._miss(line, False, False, lambda: self._do_load(address, on_done))

    def store(self, address: int, value: int, on_done: Callable[[], None]) -> None:
        """Write a word; ``on_done()`` fires when the store is performed."""
        self._stores_counter.value += 1
        self._accesses_counter.value += 1
        self._do_store(address, value, on_done)

    def store_miss(
        self, address: int, value: int, on_done: Callable[[], None]
    ) -> None:
        """A store the core's inline hit check did not perform (W, S and
        miss paths; already counted). Re-enters :meth:`_do_store`, whose
        M/E head cannot match: the core just ruled it out this cycle."""
        self._do_store(address, value, on_done)

    def rmw(self, address: int, on_done: Callable[[int], None]) -> None:
        """Atomic fetch-and-increment; ``on_done(old_value)`` on completion.

        The increment semantics give tests a strong whole-protocol check:
        with K cores each performing N RMWs on one word, the final value must
        be exactly K*N regardless of interleaving, wired or wireless.
        """
        self._rmws_counter.value += 1
        self._accesses_counter.value += 1
        self._do_rmw(address, on_done)

    # ------------------------------------------------------ access engine

    def _do_load(self, address: int, on_done: Callable[[int], None]) -> None:
        line = address >> self._line_shift
        entry = self.array.lookup(line)
        if entry is not None and entry.state in self.readable_states:
            if entry.state == WIRELESS:
                entry.update_count = 0
            word = (address & self._offset_mask) >> self._word_shift
            value = entry.data.get(word, 0)
            self.sim.schedule(self._hit_latency, lambda: on_done(value))
            return
        self._miss(line, False, False, lambda: self._do_load(address, on_done))

    def _do_store(self, address: int, value: int, on_done: Callable[[], None]) -> None:
        line = address >> self._line_shift
        word = (address & self._offset_mask) >> self._word_shift
        entry = self.array.lookup(line)
        if entry is not None:
            if entry.state in self.writable_states:
                entry.state = MODIFIED
                entry.dirty = True
                entry.data[word] = value
                self.sim.schedule(self._hit_latency, on_done)
                return
            if entry.state == WIRELESS:
                self._store_wireless(entry, address, value, on_done)
                return
            if entry.state == SHARED:
                self._miss(
                    line, True, True, lambda: self._do_store(address, value, on_done)
                )
                return
        self._miss(line, True, False, lambda: self._do_store(address, value, on_done))

    def _do_rmw(self, address: int, on_done: Callable[[int], None]) -> None:
        line = address >> self._line_shift
        word = (address & self._offset_mask) >> self._word_shift
        entry = self.array.lookup(line)
        if entry is not None:
            if entry.state in self.writable_states:
                old = entry.data.get(word, 0)
                entry.state = MODIFIED
                entry.dirty = True
                entry.data[word] = old + 1
                self.sim.schedule(self._hit_latency, lambda: on_done(old))
                return
            if entry.state == WIRELESS:
                self._rmw_wireless(entry, address, on_done)
                return
            if entry.state == SHARED:
                self._miss(line, True, True, lambda: self._do_rmw(address, on_done))
                return
        self._miss(line, True, False, lambda: self._do_rmw(address, on_done))

    def _miss(
        self, line: int, is_write: bool, is_sharer: bool, retry: Callable[[], None]
    ) -> None:
        existing = self.mshrs.get(line)
        obs = self._obs
        if existing is not None:
            self._mshr_joins()
            if obs is not None:
                obs.event(self.node, "mshr.join", line)
            if is_write:
                existing.is_write = True
            existing.add_waiter(retry)
            return
        if self.mshrs.full:
            if obs is not None:
                obs.event(self.node, "mshr.full", line)
            self.sim.schedule(MSHR_FULL_RETRY_CYCLES, retry)
            return
        mshr = self.mshrs.allocate(line, is_write, self.sim.now)
        if obs is not None:
            obs.miss_open(self.node, line, is_write)
        mshr.add_waiter(retry)
        resident = self.array.lookup(line, touch=False)
        if resident is not None:
            # Upgrade of a resident (Shared) line: pin it so LRU pressure
            # cannot evict it while the directory may respond with GrantX.
            resident.pinned += 1
            mshr.pinned_line = True
        if is_write:
            self._write_misses()
            self._write_misses_total()
        else:
            self._read_misses()
            self._read_misses_total()
        self._send_request(mshr, line, is_write, is_sharer)

    def _send_request(self, mshr, line: int, is_write: bool, is_sharer: bool) -> None:
        self._request_serial += 1
        mshr.request_serial = self._request_serial
        kind = mk.GETX_ID if is_write else mk.GETS_ID
        self._send(
            kind,
            self.amap.home_of(line),
            line,
            {"is_sharer": is_sharer, "req_serial": mshr.request_serial},
        )

    def _send(self, kind, dst: int, line: int, payload: Optional[dict] = None) -> None:
        self.noc.send(Message(kind, self.node, dst, line, payload))

    # ----------------------------------------------------- line lifecycle

    def _install(self, line: int, state: str, data) -> CacheLine:
        """Make room, install ``line`` in ``state`` with ``data``.

        Callers must have confirmed :meth:`_ensure_room` first. The
        installed entry gets its own copy of ``data``.
        """
        victim = self.array.victim_for(line)
        if victim is not None:
            self._evict(victim)
        entry = self.array.insert(line, state)
        entry.data = dict(data)
        entry.update_count = 0
        return entry

    def _ensure_room(self, line: int) -> bool:
        """True when ``line`` can be installed now.

        Every way can transiently be pinned (wireless writes or RMWs in
        flight). A W way pinned only by pending wireless writes is freed by
        re-issuing those writes over the wired path; otherwise installation
        waits — the pins clear independently (channel commit or directory
        grant), so deferring cannot deadlock.
        """
        if not self.array.needs_victim(line):
            return True
        try:
            self.array.victim_for(line)
            return True
        except SimulationError:
            pass
        for candidate in self.array.ways_of(line):
            if (
                candidate.state == WIRELESS
                and candidate.line in self._pending_wireless
                and candidate.line not in self._rmw_watch
            ):
                self._reissue_pending_writes(candidate.line)
                if not candidate.pinned:
                    return True
        return False

    def _evict(self, victim: CacheLine) -> None:
        """Push a victim out, notifying the directory (the paper notifies on
        every eviction, W or not, to keep sharer information precise)."""
        line = victim.line
        self.array.remove(line)
        home = self.amap.home_of(line)
        obs = self._obs
        if victim.state == SHARED:
            if obs is not None:
                obs.event(self.node, "evict.shared", line)
            self._send(mk.PUTS_ID, home, line)
        elif victim.state == WIRELESS:
            if obs is not None:
                obs.event(self.node, "evict.wireless", line)
            self._send(mk.PUTW_ID, home, line)
        elif victim.state in (EXCLUSIVE, MODIFIED):
            if obs is not None:
                obs.wb_open(self.node, line)
            dirty = victim.dirty
            data = dict(victim.data)
            self._evicting[line] = {"data": data, "dirty": dirty}
            payload = {"dirty": dirty}
            if dirty:
                payload["data"] = dict(data)
            self._send(mk.PUTM_ID, home, line, payload)

    def _complete_mshr(self, line: int) -> None:
        obs = self._obs
        if obs is not None:
            obs.miss_close(self.node, line)
        mshr = self.mshrs.release(line)
        if mshr.tone_pending and self.tone is not None:
            self.tone.drop(line, self.node)
        if mshr.pinned_line:
            resident = self.array.lookup(line, touch=False)
            if resident is not None and resident.pinned:
                resident.pinned -= 1
        mshr.complete()

    # ------------------------------------------------- wired message side

    def handle_message(self, msg: Message) -> None:
        """Entry point for wired messages addressed to this private cache."""
        monitor = self._monitor
        if monitor is not None:
            monitor.touch(msg.line)
        kid = msg.kind_id
        table = self._WIRED_DISPATCH
        handler = table[kid] if kid < len(table) else None
        if handler is None:
            raise ProtocolError(f"L1 {self.node} cannot handle {msg.kind}")
        handler(self, msg)

    def _on_data(self, msg: Message) -> None:
        kid = msg.kind_id
        if kid == mk.DATA_ID:
            grant = SHARED
        elif kid == mk.DATA_E_ID:
            grant = EXCLUSIVE
        else:
            grant = msg.payload.get("grant", SHARED)
        mshr = self.mshrs.get(msg.line)
        if mshr is None:
            # Response to a superseded request (the miss completed by other
            # means, e.g. a BrWirUpgr conversion, while this was in flight).
            self._on_stale_data(msg, grant)
            return
        if mshr.tone_pending and grant == SHARED:
            # ToneAck completion case (iii), Section III-B1: this node heard
            # BrWirUpgr while its wired request was outstanding. The response
            # was sent by the directory pre-transition as a Shared grant, but
            # the line is now wireless: install it in W. (The directory's
            # SharerCount snapshot includes this node.)
            grant = WIRELESS
        resident = self.array.lookup(msg.line, touch=False)
        if resident is not None and resident.state in (SHARED, EXCLUSIVE, MODIFIED):
            # The line is already here: this response answers a superseded
            # request. An exclusive grant satisfies whatever the live miss
            # wanted (the line becomes writable), so it completes the miss;
            # a shared grant is dropped and the live miss keeps waiting for
            # its own answer.
            self._on_stale_data(msg, grant)
            if grant != SHARED:
                self._complete_mshr(msg.line)
            return
        if not self._ensure_room(msg.line):
            self.sim.schedule(MSHR_FULL_RETRY_CYCLES, lambda: self._on_data(msg))
            return
        entry = self._install(msg.line, grant, msg.payload.get("data", {}))
        if kid == mk.FWD_DATA_ID:
            # Forwarded from the previous owner. The home directory stays
            # busy until *this* cache confirms installation — completing at
            # the owner instead would let the directory forward the next
            # request here before the data arrived.
            home = self.amap.home_of(msg.line)
            if grant == MODIFIED:
                # The LLC copy is stale; this copy must write back even if
                # this core never stores to it.
                entry.dirty = True
                self._send(mk.FWD_ACK_ID, home, msg.line)
            else:
                self._send(
                    mk.WB_DATA_ID,
                    home,
                    msg.line,
                    {
                        "data": dict(entry.data),
                        "dirty": msg.payload.get("dirty", False),
                    },
                )
        self._complete_mshr(msg.line)

    def _on_stale_data(self, msg: Message, grant: str) -> None:
        """Handle a data response whose request was superseded.

        The home-side transaction this response belongs to must still be
        closed (FwdData always owes the home an ack), and exclusive grants
        must be accepted — the directory now lists this cache as owner.
        Shared grants are simply dropped: they only leave the directory with
        an over-approximate sharer set, which invalidations tolerate.
        """
        resident = self.array.lookup(msg.line, touch=False)
        if msg.kind_id == mk.FWD_DATA_ID and grant != MODIFIED:
            # Close the home's fwd_gets transaction with the data we were
            # handed, whether or not we keep a copy.
            self._send(
                mk.WB_DATA_ID,
                self.amap.home_of(msg.line),
                msg.line,
                {
                    "data": dict(msg.payload.get("data", {})),
                    "dirty": msg.payload.get("dirty", False),
                },
            )
            return
        if grant == SHARED:
            return
        # Exclusive grant (DataE or forwarded M data): accept ownership.
        if resident is not None and resident.state in (SHARED, EXCLUSIVE, MODIFIED):
            resident.state = MODIFIED
            if msg.payload.get("data"):
                resident.data = dict(msg.payload["data"])
            resident.dirty = True
        elif resident is not None:
            raise ProtocolError(
                f"L1 {self.node}: unsolicited exclusive grant for "
                f"0x{msg.line:x} held in {resident.state}"
            )
        elif not self._ensure_room(msg.line):
            self.sim.schedule(
                MSHR_FULL_RETRY_CYCLES, lambda: self._on_stale_data(msg, grant)
            )
            return
        else:
            entry = self._install(msg.line, MODIFIED, msg.payload.get("data", {}))
            entry.dirty = True
        if msg.kind_id == mk.FWD_DATA_ID:
            self._send(mk.FWD_ACK_ID, self.amap.home_of(msg.line), msg.line)

    def _on_grant_x(self, msg: Message) -> None:
        entry = self.array.lookup(msg.line)
        if entry is None or entry.state not in (SHARED, MODIFIED, EXCLUSIVE):
            raise ProtocolError(
                f"L1 {self.node}: GrantX for 0x{msg.line:x} not held"
            )
        entry.state = MODIFIED
        if self.mshrs.get(msg.line) is not None:
            self._complete_mshr(msg.line)
        # else: a grant for a superseded request; ownership is accepted and
        # the already-satisfied miss needs no further action.

    def _on_wir_upgr(self, msg: Message) -> None:
        """WirUpgr + line via wired: the line is (now) wireless (Table I)."""
        resident = self.array.lookup(msg.line, touch=False)
        if resident is not None and resident.state == WIRELESS:
            # Duplicate join (a redundant request raced an earlier answer):
            # the line is already wireless here; just acknowledge.
            entry = resident
        else:
            if not self._ensure_room(msg.line):
                self.sim.schedule(
                    MSHR_FULL_RETRY_CYCLES, lambda: self._on_wir_upgr(msg)
                )
                return
            entry = self._install(msg.line, WIRELESS, msg.payload.get("data", {}))
        entry.dirty = False
        if msg.payload.get("ack_required", False):
            self._send(mk.WIR_UPGR_ACK_ID, msg.src, msg.line)
        if self.mshrs.get(msg.line) is not None:
            self._complete_mshr(msg.line)

    def _on_fwd_gets(self, msg: Message) -> None:
        requester = msg.payload["requester"]
        entry = self.array.lookup(msg.line, touch=False)
        if entry is not None and entry.state in (EXCLUSIVE, MODIFIED):
            data, dirty = dict(entry.data), entry.dirty
            entry.state = SHARED
            entry.dirty = False
        elif msg.line in self._evicting:
            buffered = self._evicting[msg.line]
            data, dirty = dict(buffered["data"]), buffered["dirty"]
        else:
            raise ProtocolError(
                f"L1 {self.node}: FwdGetS for 0x{msg.line:x} but not owner"
            )
        self._send(
            mk.FWD_DATA_ID,
            requester,
            msg.line,
            {"data": data, "grant": SHARED, "dirty": dirty},
        )

    def _on_fwd_getx(self, msg: Message) -> None:
        requester = msg.payload["requester"]
        entry = self.array.lookup(msg.line, touch=False)
        if entry is not None and entry.state in (EXCLUSIVE, MODIFIED):
            data = dict(entry.data)
            self.array.remove(msg.line)
        elif msg.line in self._evicting:
            data = dict(self._evicting[msg.line]["data"])
        else:
            raise ProtocolError(
                f"L1 {self.node}: FwdGetX for 0x{msg.line:x} but not owner"
            )
        self._send(
            mk.FWD_DATA_ID, requester, msg.line, {"data": data, "grant": MODIFIED}
        )

    def _on_inv(self, msg: Message) -> None:
        needs_data = msg.payload.get("needs_data", False)
        entry = self.array.lookup(msg.line, touch=False)
        if entry is not None and entry.state == WIRELESS:
            # A maximally delayed Inv from a pre-W epoch of this line; the
            # wireless epoch is governed by WirInv/WirDwgr, so only ack it.
            self._send(mk.INV_ACK_ID, msg.src, msg.line)
            return
        if entry is not None:
            data, dirty = dict(entry.data), entry.dirty
            self.array.remove(msg.line)
            if needs_data:
                self._send(
                    mk.INV_ACK_DATA_ID,
                    msg.src,
                    msg.line,
                    {"data": data, "dirty": dirty},
                )
                return
        self._send(mk.INV_ACK_ID, msg.src, msg.line)

    def _on_put_ack(self, msg: Message) -> None:
        obs = self._obs
        if obs is not None:
            obs.wb_close(self.node, msg.line)
        self._evicting.pop(msg.line, None)

    def _on_nack(self, msg: Message) -> None:
        """Bounced by a directory mid-transition: drop tone, retry later."""
        self._nacks()
        obs = self._obs
        if obs is not None:
            obs.miss_nack(self.node, msg.line)
        mshr = self.mshrs.get(msg.line)
        if mshr is None:
            return  # the line arrived by other means (e.g. BrWirUpgr) already
        if msg.payload.get("req_serial") != mshr.request_serial:
            # A bounce for a superseded request: the current request is still
            # being (or will be) answered. Acting on it would release the
            # tone early and spawn a duplicate request.
            return
        if mshr.tone_pending and self.tone is not None:
            self.tone.drop(msg.line, self.node)
            mshr.tone_pending = False
        delay = NACK_RETRY_CYCLES + self._rng.randint(0, 7)
        line = msg.line
        self.sim.schedule(delay, lambda: self._retry_request(line))

    def _retry_request(self, line: int) -> None:
        mshr = self.mshrs.get(line)
        if mshr is None:
            return  # completed meanwhile (e.g. WirUpgr arrived)
        obs = self._obs
        if obs is not None:
            obs.miss_retry(self.node, line)
        entry = self.array.lookup(line, touch=False)
        is_sharer = entry is not None and entry.state == SHARED
        self._send_request(mshr, line, mshr.is_write, is_sharer)

    #: kind id -> unbound handler. Ids interned after the protocol set (test
    #: kinds like "Martian") fall off the end and raise ProtocolError above.
    _WIRED_DISPATCH: List = mk.kind_table()
    for _kid, _handler in (
        (mk.DATA_ID, _on_data),
        (mk.DATA_E_ID, _on_data),
        (mk.FWD_DATA_ID, _on_data),
        (mk.GRANT_X_ID, _on_grant_x),
        (mk.WIR_UPGR_ID, _on_wir_upgr),
        (mk.FWD_GETS_ID, _on_fwd_gets),
        (mk.FWD_GETX_ID, _on_fwd_getx),
        (mk.INV_ID, _on_inv),
        (mk.PUT_ACK_ID, _on_put_ack),
        (mk.NACK_ID, _on_nack),
    ):
        _WIRED_DISPATCH[_kid] = _handler
    del _kid, _handler

    # -------------------------------------------------- wireless frame side

    def handle_frame(self, frame: WirelessFrame) -> None:
        """Entry point for broadcast frames heard by this tile's transceiver."""
        monitor = self._monitor
        if monitor is not None:
            monitor.touch(frame.line)
        kid = frame.kind_id
        if kid == mk.WIR_UPD_ID:
            self._on_frame_upd(frame)
        elif kid == mk.BR_WIR_UPGR_ID:
            self._on_frame_upgrade(frame)
        elif kid == mk.WIR_DWGR_ID:
            self._on_frame_downgrade(frame)
        elif kid == mk.WIR_INV_ID:
            self._on_frame_invalidate(frame)

    def _on_frame_upd(self, frame: WirelessFrame) -> None:
        if frame.src == self.node:
            return  # our own write merged at the commit point already
        entry = self.array.lookup(frame.line, touch=False)
        if entry is not None and entry.state == WIRELESS:
            entry.data[frame.word] = frame.value
            entry.update_count += 1
            if (
                entry.update_count >= self._update_threshold
                and not entry.pinned
                and frame.line not in self._pending_wireless
            ):
                self._self_invalidate(entry)
        # An in-flight RMW observed an update to its line: squash and retry
        # (paper Section IV-C). The update above was applied first, so the
        # retried RMW reads the fresh value.
        self._squash_rmw(frame.line)

    def _on_frame_upgrade(self, frame: WirelessFrame) -> None:
        line = frame.line
        entry = self.array.lookup(line, touch=False)
        mshr = self.mshrs.get(line)
        if entry is not None and entry.state == SHARED:
            entry.state = WIRELESS
            entry.update_count = 0
            entry.dirty = False
            if mshr is not None:
                # Our wired upgrade is moot (the directory will discard it);
                # the pending store retries and now finds the line in W.
                self._complete_mshr(line)
            if self.tone is not None:
                self.tone.drop(line, self.node)
            return
        if mshr is not None:
            # Case (iii): we asked for the line via wired; the tone drops
            # when the WirUpgr (or a bounce) arrives.
            mshr.tone_pending = True
            return
        if self.tone is not None:
            self.tone.drop(line, self.node)  # case (i): we do not have the line

    def _on_frame_downgrade(self, frame: WirelessFrame) -> None:
        line = frame.line
        entry = self.array.lookup(line, touch=False)
        if entry is not None and entry.state == WIRELESS:
            entry.state = SHARED
            entry.update_count = 0
            self._send(
                mk.WIR_DWGR_ACK_ID,
                self.amap.home_of(line),
                line,
                {"core": self.node},
            )
            self._reissue_pending_writes(line)
        self._squash_rmw(line)

    def _on_frame_invalidate(self, frame: WirelessFrame) -> None:
        line = frame.line
        entry = self.array.lookup(line, touch=False)
        if entry is not None and entry.state == WIRELESS:
            self.array.remove(line)
            self._reissue_pending_writes(line)
        self._squash_rmw(line)

    # --------------------------------------------------- wireless datapath

    def _store_wireless(self, entry: CacheLine, address: int, value: int, on_done) -> None:
        """W-state store: broadcast WirUpd, merge locally at the commit point."""
        if self.wireless is None:
            raise ProtocolError("wireless store on a machine without a WNoC")
        line = self.amap.line_of(address)
        word = self.amap.word_of(address)
        entry.update_count = 0
        obs = self._obs
        if obs is not None:
            obs.event(self.node, "wless.store", line, f"word={word}")
        frame = WirelessFrame(mk.WIR_UPD_ID, self.node, line, word, value)
        pending = _PendingWirelessWrite(None, address, value, on_done)

        def commit() -> None:
            self._wireless_writes()
            self._wireless_writes_total()
            resident = self.array.lookup(line, touch=False)
            if resident is not None and resident.state == WIRELESS:
                resident.data[word] = value
                resident.update_count = 0
            self._drop_pending(line, pending, unpin=True)
            on_done()

        pending.request = self.wireless.transmit(frame, on_commit=commit)
        bucket = self._pending_wireless.setdefault(line, [])
        if not bucket:
            entry.pinned += 1
        bucket.append(pending)

    def _drop_pending(self, line: int, pending: _PendingWirelessWrite, unpin: bool) -> None:
        bucket = self._pending_wireless.get(line)
        if bucket is None:
            return
        if pending in bucket:
            bucket.remove(pending)
        if not bucket:
            del self._pending_wireless[line]
            if unpin:
                resident = self.array.lookup(line, touch=False)
                if resident is not None and resident.pinned:
                    resident.pinned -= 1

    def _reissue_pending_writes(self, line: int) -> None:
        """The line left W under us: squash queued WirUpds, retry via wired."""
        bucket = self._pending_wireless.pop(line, None)
        if not bucket:
            return
        obs = self._obs
        if obs is not None:
            obs.event(self.node, "wless.reissue", line, f"writes={len(bucket)}")
        resident = self.array.lookup(line, touch=False)
        if resident is not None and resident.pinned:
            resident.pinned -= 1
        for pending in bucket:
            if pending.request is not None and not pending.request.cancel():
                continue  # committed already; its own callback completes it
            address, value, on_done = pending.address, pending.value, pending.on_done
            self.sim.schedule(1, lambda a=address, v=value, d=on_done: self._do_store(a, v, d))

    def _rmw_wireless(self, entry: CacheLine, address: int, on_done) -> None:
        """Wireless read-modify-write with channel-monitored atomicity."""
        if self.wireless is None:
            raise ProtocolError("wireless RMW on a machine without a WNoC")
        line = self.amap.line_of(address)
        word = self.amap.word_of(address)
        old = entry.data.get(word, 0)
        obs = self._obs
        if obs is not None:
            obs.event(self.node, "rmw.issue", line, f"word={word}")
        entry.pinned += 1
        watch: Dict = {"address": address, "on_done": on_done}

        def commit() -> None:
            self._wireless_writes()
            self._wireless_writes_total()
            self._rmw_watch.pop(line, None)
            resident = self.array.lookup(line, touch=False)
            if resident is not None:
                if resident.state == WIRELESS:
                    resident.data[word] = old + 1
                    resident.update_count = 0
                if resident.pinned:
                    resident.pinned -= 1
            on_done(old)

        frame = WirelessFrame(mk.WIR_UPD_ID, self.node, line, word, old + 1)
        watch["request"] = self.wireless.transmit(frame, on_commit=commit)
        self._rmw_watch[line] = watch

    def _squash_rmw(self, line: int) -> None:
        """Cancel an in-flight wireless RMW on this line and retry it whole."""
        watch = self._rmw_watch.get(line)
        if watch is None:
            return
        if not watch["request"].cancel():
            return  # already committed: its commit callback finishes the op
        obs = self._obs
        if obs is not None:
            obs.event(self.node, "rmw.squash", line)
        del self._rmw_watch[line]
        resident = self.array.lookup(line, touch=False)
        if resident is not None and resident.pinned:
            resident.pinned -= 1
        address, on_done = watch["address"], watch["on_done"]
        # Jittered retry: when one commit squashes dozens of contending
        # RMWs (a barrier counter), re-issuing them all on the next cycle
        # recreates the collision storm that just resolved.
        delay = 1 + self._rng.randint(0, 31)
        self.sim.schedule(delay, lambda: self._do_rmw(address, on_done))

    def _self_invalidate(self, entry: CacheLine) -> None:
        """UpdateCount saturated: this core stopped using the line (III-B2)."""
        self._self_invalidations()
        line = entry.line
        obs = self._obs
        if obs is not None:
            obs.event(self.node, "l1.self_inv", line)
        self.array.remove(line)
        self._send(mk.PUTW_ID, self.amap.home_of(line), line)
