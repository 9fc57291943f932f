"""The home-node directory controller (one LLC slice + directory slice).

Implements every directory transition of the paper's Figure 4b / Table II.
The controller is *blocking*: a busy entry defers new GetS/GetX requests
(except during an S->W transition, where it bounces them with a Nack so the
requesters can drop their ToneAck tones — Section III-B1, completion case
iii) while always accepting the bookkeeping messages that complete the
in-flight transaction.

Transaction types carried in ``entry.transaction["type"]``:

=========== ===========================================================
fetch       cold miss: line being read from off-chip memory
inv_collect S-state write: invalidations out, acks being collected
fwd_gets    E-state read: forwarded to the owner, awaiting its WBData
fwd_getx    E-state write: forwarded to the owner, awaiting its FwdAck
s_to_w      BrWirUpgr broadcast, jamming on, ToneAck in progress
w_join      WirUpgr sent to a new wireless sharer, awaiting WirUpgrAck
w_to_s      WirDwgr broadcast, WirDwgrAcks being collected
recall_s    LLC eviction of a Shared line (invalidation + ack collect)
recall_e    LLC eviction of an Exclusive line (data recall from owner)
evict_w     LLC eviction of a Wireless line (WirInv broadcast)
=========== ===========================================================

Every transaction opens in :meth:`DirectoryController._begin` and closes in
``_unbusy``, or in ``_finish_recall`` when the entry leaves the LLC.

Paper-deviation note (documented in DESIGN.md): Table II states that a
received WirUpd "increments SharerCount". Doing so would inflate the count
on every wireless write and the line could never return to S; the clearly
intended behaviour — and the one implemented here — is that the home node
merges the update into its LLC copy and marks it dirty.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.coherence import messages as mk
from repro.coherence.directory import DirectoryArray, DirectoryEntry
from repro.coherence.states import (
    DIR_EXCLUSIVE,
    DIR_INVALID,
    DIR_SHARED,
    DIR_WIRELESS,
)
from repro.config.system import SystemConfig
from repro.engine.errors import ProtocolError
from repro.engine.simulator import Simulator
from repro.mem.address import AddressMap
from repro.mem.memory_controller import MemoryController
from repro.noc.mesh import MeshNetwork
from repro.noc.message import Message
from repro.stats.collectors import StatsRegistry
from repro.wireless.channel import WirelessDataChannel
from repro.wireless.frames import WirelessFrame
from repro.wireless.tone import ToneChannel

#: Figure 5 bins: number of sharers updated per wireless write.
SHARER_BINS = ((0, 5), (6, 10), (11, 25), (26, 49), (50, None))

#: Polling period while a full LLC set has only busy (unevictable) ways.
SET_FULL_RETRY_CYCLES = 16

#: Recovery bound for W->S: every genuine wireless sharer hears the WirDwgr
#: broadcast within one frame time and its wired ack arrives within the
#: mesh's bounded latency. SharerCount is only a *count* (the paper's design
#: keeps no identities in W), so transient races can leave it an
#: over-approximation; once this many cycles pass, the missing acks cannot
#: correspond to real sharers and the transition closes with the acks in
#: hand. A straggling real ack is re-integrated by the late-ack path.
W_TO_S_RECOVERY_CYCLES = 1500


class DirectoryController:
    """Directory + LLC slice for all lines homed at one tile."""

    def __init__(
        self,
        sim: Simulator,
        node: int,
        config: SystemConfig,
        amap: AddressMap,
        noc: MeshNetwork,
        memory_controllers: List[MemoryController],
        stats: StatsRegistry,
        wireless: Optional[WirelessDataChannel] = None,
        tone: Optional[ToneChannel] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.config = config
        self.amap = amap
        self.noc = noc
        self.memory_controllers = memory_controllers
        self.wireless = wireless
        self.tone = tone
        self.array = DirectoryArray(config.l2.num_sets, config.l2.associativity)
        self._l2_latency = config.l2.round_trip_cycles
        self._max_wired = config.directory.max_wired_sharers
        self._num_pointers = config.directory.num_pointers
        self._widir = config.uses_wireless and wireless is not None
        #: Online invariant monitor hook (set by OnlineInvariantMonitor
        #: .install(); None — the default — costs one attribute test per
        #: message/frame and nothing else).
        self._monitor = None
        #: Observability hook (set by Observability.install(); None — the
        #: default — costs one attribute test per hook site and nothing
        #: else; see repro.obs.hooks).
        self._obs = None

        # Hot-path counters are stored as bound ``Counter.add`` methods
        # (see StatsRegistry.adder): one call, no per-event attribute walk.
        s = stats
        self._requests = s.adder(f"dir.{node}.requests")
        self._nacks = s.adder(f"dir.{node}.nacks")
        self._s_to_w = s.adder("dir.total.s_to_w")
        self._w_to_s = s.adder("dir.total.w_to_s")
        self._w_to_s_recoveries = s.adder("dir.total.w_to_s_recoveries")
        self._w_joins = s.adder("dir.total.w_joins")
        self._w_evictions = s.adder("dir.total.w_evictions")
        self._llc_evictions = s.adder("dir.total.llc_evictions")
        self._llc_accesses = s.adder("dir.total.llc_accesses")
        self._bcast_invs = s.adder("dir.total.broadcast_invalidations")
        self._inv_sent = s.adder("dir.total.invalidations_sent")
        self._sharers_per_update = s.histogram("widir.sharers_per_update", SHARER_BINS)

    # ----------------------------------------------------------- helpers

    def _memory_for(self, line: int) -> MemoryController:
        return self.memory_controllers[
            self.amap.controller_of(line) % len(self.memory_controllers)
        ]

    def _send(
        self,
        kind,
        dst: int,
        line: int,
        payload: Optional[dict] = None,
        with_llc_latency: bool = False,
    ) -> None:
        delay = self._l2_latency if with_llc_latency else 1
        self.noc.send(Message(kind, self.node, dst, line, payload), extra_delay=delay)

    def _send_inv_fanout(self, targets, line: int) -> None:
        """Send an INV to every target, one message each, in iteration order."""
        self._inv_sent(len(targets))
        for target in targets:
            self.noc.send(Message(mk.INV_ID, self.node, target, line), extra_delay=1)

    def _note_pointer_overflow(self, entry: DirectoryEntry) -> None:
        """Record that the sharer set no longer fits the limited pointers.

        Under Dir_i_B a broadcast bit is set; under Dir_i_CV_r the entry
        switches to a coarse region vector covering the current sharers.
        Either stays set until the entry leaves the Shared state.
        """
        if len(entry.sharers) <= self._num_pointers:
            return
        directory = self.config.directory
        if directory.scheme == "DirCV":
            region = directory.coarse_region_size
            for sharer in entry.sharers:
                entry.coarse_regions.add(sharer // region)
        else:
            entry.broadcast = True

    def _begin(self, entry: DirectoryEntry, transaction: Dict) -> None:
        """Open ``transaction`` on ``entry``: the one place a directory
        transaction starts. It closes in :meth:`_unbusy`, or in
        :meth:`_finish_recall` when the entry leaves the LLC."""
        entry.busy = True
        entry.transaction = transaction
        obs = self._obs
        if obs is not None:
            obs.dir_open(self.node, entry.line, transaction["type"])

    def _unbusy(self, entry: DirectoryEntry) -> None:
        """Close the current transaction and make forward progress."""
        obs = self._obs
        if obs is not None:
            obs.dir_close(self.node, entry.line)
        entry.busy = False
        entry.transaction = None
        # A PutW processed mid-transaction may have left the wireless sharer
        # count at/below the threshold: the W->S downgrade runs first.
        if self._maybe_downgrade(entry):
            return
        while entry.deferred and not entry.busy:
            self.handle_message(self._pop_deferred(entry))

    def _maybe_downgrade(self, entry: DirectoryEntry) -> bool:
        """Backend hook: leave the sharing mode when it stops paying off.

        Called with the entry idle (not busy).  Returns True when a new
        transaction was started (deferred service must wait for it).
        """
        if (
            entry.state == DIR_WIRELESS
            and entry.sharer_count <= self._max_wired
        ):
            self._start_w_to_s(entry)
            return True
        return False

    def _pop_deferred(self, entry: DirectoryEntry) -> Message:
        """Backend hook: choose the next deferred message to service.

        The stock protocols are FIFO; priority-ordered backends override
        this (the deque element chosen must be *removed* before return).
        """
        return entry.deferred.popleft()

    # ------------------------------------------------------ wired ingress

    def handle_message(self, msg: Message) -> None:
        """Entry point for wired messages addressed to this home node."""
        monitor = self._monitor
        if monitor is not None:
            monitor.touch(msg.line)
        kid = msg.kind_id
        if kid == mk.GETS_ID or kid == mk.GETX_ID:
            self._on_request(msg)
            return
        table = self._DISPATCH
        handler = table[kid] if kid < len(table) else None
        if handler is None:
            raise ProtocolError(f"directory {self.node} cannot handle {msg.kind}")
        handler(self, self.array.lookup(msg.line, touch=False), msg)

    # ------------------------------------------------------ request path

    def _on_request(self, msg: Message) -> None:
        self._requests()
        self._llc_accesses()
        entry = self.array.lookup(msg.line)
        if entry is None:
            self._allocate_and_fetch(msg)
            return
        if entry.busy:
            transaction = entry.transaction or {}
            if transaction.get("type") == "s_to_w":
                # Bounce so the requester can drop its ToneAck tone. The
                # serial lets the cache discard bounces of superseded sends.
                self._nacks()
                self._send(
                    mk.NACK_ID,
                    msg.src,
                    msg.line,
                    {"req_serial": msg.payload.get("req_serial")},
                )
            elif transaction.get("type") == "w_join" and msg.kind_id == mk.GETX_ID and (
                msg.payload.get("is_sharer")
            ):
                # Upgrade racing a join: bounce (see _req_wireless; a pure
                # discard deadlocks a requester holding a stale S copy).
                self._nacks()
                self._send(
                    mk.NACK_ID,
                    msg.src,
                    msg.line,
                    {"req_serial": msg.payload.get("req_serial")},
                )
            elif transaction.get("type") == "w_join":
                # Another new sharer while a join is in flight: share the
                # jam window instead of serializing the joins.
                self._join_wireless_sharer(entry, msg)
            else:
                obs = self._obs
                if obs is not None:
                    obs.dir_defer(self.node, msg.line, msg.kind)
                entry.deferred.append(msg)
            return
        state = entry.state
        if state == DIR_INVALID:
            self._req_invalid(entry, msg)
        elif state == DIR_SHARED:
            self._req_shared(entry, msg)
        elif state == DIR_EXCLUSIVE:
            self._req_exclusive(entry, msg)
        elif state == DIR_WIRELESS:
            self._req_wireless(entry, msg)
        else:  # pragma: no cover - states are closed above
            raise ProtocolError(f"unknown directory state {state!r}")

    def _allocate_and_fetch(self, msg: Message) -> None:
        if self.array.needs_victim(msg.line):
            victim = self.array.victim_for(msg.line)
            if victim is None:
                # Every way is mid-transaction; poll until one settles.
                self.sim.schedule(
                    SET_FULL_RETRY_CYCLES, lambda: self.handle_message(msg)
                )
                return
            self._start_entry_eviction(victim)
            self.sim.schedule(SET_FULL_RETRY_CYCLES, lambda: self.handle_message(msg))
            return
        entry = self.array.insert(msg.line)
        self._req_invalid(entry, msg)

    def _req_invalid(self, entry: DirectoryEntry, msg: Message) -> None:
        if entry.has_data:
            self._grant_exclusive(entry, msg.src)
            return
        self._begin(entry, {"type": "fetch", "requester": msg.src})
        line = entry.line

        def on_fetched(data) -> None:
            entry.data = dict(data)
            entry.has_data = True
            entry.dirty = False
            requester = entry.transaction["requester"]
            self._grant_exclusive(entry, requester)
            self._unbusy(entry)

        self._memory_for(line).fetch_line(line, on_fetched)

    def _grant_exclusive(self, entry: DirectoryEntry, requester: int) -> None:
        entry.state = DIR_EXCLUSIVE
        entry.owner = requester
        entry.sharers.clear()
        entry.clear_imprecision()
        self._send(
            mk.DATA_E_ID,
            requester,
            entry.line,
            {"data": dict(entry.data)},
            with_llc_latency=True,
        )

    def _req_shared(self, entry: DirectoryEntry, msg: Message) -> None:
        requester = msg.src
        if msg.kind_id == mk.GETS_ID:
            if requester in entry.sharers:
                # Duplicate (eviction raced): idempotent re-grant.
                self._send(
                    mk.DATA_ID, requester, entry.line,
                    {"data": dict(entry.data)}, with_llc_latency=True,
                )
                return
            if self._widir and len(entry.sharers) + 1 > self._max_wired:
                self._start_s_to_w(entry, requester)
                return
            entry.sharers.add(requester)
            self._note_pointer_overflow(entry)
            self._send(
                mk.DATA_ID, requester, entry.line,
                {"data": dict(entry.data)}, with_llc_latency=True,
            )
            return

        # GetX: an upgrade (requester already shares) or a write miss.
        is_upgrade = requester in entry.sharers
        if self._widir and not is_upgrade and len(entry.sharers) + 1 > self._max_wired:
            self._start_s_to_w(entry, requester)
            return
        targets = entry.known_sharers(
            self.config.num_cores,
            exclude=requester,
            coarse_region_size=self.config.directory.coarse_region_size,
        )
        if not targets:
            # Sole sharer upgrading (or stale empty set): grant immediately.
            entry.state = DIR_EXCLUSIVE
            entry.owner = requester
            entry.sharers.clear()
            entry.clear_imprecision()
            if is_upgrade:
                self._send(mk.GRANT_X_ID, requester, entry.line)
            else:
                self._send(
                    mk.DATA_E_ID, requester, entry.line,
                    {"data": dict(entry.data)}, with_llc_latency=True,
                )
            return
        self._begin(
            entry,
            {
                "type": "inv_collect",
                "requester": requester,
                "pending": set(targets),
                "upgrade": is_upgrade,
            },
        )
        if entry.broadcast:
            self._bcast_invs()
        self._send_inv_fanout(targets, entry.line)

    def _finish_inv_collect(self, entry: DirectoryEntry) -> None:
        transaction = entry.transaction
        requester = transaction["requester"]
        entry.state = DIR_EXCLUSIVE
        entry.owner = requester
        entry.sharers.clear()
        entry.clear_imprecision()
        if transaction["upgrade"]:
            self._send(mk.GRANT_X_ID, requester, entry.line)
        else:
            self._send(
                mk.DATA_E_ID, requester, entry.line,
                {"data": dict(entry.data)}, with_llc_latency=True,
            )
        self._unbusy(entry)

    def _req_exclusive(self, entry: DirectoryEntry, msg: Message) -> None:
        requester = msg.src
        owner = entry.owner
        if owner is None:
            raise ProtocolError(f"E entry 0x{entry.line:x} without an owner")
        if requester == owner:
            # A stale duplicate: an earlier (superseded) request from this
            # cache was already answered with ownership. Confirm ownership
            # with a GrantX rather than staying silent — the cache may have
            # a live miss waiting on this very request.
            self._send(mk.GRANT_X_ID, requester, entry.line)
            return
        if msg.kind_id == mk.GETS_ID:
            self._begin(entry, {"type": "fwd_gets", "requester": requester})
            self._send(mk.FWD_GETS_ID, owner, entry.line, {"requester": requester})
        else:
            self._begin(entry, {"type": "fwd_getx", "requester": requester})
            self._send(mk.FWD_GETX_ID, owner, entry.line, {"requester": requester})

    def _req_wireless(self, entry: DirectoryEntry, msg: Message) -> None:
        requester = msg.src
        if msg.kind_id == mk.GETX_ID and msg.payload.get("is_sharer"):
            # Table II, W->W case 2: the requester already heard BrWirUpgr
            # (or will momentarily) and retries its write wirelessly — its
            # miss is already satisfied, so a bounce is ignored. A requester
            # holding a *stale* S copy (late-downgrade straggler), however,
            # still has a live miss: the bounce makes it retry, and once its
            # stale copy is invalidated the retry arrives as a normal join.
            self._nacks()
            self._send(
                mk.NACK_ID,
                requester,
                entry.line,
                {"req_serial": msg.payload.get("req_serial")},
            )
            return
        # Table II, W->W case 1: a new sharer joins over the wired network.
        self._w_joins()
        transaction = {"type": "w_join", "pending": {requester}, "settled": False}
        self._begin(entry, transaction)
        if self.wireless is not None:
            self.wireless.jam(entry.line)
        # Jamming stops *new* wireless updates, but a frame already past its
        # collision-detect slot still delivers up to the MAC's worst-case
        # airtime later (frame_cycles for BRS; longer for FDMA sub-channels
        # or token rotation). The line snapshot must include it, so the
        # first send waits out that window after the jam engages before
        # reading the LLC. Joiners arriving later piggyback on the same jam
        # window (see _join_wireless_sharer) instead of serializing.
        settle = self.wireless.settle_cycles + 1

        def on_settled() -> None:
            transaction["settled"] = True
            for joiner in sorted(transaction["pending"]):
                self._send_wir_upgr(entry, joiner)

        self.sim.schedule(settle, on_settled)

    def _send_wir_upgr(self, entry: DirectoryEntry, requester: int) -> None:
        self._send(
            mk.WIR_UPGR_ID,
            requester,
            entry.line,
            {"data": dict(entry.data), "ack_required": True},
            with_llc_latency=True,
        )

    def _join_wireless_sharer(self, entry: DirectoryEntry, msg: Message) -> None:
        """Fold another joiner into an in-flight w_join (shared jam window)."""
        transaction = entry.transaction
        requester = msg.src
        if requester in transaction["pending"]:
            return  # duplicate request; one grant suffices
        self._w_joins()
        transaction["pending"].add(requester)
        if transaction["settled"]:
            # The jam window is already quiescent: grant immediately.
            self._send_wir_upgr(entry, requester)

    # --------------------------------------------------- S <-> W machinery

    def _start_s_to_w(self, entry: DirectoryEntry, requester: int) -> None:
        """Table II S->W: BrWirUpgr + jamming + ToneAck, WirUpgr to requester."""
        if self.wireless is None or self.tone is None:
            raise ProtocolError("S->W transition without wireless hardware")
        self._s_to_w()
        transaction = {
            "type": "s_to_w",
            "requester": requester,
            "requester_left": False,
            "tone_done": False,
            "requester_acked": False,
        }
        self._begin(entry, transaction)
        line = entry.line
        # Jam before broadcasting: the requester may receive its WirUpgr and
        # attempt a wireless write before the BrWirUpgr even wins the channel
        # (the channel exempts the jamming node's own frames).
        self.wireless.jam(line, self.node)
        # Anything already deferred must be bounced or it would hold its
        # ToneAck tone forever while we wait for silence.
        while entry.deferred:
            deferred = entry.deferred.popleft()
            if deferred.kind_id in (mk.GETS_ID, mk.GETX_ID):
                self._nacks()
                self._send(
                    mk.NACK_ID,
                    deferred.src,
                    line,
                    {"req_serial": deferred.payload.get("req_serial")},
                )
            else:
                self.sim.schedule(1, lambda m=deferred: self.handle_message(m))

        participants = set(range(self.config.num_cores))

        def on_tone_silent() -> None:
            transaction["tone_done"] = True
            self._maybe_finish_s_to_w(entry)

        def on_commit() -> None:
            self.tone.begin(line, participants, on_tone_silent)

        frame = WirelessFrame(mk.BR_WIR_UPGR_ID, self.node, line)
        self.wireless.transmit(frame, on_commit=on_commit)
        # The requester confirms installation with an explicit WirUpgrAck.
        # The ToneAck usually covers it (completion case iii), but a stale
        # bounce can legitimately release its tone before the line arrives;
        # the ack keeps the transition from completing under the requester.
        self._send(
            mk.WIR_UPGR_ID,
            requester,
            line,
            {"data": dict(entry.data), "ack_required": True},
            with_llc_latency=True,
        )

    def _maybe_finish_s_to_w(self, entry: DirectoryEntry) -> None:
        transaction = entry.transaction or {}
        if not transaction.get("tone_done"):
            return
        if not (transaction.get("requester_acked") or transaction.get("requester_left")):
            return
        self._finish_s_to_w(entry)

    def _finish_s_to_w(self, entry: DirectoryEntry) -> None:
        """ToneAck complete: every node transitioned; the entry becomes W."""
        transaction = entry.transaction or {}
        requester_still_in = 0 if transaction.get("requester_left") else 1
        entry.state = DIR_WIRELESS
        entry.sharer_count = len(entry.sharers) + requester_still_in
        entry.sharers.clear()
        entry.owner = None
        entry.clear_imprecision()
        if self.wireless is not None:
            self.wireless.unjam(entry.line)
        self._unbusy(entry)

    def _start_w_to_s(self, entry: DirectoryEntry) -> None:
        """Table II W->S: WirDwgr broadcast, collect WirDwgrAcks via wired."""
        if self.wireless is None:
            raise ProtocolError("W->S transition without wireless hardware")
        self._w_to_s()
        # ``pending`` = acknowledgments still expected; ``acks`` = received;
        # ``ids`` = cores that will be the Shared-state sharer pointers. A
        # core can ack and then evict its new S copy before the transition
        # closes — it leaves ``ids`` but its ack still counts.
        transaction = {
            "type": "w_to_s",
            "pending": entry.sharer_count,
            "acks": 0,
            "ids": [],
        }
        self._begin(entry, transaction)
        frame = WirelessFrame(mk.WIR_DWGR_ID, self.node, entry.line)
        if entry.sharer_count == 0:
            # Every wireless sharer already left; the broadcast is only a
            # formality and the transition completes on delivery.
            self.wireless.transmit(
                frame, on_delivered=lambda: self._finish_w_to_s(entry)
            )
            return
        self.wireless.transmit(frame)

        def recover() -> None:
            if entry.transaction is not transaction:
                return  # this downgrade already closed
            self._w_to_s_recoveries()
            transaction["pending"] = transaction["acks"]
            self._finish_w_to_s(entry)

        self.sim.schedule(W_TO_S_RECOVERY_CYCLES, recover)

    def _finish_w_to_s(self, entry: DirectoryEntry) -> None:
        transaction = entry.transaction
        entry.sharers = set(transaction["ids"])
        entry.sharer_count = 0
        entry.owner = None
        entry.clear_imprecision()
        entry.state = DIR_SHARED if entry.sharers else DIR_INVALID
        if entry.dirty:
            self._memory_for(entry.line).writeback_line(entry.line, entry.data)
            entry.dirty = False
        self._unbusy(entry)

    # --------------------------------------------------- completion kinds

    def _on_put_s(self, entry: Optional[DirectoryEntry], msg: Message) -> None:
        if entry is None:
            return
        transaction = entry.transaction or {}
        kind = transaction.get("type")
        if kind == "inv_collect":
            # The evicting sharer may also be a pending invalidation target;
            # its PutS counts as the acknowledgment.
            entry.sharers.discard(msg.src)
            pending = transaction["pending"]
            pending.discard(msg.src)
            if not pending:
                self._finish_inv_collect(entry)
            return
        if kind == "w_to_s":
            ids = transaction["ids"]
            if msg.src in ids:
                ids.remove(msg.src)  # acked, then evicted: not a sharer
            return
        if kind == "s_to_w":
            # A sharer evicted during the transition window; the final
            # SharerCount snapshot must not include it.
            entry.sharers.discard(msg.src)
            return
        if entry.busy:
            if (
                transaction.get("type") == "fwd_gets"
                and msg.src == entry.owner
            ):
                # The old owner downgraded to S for the forward and evicted
                # that copy before the transaction closed; it must not be
                # re-added to the sharer pointers at completion.
                transaction["owner_left"] = True
                return
            entry.sharers.discard(msg.src)
            return  # state normalization happens when the transaction closes
        if entry.state == DIR_WIRELESS:
            # A stale PutS from before an S->W transition: the core left.
            self._wireless_sharer_left(entry)
            return
        entry.sharers.discard(msg.src)
        if entry.state == DIR_SHARED and not entry.sharers:
            entry.state = DIR_INVALID
            entry.clear_imprecision()

    def _on_put_w(self, entry: Optional[DirectoryEntry], msg: Message) -> None:
        if entry is None:
            return
        transaction = entry.transaction or {}
        if transaction.get("type") == "s_to_w":
            # A node that already installed the line in W left again before
            # the transition finished; the SharerCount snapshot must not
            # include it. Only nodes the transition knows about count —
            # anything else is a stale PutW from an older epoch.
            if msg.src in entry.sharers:
                entry.sharers.discard(msg.src)
            elif msg.src == transaction.get("requester"):
                transaction["requester_left"] = True
                self._maybe_finish_s_to_w(entry)
            return
        if transaction.get("type") == "w_to_s":
            # A sharer self-invalidated concurrently with the downgrade; its
            # WirDwgrAck will never come.
            transaction["pending"] -= 1
            if transaction["acks"] >= transaction["pending"]:
                self._finish_w_to_s(entry)
            return
        if entry.state != DIR_WIRELESS:
            return  # stale PutW for a line that already left W
        self._wireless_sharer_left(entry)

    def _wireless_sharer_left(self, entry: DirectoryEntry) -> None:
        entry.sharer_count = max(0, entry.sharer_count - 1)
        if entry.busy:
            return  # re-checked in _unbusy when the transaction closes
        self._maybe_downgrade(entry)

    def _on_put_m(self, entry: Optional[DirectoryEntry], msg: Message) -> None:
        dirty = msg.payload.get("dirty", False)
        data = msg.payload.get("data")
        if entry is None:
            # The entry was recalled/evicted while the PutM was in flight;
            # the data still has to land somewhere authoritative
            # (``writeback_line`` copies it).
            if dirty and data is not None:
                self._memory_for(msg.line).writeback_line(msg.line, data)
            self._send(mk.PUT_ACK_ID, msg.src, msg.line)
            return
        if entry.busy:
            obs = self._obs
            if obs is not None:
                obs.dir_defer(self.node, msg.line, msg.kind)
            entry.deferred.append(msg)
            return
        if entry.state == DIR_EXCLUSIVE and entry.owner == msg.src:
            if dirty and data is not None:
                entry.data = dict(data)
                entry.dirty = True
                entry.has_data = True
            entry.owner = None
            entry.state = DIR_INVALID
        elif msg.src in entry.sharers:
            # Owner answered a forward from its eviction buffer and became a
            # nominal sharer before this PutM was processed.
            entry.sharers.discard(msg.src)
            if entry.state == DIR_SHARED and not entry.sharers:
                entry.state = DIR_INVALID
                entry.clear_imprecision()
        self._send(mk.PUT_ACK_ID, msg.src, msg.line)

    def _on_inv_ack(
        self, entry: Optional[DirectoryEntry], msg: Message, data: Optional[dict]
    ) -> None:
        if entry is None or not entry.busy:
            return  # late ack for a transaction satisfied by a raced PutS
        transaction = entry.transaction
        kind = transaction.get("type")
        if kind == "inv_collect":
            entry.sharers.discard(msg.src)
            transaction["pending"].discard(msg.src)
            if not transaction["pending"]:
                self._finish_inv_collect(entry)
            return
        if kind == "recall_s":
            transaction["pending"].discard(msg.src)
            if not transaction["pending"]:
                self._finish_recall(entry)
            return
        if kind == "recall_e":
            if data is not None and data.get("dirty"):
                entry.data = dict(data["data"])
                entry.dirty = True
            self._finish_recall(entry)
            return

    def _on_wb_data(self, entry: Optional[DirectoryEntry], msg: Message) -> None:
        if entry is None or not entry.busy:
            return
        transaction = entry.transaction
        if transaction.get("type") != "fwd_gets":
            return
        entry.data = dict(msg.payload["data"])
        entry.has_data = True
        if msg.payload.get("dirty"):
            entry.dirty = True
        requester = transaction["requester"]
        old_owner = entry.owner
        entry.state = DIR_SHARED
        entry.sharers = {requester}
        if old_owner is not None and not transaction.get("owner_left"):
            entry.sharers.add(old_owner)
        entry.owner = None
        self._unbusy(entry)

    def _on_fwd_ack(self, entry: Optional[DirectoryEntry], msg: Message) -> None:
        if entry is None or not entry.busy:
            return
        transaction = entry.transaction
        if transaction.get("type") != "fwd_getx":
            return
        entry.owner = transaction["requester"]
        entry.state = DIR_EXCLUSIVE
        self._unbusy(entry)

    def _on_wir_upgr_ack(self, entry: Optional[DirectoryEntry], msg: Message) -> None:
        if entry is None or not entry.busy:
            return
        transaction = entry.transaction or {}
        if transaction.get("type") == "s_to_w":
            if msg.src == transaction.get("requester"):
                transaction["requester_acked"] = True
                self._maybe_finish_s_to_w(entry)
            return
        if transaction.get("type") != "w_join":
            return
        if msg.src not in transaction["pending"]:
            return  # stale duplicate ack
        transaction["pending"].discard(msg.src)
        entry.sharer_count += 1
        if not transaction["pending"]:
            if self.wireless is not None:
                self.wireless.unjam(entry.line)
            self._unbusy(entry)

    def _on_wir_dwgr_ack(self, entry: Optional[DirectoryEntry], msg: Message) -> None:
        if entry is None:
            return
        transaction = entry.transaction if entry.busy else None
        if transaction is None or transaction.get("type") != "w_to_s":
            # A straggler ack: its downgrade transaction already closed (a
            # racing PutW or the recovery bound satisfied it). The acker
            # holds an S copy the directory no longer tracks, and the line
            # may have been written since — the only safe answer is to
            # invalidate that copy. The InvAck matches no transaction and
            # is dropped harmlessly.
            self._send(mk.INV_ID, msg.payload["core"], entry.line)
            return
        transaction["acks"] += 1
        transaction["ids"].append(msg.payload["core"])
        if transaction["acks"] >= transaction["pending"]:
            self._finish_w_to_s(entry)

    # --------------------------------------------------- LLC slice eviction

    def _start_entry_eviction(self, entry: DirectoryEntry) -> None:
        """Make room in the LLC set by recalling/invalidating ``entry``."""
        self._llc_evictions()
        line = entry.line
        if entry.state == DIR_INVALID:
            self._finish_recall(entry)
            return
        if entry.state == DIR_SHARED:
            targets = entry.known_sharers(
                self.config.num_cores,
                coarse_region_size=self.config.directory.coarse_region_size,
            )
            self._begin(entry, {"type": "recall_s", "pending": set(targets)})
            if not targets:
                self._finish_recall(entry)
                return
            self._send_inv_fanout(targets, line)
            return
        if entry.state == DIR_EXCLUSIVE:
            self._begin(entry, {"type": "recall_e"})
            self._send(mk.INV_ID, entry.owner, line, {"needs_data": True})
            return
        self._start_wireless_eviction(entry)

    def _start_wireless_eviction(self, entry: DirectoryEntry) -> None:
        """Backend hook: recall a DIR_WIRELESS entry from the LLC.

        WiDir behaviour (Table II W->I): broadcast WirInv, write back if
        dirty.  Wired-only backends that repurpose the W directory state
        override this.
        """
        self._w_evictions()
        self._begin(entry, {"type": "evict_w"})
        if self.wireless is None:
            raise ProtocolError("evicting a W line without wireless hardware")
        frame = WirelessFrame(mk.WIR_INV_ID, self.node, entry.line)
        self.wireless.transmit(frame, on_delivered=lambda: self._finish_recall(entry))

    def _finish_recall(self, entry: DirectoryEntry) -> None:
        """The entry is globally invalid: write back and drop it."""
        obs = self._obs
        if obs is not None:
            # Tolerates entries that were never busy (DIR_INVALID fast path):
            # dir_close on a line without an open span is a no-op.
            obs.dir_close(self.node, entry.line)
        if entry.dirty:
            self._memory_for(entry.line).writeback_line(entry.line, entry.data)
        removed = self.array.remove(entry.line)
        # Requests that queued behind the eviction target the same line and
        # must re-dispatch (they will allocate a fresh entry).
        for deferred in removed.deferred:
            self.sim.schedule(1, lambda m=deferred: self.handle_message(m))

    # -------------------------------------------------------- frame ingress

    def handle_frame(self, frame: WirelessFrame) -> None:
        """Wireless frames heard at this tile that concern lines homed here."""
        monitor = self._monitor
        if monitor is not None:
            monitor.touch(frame.line)
        if frame.kind_id != mk.WIR_UPD_ID:
            return
        if self.amap.home_of(frame.line) != self.node:
            return
        entry = self.array.lookup(frame.line, touch=False)
        if entry is None or entry.state != DIR_WIRELESS:
            return
        # Home node merges every wireless update into the LLC copy, which is
        # how the line's data stays authoritative for later joins/downgrades.
        entry.data[frame.word] = frame.value
        entry.dirty = True
        self._sharers_per_update.record(max(0, entry.sharer_count - 1))

    # ----------------------------------------------------- dispatch tables

    def _on_inv_ack_plain(self, entry: Optional[DirectoryEntry], msg: Message) -> None:
        self._on_inv_ack(entry, msg, data=None)

    def _on_inv_ack_data(self, entry: Optional[DirectoryEntry], msg: Message) -> None:
        self._on_inv_ack(entry, msg, data=msg.payload)

    #: kind id -> unbound ``(self, entry, msg)`` handler for everything but
    #: GetS/GetX (which short-circuit in :meth:`handle_message`). Ids
    #: interned after the protocol set (unknown/test kinds) fall off the end
    #: and raise ProtocolError.
    _DISPATCH: List = mk.kind_table()
    for _kid, _handler in (
        (mk.PUTS_ID, _on_put_s),
        (mk.PUTW_ID, _on_put_w),
        (mk.PUTM_ID, _on_put_m),
        (mk.INV_ACK_ID, _on_inv_ack_plain),
        (mk.INV_ACK_DATA_ID, _on_inv_ack_data),
        (mk.WB_DATA_ID, _on_wb_data),
        (mk.FWD_ACK_ID, _on_fwd_ack),
        (mk.WIR_UPGR_ACK_ID, _on_wir_upgr_ack),
        (mk.WIR_DWGR_ACK_ID, _on_wir_dwgr_ack),
    ):
        _DISPATCH[_kid] = _handler
    del _kid, _handler
