"""Hybrid invalidate/update coherence backend (after arXiv 1502.00101).

A *wired-only* directory protocol that, like WiDir, switches widely-shared
lines out of invalidation-based MESI — but instead of a wireless broadcast
plane it uses home-serialized **locked updates** over the mesh:

* A write-miss/upgrade whose precise sharer set exceeds the threshold puts
  the line in *update mode* (directory state ``W``): every sharer is handed
  the line via ``WirUpgr`` and keeps a read-only-while-locked copy in the
  cache ``W`` state.
* A store by a mode member is sent to the home (``HybWr``/``HybRmw``). The
  home serializes it, merges it into the LLC copy, multicasts ``HybUpd`` to
  the other members — each applies the word, moves to the transient
  ``HYB_LOCKED`` ("L") state and acks — and only when *every* ack is in does
  it complete the writer (``HybWrDone``/``HybRmwDone``) and ``HybUnlock``
  the members. A write becomes visible to any reader only once it is
  visible to all (two-phase locked update), which is what gives the
  protocol write atomicity (IRIW) without a broadcast medium.
* Locked (``L``) copies are not readable: a load misses, queues at the busy
  home entry, and is re-granted after the unlock — so reads never observe a
  half-propagated write.
* Members that stop using the line self-invalidate after
  ``update_count_threshold`` consecutive foreign updates (same heuristic as
  WiDir); when membership drops to one the home exits update mode
  (``HybDwgr`` fan-out) back to plain MESI sharing.

The per-(src,dst) FIFO order of the mesh is load-bearing three times over:
a member's ``HybUpdAck`` precedes any ``PutW`` it sends afterwards, the
home's ``HybUnlock`` precedes the next write's ``HybUpd``, and a
``HybDwgr`` precedes any later ``Data`` re-grant.

Pure decision helpers (:func:`hyb_should_enter`, :func:`hyb_should_exit`,
:func:`hyb_update_step`) are kept free of simulator state so hypothesis can
property-test them directly (see ``tests/test_protocol_backends.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.coherence import messages as mk
from repro.coherence.backend import (
    BASE_DIRECTORY_KINDS,
    ProtocolBackend,
    register_backend,
)
from repro.coherence.cache import (
    CacheController,
    MSHR_FULL_RETRY_CYCLES,
    _PendingWirelessWrite,
)
from repro.coherence.dir_controller import DirectoryController
from repro.coherence.directory import DirectoryEntry
from repro.coherence.states import (
    DIR_INVALID,
    DIR_SHARED,
    DIR_WIRELESS,
    EXCLUSIVE,
    MODIFIED,
    SHARED,
    WIRELESS,
)
from repro.engine.errors import ProtocolError
from repro.noc.message import Message

#: Transient cache state: an update was applied but not yet globally
#: visible. Not readable, not writable — loads miss and wait for the
#: unlock, stores are forwarded to the home like W-state stores.
HYB_LOCKED = "L"

# ------------------------------------------------------- message vocabulary

HYB_WR = "HybWr"            # member store -> home; payload: word, value, serial
HYB_RMW = "HybRmw"          # member fetch-and-inc -> home; payload: word, serial
HYB_WR_DONE = "HybWrDone"   # home -> writer: globally visible; serial, word, value
HYB_RMW_DONE = "HybRmwDone"  # home -> writer; payload: serial, word, old
HYB_WR_NACK = "HybWrNack"   # home -> writer: not a member; payload: serial, rmw
HYB_UPD = "HybUpd"          # home -> member: apply + lock; payload: word, value
HYB_UPD_ACK = "HybUpdAck"   # member -> home: update applied, copy locked
HYB_UNLOCK = "HybUnlock"    # home -> member: write globally visible, unlock
HYB_DWGR = "HybDwgr"        # home -> member: leave update mode; payload: invalidate
HYB_DWGR_ACK = "HybDwgrAck"  # member -> home; payload: core

HYB_WR_ID = mk.intern_kind(HYB_WR)
HYB_RMW_ID = mk.intern_kind(HYB_RMW)
HYB_WR_DONE_ID = mk.intern_kind(HYB_WR_DONE)
HYB_RMW_DONE_ID = mk.intern_kind(HYB_RMW_DONE)
HYB_WR_NACK_ID = mk.intern_kind(HYB_WR_NACK)
HYB_UPD_ID = mk.intern_kind(HYB_UPD)
HYB_UPD_ACK_ID = mk.intern_kind(HYB_UPD_ACK)
HYB_UNLOCK_ID = mk.intern_kind(HYB_UNLOCK)
HYB_DWGR_ID = mk.intern_kind(HYB_DWGR)
HYB_DWGR_ACK_ID = mk.intern_kind(HYB_DWGR_ACK)

#: The home-bound slice of the vocabulary (routed to the directory).
HYBRID_DIRECTORY_KINDS: Tuple[str, ...] = BASE_DIRECTORY_KINDS + (
    HYB_WR,
    HYB_RMW,
    HYB_UPD_ACK,
    HYB_DWGR_ACK,
)

# ------------------------------------------------------ pure transition fns


def hyb_should_enter(num_targets: int, precise: bool, threshold: int) -> bool:
    """Enter update mode for a write when the *precise* sharer set (plus the
    requester) exceeds the threshold. Imprecise entries (broadcast bit or
    coarse regions) cannot enumerate members and fall back to invalidation.
    """
    return precise and num_targets + 1 > threshold


def hyb_should_exit(sharer_count: int) -> bool:
    """Leave update mode once at most one member remains."""
    return sharer_count <= 1


def hyb_update_step(count: int, threshold: int) -> Tuple[int, bool]:
    """Apply one foreign update to a member's counter.

    Returns ``(new_count, self_invalidate)`` — the member drops its copy
    after ``threshold`` consecutive foreign updates with no local access
    (local reads reset the counter, exactly like WiDir's UpdateCount).
    """
    new_count = count + 1
    return new_count, new_count >= threshold


# --------------------------------------------------------- cache controller


class HybridCacheController(CacheController):
    """MESI cache extended with update-mode (W) and locked (L) copies."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Monotonic serial distinguishing this core's in-flight HybWr/HybRmw.
        self._hyb_serial = 0
        #: serial -> pending write record (mirrored in ``_pending_wireless``
        #: so the online monitor's quiescence predicate covers these windows).
        self._hyb_pending: Dict[int, _PendingWirelessWrite] = {}

    # ------------------------------------------------------- access engine

    def _do_store(self, address, value, on_done) -> None:
        entry = self.array.lookup(address >> self._line_shift)
        if entry is not None and entry.state == HYB_LOCKED:
            # A locked member may keep writing: the home serializes the
            # write after the one currently propagating.
            self._store_wireless(entry, address, value, on_done)
            return
        super()._do_store(address, value, on_done)

    def _do_rmw(self, address, on_done) -> None:
        entry = self.array.lookup(address >> self._line_shift)
        if entry is not None and entry.state == HYB_LOCKED:
            self._rmw_wireless(entry, address, on_done)
            return
        super()._do_rmw(address, on_done)

    def _store_wireless(self, entry, address: int, value: int, on_done) -> None:
        """Update-mode store: ship it to the home, complete on HybWrDone."""
        line = self.amap.line_of(address)
        word = self.amap.word_of(address)
        entry.update_count = 0
        obs = self._obs
        if obs is not None:
            obs.event(self.node, "hyb.store", line, f"word={word}")
        self._hyb_serial += 1
        serial = self._hyb_serial
        pending = _PendingWirelessWrite(None, address, value, on_done)
        self._hyb_pending[serial] = pending
        self._pending_wireless.setdefault(line, []).append(pending)
        self._send(
            mk.kind_id(HYB_WR),
            self.amap.home_of(line),
            line,
            {"word": word, "value": value, "serial": serial},
        )

    def _rmw_wireless(self, entry, address: int, on_done) -> None:
        """Update-mode fetch-and-increment: atomic at the home."""
        line = self.amap.line_of(address)
        word = self.amap.word_of(address)
        obs = self._obs
        if obs is not None:
            obs.event(self.node, "hyb.rmw", line, f"word={word}")
        self._hyb_serial += 1
        serial = self._hyb_serial
        self._rmw_watch[line] = {
            "address": address,
            "on_done": on_done,
            "serial": serial,
            "request": None,
        }
        self._send(
            mk.kind_id(HYB_RMW),
            self.amap.home_of(line),
            line,
            {"word": word, "serial": serial},
        )

    def _reissue_pending_writes(self, line: int) -> None:
        """No-op: an in-flight HybWr always completes or nacks at the home
        (reissuing it here would apply the write twice)."""

    def _evict(self, victim) -> None:
        if victim.state == HYB_LOCKED:
            line = victim.line
            obs = self._obs
            if obs is not None:
                obs.event(self.node, "evict.locked", line)
            self.array.remove(line)
            self._send(mk.PUTW_ID, self.amap.home_of(line), line)
            return
        super()._evict(victim)

    # ------------------------------------------------- wired message side

    def _on_wir_upgr(self, msg: Message) -> None:
        """WirUpgr = "you are (now) an update-mode member" + fresh data."""
        resident = self.array.lookup(msg.line, touch=False)
        if resident is not None:
            if resident.state in (SHARED, WIRELESS, HYB_LOCKED):
                entry = resident
                entry.state = WIRELESS
                data = msg.payload.get("data")
                if data is not None:
                    # Unlike WiDir's duplicate-join path, the refresh is
                    # mandatory: a locked reader joins *through* the home and
                    # must observe the home's serialized image.
                    entry.data = dict(data)
                entry.update_count = 0
            else:
                raise ProtocolError(
                    f"L1 {self.node}: WirUpgr for 0x{msg.line:x} held in "
                    f"{resident.state}"
                )
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

    def _on_data(self, msg: Message) -> None:
        # Defensive: a data response landing on an update-mode copy answers
        # a superseded request (the home's image is authoritative here, so
        # the copy is kept as-is). FwdData still owes the home its closure.
        resident = self.array.lookup(msg.line, touch=False)
        if resident is not None and resident.state in (WIRELESS, HYB_LOCKED):
            if msg.kind_id == mk.FWD_DATA_ID:
                self._send(
                    mk.WB_DATA_ID,
                    self.amap.home_of(msg.line),
                    msg.line,
                    {
                        "data": dict(msg.payload.get("data", {})),
                        "dirty": msg.payload.get("dirty", False),
                    },
                )
            if self.mshrs.get(msg.line) is not None:
                self._complete_mshr(msg.line)
            return
        super()._on_data(msg)

    def _on_inv(self, msg: Message) -> None:
        resident = self.array.lookup(msg.line, touch=False)
        if resident is not None and resident.state == HYB_LOCKED:
            # A maximally delayed Inv from a pre-mode epoch; membership is
            # governed by HybDwgr/PutW, so only ack it (mirrors the W case).
            self._send(mk.INV_ACK_ID, msg.src, msg.line)
            return
        super()._on_inv(msg)

    # ------------------------------------------------- hybrid update plane

    def _on_hyb_wr_done(self, msg: Message) -> None:
        payload = msg.payload
        pending = self._hyb_pending.pop(payload.get("serial"), None)
        if pending is None:
            return  # superseded (nacked and reissued down the wired path)
        self._wireless_writes()
        self._wireless_writes_total()
        line = msg.line
        resident = self.array.lookup(line, touch=False)
        if resident is not None and resident.state in (WIRELESS, HYB_LOCKED):
            resident.data[payload["word"]] = payload["value"]
            resident.update_count = 0
        self._drop_pending(line, pending, unpin=False)
        pending.on_done()

    def _on_hyb_rmw_done(self, msg: Message) -> None:
        payload = msg.payload
        watch = self._rmw_watch.get(msg.line)
        if watch is None or watch.get("serial") != payload.get("serial"):
            return
        del self._rmw_watch[msg.line]
        self._wireless_writes()
        self._wireless_writes_total()
        old = payload["old"]
        resident = self.array.lookup(msg.line, touch=False)
        if resident is not None and resident.state in (WIRELESS, HYB_LOCKED):
            resident.data[payload["word"]] = old + 1
            resident.update_count = 0
        watch["on_done"](old)

    def _on_hyb_wr_nack(self, msg: Message) -> None:
        """The home no longer counts this core as a member: retry wired."""
        payload = msg.payload
        line = msg.line
        self._nacks()
        resident = self.array.lookup(line, touch=False)
        if resident is not None and resident.state in (WIRELESS, HYB_LOCKED):
            # Keeping the orphaned copy would just bounce the retry forever
            # (e.g. the home entry was evicted under us).
            self.array.remove(line)
            self._send(mk.PUTW_ID, self.amap.home_of(line), line)
        if payload.get("rmw"):
            watch = self._rmw_watch.get(line)
            if watch is None or watch.get("serial") != payload.get("serial"):
                return
            del self._rmw_watch[line]
            address, on_done = watch["address"], watch["on_done"]
            self.sim.schedule(1, lambda: self._do_rmw(address, on_done))
            return
        pending = self._hyb_pending.pop(payload.get("serial"), None)
        if pending is None:
            return
        self._drop_pending(line, pending, unpin=False)
        address, value, on_done = pending.address, pending.value, pending.on_done
        self.sim.schedule(1, lambda: self._do_store(address, value, on_done))

    def _on_hyb_upd(self, msg: Message) -> None:
        """A foreign write: apply it, lock the copy, ack the home."""
        payload = msg.payload
        line = msg.line
        resident = self.array.lookup(line, touch=False)
        if resident is None or resident.state not in (WIRELESS, HYB_LOCKED):
            # Not a member anymore (evicted; the PutW is behind this ack on
            # the mesh). The home still needs the ack to close the write.
            self._send(mk.kind_id(HYB_UPD_ACK), msg.src, line)
            return
        resident.data[payload["word"]] = payload["value"]
        resident.state = HYB_LOCKED
        count, self_inv = hyb_update_step(
            resident.update_count, self._update_threshold
        )
        resident.update_count = count
        # FIFO: the ack must precede the self-invalidation's PutW so the
        # home never waits on an ack from a core it already dropped.
        self._send(mk.kind_id(HYB_UPD_ACK), msg.src, line)
        if (
            self_inv
            and not resident.pinned
            and line not in self._pending_wireless
            and line not in self._rmw_watch
        ):
            self._self_invalidate(resident)

    def _on_hyb_unlock(self, msg: Message) -> None:
        resident = self.array.lookup(msg.line, touch=False)
        if resident is not None and resident.state == HYB_LOCKED:
            resident.state = WIRELESS

    def _on_hyb_dwgr(self, msg: Message) -> None:
        """The home is leaving update mode: downgrade to S (or invalidate)."""
        invalidate = msg.payload.get("invalidate", False)
        line = msg.line
        resident = self.array.lookup(line, touch=False)
        survived = False
        if resident is not None and resident.state in (WIRELESS, HYB_LOCKED):
            if invalidate:
                self.array.remove(line)
            else:
                resident.state = SHARED
                resident.update_count = 0
                resident.dirty = False
                survived = True
        # The ack is unconditional — membership changes never leave the home
        # counting acks that cannot come.
        self._send(
            mk.kind_id(HYB_DWGR_ACK), msg.src, line, {"core": self.node}
        )
        if survived and self.mshrs.get(line) is not None:
            # A load that missed on the locked copy retries and hits S; its
            # in-flight GetS is answered by the home's idempotent re-grant.
            self._complete_mshr(line)

    #: Rebuilt (dispatch tables hold unbound functions, so overriding a
    #: method does not retarget the base table) and extended to cover the
    #: kinds this module interned.
    _WIRED_DISPATCH = list(CacheController._WIRED_DISPATCH)
    _WIRED_DISPATCH.extend([None] * (mk.num_kinds() - len(_WIRED_DISPATCH)))
    for _kid, _handler in (
        (mk.DATA_ID, _on_data),
        (mk.DATA_E_ID, _on_data),
        (mk.FWD_DATA_ID, _on_data),
        (mk.WIR_UPGR_ID, _on_wir_upgr),
        (mk.INV_ID, _on_inv),
        (HYB_WR_DONE_ID, _on_hyb_wr_done),
        (HYB_RMW_DONE_ID, _on_hyb_rmw_done),
        (HYB_WR_NACK_ID, _on_hyb_wr_nack),
        (HYB_UPD_ID, _on_hyb_upd),
        (HYB_UNLOCK_ID, _on_hyb_unlock),
        (HYB_DWGR_ID, _on_hyb_dwgr),
    ):
        _WIRED_DISPATCH[_kid] = _handler
    del _kid, _handler


# ----------------------------------------------------- directory controller


class HybridDirectoryController(DirectoryController):
    """Home node serializing update-mode writes with two-phase locking.

    Repurposes the ``DIR_WIRELESS`` directory state for update mode, but —
    unlike WiDir — keeps the *identities* of the members in ``entry.sharers``
    (the multicast needs them), with ``sharer_count`` mirroring the set so
    the checker's W accounting and replay snapshots stay valid.

    Transaction types added to the base table: ``hyb_enter`` (convert the
    precise sharer set), ``hyb_join`` (grant one new member), ``hyb_write``
    (one locked update propagating), ``hyb_exit`` (downgrade/invalidate the
    members and leave update mode).
    """

    def __init__(self, sim, node, config, amap, noc, memory_controllers,
                 stats, wireless=None, tone=None) -> None:
        super().__init__(
            sim, node, config, amap, noc, memory_controllers, stats,
            wireless=wireless, tone=tone,
        )
        s = stats
        self._hyb_mode_enters = s.adder("dir.total.hyb_mode_enters")
        self._hyb_mode_exits = s.adder("dir.total.hyb_mode_exits")
        self._hyb_writes = s.adder("dir.total.hyb_writes")
        self._hyb_joins = s.adder("dir.total.hyb_joins")

    # ------------------------------------------------------- request path

    def _req_shared(self, entry: DirectoryEntry, msg: Message) -> None:
        if msg.kind_id == mk.GETX_ID:
            requester = msg.src
            targets = entry.known_sharers(
                self.config.num_cores,
                exclude=requester,
                coarse_region_size=self.config.directory.coarse_region_size,
            )
            precise = not entry.broadcast and not entry.coarse_regions
            if hyb_should_enter(len(targets), precise, self._max_wired):
                self._start_hyb_enter(entry, requester, targets)
                return
        super()._req_shared(entry, msg)

    def _start_hyb_enter(
        self, entry: DirectoryEntry, requester: int, targets
    ) -> None:
        """Convert every precise sharer (and the writer) into a member."""
        self._hyb_mode_enters()
        entry.busy = True
        pending = set(targets)
        pending.add(requester)
        entry.transaction = {
            "type": "hyb_enter",
            "pending": pending,
            "joined": set(),
            "left": set(),
        }
        obs = self._obs
        if obs is not None:
            obs.dir_open(self.node, entry.line, "hyb_enter")
        for core in sorted(pending):
            self._send_wir_upgr(entry, core)

    def _finish_hyb_enter(self, entry: DirectoryEntry) -> None:
        transaction = entry.transaction
        entry.state = DIR_WIRELESS
        entry.sharers = set(transaction["joined"])
        entry.sharer_count = len(entry.sharers)
        entry.owner = None
        entry.clear_imprecision()
        self._unbusy(entry)

    def _req_wireless(self, entry: DirectoryEntry, msg: Message) -> None:
        requester = msg.src
        if msg.kind_id == mk.GETX_ID and msg.payload.get("is_sharer"):
            # An upgrade racing the mode entry: the requester's miss is (or
            # is about to be) satisfied by its WirUpgr; a stale-S straggler
            # retries and joins once its copy is gone (mirrors WiDir).
            self._nacks()
            self._send(
                mk.NACK_ID,
                requester,
                entry.line,
                {"req_serial": msg.payload.get("req_serial")},
            )
            return
        self._start_hyb_join(entry, requester)

    def _start_hyb_join(self, entry: DirectoryEntry, requester: int) -> None:
        """Grant one new member; no jam window — the LLC copy is always
        current because every update-mode write serializes here."""
        self._hyb_joins()
        entry.busy = True
        entry.transaction = {
            "type": "hyb_join",
            "pending": {requester},
            "left": set(),
        }
        obs = self._obs
        if obs is not None:
            obs.dir_open(self.node, entry.line, "hyb_join")
        self._send_wir_upgr(entry, requester)

    # ------------------------------------------------------- write engine

    def _on_hyb_wr(self, entry: Optional[DirectoryEntry], msg: Message) -> None:
        self._hyb_write_request(entry, msg, rmw=False)

    def _on_hyb_rmw(self, entry: Optional[DirectoryEntry], msg: Message) -> None:
        self._hyb_write_request(entry, msg, rmw=True)

    def _hyb_write_request(
        self, entry: Optional[DirectoryEntry], msg: Message, rmw: bool
    ) -> None:
        if entry is not None and entry.busy:
            obs = self._obs
            if obs is not None:
                obs.dir_defer(self.node, msg.line, msg.kind)
            entry.deferred.append(msg)
            return
        if (
            entry is None
            or entry.state != DIR_WIRELESS
            or msg.src not in entry.sharers
        ):
            # Not a member (the mode was exited or the entry recalled while
            # the write was in flight): bounce it down the wired path.
            self._send(
                mk.kind_id(HYB_WR_NACK),
                msg.src,
                msg.line,
                {"serial": msg.payload.get("serial"), "rmw": rmw},
            )
            return
        self._start_hyb_write(entry, msg, rmw)

    def _start_hyb_write(
        self, entry: DirectoryEntry, msg: Message, rmw: bool
    ) -> None:
        payload = msg.payload
        word = payload["word"]
        if rmw:
            old = entry.data.get(word, 0)
            value = old + 1
        else:
            old = 0
            value = payload["value"]
        # Serialization point: the write exists at the home from here on,
        # but completes (and becomes readable anywhere) only when every
        # member has applied and acked it.
        entry.data[word] = value
        entry.dirty = True
        entry.has_data = True
        writer = msg.src
        targets = sorted(entry.sharers - {writer})
        self._hyb_writes()
        self._sharers_per_update.record(len(targets))
        self._sharers_exact.record(len(targets))
        entry.busy = True
        entry.transaction = {
            "type": "hyb_write",
            "writer": writer,
            "word": word,
            "value": value,
            "serial": payload.get("serial"),
            "rmw": rmw,
            "old": old,
            "pending": set(targets),
        }
        obs = self._obs
        if obs is not None:
            obs.dir_open(self.node, entry.line, "hyb_write")
        for core in targets:
            self._send(
                mk.kind_id(HYB_UPD), core, entry.line,
                {"word": word, "value": value},
            )
        if not targets:
            self._finish_hyb_write(entry)

    def _on_hyb_upd_ack(
        self, entry: Optional[DirectoryEntry], msg: Message
    ) -> None:
        if entry is None or not entry.busy:
            return
        transaction = entry.transaction or {}
        if transaction.get("type") != "hyb_write":
            return
        transaction["pending"].discard(msg.src)
        if not transaction["pending"]:
            self._finish_hyb_write(entry)

    def _finish_hyb_write(self, entry: DirectoryEntry) -> None:
        """Every member applied the write: complete the writer, unlock."""
        transaction = entry.transaction
        writer = transaction["writer"]
        if transaction["rmw"]:
            self._send(
                mk.kind_id(HYB_RMW_DONE),
                writer,
                entry.line,
                {
                    "serial": transaction["serial"],
                    "word": transaction["word"],
                    "old": transaction["old"],
                },
            )
        else:
            self._send(
                mk.kind_id(HYB_WR_DONE),
                writer,
                entry.line,
                {
                    "serial": transaction["serial"],
                    "word": transaction["word"],
                    "value": transaction["value"],
                },
            )
        # Unlocks go out before _unbusy services any deferred HybWr, so on
        # each member's FIFO this write's unlock precedes the next's HybUpd.
        for core in sorted(entry.sharers):
            if core != writer:
                self._send(mk.kind_id(HYB_UNLOCK), core, entry.line)
        self._unbusy(entry)

    # ----------------------------------------------------- mode exit path

    def _maybe_downgrade(self, entry: DirectoryEntry) -> bool:
        if entry.state == DIR_WIRELESS and hyb_should_exit(entry.sharer_count):
            self._start_hyb_exit(entry, invalidate=False)
            return True
        return False

    def _start_hyb_exit(self, entry: DirectoryEntry, invalidate: bool) -> None:
        self._hyb_mode_exits()
        entry.busy = True
        targets = sorted(entry.sharers)
        entry.transaction = {
            "type": "hyb_exit",
            "pending": set(targets),
            "invalidate": invalidate,
        }
        obs = self._obs
        if obs is not None:
            obs.dir_open(self.node, entry.line, "hyb_exit")
        for core in targets:
            self._send(
                mk.kind_id(HYB_DWGR), core, entry.line,
                {"invalidate": invalidate},
            )
        if not targets:
            self._finish_hyb_exit(entry)

    def _on_hyb_dwgr_ack(
        self, entry: Optional[DirectoryEntry], msg: Message
    ) -> None:
        if entry is None or not entry.busy:
            # Late ack at an idle entry: unlike WiDir's count-only W state,
            # the downgrade already deterministically downgraded or removed
            # the acker's copy — nothing to clean up.
            return
        transaction = entry.transaction or {}
        if transaction.get("type") != "hyb_exit":
            return
        transaction["pending"].discard(msg.src)
        if not transaction["pending"]:
            self._finish_hyb_exit(entry)

    def _finish_hyb_exit(self, entry: DirectoryEntry) -> None:
        transaction = entry.transaction
        if transaction["invalidate"]:
            entry.sharers.clear()
            entry.sharer_count = 0
            entry.owner = None
            # _finish_recall writes back if dirty, drops the entry, and
            # re-dispatches anything deferred against a fresh allocation.
            self._finish_recall(entry)
            return
        entry.sharer_count = 0
        entry.owner = None
        entry.state = DIR_SHARED if entry.sharers else DIR_INVALID
        entry.clear_imprecision()
        self._note_pointer_overflow(entry)
        if entry.dirty:
            self._memory_for(entry.line).writeback_line(entry.line, entry.data)
            entry.dirty = False
        self._unbusy(entry)

    def _start_wireless_eviction(self, entry: DirectoryEntry) -> None:
        """LLC eviction of an update-mode entry: exit with invalidation."""
        self._w_evictions()
        self._start_hyb_exit(entry, invalidate=True)

    # ------------------------------------------------- membership changes

    def _on_put_s(self, entry: Optional[DirectoryEntry], msg: Message) -> None:
        if entry is None:
            return
        transaction = entry.transaction or {}
        kind = transaction.get("type")
        if kind in ("hyb_enter", "hyb_join"):
            # The evicted S copy is about to be reinstalled by the in-flight
            # WirUpgr; membership is settled by its ack.
            return
        if kind in ("hyb_write", "hyb_exit"):
            return  # stale pre-mode PutS; members leave with PutW
        if entry.state == DIR_WIRELESS and not entry.busy:
            return  # stale pre-mode PutS (identities govern membership)
        super()._on_put_s(entry, msg)

    def _on_put_w(self, entry: Optional[DirectoryEntry], msg: Message) -> None:
        if entry is None:
            return
        transaction = entry.transaction or {}
        kind = transaction.get("type")
        src = msg.src
        if kind == "hyb_enter":
            transaction["joined"].discard(src)
            transaction["left"].add(src)
            return  # its WirUpgrAck (already sent, FIFO) settles "pending"
        if kind == "hyb_join":
            transaction["left"].add(src)
            entry.sharers.discard(src)
            entry.sharer_count = len(entry.sharers)
            return
        if kind in ("hyb_write", "hyb_exit"):
            # A member self-invalidated or evicted mid-transaction. Its ack
            # was sent before the PutW (FIFO), so the pending set needs no
            # correction — only the membership does.
            entry.sharers.discard(src)
            entry.sharer_count = len(entry.sharers)
            return
        if not entry.busy and entry.state == DIR_WIRELESS:
            entry.sharers.discard(src)
            entry.sharer_count = len(entry.sharers)
            self._maybe_downgrade(entry)
            return
        super()._on_put_w(entry, msg)

    def _on_wir_upgr_ack(
        self, entry: Optional[DirectoryEntry], msg: Message
    ) -> None:
        if entry is None or not entry.busy:
            return
        transaction = entry.transaction or {}
        kind = transaction.get("type")
        if kind == "hyb_enter":
            if msg.src not in transaction["pending"]:
                return  # stale duplicate ack
            transaction["pending"].discard(msg.src)
            if msg.src not in transaction["left"]:
                transaction["joined"].add(msg.src)
            if not transaction["pending"]:
                self._finish_hyb_enter(entry)
            return
        if kind == "hyb_join":
            if msg.src not in transaction["pending"]:
                return
            transaction["pending"].discard(msg.src)
            if msg.src not in transaction["left"]:
                entry.sharers.add(msg.src)
            entry.sharer_count = len(entry.sharers)
            if not transaction["pending"]:
                self._unbusy(entry)
            return
        super()._on_wir_upgr_ack(entry, msg)

    #: Rebuilt: base entries are inherited by copy, overridden methods are
    #: re-pointed (tables hold unbound functions), new kinds appended.
    _DISPATCH = list(DirectoryController._DISPATCH)
    _DISPATCH.extend([None] * (mk.num_kinds() - len(_DISPATCH)))
    for _kid, _handler in (
        (mk.PUTS_ID, _on_put_s),
        (mk.PUTW_ID, _on_put_w),
        (mk.WIR_UPGR_ACK_ID, _on_wir_upgr_ack),
        (HYB_WR_ID, _on_hyb_wr),
        (HYB_RMW_ID, _on_hyb_rmw),
        (HYB_UPD_ACK_ID, _on_hyb_upd_ack),
        (HYB_DWGR_ACK_ID, _on_hyb_dwgr_ack),
    ):
        _DISPATCH[_kid] = _handler
    del _kid, _handler


# ------------------------------------------------------------ registration


def _hyb_cache(sim, node, config, amap, noc, stats, rng, wireless, tone):
    return HybridCacheController(
        sim, node, config, amap, noc, stats, rng, wireless=wireless, tone=tone
    )


def _hyb_directory(
    sim, node, config, amap, noc, memory_controllers, stats, wireless, tone
):
    return HybridDirectoryController(
        sim,
        node,
        config,
        amap,
        noc,
        memory_controllers,
        stats,
        wireless=wireless,
        tone=tone,
    )


register_backend(
    ProtocolBackend(
        name="hybrid_update",
        description=(
            "Hybrid invalidate/update MESI: widely-written lines switch to "
            "home-serialized locked updates (arXiv 1502.00101)."
        ),
        uses_wireless=False,
        uses_sharer_threshold=True,
        readable_states=frozenset({MODIFIED, EXCLUSIVE, SHARED, WIRELESS}),
        writable_states=frozenset({MODIFIED, EXCLUSIVE}),
        directory_kinds=HYBRID_DIRECTORY_KINDS,
        cache_factory=_hyb_cache,
        directory_factory=_hyb_directory,
    )
)
