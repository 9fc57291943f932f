"""The shared wireless data channel with pluggable MAC and selective jamming.

Model
-----
The medium is a single broadcast resource (or, for multi-channel MACs, a
statically partitioned one). A node with a frame to send queues a
:class:`TransmitRequest`; *who* transmits when several nodes contend —
and what happens after a collision or a NACK — is decided by the MAC
backend named by ``config.mac`` (:mod:`repro.wireless.mac`). The default
``brs`` MAC reproduces the paper's discipline exactly: if exactly one
node starts transmitting in a given cycle, the frame occupies the medium
for ``preamble + collision_detect + payload`` cycles, at the end of which
every node on the chip receives it; if two or more start in the same
cycle, they discover the collision in the collision-detect slot, abort,
and retry after an exponential backoff
(:class:`~repro.wireless.mac.BackoffPolicy`).

*Selective jamming* (paper Section III-C1): a directory that is
mid-transition for a line registers that line address with the channel;
any frame for a jammed line is negative-acked in the collision-detect
slot exactly as if it had collided, so the sender retries under the
MAC's NACK policy. An optional partial-address mask models the paper's
"false positives" (only some address bits visible in the first cycle).
An optional seeded :class:`~repro.wireless.errors.ChannelErrorModel` adds
frame corruption through the same NACK path.

*Serialization point* (paper Section IV-C): the moment a frame survives
the collision-detect slot it is guaranteed to transmit. The channel
invokes the request's ``on_commit`` callback at that cycle — this is when
a wireless write may merge into the local cache — and delivers the
broadcast to all receivers when the payload finishes.

Requests are cancellable until their commit point, which the wireless-RMW
implementation relies on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config.system import WirelessConfig
from repro.engine.rng import DeterministicRng
from repro.engine.simulator import Simulator
from repro.stats.collectors import StatsRegistry
from repro.wireless.errors import ChannelErrorModel
from repro.wireless.frames import WirelessFrame
from repro.wireless.mac import DEFAULT_MAC, MacBackend, get_mac


class TransmitRequest:
    """One node's attempt to broadcast one frame.

    Attributes
    ----------
    frame:
        The frame to send.
    on_commit:
        Called at the serialization point (frame guaranteed to transmit).
    on_delivered:
        Called when the payload completes, after all receivers were invoked.
    """

    __slots__ = (
        "frame",
        "on_commit",
        "on_delivered",
        "ready_time",
        "failures",
        "cancelled",
        "committed",
    )

    def __init__(
        self,
        frame: WirelessFrame,
        on_commit: Optional[Callable[[], None]],
        on_delivered: Optional[Callable[[], None]],
        ready_time: int,
    ) -> None:
        self.frame = frame
        self.on_commit = on_commit
        self.on_delivered = on_delivered
        self.ready_time = ready_time
        self.failures = 0
        self.cancelled = False
        self.committed = False

    def cancel(self) -> bool:
        """Withdraw the frame; returns False if it already committed."""
        if self.committed:
            return False
        self.cancelled = True
        return True


class WirelessDataChannel:
    """Shared 60 GHz broadcast medium with a pluggable MAC discipline."""

    def __init__(
        self,
        sim: Simulator,
        config: WirelessConfig,
        num_nodes: int,
        stats: StatsRegistry,
        rng: DeterministicRng,
        jam_address_bits: Optional[int] = None,
        mac: Optional[MacBackend] = None,
        errors: Optional[ChannelErrorModel] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.num_nodes = num_nodes
        self.stats = stats
        #: The MAC's RNG root; every policy stream is a labelled split of
        #: this, so MAC construction never advances it.
        self.rng = rng
        #: Bits of the line address visible in the preamble for jam matching;
        #: None means exact matching (no false positives).
        self.jam_address_bits = jam_address_bits
        self._receivers: Dict[int, Callable[[WirelessFrame], None]] = {}
        self._pending: List[TransmitRequest] = []
        #: Lines whose data updates (jammable frames) are being NACKed,
        #: refcounted: ``jam``/``unjam`` nest, so a fault injector's jam
        #: storm overlapping a directory's own transition jam cannot lift
        #: the directory's jam early. Protocol use is always a matched
        #: non-nested pair per line, for which the behaviour is identical
        #: to the historical plain set.
        self._jammed_lines: Dict[int, int] = {}
        #: Arbitration winners currently occupying the medium (between
        #: their arbitration cycle and their finish event). Single-medium
        #: MACs keep at most one entry; multi-channel MACs may carry one
        #: per sub-channel.
        self._active: List[TransmitRequest] = []
        self._busy_until = 0
        self._arbitration_scheduled_at: Optional[int] = None
        #: Observability hook (set by Observability.install(); None — the
        #: default — costs one attribute test per channel operation and
        #: nothing else; see repro.obs.hooks).
        self.obs = None
        self._errors = errors
        self._attempts = stats.counter("wnoc.attempts")
        self._successes = stats.counter("wnoc.frames")
        self._collisions = stats.counter("wnoc.collisions")
        self._jams = stats.counter("wnoc.jams")
        self._cancellations = stats.counter("wnoc.cancellations")
        self._busy_cycles = stats.counter("wnoc.busy_cycles")
        #: The MAC discipline. Built last: the state factory receives the
        #: fully initialised channel (config, rng, stats, counters).
        self.mac_backend = mac if mac is not None else get_mac(DEFAULT_MAC)
        self._mac = self.mac_backend.state_factory(self)
        #: Per-node backoff policies for MACs that use them (``()``
        #: otherwise) — obs install, the fuzz backoff scrambler, and
        #: machine snapshots iterate this.
        self._backoff = self._mac.backoff_policies

    # ------------------------------------------------------------------ API

    def register_receiver(
        self, node: int, handler: Callable[[WirelessFrame], None]
    ) -> None:
        """Attach the tile-side receive callback for ``node``.

        Every successful frame is delivered to *every* registered node,
        including the sender's own tile (whose directory slice may need it).
        """
        self._receivers[node] = handler

    def transmit(
        self,
        frame: WirelessFrame,
        on_commit: Optional[Callable[[], None]] = None,
        on_delivered: Optional[Callable[[], None]] = None,
    ) -> TransmitRequest:
        """Queue ``frame`` for broadcast; returns a cancellable handle."""
        request = TransmitRequest(frame, on_commit, on_delivered, self.sim.now)
        obs = self.obs
        if obs is not None:
            obs.frame_queued(request)
        self._pending.append(request)
        self._schedule_arbitration(self.sim.now)
        return request

    def jam(self, line: int, owner: int = -1) -> None:
        """Begin jamming data updates addressed to ``line`` (directory busy).

        Only *jammable* frames (cores' WirUpd) are affected; the jamming
        directory's own transition broadcasts always pass. ``owner`` is
        accepted for API symmetry and diagnostics only. Jams nest: the line
        stays jammed until every :meth:`jam` has been matched by an
        :meth:`unjam`.
        """
        self._jammed_lines[line] = self._jammed_lines.get(line, 0) + 1

    def unjam(self, line: int) -> None:
        """Release one jam on ``line``; senders succeed on retry once the
        last overlapping jam is lifted. Unjamming an unjammed line is a
        harmless no-op (mirrors the historical ``set.discard``)."""
        count = self._jammed_lines.get(line, 0)
        if count <= 1:
            self._jammed_lines.pop(line, None)
        else:
            self._jammed_lines[line] = count - 1

    def is_jammed(self, line: int) -> bool:
        """Would a jammable frame for ``line`` be NACKed right now?"""
        if self.jam_address_bits is None:
            return line in self._jammed_lines
        mask = (1 << self.jam_address_bits) - 1
        return any((line & mask) == (jammed & mask) for jammed in self._jammed_lines)

    def line_in_flight(self, line: int) -> bool:
        """True while any non-cancelled frame for ``line`` is queued or on
        the medium — the window in which copies of the line may legally
        disagree (a committed WirUpd merged at the sender but not yet
        delivered). Used by the online invariant checker."""
        for active in self._active:
            if not active.cancelled and active.frame.line == line:
                return True
        return any(
            not r.cancelled and r.frame.line == line for r in self._pending
        )

    @property
    def _active_request(self) -> Optional[TransmitRequest]:
        """The sole occupant for single-medium MACs (compat accessor;
        observed by the online invariant checker and the snapshot
        quiescence gate)."""
        return self._active[0] if self._active else None

    @property
    def settle_cycles(self) -> int:
        """Worst-case cycles a granted frame may still be in the air.

        Protocol jam-settle windows and the consistency validator's
        write-visibility lag are sized from this, not from the raw
        ``frame_cycles`` — MACs that stretch airtime (FDMA) or delay the
        transmission start (token rotation) report a larger value.
        """
        return self._mac.max_airtime()

    @property
    def collision_probability(self) -> float:
        """Fraction of transmission attempts that ended in a collision."""
        attempts = self._attempts.value
        return self._collisions.value / attempts if attempts else 0.0

    @property
    def idle(self) -> bool:
        return self.sim.now >= self._busy_until and not self._pending

    # ----------------------------------------------------------- MAC seam

    def _nacked(self, request: TransmitRequest) -> bool:
        """Is ``request`` negative-acked in the collision-detect slot?

        Selective jamming first (the directory acts before the payload),
        then seeded frame corruption. A disabled error model draws
        nothing, keeping the default configuration digest-identical to
        the pre-error-model channel.
        """
        obs = self.obs
        if request.frame.jammable and self.is_jammed(request.frame.line):
            self._jams.add()
            if obs is not None:
                obs.frame_phase(request, "jammed")
            return True
        errors = self._errors
        if errors is not None and errors.corrupts_frame(request.failures):
            if obs is not None:
                obs.frame_phase(request, "corrupt")
            return True
        return False

    def grant(
        self,
        request: TransmitRequest,
        now: int,
        start_delay: int,
        duration: int,
    ) -> None:
        """Put ``request`` on the medium (called by the MAC's arbitrate).

        ``start_delay`` models pre-transmission latency the MAC charges
        (e.g. token rotation); ``duration`` is the airtime from
        transmission start to delivery. The commit (serialization point)
        fires after the header, the broadcast fan-out at the end.

        The request leaves the pending list *now* — a stale arbitration
        event firing at the end-of-frame cycle (before the finish event)
        must not see it as a contender and transmit it twice.
        """
        self._remove_pending(request)
        self._active.append(request)
        start = now + start_delay
        finish = start + duration
        self._busy_until = max(self._busy_until, finish)
        self._busy_cycles.add(duration)
        header = self.config.preamble_cycles + self.config.collision_detect_cycles
        self.sim.schedule_at(start + header, lambda: self._commit(request))
        self.sim.schedule_at(finish, lambda: self._finish(request))
        if self._pending:
            self._schedule_arbitration(finish)

    # ----------------------------------------------------------- internals

    def _schedule_arbitration(self, at: int) -> None:
        at = self._mac.clamp_arbitration(max(at, self.sim.now))
        if self._arbitration_scheduled_at is not None and (
            self._arbitration_scheduled_at <= at
        ):
            return
        self._arbitration_scheduled_at = at
        self.sim.schedule_at(at, self._arbitrate)

    def _arbitrate(self) -> None:
        self._arbitration_scheduled_at = None
        now = self.sim.now
        defer_until = self._mac.busy_defer(now)
        if defer_until is not None:
            self._schedule_arbitration(defer_until)
            return
        obs = self.obs
        if obs is None:
            self._pending = [r for r in self._pending if not r.cancelled]
        else:
            # Same filter, but every withdrawn request resolves its frame
            # span (orphan-span audit: cancelled frames must not dangle).
            kept: List[TransmitRequest] = []
            for request in self._pending:
                if request.cancelled:
                    obs.frame_cancelled(request, "withdrawn")
                else:
                    kept.append(request)
            self._pending = kept
        if not self._pending:
            return
        contenders = [r for r in self._pending if r.ready_time <= now]
        if not contenders:
            self._schedule_arbitration(min(r.ready_time for r in self._pending))
            return
        self._mac.arbitrate(now, contenders)

    def _commit(self, request: TransmitRequest) -> None:
        """Serialization point: the frame is now guaranteed to transmit."""
        obs = self.obs
        if request.cancelled:
            # Cancelled between arbitration and commit: the transmission is
            # squashed; the medium reservation stands (the slot is wasted).
            self._cancellations.add()
            if obs is not None:
                obs.frame_cancelled(request, "cancelled-before-commit")
            return
        request.committed = True
        if obs is not None:
            obs.frame_phase(request, "commit")
        if request.on_commit is not None:
            request.on_commit()

    def _finish(self, request: TransmitRequest) -> None:
        try:
            self._active.remove(request)
        except ValueError:
            pass
        if not request.committed:
            self._schedule_arbitration(self.sim.now)
            return
        self._successes.add()
        for handler in self._receivers.values():
            handler(request.frame)
        if request.on_delivered is not None:
            request.on_delivered()
        obs = self.obs
        if obs is not None:
            obs.frame_delivered(request)
        self._schedule_arbitration(self.sim.now)

    def _remove_pending(self, request: TransmitRequest) -> None:
        try:
            self._pending.remove(request)
        except ValueError:
            pass
