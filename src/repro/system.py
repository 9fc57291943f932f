"""Machine assembly: wire every component of Table III into a manycore.

:class:`Manycore` builds the whole system for a given
:class:`~repro.config.SystemConfig` — simulator kernel, address map, wired
mesh, optional wireless channels, per-tile cache and directory controllers,
memory controllers — and routes messages/frames to the right controller.
The CPU cores (:mod:`repro.cpu`) attach on top of this object.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.coherence import messages as mk
from repro.coherence.backend import get_backend
from repro.coherence.cache import CacheController  # noqa: F401 (typing)
from repro.coherence.checker import CoherenceChecker, OnlineInvariantMonitor
from repro.coherence.dir_controller import DirectoryController
from repro.config.system import SystemConfig
from repro.engine.simulator import Simulator
from repro.mem.address import AddressMap
from repro.mem.memory_controller import MainMemory, MemoryController
from repro.noc.mesh import MeshNetwork
from repro.noc.message import Message
from repro.noc.topology import MeshTopology
from repro.obs.hooks import Observability
from repro.obs.recorder import GLOBAL_NODE
from repro.stats.collectors import StatsRegistry
from repro.wireless.channel import WirelessDataChannel
from repro.wireless.errors import ChannelErrorModel
from repro.wireless.frames import WirelessFrame
from repro.wireless.mac import get_mac
from repro.wireless.tone import ToneChannel

class Manycore:
    """A fully wired manycore ready to execute memory operations.

    Parameters
    ----------
    config:
        Machine description; ``config.protocol`` names a registered
        coherence-protocol backend (see :mod:`repro.coherence.backend`).
    """

    def __init__(self, config: SystemConfig) -> None:
        config.validate()
        self.config = config
        #: The coherence-protocol backend every tile is built from. The
        #: backend owns the state machine (controller factories), the
        #: permission sets, and the directory slice of the message
        #: vocabulary (the wired-router kind table below).
        self.backend = get_backend(config.protocol)
        self.sim = Simulator(config.seed)
        self.stats = StatsRegistry("manycore")
        self.amap = AddressMap(
            config.l1.line_bytes, config.num_cores, config.memory.num_controllers
        )
        self.topology = MeshTopology(config.num_cores, config.mesh_width)
        self.mesh = MeshNetwork(
            self.sim, self.topology, config.noc, self.stats, config.l1.line_bytes
        )

        self.wireless: Optional[WirelessDataChannel] = None
        self.tone: Optional[ToneChannel] = None
        if config.uses_wireless:
            # Built only when enabled: a disabled model splits no RNG and
            # registers no counters, keeping default digests untouched.
            errors = None
            if config.channel_errors.enabled:
                errors = ChannelErrorModel(
                    config.channel_errors,
                    self.sim.rng.split("channel-errors"),
                    self.stats,
                )
            self.wireless = WirelessDataChannel(
                self.sim,
                config.wireless,
                config.num_cores,
                self.stats,
                self.sim.rng.split("wnoc"),
                mac=get_mac(config.mac),
                errors=errors,
            )
            self.tone = ToneChannel(
                self.sim,
                config.wireless.tone_cycles,
                self.stats,
                errors=errors,
            )

        self.memory = MainMemory()
        self.memory_controllers: List[MemoryController] = [
            MemoryController(
                self.sim, self.memory, config.memory.round_trip_cycles, self.stats, i
            )
            for i in range(config.memory.num_controllers)
        ]

        #: Wired message kinds consumed by the home directory slice of a
        #: tile, as a kind-id-indexed bool table (the router runs once per
        #: delivered message — no per-message set hashing). Kind ids
        #: interned by *other* backends fall off/read False and route to
        #: the cache side, which rejects unknown kinds with the same
        #: ProtocolError as before.
        self._directory_kind_table: List[bool] = self.backend.directory_kind_table()

        #: line -> bitmask of the L1 caches holding it (bit n = node n), on
        #: machines with a wireless channel; None otherwise. Each L1 array
        #: keeps its bit current on insert/remove. WirUpd delivery reads it
        #: (see :meth:`_route_frame`).
        self.holders: Optional[Dict[int, int]] = (
            {} if self.wireless is not None else None
        )
        self.caches: List[CacheController] = []
        self.directories: List[DirectoryController] = []
        for node in range(config.num_cores):
            cache = self.backend.cache_factory(
                self.sim,
                node,
                config,
                self.amap,
                self.mesh,
                self.stats,
                self.sim.rng.split(f"cache-{node}"),
                self.wireless,
                self.tone,
            )
            directory = self.backend.directory_factory(
                self.sim,
                node,
                config,
                self.amap,
                self.mesh,
                self.memory_controllers,
                self.stats,
                self.wireless,
                self.tone,
            )
            self.caches.append(cache)
            self.directories.append(directory)
            self.mesh.register_handler(node, self._make_wired_router(node))
            if self.holders is not None:
                cache.array.track_holders(self.holders, node)
        if self.wireless is not None:
            # One router for the whole machine; it picks the tiles a frame
            # concerns.
            self.wireless.register_receiver(0, self._route_frame)

        self.checker = CoherenceChecker(self.caches, self.directories, self.memory)

        #: Online invariant checking (verification subsystem): observes
        #: every controller and validates per-line invariants mid-run.
        self.monitor: Optional[OnlineInvariantMonitor] = None
        if config.check_interval > 0:
            self.monitor = OnlineInvariantMonitor(self)
            self.monitor.install()

        #: Observability (:mod:`repro.obs`): transaction spans, the flight
        #: recorder, and sampled counter tracks. Reading-only hooks, so
        #: enabling it never changes simulated behaviour (golden digests
        #: are byte-identical either way).
        self.obs: Optional[Observability] = None
        if config.obs.enabled:
            self.obs = Observability(self, config.obs)
            self.obs.install()

    def _make_wired_router(self, node: int):
        cache = self.caches[node]
        directory = self.directories[node]
        table = self._directory_kind_table
        table_len = len(table)

        def route(message: Message) -> None:
            kid = message.kind_id
            if kid < table_len and table[kid]:
                directory.handle_message(message)
            else:
                cache.handle_message(message)

        return route

    def _route_frame(self, frame: WirelessFrame) -> None:
        """Hand a delivered frame to the controllers that act on it.

        A WirUpd changes only a cache that holds the line (in W, or with an
        RMW watch, which pins a resident W line) and the line's home
        directory, so it goes to the caches :meth:`_upd_holders` names and
        to the home directory. Every other frame kind reaches every tile's
        cache and directory. Order is ascending node, cache before
        directory on one node: the order of a full fan-out, restricted to
        the controllers that act. ``handle_frame`` is looked up per call,
        so instance patches intercept it.
        """
        caches = self.caches
        directories = self.directories
        if frame.kind_id != mk.WIR_UPD_ID:
            for cache, directory in zip(caches, directories):
                cache.handle_frame(frame)
                directory.handle_frame(frame)
            return
        holders = self._upd_holders(frame)
        home_bit = 1 << self.amap.home_of(frame.line)
        pending = holders | home_bit
        while pending:
            bit = pending & -pending
            pending ^= bit
            node = bit.bit_length() - 1
            if holders & bit:
                caches[node].handle_frame(frame)
            if bit == home_bit:
                directories[node].handle_frame(frame)

    def _upd_holders(self, frame: WirelessFrame) -> int:
        """Bitmask of the caches a WirUpd for ``frame.line`` is handed to.

        A method of its own so a fault injector
        (:mod:`repro.verify.mutations`) can alter the delivery while the
        index stays correct.
        """
        return self.holders.get(frame.line, 0)

    # --------------------------------------------------------- conveniences

    def cache(self, node: int) -> CacheController:
        return self.caches[node]

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue (delegates to the simulator kernel)."""
        return self.sim.run(until=until, max_events=max_events)

    def check_coherence(self, quiescent: bool = True) -> None:
        """Validate global protocol invariants (see CoherenceChecker)."""
        self.checker.check(quiescent=quiescent)

    def release(self, cores: Sequence = ()) -> None:
        """Cut this machine's reference cycles, so that dropping its last
        reference frees it at once, not at the collector's next full pass.

        The mesh's routers reach the controllers, which reach the mesh;
        the wireless receiver is a method of this machine; each core binds
        its own wake-ups and registers its fold with the stats registry;
        observability and the online monitor hook into every controller
        and the kernel. Clearing the instance attributes of every
        per-machine part, the ``cores`` built on it included, cuts them
        all, once frames still queued for the channel are withdrawn (a
        withdrawn request drops its callbacks). Shared objects (the
        backend, the config, the mesh's route tables) are dropped, never
        cleared. A released machine or core raises ``AttributeError``
        when used.
        """
        channel = self.wireless
        if channel is not None:
            for request in (*channel._pending, *channel._active):
                request.cancel()
        parts = (*cores, *self.caches, *self.directories)
        for part in (*parts, self.mesh, channel, self.tone, self.sim, self):
            if part is not None:
                vars(part).clear()

    def in_flight(self, cores=(), barrier=None) -> List[Tuple[int, str, int, str]]:
        """Everything the machine holds open, one ``(node, kind, line,
        detail)`` row per item; empty once the machine has drained.

        Rows run tile by tile: the tile's core if it is among ``cores``
        and unfinished (its wait state and outstanding traffic), then its
        cache and its directory. Machine-wide rows follow on node -1 (the
        flight recorder's ``GLOBAL_NODE``): wireless frames pending and on
        the air, jammed lines, a queued arbitration, ToneAck operations
        and ``barrier``'s parked arrivals. A row that names no line has
        line -1. A snapshot is refused while any row remains
        (:func:`repro.traces.snapshot.assert_quiescent`), and the
        stuck-state report renders the first rows
        (:func:`repro.obs.recorder.open_items`).
        """
        rows: List[Tuple[int, str, int, str]] = []
        waiting = {core.node: core for core in cores if not core.finished}
        for node, (cache, directory) in enumerate(zip(self.caches, self.directories)):
            core = waiting.get(node)
            if core is not None:
                detail = (
                    f"wait={core._stall_bucket} "
                    f"outstanding_loads={core._outstanding_loads} "
                    f"write_buffer={core._wb_occupancy}"
                )
                rows.append((node, "core.wait", -1, detail))
            for line in cache.mshrs.outstanding_lines():
                rows.append((node, "l1.mshr", line, ""))
            for line in cache._evicting:
                rows.append((node, "l1.evicting", line, ""))
            for line, writes in cache._pending_wireless.items():
                detail = f"writes={len(writes)}"
                rows.append((node, "l1.pending_wireless", line, detail))
            for line in cache._rmw_watch:
                rows.append((node, "l1.rmw_watch", line, ""))
            for held in cache.array.lines():
                if held.pinned:
                    rows.append((node, "l1.pinned", held.line, f"pins={held.pinned}"))
            for entry in directory.array.entries():
                if entry.busy or entry.deferred:
                    kind = "dir.busy" if entry.busy else "dir.deferred"
                    deferred = [(m.kind, m.src) for m in entry.deferred]
                    detail = f"txn={entry.transaction} deferred={deferred}"
                    rows.append((node, kind, entry.line, detail))
        channel = self.wireless
        if channel is not None:
            for kind, requests in (
                ("wnoc.pending", channel._pending),
                ("wnoc.on_air", channel._active),
            ):
                for request in requests:
                    frame = request.frame
                    detail = (
                        f"kind={frame.kind} src={frame.src} "
                        f"ready={request.ready_time} failures={request.failures}"
                        + (" cancelled" if request.cancelled else "")
                    )
                    rows.append((GLOBAL_NODE, kind, frame.line, detail))
            for line, jams in channel._jammed_lines.items():
                rows.append((GLOBAL_NODE, "wnoc.jammed", line, f"jams={jams}"))
            if channel._arbitration_scheduled_at is not None:
                at = channel._arbitration_scheduled_at
                rows.append((GLOBAL_NODE, "wnoc.arbitration", -1, f"at={at}"))
        if self.tone is not None:
            for key, op in self.tone._operations.items():
                detail = f"remaining={sorted(op.remaining)}"
                rows.append((GLOBAL_NODE, "tone.op", key, detail))
        if barrier is not None:
            for phase, waiters in barrier._arrived.items():
                detail = f"phase={phase} cores={len(waiters)}"
                rows.append((GLOBAL_NODE, "barrier.arrived", -1, detail))
        return rows
