"""Transaction-level mesh network model.

Latency of a message = router/NI overhead
                     + hops * cycles_per_hop
                     + per-link queueing delay (optional)
                     + extra serialization cycles for data-bearing messages.

Contention is modelled per directed link with a "busy-until" reservation
timeline: a message crossing a link must wait for the link's previous
occupant to clear it, and reserves it for its own serialization time. This
first-order model captures the paper's observation that wired coherence legs
on a 64-core mesh are long (Table V) and get slower under load, without
simulating individual flits.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.config.system import NocConfig
from repro.engine.simulator import Simulator
from repro.noc.message import Message
from repro.noc.topology import MeshTopology
from repro.stats.collectors import StatsRegistry

#: Table V bins for hops per coherence leg.
HOP_BINS = ((0, 2), (3, 5), (6, 8), (9, 11), (12, None))

#: ``(hops, link ids, hop-histogram bin index)`` of one tile pair's XY
#: route; the bin index is -1 for a hop count past every bin.
Route = Tuple[int, Tuple[int, ...], int]

#: (num_nodes, width) -> that mesh shape's route table, built once per
#: process: entry ``src * num_nodes + dst`` is the pair's :data:`Route`.
#: Dimension-ordered routes are a pure function of the shape, so every
#: machine of a shape (a Baseline/WiDir pair, a sweep, a pool worker's
#: runs) shares one table; it is never mutated, so sharing it couples no
#: callers.
_ROUTE_TABLES: Dict[Tuple[int, int], Tuple[Route, ...]] = {}


def _link_deltas(width: int) -> Tuple[int, int, int, int]:
    """Far-node offset per link direction (+x, -x, +y, -y)."""
    return (1, -1, width, -width)


def link_id(width: int, near: int, far: int) -> int:
    """Dense id of the directed link ``near -> far``: 4 * near + direction."""
    return 4 * near + _link_deltas(width).index(far - near)


def link_ends(width: int, link: int) -> Tuple[int, int]:
    """The ``(near, far)`` nodes of a directed link id (see :func:`link_id`)."""
    near, direction = divmod(link, 4)
    return near, near + _link_deltas(width)[direction]


def _hop_bin(hops: int) -> int:
    for index, (low, high) in enumerate(HOP_BINS):
        if hops >= low and (high is None or hops <= high):
            return index
    return -1  # overflow, matching BinnedHistogram.record


def route_table(topology: MeshTopology) -> Tuple[Route, ...]:
    """The shape's route table, indexed by ``src * num_nodes + dst``.

    Built whole on the first call for a shape (4,096 routes at 64 nodes).
    A ragged mesh whose XY routes leave the occupied rows raises
    :class:`~repro.engine.errors.ConfigurationError` here.
    """
    key = (topology.num_nodes, topology.width)
    table = _ROUTE_TABLES.get(key)
    if table is None:
        nodes = range(topology.num_nodes)
        width = topology.width
        routes = []
        for src in nodes:
            for dst in nodes:
                links = tuple(
                    link_id(width, near, far)
                    for near, far in topology.route(src, dst)
                )
                routes.append((len(links), links, _hop_bin(len(links))))
        table = _ROUTE_TABLES[key] = tuple(routes)
    return table


class MeshNetwork:
    """Delivers :class:`Message` objects between tiles with mesh timing."""

    def __init__(
        self,
        sim: Simulator,
        topology: MeshTopology,
        config: NocConfig,
        stats: StatsRegistry,
        line_bytes: int = 64,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.config = config
        self.stats = stats
        #: Cycles a data-bearing message occupies each link: line / link width.
        self.data_serialization_cycles = max(
            1, (line_bytes * 8) // config.link_width_bits
        )
        num_nodes = topology.num_nodes
        self._num_nodes = num_nodes
        #: Pair id (``src * num_nodes + dst``) -> that pair's :data:`Route`.
        self._routes = route_table(topology)
        #: Busy-until cycle per directed link id (see :func:`link_id`);
        #: 0 = never written (every written horizon is >= 1).
        self._link_busy_until: List[int] = [0] * (4 * num_nodes)
        #: Last delivery cycle per pair id (0 = no delivery yet):
        #: dimension-ordered routing means same-pair messages share a path,
        #: so delivery is FIFO per pair. The coherence protocol relies on
        #: this (e.g. a response sent before a forward must arrive first).
        self._pair_order: List[int] = [0] * (num_nodes * num_nodes)
        self._handlers: Dict[int, Callable[[Message], None]] = {}
        #: Online invariant monitor hook (duck-typed: needs ``msg_sent`` and
        #: ``msg_delivered``). None — the default — costs one attribute test
        #: per send/delivery and nothing else.
        self.monitor = None
        #: Observability hook (set by Observability.install(); None — the
        #: default — costs one attribute test per send/delivery and nothing
        #: else; see repro.obs.hooks).
        self.obs = None
        self._messages = stats.counter("noc.messages")
        self._data_messages = stats.counter("noc.data_messages")
        self._total_hops = stats.counter("noc.total_hops")
        self._queueing = stats.counter("noc.queueing_cycles")
        self._hop_histogram = stats.histogram("noc.hops_per_leg", HOP_BINS)
        #: The histogram's counts list (mutated in place, never reassigned).
        self._hop_counts = self._hop_histogram.counts
        # Frozen-config constants hoisted out of the per-message path.
        self._router_overhead = config.router_overhead_cycles
        self._cycles_per_hop = config.cycles_per_hop
        self._model_contention = config.model_contention

    def register_handler(self, node: int, handler: Callable[[Message], None]) -> None:
        """Attach the tile-side receive callback for ``node``."""
        self._handlers[node] = handler

    def latency_estimate(self, src: int, dst: int, carries_data: bool = False) -> int:
        """Uncontended latency (used by tests and analytical sanity checks)."""
        hops = self.topology.hops(src, dst)
        latency = self.config.router_overhead_cycles + hops * self.config.cycles_per_hop
        if carries_data:
            latency += self.data_serialization_cycles
        return max(1, latency)

    def send(self, message: Message, extra_delay: int = 0) -> None:
        """Inject ``message``; it is delivered to the destination handler.

        ``extra_delay`` lets callers model local processing time before the
        message reaches the network interface.
        """
        now = self.sim.now
        monitor = self.monitor
        if monitor is not None:
            monitor.msg_sent(message.line)
        obs = self.obs
        if obs is not None:
            obs.noc_send(message)
        src = message.src
        dst = message.dst
        pair = src * self._num_nodes + dst
        hops, route, bin_idx = self._routes[pair]
        carries_data = message.carries_data
        self._messages.value += 1
        self._total_hops.value += hops
        if bin_idx >= 0:
            self._hop_counts[bin_idx] += 1
        else:  # pragma: no cover - HOP_BINS currently cover all hop counts
            self._hop_histogram.overflow += 1
        if carries_data:
            self._data_messages.value += 1

        serialization = self.data_serialization_cycles if carries_data else 1
        depart = now + extra_delay + self._router_overhead
        if self._model_contention and src != dst:
            arrival = self._traverse(route, depart, serialization)
        else:
            arrival = depart + hops * self._cycles_per_hop
            if carries_data:
                arrival += self.data_serialization_cycles

        pair_order = self._pair_order
        arrival = max(arrival, now, pair_order[pair] + 1)
        pair_order[pair] = arrival
        self.sim.schedule_at(arrival, lambda: self._deliver(message))

    def _traverse(self, route, depart: int, serialization: int) -> int:
        """Walk the XY route reserving each link; return the arrival cycle."""
        time = depart
        busy = self._link_busy_until
        cycles_per_hop = self._cycles_per_hop
        queued = 0
        for link in route:
            ready = busy[link]
            if ready > time:
                queued += ready - time
                time = ready
            # The head reaches the far side after the hop latency; the link
            # stays occupied while the body (serialization) streams through.
            busy[link] = time + serialization
            time += cycles_per_hop
        if queued:
            # One counter bump for the whole walk (same total as per-hop).
            self._queueing.value += queued
        # The tail of a data message lands ``serialization`` cycles later.
        if serialization > 1:
            time += serialization - 1
        return time

    def _deliver(self, message: Message) -> None:
        monitor = self.monitor
        if monitor is not None:
            monitor.msg_delivered(message.line)
        obs = self.obs
        if obs is not None:
            obs.noc_recv(message)
        handler = self._handlers.get(message.dst)
        if handler is None:
            raise KeyError(f"no handler registered for node {message.dst}")
        handler(message)

    def average_hops(self) -> float:
        count = self._messages.value
        return self._total_hops.value / count if count else 0.0
