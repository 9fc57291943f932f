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

from typing import Callable, Dict, List, Optional, Tuple

from repro.config.system import NocConfig
from repro.engine.simulator import Simulator
from repro.noc.message import Message
from repro.noc.topology import MeshTopology
from repro.stats.collectors import StatsRegistry

#: Table V bins for hops per coherence leg.
HOP_BINS = ((0, 2), (3, 5), (6, 8), (9, 11), (12, None))


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
        #: Busy-until cycle per directed link. This map and ``_pair_order``
        #: are keyed by the topology (links, tile pairs), so both stay
        #: bounded.
        self._link_busy_until: Dict[Tuple[int, int], int] = {}
        #: Last delivery cycle per (src, dst): dimension-ordered routing means
        #: same-pair messages share a path, so delivery is FIFO per pair. The
        #: coherence protocol relies on this (e.g. a response sent before a
        #: forward must arrive first).
        self._pair_order: Dict[Tuple[int, int], int] = {}
        #: (src, dst) -> (hops, route links, hop-histogram bin index).
        #: Dimension-ordered routes are a pure function of the pair; the
        #: seed recomputed them per message. The bin index is resolved once
        #: here so ``send`` can bump the histogram with one list index
        #: instead of re-scanning the bins per message (-1 = overflow).
        self._route_cache: Dict[
            Tuple[int, int], Tuple[int, List[Tuple[int, int]], int]
        ] = {}
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
        # Hot-path bound methods (send() runs per message).
        self._messages_add = self._messages.add
        self._data_messages_add = self._data_messages.add
        self._total_hops_add = self._total_hops.add
        self._queueing_add = self._queueing.add
        self._hop_record = self._hop_histogram.record
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

    def _pair_info(
        self, src: int, dst: int
    ) -> Tuple[int, List[Tuple[int, int]], int]:
        """Cached (hops, route, hop-bin) — routes are static per topology."""
        pair = (src, dst)
        info = self._route_cache.get(pair)
        if info is None:
            route = list(self.topology.route(src, dst))
            hops = self.topology.hops(src, dst)
            bin_idx = -1  # overflow sentinel, matching BinnedHistogram.record
            for i, (low, high) in enumerate(HOP_BINS):
                if hops >= low and (high is None or hops <= high):
                    bin_idx = i
                    break
            info = (hops, route, bin_idx)
            self._route_cache[pair] = info
        return info

    def send(self, message: Message, extra_delay: int = 0) -> None:
        """Inject ``message``; it is delivered to the destination handler.

        ``extra_delay`` lets callers model local processing time before the
        message reaches the network interface.
        """
        now = self.sim.now
        message.sent_at = now
        monitor = self.monitor
        if monitor is not None:
            monitor.msg_sent(message.line)
        obs = self.obs
        if obs is not None:
            obs.noc_send(message)
        src = message.src
        dst = message.dst
        pair = (src, dst)
        info = self._route_cache.get(pair)
        if info is None:
            info = self._pair_info(src, dst)
        hops, route, bin_idx = info
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
        arrival = max(arrival, now, pair_order.get(pair, 0) + 1)
        pair_order[pair] = arrival
        self.sim.schedule_at(arrival, lambda: self._deliver(message))

    def _traverse(self, route, depart: int, serialization: int) -> int:
        """Walk the XY route reserving each link; return the arrival cycle."""
        time = depart
        busy = self._link_busy_until
        cycles_per_hop = self._cycles_per_hop
        queued = 0
        for link in route:
            ready = busy.get(link, 0)
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
