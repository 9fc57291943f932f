"""The flight recorder: a bounded per-node ring buffer of protocol events.

Every instrumentation hook appends one small tuple of *primitives* — never
a :class:`~repro.noc.message.Message` or
:class:`~repro.wireless.frames.WirelessFrame` reference, since both are
pooled and recycled — to the ring of the node the event happened at. Each
ring holds the last ``depth`` events (``collections.deque`` with
``maxlen``), so retention cost is O(1) per event and memory is bounded
regardless of run length.

On demand (``repro trace``) or on a verify-campaign failure (the
``trace`` field of a :class:`~repro.verify.artifacts.FailureArtifact`),
the recorder merges its rings into one time-ordered window: "what was the
machine doing just before this happened".
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

#: Version tag of the recorder dump format embedded in trace payloads and
#: verify failure artifacts; bump when the event tuple layout changes.
TRACE_SCHEMA_VERSION = 1

#: Synthetic node id for machine-wide events (channel, tone — resources not
#: owned by any one tile).
GLOBAL_NODE = -1

#: One recorded event: (cycle, seq, node, kind, line, detail).
EventTuple = Tuple[int, int, int, str, int, str]


class FlightRecorder:
    """Last-N protocol events per node, merged on demand."""

    def __init__(self, num_nodes: int, depth: int = 256) -> None:
        self.num_nodes = num_nodes
        self.depth = depth
        #: index num_nodes holds the GLOBAL_NODE ring.
        self._rings: List[Deque[EventTuple]] = [
            deque(maxlen=depth) for _ in range(num_nodes + 1)
        ]
        #: Monotonic sequence for total-ordering events within a cycle.
        self._seq = 0
        self.dropped = 0  # events aged out of a full ring (diagnostic only)

    # ------------------------------------------------------------ recording

    def record(
        self, node: int, cycle: int, kind: str, line: int = -1, detail: str = ""
    ) -> None:
        """Append one event to ``node``'s ring (``GLOBAL_NODE`` allowed)."""
        ring = self._rings[node if 0 <= node < self.num_nodes else self.num_nodes]
        if len(ring) == ring.maxlen:
            self.dropped += 1
        seq = self._seq
        self._seq = seq + 1
        ring.append((cycle, seq, node, kind, line, detail))

    # -------------------------------------------------------------- reading

    def events(self, last: Optional[int] = None) -> List[EventTuple]:
        """All retained events merged in (cycle, seq) order.

        ``last`` keeps only the most recent N of the merged window.
        """
        merged: List[EventTuple] = []
        for ring in self._rings:
            merged.extend(ring)
        merged.sort(key=lambda e: (e[0], e[1]))
        if last is not None and last < len(merged):
            merged = merged[-last:]
        return merged

    def to_payload(self, last: Optional[int] = None) -> Dict:
        """JSON-serializable dump (schema-versioned; used by trace captures
        and verify failure artifacts)."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "depth": self.depth,
            "num_nodes": self.num_nodes,
            "dropped": self.dropped,
            "events": [
                [cycle, node, kind, line, detail]
                for cycle, _seq, node, kind, line, detail in self.events(last)
            ],
        }

    # ------------------------------------------------------------ rendering

    @staticmethod
    def render_payload(payload: Dict, indent: str = "") -> List[str]:
        """Render a :meth:`to_payload` dump as human-readable lines.

        This is the single rendering path shared by ``repro trace
        summarize``, ``repro verify replay`` (artifact timelines), and
        the stuck-state report (:func:`open_items`).
        """
        lines: List[str] = []
        for cycle, node, kind, line, detail in payload.get("events", []):
            where = "machine" if node < 0 else f"node {node:>3}"
            addr = f" line=0x{line:x}" if line >= 0 else ""
            extra = f" {detail}" if detail else ""
            lines.append(f"{indent}@{cycle:>8} [{where}] {kind}{addr}{extra}")
        dropped = payload.get("dropped", 0)
        if dropped:
            lines.append(
                f"{indent}({dropped} older events aged out of the "
                f"{payload.get('depth')}-deep rings)"
            )
        return lines

    def render(self, last: Optional[int] = None, indent: str = "") -> List[str]:
        return self.render_payload(self.to_payload(last), indent=indent)


# --------------------------------------------------------- state synthesis

#: Open items (:meth:`Manycore.in_flight` rows) a stuck verdict lists.
STUCK_ROWS_SHOWN = 8


def state_payload(machine, cores=(), barrier=None) -> Dict:
    """A :meth:`FlightRecorder.to_payload`-shaped dump of current state.

    Its events are :meth:`~repro.system.Manycore.in_flight`'s rows stamped
    with the current cycle (no seq: they are a snapshot, not history), so
    they render through the same path as recorded history.
    """
    now = machine.sim.now
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "depth": 0,
        "num_nodes": machine.config.num_cores,
        "dropped": 0,
        "events": [[now, *row] for row in machine.in_flight(cores, barrier)],
    }


def open_items(machine, cores=(), barrier=None) -> List[str]:
    """The stuck-state report: the first ``STUCK_ROWS_SHOWN`` rows of
    :func:`state_payload`, rendered and indented, then how many more.

    ``runner.drive``'s deadlock error and a verify run's deadlock verdict
    (:func:`repro.verify.litmus.run_programs`) both end with it.
    """
    report = FlightRecorder.render_payload(
        state_payload(machine, cores, barrier), indent="  "
    )
    if len(report) > STUCK_ROWS_SHOWN:
        more = len(report) - STUCK_ROWS_SHOWN
        report[STUCK_ROWS_SHOWN:] = [f"  ({more} more open items)"]
    return report
