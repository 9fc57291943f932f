"""Span-based transaction tracing.

A *span* is one protocol-level unit of work with a begin cycle, an end
cycle, and any number of timestamped *phase* marks in between:

* a **transaction span** (``cat="txn"``) follows one coherence transaction
  from the requester's point of view — a GetS/GetX miss from MSHR
  allocation to fill, a writeback from eviction to PutAck, a directory
  transaction from ``_begin`` to ``_unbusy`` or ``_finish_recall`` — with
  phases for NACK bounces and retries;
* a **frame span** (``cat="frame"``) follows one wireless transmit request
  from submission through arbitration (jam/collision/backoff phases), the
  commit (serialization) point, to delivery — or to an explicit
  cancellation with a reason (squashed RMW, re-issued wireless write);
* a **tone span** (``cat="tone"``) follows one ToneAck operation from
  ``begin`` to silence.

Spans are plain records: opening, phasing, and closing never touches the
simulator, the RNG, or any protocol structure, so tracing is behaviour-
neutral by construction (locked by the golden-digest tests).

Every opened span must be closed or cancelled by the time the event queue
drains; :meth:`TransactionTracer.audit` returns the violators (the
"orphan-span audit" of the acceptance criteria).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Span lifecycle states.
OPEN = "open"
CLOSED = "closed"
CANCELLED = "cancelled"


class Span:
    """One traced unit of protocol work (see module docstring)."""

    __slots__ = (
        "sid",
        "cat",
        "name",
        "node",
        "line",
        "open_cycle",
        "close_cycle",
        "phases",
        "status",
        "reason",
    )

    def __init__(
        self, sid: int, cat: str, name: str, node: int, line: int, cycle: int
    ) -> None:
        self.sid = sid
        self.cat = cat
        self.name = name
        self.node = node
        self.line = line
        self.open_cycle = cycle
        self.close_cycle: Optional[int] = None
        #: Lazily allocated: most spans (plain misses, uncontended frames)
        #: never record a phase, and span construction is on the traced hot
        #: path, so the empty list is not built up front.
        self.phases: Optional[List[Tuple[int, str]]] = None
        self.status = OPEN
        self.reason: Optional[str] = None

    # ------------------------------------------------------------ lifecycle

    def phase(self, cycle: int, label: str) -> None:
        """Record a named phase timestamp (no-op once the span resolved)."""
        if self.status == OPEN:
            phases = self.phases
            if phases is None:
                phases = self.phases = []
            phases.append((cycle, label))

    def close(self, cycle: int) -> None:
        """Mark successful completion (idempotent)."""
        if self.status == OPEN:
            self.status = CLOSED
            self.close_cycle = cycle

    def cancel(self, cycle: int, reason: str) -> None:
        """Mark explicit cancellation with a reason (idempotent)."""
        if self.status == OPEN:
            self.status = CANCELLED
            self.close_cycle = cycle
            self.reason = reason

    @property
    def resolved(self) -> bool:
        return self.status != OPEN

    @property
    def duration(self) -> Optional[int]:
        if self.close_cycle is None:
            return None
        return self.close_cycle - self.open_cycle

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        return {
            "sid": self.sid,
            "cat": self.cat,
            "name": self.name,
            "node": self.node,
            "line": self.line,
            "open": self.open_cycle,
            "close": self.close_cycle,
            "phases": [[cycle, label] for cycle, label in (self.phases or ())],
            "status": self.status,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Span":
        span = cls(
            payload["sid"],
            payload["cat"],
            payload["name"],
            payload["node"],
            payload["line"],
            payload["open"],
        )
        phases = [(cycle, label) for cycle, label in payload["phases"]]
        span.phases = phases or None
        span.status = payload["status"]
        span.close_cycle = payload["close"]
        span.reason = payload.get("reason")
        return span

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span(#{self.sid} {self.cat}:{self.name} node={self.node} "
            f"line=0x{self.line:x} [{self.open_cycle}, {self.close_cycle}] "
            f"{self.status})"
        )


class TransactionTracer:
    """Owns every span of one run and hands out deterministic span ids.

    Ids are a simple monotonic counter: two identical runs trace identical
    span sequences, so ids (and the whole capture) are reproducible.
    """

    def __init__(self) -> None:
        self._next_sid = 1
        self.spans: List[Span] = []
        self._open_count = 0

    def open(self, cat: str, name: str, node: int, line: int, cycle: int) -> Span:
        span = Span(self._next_sid, cat, name, node, line, cycle)
        self._next_sid += 1
        self.spans.append(span)
        self._open_count += 1
        return span

    def close(self, span: Optional[Span], cycle: int) -> None:
        if span is not None and span.status == OPEN:
            span.close(cycle)
            self._open_count -= 1

    def cancel(self, span: Optional[Span], cycle: int, reason: str) -> None:
        if span is not None and span.status == OPEN:
            span.cancel(cycle, reason)
            self._open_count -= 1

    # ------------------------------------------------------------ reporting

    @property
    def open_spans(self) -> int:
        return self._open_count

    def audit(self) -> List[Span]:
        """Spans still open — at drain this list must be empty (every
        transaction/frame span closed or explicitly cancelled)."""
        if self._open_count == 0:
            return []
        return [s for s in self.spans if s.status == OPEN]

    def by_category(self) -> Dict[str, List[Span]]:
        out: Dict[str, List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.cat, []).append(span)
        return out

    def to_payload(self) -> List[Dict]:
        return [span.to_dict() for span in self.spans]
