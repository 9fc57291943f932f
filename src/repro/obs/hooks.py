"""The :class:`Observability` facade: every instrumentation hook in one place.

Instrumented components (cache controllers, directory controllers, the mesh,
the wireless data channel, the tone channel, the per-node backoff policies)
each hold one attribute — ``_obs`` / ``obs`` — that is ``None`` by default.
Every hook site in the hot paths is therefore exactly::

    obs = self._obs
    if obs is not None:
        obs.some_hook(...)

one attribute load and one test when tracing is off (the same pattern, and
the same cost, as the online invariant monitor's ``_monitor`` hook). When
tracing is on, the facade routes the call into:

* the :class:`~repro.obs.spans.TransactionTracer` (transaction / frame /
  tone spans, see :mod:`repro.obs.spans`),
* the :class:`~repro.obs.recorder.FlightRecorder` (bounded per-node event
  rings), and
* the sampled counter tracks (channel utilization, W-line population, MSHR
  occupancy, pending wireless frames).

Behaviour neutrality is structural: no method here touches the simulator
queue, draws from any RNG, or mutates any protocol structure. Everything is
read-and-record, so golden digests are byte-identical with tracing on or
off (locked by ``tests/test_obs.py`` and the CI ``trace-smoke`` job).

Counter sampling is *activity-driven*: scheduling a periodic sampling event
would keep the event queue non-empty and (worse) mutually livelock with the
invariant monitor's "re-arm only while events are pending" rule. Instead,
high-frequency hooks call :meth:`Observability._maybe_sample`, which takes
a sample when at least ``sample_interval`` cycles have passed since the
last one — zero events scheduled, and a final sample is taken by the
simulator drain hook (:meth:`finish`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.coherence.states import DIR_WIRELESS
from repro.obs.recorder import GLOBAL_NODE, TRACE_SCHEMA_VERSION, FlightRecorder
from repro.obs.spans import Span, TransactionTracer

#: Directory transaction type -> span name (precomputed; dir_open runs once
#: per directory transaction).
_DIR_SPAN_NAMES = {
    "fetch": "dir.fetch",
    "inv_collect": "dir.inv_collect",
    "fwd_gets": "dir.fwd_gets",
    "fwd_getx": "dir.fwd_getx",
    "s_to_w": "dir.s_to_w",
    "w_join": "dir.w_join",
    "w_to_s": "dir.w_to_s",
    "recall_s": "dir.recall_s",
    "recall_e": "dir.recall_e",
    "evict_w": "dir.evict_w",
}


class Observability:
    """Owns one run's tracer, flight recorder, and counter tracks.

    Parameters
    ----------
    machine:
        The :class:`~repro.system.Manycore` being observed.
    config:
        An :class:`~repro.config.system.ObsConfig` (``enabled`` is the
        caller's concern — constructing the facade implies tracing is on).
    """

    def __init__(self, machine, config) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.config = config
        self.tracer = TransactionTracer()
        self.recorder = FlightRecorder(
            machine.config.num_cores, config.flight_recorder_depth
        )
        #: Hot-path bindings: the recorder/tracer are hit on every hook and
        #: the two-attribute walks were visible in the overhead benchmark.
        self._record = self.recorder.record
        self._tracer_open = self.tracer.open
        #: Open spans by protocol identity (see the per-category keys).
        self._miss_spans: Dict[Tuple[int, int], Span] = {}
        self._wb_spans: Dict[Tuple[int, int], Span] = {}
        self._dir_spans: Dict[Tuple[int, int], Span] = {}
        self._frame_spans: Dict[int, Span] = {}  # keyed by id(TransmitRequest)
        self._tone_spans: Dict[int, Span] = {}
        #: Counter tracks: name -> [[cycle, value], ...] (cycle-monotonic).
        self._counters: Dict[str, List[List]] = {
            "l1.mshr_occupancy": [],
            "dir.w_lines": [],
            "noc.messages": [],
        }
        if machine.wireless is not None:
            self._counters["wnoc.utilization"] = []
            self._counters["wnoc.pending"] = []
        self._sample_interval = config.sample_interval
        self._next_sample = 0
        self._last_cycle = -1
        self._last_busy = 0
        #: Spans still open at the last drain (set by :meth:`finish`).
        self.orphans: List[Span] = []

    # ------------------------------------------------------------- install

    def install(self) -> None:
        """Attach this facade to every hook point of the machine."""
        machine = self.machine
        for cache in machine.caches:
            cache._obs = self
        for directory in machine.directories:
            directory._obs = self
        machine.mesh.obs = self
        if machine.wireless is not None:
            machine.wireless.obs = self
            for policy in machine.wireless._backoff:
                policy.obs = self
        if machine.tone is not None:
            machine.tone.obs = self
        machine.sim.drain_hooks.append(self.finish)

    # ------------------------------------------------------- generic event

    def event(self, node: int, kind: str, line: int = -1, detail: str = "") -> None:
        """Record one flight-recorder event at the current cycle."""
        self._record(node, self.sim.now, kind, line, detail)

    # --------------------------------------------------- cache-side spans

    def miss_open(self, node: int, line: int, is_write: bool) -> None:
        """A fresh MSHR was allocated: one coherence transaction begins."""
        now = self.sim.now
        key = (node, line)
        old = self._miss_spans.get(key)
        if old is not None:  # pragma: no cover - MSHRs are unique per line
            self.tracer.cancel(old, now, "superseded")
        self._miss_spans[key] = self._tracer_open(
            "txn", "GetX" if is_write else "GetS", node, line, now
        )

    def miss_nack(self, node: int, line: int) -> None:
        span = self._miss_spans.get((node, line))
        if span is not None:
            span.phase(self.sim.now, "nack")
        self._record(node, self.sim.now, "nack.recv", line, "")

    def miss_retry(self, node: int, line: int) -> None:
        span = self._miss_spans.get((node, line))
        if span is not None:
            span.phase(self.sim.now, "retry")

    def miss_close(self, node: int, line: int) -> None:
        """The MSHR was released: the transaction completed."""
        self.tracer.close(self._miss_spans.pop((node, line), None), self.sim.now)

    def wb_open(self, node: int, line: int) -> None:
        """An E/M victim left the cache: writeback transaction until PutAck."""
        now = self.sim.now
        key = (node, line)
        old = self._wb_spans.get(key)
        if old is not None:
            # A second eviction of the same line raced the first PutAck; the
            # older span can no longer be matched to its ack.
            self.tracer.cancel(old, now, "superseded")
        self._wb_spans[key] = self._tracer_open("txn", "PutM", node, line, now)

    def wb_close(self, node: int, line: int) -> None:
        self.tracer.close(self._wb_spans.pop((node, line), None), self.sim.now)

    # ------------------------------------------------ directory-side spans

    def dir_open(self, home: int, line: int, txn_type: str) -> None:
        """``DirectoryController._begin``: one directory transaction begins."""
        now = self.sim.now
        key = (home, line)
        old = self._dir_spans.get(key)
        if old is not None:  # pragma: no cover - entries serialize on busy
            self.tracer.cancel(old, now, "superseded")
        name = _DIR_SPAN_NAMES.get(txn_type) or ("dir." + txn_type)
        self._dir_spans[key] = self._tracer_open("txn", name, home, line, now)

    def dir_close(self, home: int, line: int) -> None:
        """``_unbusy`` / ``_finish_recall``: the transaction closed."""
        self.tracer.close(self._dir_spans.pop((home, line), None), self.sim.now)

    def dir_defer(self, home: int, line: int, kind: str) -> None:
        self._record(home, self.sim.now, "dir.defer", line, kind)

    # ------------------------------------------------------- mesh events

    def noc_send(self, message) -> None:
        now = self.sim.now
        if now >= self._next_sample:
            self._next_sample = now + self._sample_interval
            self._take_sample(now)
        self._record(
            message.src, now, "noc.send", message.line, message.kind
        )

    def noc_recv(self, message) -> None:
        self._record(
            message.dst, self.sim.now, "noc.recv", message.line, message.kind
        )

    # --------------------------------------------------- wireless frames

    def frame_queued(self, request) -> None:
        """A frame entered the channel's pending queue: its span opens."""
        now = self.sim.now
        if now >= self._next_sample:
            self._next_sample = now + self._sample_interval
            self._take_sample(now)
        frame = request.frame
        span = self._tracer_open("frame", frame.kind, frame.src, frame.line, now)
        self._frame_spans[id(request)] = span
        self._record(frame.src, now, "wnoc.queue", frame.line, frame.kind)

    def frame_phase(self, request, label: str) -> None:
        """Arbitration outcome (collision / jammed / backoff / commit)."""
        span = self._frame_spans.get(id(request))
        if span is not None:
            span.phase(self.sim.now, label)

    def frame_delivered(self, request) -> None:
        now = self.sim.now
        self.tracer.close(self._frame_spans.pop(id(request), None), now)
        frame = request.frame
        self._record(
            GLOBAL_NODE, now, "wnoc.delivered", frame.line, frame.kind
        )

    def frame_cancelled(self, request, reason: str) -> None:
        """The sender withdrew the frame before its commit point."""
        span = self._frame_spans.pop(id(request), None)
        if span is None:
            return  # already resolved (e.g. flushed by a previous sweep)
        now = self.sim.now
        self.tracer.cancel(span, now, reason)
        frame = request.frame
        self._record(GLOBAL_NODE, now, "wnoc.cancelled", frame.line, reason)

    def brs_backoff(self, node: int, failures: int, delay: int) -> None:
        self._record(
            node,
            self.sim.now,
            "brs.backoff",
            -1,
            f"failures={failures} delay={delay}",
        )

    # ------------------------------------------------------- tone channel

    def tone_open(self, key: int, participants: int) -> None:
        now = self.sim.now
        old = self._tone_spans.get(key)
        if old is not None:  # pragma: no cover - ToneChannel forbids overlap
            self.tracer.cancel(old, now, "superseded")
        self._tone_spans[key] = self._tracer_open(
            "tone", "ToneAck", GLOBAL_NODE, key, now
        )
        self._record(
            GLOBAL_NODE, now, "tone.begin", key, f"participants={participants}"
        )

    def tone_drop(self, key: int, node: int) -> None:
        self._record(node, self.sim.now, "tone.drop", key, "")

    def tone_close(self, key: int) -> None:
        """The channel went silent: the global acknowledgment completed."""
        self.tracer.close(self._tone_spans.pop(key, None), self.sim.now)

    # -------------------------------------------------------- counter tracks

    def _maybe_sample(self) -> None:
        """Interval-gated sampling from whatever hook fired (no events)."""
        now = self.sim.now
        if now >= self._next_sample:
            self._next_sample = now + self._sample_interval
            self._take_sample(now)

    def _take_sample(self, now: int) -> None:
        if now == self._last_cycle:
            return  # one sample per cycle keeps the tracks clean
        machine = self.machine
        counters = self._counters
        occupancy = 0
        for cache in machine.caches:
            occupancy += len(cache.mshrs)
        counters["l1.mshr_occupancy"].append([now, occupancy])
        w_lines = 0
        for directory in machine.directories:
            for entry in directory.array.entries():
                if entry.state == DIR_WIRELESS:
                    w_lines += 1
        counters["dir.w_lines"].append([now, w_lines])
        counters["noc.messages"].append([now, machine.mesh._messages.value])
        channel = machine.wireless
        if channel is not None:
            busy = channel._busy_cycles.value
            elapsed = now - max(self._last_cycle, 0)
            if elapsed > 0:
                utilization = round(
                    min((busy - self._last_busy) / elapsed, 1.0), 4
                )
            else:
                utilization = 0.0
            counters["wnoc.utilization"].append([now, utilization])
            counters["wnoc.pending"].append([now, len(channel._pending)])
            self._last_busy = busy
        self._last_cycle = now

    # ------------------------------------------------------------- capture

    def finish(self) -> None:
        """Simulator drain hook: final sample + orphan-span audit.

        Re-runnable (``run`` may drain more than once): the sample is
        skipped when the clock has not advanced, and the audit is a pure
        recomputation.
        """
        self._take_sample(self.sim.now)
        self.orphans = self.tracer.audit()

    def capture(self, app: Optional[str] = None) -> Dict:
        """One JSON-serializable snapshot of everything observed.

        This is the document the exporters consume
        (:func:`repro.obs.perfetto.export_chrome_trace`,
        :func:`repro.obs.timeline.render_text_timeline`).
        """
        config = self.machine.config
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "meta": {
                "app": app,
                "protocol": config.protocol,
                "num_cores": config.num_cores,
                "cycles": self.sim.now,
                "seed": config.seed,
            },
            "spans": self.tracer.to_payload(),
            "events": self.recorder.to_payload(),
            "counters": [
                {"name": name, "samples": samples}
                for name, samples in sorted(self._counters.items())
            ],
            "orphans": [span.sid for span in self.tracer.audit()],
        }
