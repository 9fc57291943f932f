"""Post-mortem diagnostics for stuck simulations.

``dump_stuck_state`` prints everything needed to localize a protocol
deadlock, the machine's inventory of open items
(:meth:`repro.system.Manycore.in_flight`): unfinished cores with their wait
reasons, outstanding MSHRs, eviction buffers and pinned lines, busy
directory entries with their transaction context and deferred queues, the
wireless channel's pending and on-air frames, jam set and queued
arbitration, in-flight ToneAck operations and parked barrier arrivals.
``runner.drive``'s deadlock error carries the first rows of the report.

The report is built from the observability layer's state synthesizer and
rendered through :meth:`repro.obs.recorder.FlightRecorder.render_payload`,
the same path ``repro trace summarize`` and ``repro verify replay`` use —
one code path for "what was the machine doing". When the machine was
running with tracing enabled (``config.obs.enabled``), the report also
includes the flight recorder's recent-event tail: not just *where* the
machine is stuck but *how* it got there.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.obs.recorder import FlightRecorder, state_payload

#: Recent-history events appended to the report when a flight recorder is
#: installed on the stuck machine.
HISTORY_TAIL = 64


def dump_stuck_state(machine, cores: Iterable = (), barrier=None) -> List[str]:
    """Return (and print) a human-readable deadlock report."""
    lines: List[str] = [f"--- stuck state at cycle {machine.sim.now} ---"]
    lines.extend(FlightRecorder.render_payload(state_payload(machine, cores, barrier)))
    obs = getattr(machine, "obs", None)
    if obs is not None:
        lines.append(f"--- last {HISTORY_TAIL} recorded events ---")
        lines.extend(
            FlightRecorder.render_payload(obs.recorder.to_payload(last=HISTORY_TAIL))
        )
    report = "\n".join(lines)
    print(report)
    return lines
