"""``repro.obs`` — observability: transaction tracing, flight recorder,
Perfetto-exportable protocol timelines.

Modules
-------
:mod:`repro.obs.spans`
    Span records and the :class:`~repro.obs.spans.TransactionTracer`.
:mod:`repro.obs.recorder`
    The bounded per-node :class:`~repro.obs.recorder.FlightRecorder`.
:mod:`repro.obs.hooks`
    The :class:`~repro.obs.hooks.Observability` facade the instrumented
    components call into.
:mod:`repro.obs.perfetto`
    Chrome/Perfetto ``trace.json`` export + schema validation.
:mod:`repro.obs.timeline`
    Compact text timeline rendering and capture summaries.
"""

from repro.obs.hooks import Observability
from repro.obs.perfetto import (
    counter_track_names,
    export_chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)
from repro.obs.recorder import (
    GLOBAL_NODE,
    TRACE_SCHEMA_VERSION,
    FlightRecorder,
    open_items,
    state_payload,
)
from repro.obs.spans import Span, TransactionTracer
from repro.obs.timeline import render_text_timeline, summarize_capture

__all__ = [
    "Observability",
    "FlightRecorder",
    "TransactionTracer",
    "Span",
    "GLOBAL_NODE",
    "TRACE_SCHEMA_VERSION",
    "export_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "counter_track_names",
    "render_text_timeline",
    "summarize_capture",
    "open_items",
    "state_payload",
]
