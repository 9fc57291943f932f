"""Tests for the observability subsystem (`repro.obs`).

Covers the four contracts from docs/OBSERVABILITY.md:

* **digest neutrality** — simulated behaviour is byte-identical with
  tracing off, on, and on with non-default knobs;
* **orphan-span audit** — every span opened during a real run resolves by
  queue drain;
* **capture/export integrity** — the capture document round-trips through
  the Perfetto exporter and passes the same schema validation CI runs;
* **integration** — the flight recorder backs `dump_stuck_state` and the
  verify failure artifacts.
"""

import json
from dataclasses import replace

import pytest

from repro.config.presets import baseline_config, widir_config
from repro.config.system import ObsConfig
from repro.harness.debug import dump_stuck_state
from repro.harness.runner import run_app
from repro.obs import (
    GLOBAL_NODE,
    TRACE_SCHEMA_VERSION,
    FlightRecorder,
    Span,
    TransactionTracer,
    counter_track_names,
    export_chrome_trace,
    render_text_timeline,
    state_payload,
    summarize_capture,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)

_APP = "radiosity"
_CORES = 16
_MEMOPS = 400


def _run(config, memops=_MEMOPS, sink=None):
    return run_app(_APP, config, memops, trace_seed=3, machine_sink=sink)


@pytest.fixture(scope="module")
def traced():
    """One traced WiDir run shared by the capture/export tests."""
    cfg = replace(
        widir_config(num_cores=_CORES, seed=42), obs=ObsConfig(enabled=True)
    )
    sink = []
    result = _run(cfg, sink=sink)
    machine = sink[0]
    return machine, machine.obs.capture(app=_APP), result


# ----------------------------------------------------------------- spans


class TestSpan:
    def test_lifecycle(self):
        span = Span(1, "txn", "GetS", 3, 0x40, 100)
        assert not span.resolved
        span.phase(110, "nack")
        span.close(150)
        assert span.resolved
        assert span.status == "closed"
        assert span.duration == 50
        assert span.phases == [(110, "nack")]

    def test_close_and_cancel_idempotent(self):
        span = Span(1, "txn", "GetS", 0, 0, 10)
        span.close(20)
        span.cancel(30, "late")  # no-op: already closed
        span.close(40)
        assert span.close_cycle == 20
        assert span.status == "closed"
        assert span.reason is None

    def test_phase_after_resolve_is_noop(self):
        span = Span(1, "frame", "WirUpd", 0, 0, 10)
        span.cancel(12, "jammed")
        span.phase(13, "ghost")
        assert span.phases is None  # lazily allocated, never touched

    def test_roundtrip(self):
        span = Span(7, "frame", "WirUpd", 2, 0x80, 5)
        span.phase(6, "collision")
        span.cancel(9, "squashed")
        clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert clone.to_dict() == span.to_dict()

    def test_open_span_has_no_duration(self):
        assert Span(1, "tone", "ToneAck", GLOBAL_NODE, 4, 0).duration is None


class TestTransactionTracer:
    def test_ids_deterministic_and_monotonic(self):
        tracer = TransactionTracer()
        sids = [tracer.open("txn", "GetS", 0, i, i).sid for i in range(5)]
        assert sids == [1, 2, 3, 4, 5]

    def test_audit_reports_only_open_spans(self):
        tracer = TransactionTracer()
        a = tracer.open("txn", "GetS", 0, 1, 0)
        b = tracer.open("txn", "GetX", 1, 2, 0)
        c = tracer.open("frame", "WirUpd", 2, 3, 0)
        tracer.close(a, 10)
        tracer.cancel(c, 11, "jammed")
        assert tracer.audit() == [b]
        assert tracer.open_spans == 1
        tracer.close(b, 12)
        assert tracer.audit() == []
        assert tracer.open_spans == 0

    def test_none_span_is_safe(self):
        tracer = TransactionTracer()
        tracer.close(None, 5)
        tracer.cancel(None, 5, "x")
        assert tracer.open_spans == 0

    def test_by_category(self):
        tracer = TransactionTracer()
        tracer.open("txn", "GetS", 0, 1, 0)
        tracer.open("frame", "WirUpd", 0, 1, 0)
        tracer.open("txn", "PutM", 0, 2, 0)
        cats = tracer.by_category()
        assert sorted(cats) == ["frame", "txn"]
        assert len(cats["txn"]) == 2


# -------------------------------------------------------- flight recorder


class TestFlightRecorder:
    def test_merged_order_and_global_ring(self):
        rec = FlightRecorder(num_nodes=2, depth=8)
        rec.record(1, 10, "b")
        rec.record(0, 10, "a")  # same cycle: seq breaks the tie
        rec.record(GLOBAL_NODE, 5, "early", line=0x40, detail="d")
        kinds = [kind for _c, _s, _n, kind, _l, _d in rec.events()]
        assert kinds == ["early", "b", "a"]

    def test_ring_bound_and_dropped_count(self):
        rec = FlightRecorder(num_nodes=1, depth=4)
        for cycle in range(10):
            rec.record(0, cycle, "e")
        events = rec.events()
        assert len(events) == 4
        assert rec.dropped == 6
        assert [e[0] for e in events] == [6, 7, 8, 9]

    def test_payload_tail_and_render(self):
        rec = FlightRecorder(num_nodes=1, depth=4)
        for cycle in range(10):
            rec.record(0, cycle, "e", line=0x100)
        payload = rec.to_payload(last=2)
        assert payload["schema"] == TRACE_SCHEMA_VERSION
        assert len(payload["events"]) == 2
        lines = FlightRecorder.render_payload(payload, indent="  ")
        assert any("line=0x100" in line for line in lines)
        assert any("aged out" in line for line in lines)  # dropped note


# ------------------------------------------------------ digest neutrality


class TestDigestNeutrality:
    @pytest.mark.parametrize("make", [baseline_config, widir_config])
    def test_tracing_never_changes_the_simulation(self, make):
        """The acceptance bar: cycles, instructions, and the full stats
        dump are identical with tracing off, on, and on with non-default
        recorder depth + sampling interval."""
        base = make(num_cores=8, seed=42)
        digests = []
        for obs in (
            ObsConfig(enabled=False),
            ObsConfig(enabled=True),
            ObsConfig(enabled=True, flight_recorder_depth=16, sample_interval=7),
        ):
            result = _run(replace(base, obs=obs), memops=300)
            digests.append(
                (
                    result.cycles,
                    result.instructions,
                    json.dumps(result.stats_counters, sort_keys=True),
                )
            )
        assert digests[0] == digests[1] == digests[2]


# ------------------------------------------------------- traced captures


class TestTracedCapture:
    def test_capture_schema_and_meta(self, traced):
        _machine, capture, result = traced
        assert capture["schema"] == TRACE_SCHEMA_VERSION
        meta = capture["meta"]
        assert meta["app"] == _APP
        assert meta["protocol"] == "widir"
        assert meta["num_cores"] == _CORES
        assert meta["cycles"] == result.cycles

    def test_spans_cover_wired_and_wireless_work(self, traced):
        _machine, capture, _result = traced
        cats = {span["cat"] for span in capture["spans"]}
        assert "txn" in cats
        assert "frame" in cats  # WiDir run: wireless frames were traced
        names = {span["name"] for span in capture["spans"]}
        assert names & {"GetS", "GetX"}
        assert any(name.startswith("dir.") for name in names)

    def test_orphan_audit_clean(self, traced):
        machine, capture, _result = traced
        assert capture["orphans"] == []
        assert machine.obs.orphans == []
        assert machine.obs.tracer.audit() == []

    def test_counter_tracks_sampled(self, traced):
        _machine, capture, _result = traced
        tracks = {t["name"]: t["samples"] for t in capture["counters"]}
        assert len(tracks) >= 3
        assert "dir.w_lines" in tracks
        for samples in tracks.values():
            cycles = [cycle for cycle, _v in samples]
            assert cycles == sorted(cycles)  # monotone timestamps

    def test_chrome_export_validates(self, traced):
        _machine, capture, _result = traced
        trace = export_chrome_trace(capture)
        assert validate_chrome_trace(trace) == []
        assert len(counter_track_names(trace)) >= 3
        # one thread track per node, plus the wireless track
        thread_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert "wireless" in thread_names
        assert len(thread_names) == _CORES + 1

    def test_chrome_export_file_roundtrip(self, traced, tmp_path):
        _machine, capture, _result = traced
        path = write_chrome_trace(capture, tmp_path / "trace.json")
        assert validate_chrome_trace_file(path) == []

    def test_validator_catches_broken_documents(self):
        assert validate_chrome_trace({}) != []
        bad = {
            "traceEvents": [
                {"ph": "b", "cat": "txn", "id": "1", "name": "GetS",
                 "pid": 0, "tid": 0, "ts": 10},
            ]
        }
        assert any("never ended" in p for p in validate_chrome_trace(bad))
        bad["traceEvents"].append(
            {"ph": "e", "cat": "txn", "id": "1", "name": "GetS",
             "pid": 0, "tid": 0, "ts": 5}
        )
        assert any("before" in p for p in validate_chrome_trace(bad))

    def test_text_timeline_and_summary(self, traced):
        _machine, capture, _result = traced
        text = render_text_timeline(capture, limit=50)
        assert "elided" in text  # the run produced far more than 50 rows
        assert len(text.splitlines()) == 51
        summary = summarize_capture(capture)
        assert "spans:" in summary
        assert "flight recorder:" in summary
        assert "counter" in summary

    def test_capture_is_json_serializable(self, traced):
        _machine, capture, _result = traced
        clone = json.loads(json.dumps(capture, sort_keys=True))
        assert clone["meta"] == capture["meta"]
        assert len(clone["spans"]) == len(capture["spans"])


class TestFramePhaseOrder:
    def test_every_collision_is_followed_by_its_backoff(self):
        """A frame span's ``collision`` phase is directly followed by ``backoff``.

        This is the per-request order collision -> backoff that
        docs/OBSERVABILITY.md requires of the BRS collision path.
        """
        from repro import api

        capture = api.trace(_APP, protocol="widir", cores=16, memops=400).capture
        collisions = 0
        for span in capture["spans"]:
            if span["cat"] != "frame":
                continue
            labels = [label for _cycle, label in span["phases"]]
            for i, label in enumerate(labels):
                if label == "collision":
                    collisions += 1
                    assert labels[i + 1 : i + 2] == ["backoff"], span
        assert collisions > 0


# ----------------------------------------------------- debug integration


class TestDebugDump:
    def test_traced_machine_appends_recorded_history(self, traced):
        machine, _capture, _result = traced
        lines = dump_stuck_state(machine, [])
        assert lines[0].startswith("--- stuck state at cycle")
        assert any("recorded events" in line for line in lines)

    def test_untraced_machine_renders_state_only(self):
        cfg = widir_config(num_cores=8, seed=42)
        sink = []
        _run(cfg, memops=200, sink=sink)
        lines = dump_stuck_state(sink[0], [])
        assert lines[0].startswith("--- stuck state at cycle")
        assert not any("recorded events" in line for line in lines)

    def test_state_payload_renders_through_recorder_path(self, traced):
        machine, _capture, _result = traced
        payload = state_payload(machine, [])
        assert payload["schema"] == TRACE_SCHEMA_VERSION
        FlightRecorder.render_payload(payload)  # must not raise


# ---------------------------------------------------- verify integration


class TestVerifyTraceField:
    def test_failing_trial_carries_flight_recorder_window(self):
        from repro.verify.fuzz import TRACE_TAIL, execute_trial, generate_trial

        spec = generate_trial(seed=3, index=0, num_cores=4, ops_per_core=20)
        spec.max_events = 200  # starve the run: bounded-events failure
        result = execute_trial(spec)
        assert not result.ok
        assert result.trace is not None
        assert result.trace["schema"] == TRACE_SCHEMA_VERSION
        assert 0 < len(result.trace["events"]) <= TRACE_TAIL

    def test_trace_capture_is_digest_neutral_and_optional(self):
        from repro.verify.fuzz import execute_trial, generate_trial

        spec = generate_trial(seed=3, index=1, num_cores=4, ops_per_core=15)
        with_trace = execute_trial(spec, capture_trace=True)
        without = execute_trial(spec, capture_trace=False)
        assert with_trace.ok and without.ok
        assert with_trace.digest == without.digest
        assert with_trace.cycles == without.cycles
        assert with_trace.trace is None  # only failures carry the window

    def test_artifact_roundtrips_trace_payload(self, tmp_path):
        from repro.verify.artifacts import FailureArtifact
        from repro.verify.fuzz import generate_trial

        trace = {
            "schema": TRACE_SCHEMA_VERSION,
            "depth": 256,
            "num_nodes": 4,
            "dropped": 0,
            "events": [[10, 0, "noc.send", 64, "GetS"]],
        }
        artifact = FailureArtifact(
            campaign="smoke",
            seed=0,
            trial_index=1,
            failure="synthetic",
            spec=generate_trial(seed=0, index=1, num_cores=4, ops_per_core=5),
            trace=trace,
        )
        loaded = FailureArtifact.load(artifact.save(tmp_path / "a.json"))
        assert loaded.trace == trace
        FlightRecorder.render_payload(loaded.trace)  # renders like any dump

    def test_old_artifacts_without_trace_still_load(self, tmp_path):
        from repro.verify.artifacts import FailureArtifact
        from repro.verify.fuzz import generate_trial

        artifact = FailureArtifact(
            campaign="smoke",
            seed=0,
            trial_index=0,
            failure="synthetic",
            spec=generate_trial(seed=0, index=0, num_cores=4, ops_per_core=5),
        )
        payload = artifact.to_dict()
        payload.pop("trace", None)  # a pre-tracing artifact
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        assert FailureArtifact.load(path).trace is None


# -------------------------------------------------- latency percentiles


class TestRunLatencyPercentiles:
    def test_result_reports_percentiles(self, traced):
        _machine, _capture, result = traced
        summary = result.latency_percentiles()
        assert summary["count"] > 0
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        # survives the executor's JSON cache roundtrip
        from repro.harness.runner import SimulationResult

        clone = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone.latency_percentiles() == summary
