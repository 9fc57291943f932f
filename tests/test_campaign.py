"""Fault-tolerance tests: crash-safe IO, supervised retries, campaign resume.

Every campaign runs on the one engine (the coordinator plus local worker
agents, :func:`repro.harness.campaign.run_campaign`); fault schedules are
drawn at grant time and acted out by the agents.

The contract under test (ISSUE 5): a campaign interrupted at *any* point —
worker crash, hang, timeout, or SIGKILL of the whole process — resumes
exactly where it died and converges to an aggregate ``results.json`` /
``digest.txt`` that is byte-identical to an uninterrupted execution, while
runs that exhaust their retries degrade into an explicit provenance
manifest instead of aborting the sweep.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.campaign import (
    CHECKPOINT_SCHEMA_VERSION,
    MANIFEST_NAME,
    Campaign,
    CampaignError,
    CampaignResultSource,
    CampaignSpec,
    run_campaign,
)
from repro.harness.executor import Executor, ExperimentPlan, _simulate, run_key
from repro.cli import main
from repro.harness.figures import figure6_mpki, table6_sensitivity
from repro.harness.ioutils import (
    append_jsonl,
    atomic_write_json,
    iter_stale_tmp,
    quarantine,
    read_jsonl,
    read_jsonl_many,
)
from repro.harness.supervisor import RetryPolicy, ScriptedFaults, SeededFaults
from repro.obs.campaign import CampaignTelemetry

APP = "volrend"
CORES = 4
MEMOPS = 120

REPO_ROOT = Path(__file__).resolve().parent.parent


def _spec(name="t", **overrides):
    defaults = dict(
        name=name, kind="protocols", apps=(APP,), cores=(CORES,), memops=MEMOPS
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _executor(tmp_path):
    """Isolated executor: private cache dir so tests never cross-talk."""
    return Executor(workers=1, cache_dir=tmp_path / "cache", use_cache=True)


def _run(directory, spec, **overrides):
    """run_campaign with fast retries/polling and no memo cache."""
    engine = dict(
        workers=2,
        retry=RetryPolicy(max_attempts=3, unit=0.0),
        heartbeat_interval=0.05,
        poll_interval=0.05,
        executor=Executor(workers=1, use_cache=False),
    )
    engine.update(overrides)
    return run_campaign(directory, spec, **engine)


def _keys(spec):
    return list(dict.fromkeys(Campaign("unused", spec).keys))


def _history(directory):
    """key -> statuses of its attempts in journal order (failed ones as
    journalled by the retry ladder, then ``ok`` for the completion)."""
    records, _ = read_jsonl_many(Campaign.load(directory).journal_paths())
    history = {}
    for record in records:
        if record.get("type") == "attempt":
            history.setdefault(record["key"], []).append(record["status"])
        elif record.get("type") == "run" and record["status"] == "ok":
            history.setdefault(record["key"], []).append("ok")
    return history


# ----------------------------------------------------------------- ioutils


class TestIoutils:
    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "a" / "b.json"
        atomic_write_json(target, {"x": 1, "a": 2})
        assert json.loads(target.read_text()) == {"x": 1, "a": 2}
        assert list(iter_stale_tmp(tmp_path)) == []

    def test_atomic_write_is_canonical(self, tmp_path):
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        atomic_write_json(one, {"b": 1, "a": [1, 2]})
        atomic_write_json(two, {"a": [1, 2], "b": 1})
        assert one.read_bytes() == two.read_bytes()

    def test_journal_round_trip(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        append_jsonl(journal, {"n": 1})
        append_jsonl(journal, {"n": 2})
        records, bad = read_jsonl(journal)
        assert [r["n"] for r in records] == [1, 2]
        assert bad == []

    def test_torn_final_line_dropped_silently(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        append_jsonl(journal, {"n": 1})
        with open(journal, "a") as handle:
            handle.write('{"n": 2, "torn')  # SIGKILL mid-append
        records, bad = read_jsonl(journal)
        assert [r["n"] for r in records] == [1]
        assert bad == []  # expected crash artifact, not corruption

    def test_mid_file_corruption_is_reported(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        append_jsonl(journal, {"n": 1})
        with open(journal, "a") as handle:
            handle.write("not json\n")
        append_jsonl(journal, {"n": 3})
        records, bad = read_jsonl(journal)
        assert [r["n"] for r in records] == [1, 3]
        assert bad == [2]

    def test_quarantine_moves_file_aside(self, tmp_path):
        victim = tmp_path / "bad.json"
        victim.write_text("garbage")
        moved = quarantine(victim)
        assert not victim.exists()
        assert moved.exists() and ".corrupt." in moved.name

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "nope.jsonl") == ([], [])

    @pytest.mark.parametrize(
        "tail, kept",
        [
            ('{"n": 2, "torn', [1, 3]),  # torn fragment: cut off
            ('{"n": 2}', [1, 2, 3]),  # complete but for its newline: kept
            ("", [1, 3]),  # already ends at a boundary: untouched
        ],
        ids=["torn", "complete", "clean"],
    )
    def test_repair_tail_lets_the_next_append_stand(self, tmp_path, tail, kept):
        from repro.harness.ioutils import repair_jsonl_tail

        journal = tmp_path / "j.jsonl"
        append_jsonl(journal, {"n": 1})
        with open(journal, "a") as handle:
            handle.write(tail)
        repair_jsonl_tail(journal)
        append_jsonl(journal, {"n": 3})
        records, bad = read_jsonl(journal)
        assert [r["n"] for r in records] == kept
        assert bad == []

    def test_repair_tail_of_a_missing_journal_is_a_no_op(self, tmp_path):
        from repro.harness.ioutils import repair_jsonl_tail

        repair_jsonl_tail(tmp_path / "nope.jsonl")
        assert not (tmp_path / "nope.jsonl").exists()


# ----------------------------------------------------------- retry policy


class TestRetryPolicy:
    def test_schedule_is_seeded_and_reproducible(self):
        a = RetryPolicy(seed=7, unit=0.01)
        b = RetryPolicy(seed=7, unit=0.01)
        delays_a = [a.delay_seconds("k1", n) for n in range(1, 5)]
        delays_b = [b.delay_seconds("k1", n) for n in range(1, 5)]
        assert delays_a == delays_b

    def test_streams_are_independent_per_key(self):
        policy = RetryPolicy(seed=7, unit=0.01)
        # Drawing for k2 must not perturb k1's schedule.
        fresh = RetryPolicy(seed=7, unit=0.01)
        first = fresh.delay_seconds("k1", 1)
        policy.delay_seconds("k2", 1)
        assert policy.delay_seconds("k1", 1) == first

    def test_unit_zero_means_instant_retries(self):
        policy = RetryPolicy(seed=0, unit=0.0)
        assert policy.delay_seconds("k", 3) == 0.0

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


# --------------------------------------------------------- fault injection


class TestFaultInjection:
    def test_scripted_faults_match_prefix_and_attempt(self):
        faults = ScriptedFaults({("abc", 1): "crash"})
        assert faults("abcdef", 1) == "crash"
        assert faults("abcdef", 2) is None
        assert faults("zzz", 1) is None

    def test_scripted_faults_reject_unknown_kind(self):
        with pytest.raises(ValueError):
            ScriptedFaults({("k", 1): "meteor"})

    def test_seeded_faults_are_deterministic(self):
        a = SeededFaults({"crash": 0.5}, seed=3)
        b = SeededFaults({"crash": 0.5}, seed=3)
        draws = [(f"k{i}", 1) for i in range(32)]
        assert [a(*d) for d in draws] == [b(*d) for d in draws]

    def test_seeded_faults_heal_after_max_attempts(self):
        faults = SeededFaults({"crash": 1.0}, seed=0, max_faulty_attempts=2)
        assert faults("k", 1) == "crash"
        assert faults("k", 2) == "crash"
        assert faults("k", 3) is None

    def test_parse_cli_spec(self):
        faults = SeededFaults.parse("crash=0.2, hang=0.1", seed=5)
        assert faults.rates == {"crash": 0.2, "hang": 0.1}
        with pytest.raises(ValueError):
            SeededFaults.parse("meteor=1.0")


# -------------------------------------------------------------- supervisor


class TestSupervisor:
    """The engine's fault handling, driven through injected faults."""

    def test_clean_batch_completes(self, tmp_path):
        report = _run(tmp_path / "camp", _spec())
        assert report.ok and report.executed == report.total == 2
        assert report.retries == 0
        history = _history(tmp_path / "camp")
        assert sorted(history) == sorted(_keys(_spec()))
        assert all(statuses == ["ok"] for statuses in history.values())

    def test_crash_is_retried_and_heals(self, tmp_path):
        victim = _keys(_spec())[0]
        events = []
        report = _run(
            tmp_path / "camp", _spec(),
            faults=ScriptedFaults({(victim, 1): "crash"}),
            on_event=events.append,
        )
        assert report.ok
        assert _history(tmp_path / "camp")[victim] == ["crashed", "ok"]
        assert any(
            e["event"] == "retry" and e["status"] == "crashed" for e in events
        )
        assert any(
            e["event"] == "ok" and e["key"] == victim and e["attempt"] == 2
            for e in events
        )

    def test_worker_error_is_retried(self, tmp_path):
        victim = _keys(_spec())[-1]
        report = _run(
            tmp_path / "camp", _spec(),
            faults=ScriptedFaults({(victim, 1): "error"}),
        )
        assert report.ok
        assert _history(tmp_path / "camp")[victim] == ["error", "ok"]

    def test_retry_exhaustion_reports_failed_without_raising(self, tmp_path):
        victim = _keys(_spec())[0]
        report = _run(
            tmp_path / "camp", _spec(),
            retry=RetryPolicy(max_attempts=2, unit=0.0),
            faults=ScriptedFaults({(victim, 1): "error", (victim, 2): "error"}),
        )
        assert not report.ok
        [failed] = report.failed
        assert failed["key"] == victim and failed["attempts"] == 2
        assert "error" in failed["reason"]
        # The rest of the batch still completed.
        assert report.completed == 1

    def test_hang_hits_wall_clock_timeout(self, tmp_path):
        spec = _spec(protocols=("widir",))
        victim = _keys(spec)[0]
        report = _run(
            tmp_path / "camp", spec,
            lease_timeout=1.0,
            faults=ScriptedFaults({(victim, 1): "hang"}),
        )
        assert report.ok  # healed on attempt 2
        assert _history(tmp_path / "camp")[victim] == ["timeout", "ok"]

    def test_stall_is_detected_via_missing_heartbeats(self, tmp_path):
        spec = _spec(protocols=("widir",))
        victim = _keys(spec)[0]
        report = _run(
            tmp_path / "camp", spec,
            heartbeat_interval=0.05,
            heartbeat_grace=4.0,  # silent for 0.2s => hung
            faults=ScriptedFaults({(victim, 1): "stall"}),
        )
        assert report.ok
        assert _history(tmp_path / "camp")[victim] == ["hung", "ok"]

    def test_payloads_match_in_process_simulation(self, tmp_path):
        _run(tmp_path / "camp", _spec())
        campaign = Campaign.load(tmp_path / "camp")
        payloads = campaign.completed_payloads()
        for key, request in zip(campaign.keys, campaign.plan.requests):
            expected, _ = _simulate(request)
            assert payloads[key] == expected


# ----------------------------------------------------------------- campaign


class TestCampaignSpec:
    def test_round_trips_through_dict(self):
        spec = _spec(kind="thresholds", thresholds=(2, 4))
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_kind_and_empty_apps(self):
        with pytest.raises(ValueError):
            _spec(kind="meteor")
        with pytest.raises(ValueError):
            _spec(apps=())

    def test_build_is_deterministic(self):
        plan_a, labels_a = _spec().build()
        plan_b, labels_b = _spec().build()
        assert labels_a == labels_b
        assert [run_key(r) for r in plan_a.requests] == [
            run_key(r) for r in plan_b.requests
        ]

    def test_thresholds_kind_builds_baseline_plus_ladder(self):
        _, labels = _spec(kind="thresholds", thresholds=(2, 3)).build()
        assert labels == [
            f"{APP}/baseline/{CORES}c",
            f"{APP}/widir/{CORES}c/t2",
            f"{APP}/widir/{CORES}c/t3",
        ]

    # campaign.json stores the label -> run-key map in plan order, so the
    # order of these two grids is part of the on-disk format.
    def test_thresholds_by_macs_order_over_two_apps(self):
        _, labels = _spec(
            kind="thresholds", apps=("volrend", "fft"), cores=(8,),
            thresholds=(2, 3), macs=("brs", "token"),
        ).build()
        assert labels == [
            "volrend/baseline/8c",
            "volrend/widir/8c/t2",
            "volrend/widir/8c/t2/token",
            "volrend/widir/8c/t3",
            "volrend/widir/8c/t3/token",
            "fft/baseline/8c",
            "fft/widir/8c/t2",
            "fft/widir/8c/t2/token",
            "fft/widir/8c/t3",
            "fft/widir/8c/t3/token",
        ]

    def test_all_protocols_by_three_macs_order(self):
        from repro.coherence.backend import backend_names

        _, labels = _spec(
            apps=("volrend",), cores=(4, 8), protocols=backend_names(),
            macs=("brs", "token", "fdma"),
        ).build()
        assert labels == [
            f"volrend/{label}"
            for cores in (4, 8)
            for label in (
                f"baseline/{cores}c",
                f"hybrid_update/{cores}c/t3",
                f"phase_priority/{cores}c",
                f"widir/{cores}c/t3",
                f"widir/{cores}c/t3/token",
                f"widir/{cores}c/t3/fdma",
            )
        ]


class TestCampaignLifecycle:
    def test_run_writes_all_artifacts(self, tmp_path):
        directory = tmp_path / "camp"
        report = _run(directory, _spec(), executor=_executor(tmp_path))
        assert report.ok and report.completed == report.total == 2
        for name in (
            "campaign.json", "journal.jsonl", "results.json",
            "digest.txt", "provenance.json",
        ):
            assert (directory / name).exists(), name
        results = json.loads((directory / "results.json").read_text())
        assert sorted(results["results"]) == sorted(
            [f"{APP}/baseline/{CORES}c", f"{APP}/widir/{CORES}c/t3"]
        )
        provenance = json.loads((directory / "provenance.json").read_text())
        assert provenance["partial"] is False
        assert provenance["missing"] == []
        assert list(iter_stale_tmp(directory)) == []

    def test_rerun_is_pure_resume(self, tmp_path):
        directory = tmp_path / "camp"
        first = _run(directory, _spec(), executor=_executor(tmp_path))
        blob = (directory / "results.json").read_bytes()
        # Temp files of a writer SIGKILLed before its rename.
        (directory / "runs" / "k.json.tmp.1").write_text('{"torn')
        (directory / "results.json.tmp.1").write_text("")
        second = _run(directory, _spec())
        assert second.resumed == second.total
        assert second.executed == 0
        assert second.digest == first.digest
        assert (directory / "results.json").read_bytes() == blob
        assert list(iter_stale_tmp(directory)) == []

    def test_create_twice_requires_resume(self, tmp_path):
        directory = tmp_path / "camp"
        Campaign.create(directory, _spec())
        with pytest.raises(CampaignError):
            Campaign.create(directory, _spec())
        with pytest.raises(CampaignError):
            run_campaign(directory, _spec(), resume=False)

    def test_spec_mismatch_is_rejected(self, tmp_path):
        directory = tmp_path / "camp"
        Campaign.create(directory, _spec())
        with pytest.raises(CampaignError):
            run_campaign(directory, _spec(memops=999))

    def test_load_rejects_non_campaign_dirs(self, tmp_path):
        with pytest.raises(CampaignError):
            Campaign.load(tmp_path)
        (tmp_path / "campaign.json").write_text("{corrupt")
        with pytest.raises(CampaignError):
            Campaign.load(tmp_path)

    def test_load_rejects_schema_drift(self, tmp_path):
        directory = tmp_path / "camp"
        Campaign.create(directory, _spec())
        manifest = json.loads((directory / "campaign.json").read_text())
        manifest["schema"] = CHECKPOINT_SCHEMA_VERSION + 1
        (directory / "campaign.json").write_text(json.dumps(manifest))
        with pytest.raises(CampaignError):
            Campaign.load(directory)


class TestResumeIdentity:
    """The headline invariant: interrupted+resumed == uninterrupted, in bytes."""

    def test_crash_retries_do_not_change_the_digest(self, tmp_path):
        clean_dir, faulty_dir = tmp_path / "clean", tmp_path / "faulty"
        _run(clean_dir, _spec())
        script = {(key, 1): "crash" for key in _keys(_spec())}
        faulty = _run(faulty_dir, _spec(), faults=ScriptedFaults(script))
        assert faulty.retries == len(script)
        assert (faulty_dir / "results.json").read_bytes() == (
            clean_dir / "results.json"
        ).read_bytes()
        assert (faulty_dir / "digest.txt").read_bytes() == (
            clean_dir / "digest.txt"
        ).read_bytes()

    def test_journal_replay_survives_torn_final_line(self, tmp_path):
        directory = tmp_path / "camp"
        _run(directory, _spec())
        digest = (directory / "digest.txt").read_bytes()
        with open(directory / "journal.jsonl", "a") as handle:
            handle.write('{"type": "run", "torn')  # simulated SIGKILL
        status = Campaign.load(directory).status()
        assert status.done and status.journal_bad_lines == []
        report = _run(directory, None)
        assert report.resumed == report.total
        assert (directory / "digest.txt").read_bytes() == digest

    @staticmethod
    def _tear_last_record(directory, keep):
        """Cut the final run record of the journal that ends with one down
        to ``keep(line)`` with no newline, as a SIGKILL mid-append would;
        returns its key. Searches every ``journal*.jsonl``, wherever the
        engine journals runs."""
        for journal in sorted(directory.glob("journal*.jsonl")):
            *head, last = journal.read_text().splitlines(keepends=True)
            record = json.loads(last)
            if record.get("type") == "run" and record["status"] == "ok":
                journal.write_text("".join(head) + keep(last.rstrip("\n")))
                return record["key"]
        raise AssertionError("no journal ends with a run record")

    def _assert_resumes_clean(self, directory, digest, executed):
        report = _run(directory, None)
        assert report.executed == executed
        status = Campaign.load(directory).status()
        assert status.done and status.journal_bad_lines == []
        again = _run(directory, None)
        assert again.resumed == again.total and again.executed == 0
        assert (directory / "digest.txt").read_bytes() == digest

    def test_resume_cuts_a_torn_record_before_appending(self, tmp_path):
        """A run record torn mid-append loses only that run: the resume
        re-runs it, and its new record must not fuse with the fragment
        into one invalid line that drops it again."""
        directory = tmp_path / "camp"
        _run(directory, _spec())
        digest = (directory / "digest.txt").read_bytes()
        self._tear_last_record(directory, lambda line: line[: len(line) // 2])
        self._assert_resumes_clean(directory, digest, executed=1)

    def test_resume_keeps_a_complete_record_missing_its_newline(
        self, tmp_path
    ):
        """A record that lost only its newline is complete: it is kept,
        and the record of the run that does re-execute (its payload is
        gone) lands on a line of its own."""
        directory = tmp_path / "camp"
        _run(directory, _spec())
        digest = (directory / "digest.txt").read_bytes()
        kept = self._tear_last_record(directory, lambda line: line)
        (rerun,) = set(Campaign.load(directory).keys) - {kept}
        (directory / "runs" / f"{rerun}.json").unlink()
        self._assert_resumes_clean(directory, digest, executed=1)

    def test_missing_payload_is_demoted_and_rerun(self, tmp_path):
        directory = tmp_path / "camp"
        _run(directory, _spec())
        digest = (directory / "digest.txt").read_bytes()
        campaign = Campaign.load(directory)
        victim = campaign.keys[0]
        (directory / "runs" / f"{victim}.json").unlink()
        assert victim not in campaign.completed_payloads()
        report = _run(directory, None)
        assert report.executed == 1
        assert (directory / "digest.txt").read_bytes() == digest

    def test_corrupt_payload_is_quarantined_and_rerun(self, tmp_path):
        directory = tmp_path / "camp"
        _run(directory, _spec())
        digest = (directory / "digest.txt").read_bytes()
        campaign = Campaign.load(directory)
        victim = directory / "runs" / f"{campaign.keys[0]}.json"
        victim.write_text("{torn json")
        report = _run(directory, None)
        assert report.executed == 1
        assert (directory / "digest.txt").read_bytes() == digest
        assert list(directory.glob("runs/*.corrupt.*"))

    def test_cache_hits_count_as_completions(self, tmp_path):
        executor = _executor(tmp_path)
        warm_dir, campaign_dir = tmp_path / "warm", tmp_path / "camp"
        _run(warm_dir, _spec(), executor=executor)
        report = _run(campaign_dir, _spec(), executor=executor)
        assert report.cache_hits == report.total
        assert report.executed == 0
        assert (campaign_dir / "digest.txt").read_bytes() == (
            warm_dir / "digest.txt"
        ).read_bytes()


class TestGracefulDegradation:
    def _degraded(self, tmp_path):
        directory = tmp_path / "camp"
        campaign = Campaign.create(directory, _spec())
        victim = campaign.key_for_label[f"{APP}/widir/{CORES}c/t3"]
        script = {(victim, n): "error" for n in (1, 2)}
        report = _run(
            directory, None,
            retry=RetryPolicy(max_attempts=2, unit=0.0),
            faults=ScriptedFaults(script),
        )
        return directory, campaign, report

    def test_failed_run_degrades_instead_of_aborting(self, tmp_path):
        directory, _, report = self._degraded(tmp_path)
        assert not report.ok
        assert report.completed == 1 and report.total == 2
        assert report.failed[0]["label"] == f"{APP}/widir/{CORES}c/t3"
        provenance = json.loads((directory / "provenance.json").read_text())
        assert provenance["partial"] is True
        assert [m["label"] for m in provenance["missing"]] == [
            f"{APP}/widir/{CORES}c/t3"
        ]
        assert provenance["missing"][0]["attempts"] == 2

    def test_status_surfaces_failures_and_retries(self, tmp_path):
        _, campaign, _ = self._degraded(tmp_path)
        status = campaign.status()
        assert not status.done
        assert [f["label"] for f in status.failed] == [
            f"{APP}/widir/{CORES}c/t3"
        ]
        assert status.retries_by_kind.get("error", 0) >= 1
        rendered = status.render()
        assert "degraded" in rendered and "campaign resume" in rendered

    def test_status_counts_the_retry_ladder(self, tmp_path):
        """Each key's first attempt errors: two failed attempts plus two
        completions, all journalled by the engine's retry ladder."""
        directory = tmp_path / "camp"
        script = {(key, 1): "error" for key in _keys(_spec())}
        _run(directory, _spec(), faults=ScriptedFaults(script))
        status = Campaign.load(directory).status()
        assert status.done
        assert status.attempts == 4
        assert status.retries_by_kind == {"error": 2}

    def test_partial_figures_render_with_missing_note(self, tmp_path):
        _, campaign, _ = self._degraded(tmp_path)
        source = campaign.result_source()
        figure = figure6_mpki(
            apps=(APP,), num_cores=CORES, memops=MEMOPS, executor=source
        )
        assert figure.partial
        assert "PARTIAL" in figure.text

    def test_partial_figures_name_the_provenance_labels(self, tmp_path):
        directory, campaign, _ = self._degraded(tmp_path)
        figure = figure6_mpki(
            apps=(APP,), num_cores=CORES, memops=MEMOPS,
            executor=campaign.result_source(),
        )
        provenance = json.loads((directory / "provenance.json").read_text())
        assert figure.missing == [m["label"] for m in provenance["missing"]]

    def test_strict_result_source_raises(self, tmp_path):
        _, campaign, _ = self._degraded(tmp_path)
        plan, _ = campaign.spec.build()
        with pytest.raises(CampaignError):
            campaign.result_source(strict=True).map_runs(plan)

    def test_resume_heals_the_degraded_run(self, tmp_path):
        directory, campaign, _ = self._degraded(tmp_path)
        clean_dir = tmp_path / "clean"
        _run(clean_dir, _spec())
        report = _run(directory, None)  # fresh retry budget, no faults
        assert report.ok and report.completed == 2
        assert (directory / "results.json").read_bytes() == (
            clean_dir / "results.json"
        ).read_bytes()


class TestCampaignRender:
    """``campaign render`` draws the campaign's own grid: its seed, trace
    seed and thresholds, not the artifact defaults."""

    @staticmethod
    def _render(directory, figure, capsys):
        code = main(["campaign", "render", str(directory), "--figure", figure])
        return code, capsys.readouterr().out

    def test_non_default_seeds_render_complete(self, tmp_path, capsys):
        directory = tmp_path / "camp"
        _run(directory, _spec(seed=7, trace_seed=3))
        for figure in ("fig6", "table4", "protocols"):
            code, out = self._render(directory, figure, capsys)
            assert code == 0, out
            assert "PARTIAL" not in out

    def test_threshold_campaign_renders_its_thresholds(self, tmp_path, capsys):
        directory = tmp_path / "camp"
        _run(directory, _spec(kind="thresholds", thresholds=(3, 4)))
        code, out = self._render(directory, "table6", capsys)
        assert code == 0, out
        lines = out.splitlines()
        body = lines[[line[:1] for line in lines].index("-") + 1:]
        assert [line.split()[0] for line in body] == ["3", "4"]

    def test_artifact_asks_for_the_campaign_run_keys(self):
        spec = _spec(
            kind="thresholds", seed=7, trace_seed=3, thresholds=(3, 4)
        )
        source = CampaignResultSource({})  # records every key it lacks
        table6_sensitivity(
            apps=spec.apps, thresholds=spec.thresholds, num_cores=CORES,
            memops=MEMOPS, executor=source, seed=7, trace_seed=3,
        )
        assert sorted(source.missing) == sorted(_keys(spec))


class TestTelemetry:
    def test_counters_track_the_retry_ladder(self, tmp_path):
        telemetry = CampaignTelemetry()
        script = {(key, 1): "crash" for key in _keys(_spec())}
        _run(
            tmp_path / "camp", _spec(),
            faults=ScriptedFaults(script),
            telemetry=telemetry,
        )
        counters = telemetry.snapshot()["counters"]
        assert counters["runs.total"] == 2
        assert counters["runs.completed"] == 2
        assert counters["retries.crashed"] == 2
        assert counters["leases.granted"] == 4

    def test_chrome_trace_export(self, tmp_path):
        telemetry = CampaignTelemetry()
        _run(tmp_path / "camp", _spec(), telemetry=telemetry)
        out = tmp_path / "trace.json"
        telemetry.write_chrome_trace(out, workers=2)
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        assert any(e.get("ph") == "X" for e in events)
        assert any(e.get("ph") == "C" for e in events)


# ----------------------------------------------------- executor hardening


class TestExecutorCacheHardening:
    def _request(self):
        plan = ExperimentPlan()
        from repro.config.presets import widir_config

        plan.add(APP, widir_config(num_cores=CORES), MEMOPS)
        return plan

    def test_corrupt_cache_entry_is_quarantined_and_recomputed(self, tmp_path):
        executor = _executor(tmp_path)
        plan = self._request()
        first = executor.map_runs(plan)[0]
        key = run_key(plan.requests[0])
        path = executor._cache_path(key)
        path.write_text("{half a json")
        again = executor.map_runs(self._request())[0]
        assert again.to_dict() == first.to_dict()
        assert list(tmp_path.glob("cache/*.corrupt.*"))
        # The recomputed entry was re-stored atomically.
        assert json.loads(path.read_text()) == first.to_dict()

    def test_cache_writes_leave_no_tmp_files(self, tmp_path):
        executor = _executor(tmp_path)
        executor.map_runs(self._request())
        assert list(iter_stale_tmp(tmp_path / "cache")) == []

    def test_prune_cache_collects_quarantined_debris(self, tmp_path):
        executor = _executor(tmp_path)
        executor.map_runs(self._request())
        (tmp_path / "cache" / "x.json.corrupt.1").write_text("junk")
        (tmp_path / "cache" / "y.json.tmp.2").write_text("junk")
        assert executor.prune_cache() == 3
        assert list((tmp_path / "cache").iterdir()) == []


# --------------------------------------------------- kill/resume property


class TestKillResumeProperty:
    """SIGKILL the whole campaign process at seeded points; resume must
    converge to the uninterrupted digest, byte for byte."""

    #: ``digest.txt`` of SPEC_ARGS, pinned: no engine change may move it.
    DIGEST = "919111a1e591690ebdd3300150fa72f96318c47dbcdd349630ba9b9528d3b57d"

    SPEC_ARGS = [
        "campaign", "run",
        "--apps", "volrend,radiosity",
        "--cores", "8",
        "--memops", "400",
        "--workers", "2",
        "--no-cache",
        "--backoff-unit", "0",
        "--name", "killtest",
    ]

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return env

    def _run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=REPO_ROOT, env=self._env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=120,
        )

    @staticmethod
    def _wait_for_manifest(directory, victim, timeout=30.0):
        """Block until ``victim`` has written ``directory``'s campaign.json."""
        manifest = directory / MANIFEST_NAME
        deadline = time.monotonic() + timeout
        while not manifest.exists():
            if victim.poll() is not None or time.monotonic() > deadline:
                victim.kill()
                victim.wait(timeout=30)
                pytest.fail(
                    f"{manifest} did not appear within {timeout}s "
                    f"(victim exit code {victim.returncode})"
                )
            time.sleep(0.01)

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        reference = tmp_path / "reference"
        proc = self._run_cli(*self.SPEC_ARGS, "--out", str(reference))
        assert proc.returncode == 0, proc.stdout
        want = (reference / "digest.txt").read_bytes()
        assert want.decode().strip() == self.DIGEST

        for round_index, kill_after in enumerate((0.3, 0.9)):
            directory = tmp_path / f"killed{round_index}"
            victim = subprocess.Popen(
                [sys.executable, "-m", "repro", *self.SPEC_ARGS,
                 "--out", str(directory)],
                cwd=REPO_ROOT, env=self._env(),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            # Start the kill clock once the manifest exists: interpreter
            # start-up and imports alone can outlast ``kill_after``, and a
            # kill before campaign.json leaves nothing to resume.
            self._wait_for_manifest(directory, victim)
            time.sleep(kill_after)
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)

            resumed = self._run_cli("campaign", "resume", str(directory))
            assert resumed.returncode == 0, resumed.stdout
            got = (directory / "digest.txt").read_bytes()
            assert got == want, (
                f"kill at +{kill_after}s diverged:\n{resumed.stdout}"
            )
            # The resume collects the killed writer's temp files.
            assert list(iter_stale_tmp(directory)) == []

            status = self._run_cli("campaign", "status", str(directory))
            assert status.returncode == 0, status.stdout
            assert "[complete]" in status.stdout

    def test_distributed_sigkill_coordinator_and_worker_resumes(
        self, tmp_path
    ):
        """SIGKILL a worker (chaos drill) *and* the coordinator mid-flight;
        a distributed resume must replay the journal into the exact
        single-box digest."""
        reference = tmp_path / "reference"
        proc = self._run_cli(*self.SPEC_ARGS, "--out", str(reference))
        assert proc.returncode == 0, proc.stdout
        want = (reference / "digest.txt").read_bytes()
        assert want.decode().strip() == self.DIGEST

        directory = tmp_path / "distributed"
        serve_args = [
            "campaign", "serve",
            "--apps", "volrend,radiosity",
            "--cores", "8",
            "--memops", "400",
            "--workers", "2",
            "--no-cache",
            "--name", "killtest",
            "--chaos-kill-after", "1",  # coordinator SIGKILLs one worker
            "--out", str(directory),
        ]
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", *serve_args],
            cwd=REPO_ROOT, env=self._env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        time.sleep(1.4)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)

        # Distributed resume: no --apps means "load the existing manifest".
        resumed = self._run_cli(
            "campaign", "serve", "--out", str(directory),
            "--workers", "2", "--no-cache",
        )
        assert resumed.returncode == 0, resumed.stdout
        got = (directory / "digest.txt").read_bytes()
        assert got == want, f"distributed resume diverged:\n{resumed.stdout}"
        assert (directory / "results.json").read_bytes() == (
            reference / "results.json"
        ).read_bytes()
        assert list(iter_stale_tmp(directory)) == []
        # `campaign status` replays the same journal.
        status = self._run_cli("campaign", "status", str(directory))
        assert status.returncode == 0, status.stdout
        assert "[complete]" in status.stdout
