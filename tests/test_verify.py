"""Tests for the protocol verification subsystem (repro.verify).

Covers all three pillars — the litmus runner, the fault-injecting fuzz
driver with online invariant checking, and replayable failure artifacts —
plus the *mutation smoke test*: a seeded re-introduction of a known-wrong
behaviour (disabled jam NACKs, lost tone drops) must be caught by a
bounded campaign and produce a shrunk artifact that still reproduces.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.coherence import messages as mk
from repro.config.system import SystemConfig
from repro.engine.errors import ProtocolError
from repro.engine.rng import DeterministicRng
from repro.harness.runner import run_app
from repro.system import Manycore
from repro.verify.artifacts import FailureArtifact, shrink_trial
from repro.verify.fuzz import (
    CAMPAIGNS,
    TrialSpec,
    execute_trial,
    generate_trial,
    run_campaign,
)
from repro.verify.litmus import (
    LitmusTest,
    delay,
    ld,
    litmus_suite,
    run_litmus,
    run_programs,
    st,
    suite_configs,
    variable_addresses,
)
from repro.verify.mutations import MUTATIONS, apply_mutation


# ------------------------------------------------------------------ litmus


def test_litmus_suite_has_classic_shapes_and_threshold_variants():
    names = {test.name for test in litmus_suite()}
    assert {"SB", "MP", "CoRR", "IRIW", "2+2W", "ATOM"} <= names
    assert any(name.endswith("+threshold") for name in names)


@pytest.mark.parametrize("label_config", suite_configs(num_cores=8), ids=lambda lc: lc[0])
def test_litmus_clean_on_all_configs(label_config):
    label, config = label_config
    for test in litmus_suite():
        result = run_litmus(test, config, schedules=3, seed=1, config_label=label)
        assert result.ok, (test.name, label, result.violations[:2])


def test_litmus_threshold_variant_exercises_w_state():
    """The +threshold variants must actually cross MaxWiredSharers."""
    _, config = suite_configs(num_cores=8)[2]  # widir-mws1
    variant = next(t for t in litmus_suite() if t.name == "MP+threshold")
    result = run_litmus(variant, config, schedules=4, seed=0)
    assert result.ok, result.violations[:2]
    assert result.s_to_w_transitions > 0


def test_litmus_detects_a_planted_forbidden_outcome():
    """A test whose 'forbidden' set covers every SC outcome must fail —
    proving the runner's predicate machinery actually fires."""
    impossible = LitmusTest(
        name="planted",
        programs=[[st("x", 1)], [ld("x")]],
        # Both SC-legal observations declared forbidden:
        forbidden=[{0: 0}, {0: 1}],
    )
    config = SystemConfig(num_cores=2, protocol="baseline")
    result = run_litmus(impossible, config, schedules=2, seed=0)
    assert not result.ok
    assert any("forbidden outcome" in v for v in result.violations)


def test_litmus_schedule_out_of_budget_is_one_violation():
    """A schedule whose machine raises mid-run is judged like a fuzz
    trial: one violation line, then the next schedule runs."""
    sb = next(t for t in litmus_suite() if t.name == "SB")
    config = SystemConfig(num_cores=8, protocol="widir")
    result = run_litmus(sb, config, schedules=3, max_events_per_schedule=20)
    assert result.violations == [
        f"schedule {k}: SimulationError: exceeded max_events=20; "
        "likely a livelocked protocol transaction"
        for k in range(3)
    ]


def test_litmus_suite_goes_on_past_an_online_protocol_error(monkeypatch):
    """Skewed HybUpd values on the hybrid_update-mws1 row trip the online
    monitor mid-run: each such schedule is one violation, and the suite
    still runs every (test, config) pair."""
    import repro.verify.litmus as litmus

    def mutated(config):
        machine = Manycore(config)
        if (
            config.protocol == "hybrid_update"
            and config.directory.max_wired_sharers == 1
        ):
            apply_mutation(machine, "hyb_stale_update")
        return machine

    monkeypatch.setattr(litmus, "Manycore", mutated)
    results = litmus.run_suite(num_cores=8, schedules=2, online_interval=150)
    assert len(results) == len(suite_configs(num_cores=8)) * len(litmus_suite())
    failed = [r for r in results if not r.ok]
    assert {r.config_label for r in failed} == {"hybrid_update-mws1"}
    for result in failed:
        schedules = [v.split(":", 1)[0] for v in result.violations]
        assert len(schedules) == len(set(schedules)), result.violations
        for violation in result.violations:
            assert ": ProtocolError: [online @ cycle " in violation


# ---------------------------------------------------------- online monitor


def test_online_monitor_is_timing_neutral():
    """check_interval > 0 must not change simulated behaviour."""
    config = SystemConfig(num_cores=8, protocol="widir")
    plain = run_app("radiosity", config, memops_per_core=150, trace_seed=3)
    watched = run_app(
        "radiosity",
        replace(config, check_interval=100),
        memops_per_core=150,
        trace_seed=3,
    )
    assert plain.cycles == watched.cycles
    assert plain.read_misses == watched.read_misses


def test_online_monitor_flags_violation_at_cycle():
    """A seeded mutation must be blamed mid-run with a cycle stamp."""
    spec = generate_trial(seed=3, index=0, num_cores=8, ops_per_core=40)
    spec.mutation = "no_home_wirupd_merge"
    result = execute_trial(spec)
    assert not result.ok
    assert "[online @ cycle" in result.failure


def test_transaction_left_open_after_the_programs_finish_fails_the_run():
    """The home drops the FwdAck closing core 1's GetX. Both programs
    finish, but the line stays busy with nothing queued to close it: the
    monitor still carries it when the queue drains, and the run fails."""
    config = SystemConfig(num_cores=4, protocol="widir", check_interval=50)
    machine = Manycore(config)
    addresses = variable_addresses(["x"], config.l1.line_bytes)
    line = addresses["x"] // config.l1.line_bytes
    directory = machine.directories[machine.amap.home_of(line)]
    handle = directory.handle_message
    dropped = []

    def drop_first_fwd_ack(msg):
        if not dropped and msg.kind_id == mk.FWD_ACK_ID:
            dropped.append(msg.src)
            return
        handle(msg)

    directory.handle_message = drop_first_fwd_ack
    drivers, failure = run_programs(
        machine,
        [[st("x", 1)], [delay(300), st("x", 2)]],
        addresses,
        DeterministicRng(0),
        0,
        100_000,
    )
    assert dropped == [1]
    assert all(driver.finished for driver in drivers)
    assert failure is not None
    head, *rows = failure.splitlines()
    assert head.startswith(f"open after drain: lines [0x{line:x}]")
    assert f"dir.busy line=0x{line:x}" in "\n".join(rows)


def test_monitor_does_not_wedge_drain_loop():
    """The monitor must never keep an otherwise-empty queue alive."""
    config = SystemConfig(num_cores=4, protocol="widir", check_interval=10)
    machine = Manycore(config)
    done = {"ok": False}
    machine.caches[0].store(0x40, 7, lambda: done.__setitem__("ok", True))
    machine.run(max_events=100_000)  # must terminate
    assert done["ok"]
    assert machine.monitor is not None and machine.monitor.sweeps >= 1


# -------------------------------------------------------------------- fuzz


def test_fuzz_trial_deterministic():
    spec = generate_trial(seed=7, index=2, num_cores=8, ops_per_core=30)
    first = execute_trial(spec)
    second = execute_trial(spec)
    assert first.ok, first.failure
    assert (first.digest, first.cycles) == (second.digest, second.cycles)


def test_fuzz_campaign_smoke_clean_and_deterministic():
    first = run_campaign("smoke", seed=0, trials=4)
    assert first.ok, first.failures
    second = run_campaign("smoke", seed=0, trials=4)
    assert first.digest == second.digest


def test_fuzz_spec_roundtrip():
    spec = generate_trial(seed=5, index=1)
    clone = TrialSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone.to_dict() == spec.to_dict()
    assert clone.programs == spec.programs


def test_injectors_preserve_correctness():
    """Cranked-up injectors on a correct machine must never fail a trial."""
    spec = generate_trial(seed=11, index=0, num_cores=8, ops_per_core=30)
    spec.jam_storm = [(50 + 40 * i, i % 4, 60) for i in range(10)]
    spec.tone_jitter = 8
    spec.mesh_jitter = 5
    result = execute_trial(spec)
    assert result.ok, result.failure


# ------------------------------------------------- mutation smoke testing


def test_mutations_registry_is_wired():
    assert {
        "no_jam_nack",
        "lost_tone_drop",
        "no_home_wirupd_merge",
        "upd_skips_holder",
    } <= set(MUTATIONS)
    machine = Manycore(SystemConfig(num_cores=4, protocol="widir"))
    with pytest.raises(KeyError):
        apply_mutation(machine, "definitely_not_a_mutation")
    machine_baseline = Manycore(SystemConfig(num_cores=4, protocol="baseline"))
    with pytest.raises(ValueError):
        apply_mutation(machine_baseline, "no_jam_nack")


def test_mutation_no_jam_nack_caught_with_shrunk_replayable_artifact(tmp_path):
    """The acceptance-criteria smoke: removing the jam NACK must fail a
    bounded campaign, shrink to a smaller reproducer, serialize to JSON,
    and replay to a failure from the loaded artifact."""
    captured = {}

    def on_trial(index, spec, trial):
        if not trial.ok and "spec" not in captured:
            captured["index"], captured["spec"], captured["why"] = (
                index,
                spec,
                trial.failure,
            )

    result = run_campaign(
        "smoke", seed=0, trials=4, mutation="no_jam_nack", on_trial=on_trial
    )
    assert not result.ok, "campaign failed to catch the disabled jam NACK"
    assert "spec" in captured

    spec = captured["spec"]
    assert spec.mutation == "no_jam_nack"  # recorded for replay
    shrunk = shrink_trial(spec, max_checks=60)
    assert 0 < shrunk.total_ops < spec.total_ops

    artifact = FailureArtifact(
        campaign="smoke",
        seed=0,
        trial_index=captured["index"],
        failure=captured["why"],
        spec=shrunk,
        shrunk=True,
        original_ops=spec.total_ops,
        shrunk_ops=shrunk.total_ops,
    )
    path = artifact.save(tmp_path / "artifact.json")
    loaded = FailureArtifact.load(path)
    replay = execute_trial(loaded.spec)
    assert not replay.ok
    # And the replay is itself deterministic:
    assert execute_trial(loaded.spec).failure == replay.failure


def test_mutation_upd_skips_holder_fails_only_widir_trials():
    """Targeted WirUpd delivery has teeth: a holder skipped by every
    third update diverges from the other copies, and the smoke campaign
    catches it on each WiDir trial and on no other backend's."""
    protocols = {}

    def on_trial(index, spec, trial):
        protocols[index] = spec.config["protocol"]

    result = run_campaign(
        "smoke", seed=0, mutation="upd_skips_holder", on_trial=on_trial
    )
    assert not result.ok
    failed = {index for index, _why in result.failures}
    widir = {index for index, protocol in protocols.items() if protocol == "widir"}
    assert failed == widir
    assert all("divergent shared copies" in why for _i, why in result.failures)


def test_mutation_lost_tone_drop_deadlocks():
    spec = generate_trial(seed=1, index=0, num_cores=8, ops_per_core=30)
    spec.mutation = "lost_tone_drop"
    spec.max_events = 150_000  # bounded: the deadlock shows up fast
    result = execute_trial(spec)
    assert not result.ok
    assert "deadlock" in result.failure or "max_events" in result.failure


# ----------------------------------------------------------------- shrink


def test_shrink_requires_failure_to_reduce():
    """Shrinking a passing trial returns it unchanged (nothing 'fails')."""
    spec = generate_trial(seed=13, index=0, num_cores=4, ops_per_core=10)
    assert execute_trial(spec).ok
    shrunk = shrink_trial(spec, max_checks=20)
    assert shrunk.total_ops == spec.total_ops


def test_shrink_is_bounded():
    calls = {"n": 0}

    def check(_spec):
        calls["n"] += 1
        return "always fails"

    spec = generate_trial(seed=17, index=0, num_cores=8, ops_per_core=40)
    shrink_trial(spec, check=check, max_checks=25)
    # +1: the budget guard returns False without calling check again.
    assert calls["n"] <= 25


# -------------------------------------------------------------------- CLI


def test_cli_verify_smoke_subset(capsys):
    from repro.cli import main

    code = main(
        [
            "verify",
            "run",
            "--campaign",
            "smoke",
            "--seed",
            "0",
            "--trials",
            "2",
            "--skip-litmus",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "campaign_digest=" in out


def test_cli_verify_replay_roundtrip(tmp_path, capsys):
    from repro.cli import main

    artifact_dir = tmp_path / "artifacts"
    # Three trials, not one: whether a single smoke trial happens to
    # exercise a jam on a contended line depends on the channel's event
    # timing, but three trials catch ``no_jam_nack`` at every seed 0-5.
    code = main(
        [
            "verify",
            "run",
            "--campaign",
            "smoke",
            "--seed",
            "0",
            "--trials",
            "3",
            "--skip-litmus",
            "--mutate",
            "no_jam_nack",
            "--no-shrink",
            "--artifact-dir",
            str(artifact_dir),
        ]
    )
    capsys.readouterr()
    assert code == 1  # mutation must fail the campaign
    artifacts = sorted(artifact_dir.glob("*.json"))
    assert artifacts, "failing campaign produced no artifact"
    replay_code = main(["verify", "replay", str(artifacts[0])])
    out = capsys.readouterr().out
    assert replay_code == 0
    assert "failure reproduced" in out


def test_cli_verify_rejects_unknown_campaign_and_mutation(capsys):
    from repro.cli import main

    assert main(["verify", "run", "--campaign", "nope"]) == 2
    assert main(["verify", "run", "--mutate", "nope"]) == 2
    capsys.readouterr()


def test_campaign_registry():
    assert "smoke" in CAMPAIGNS and "deep" in CAMPAIGNS
    assert CAMPAIGNS["smoke"].trials <= 12  # bounded for CI


# ------------------------------------------------------ checker refactor


def test_checker_per_line_helpers_match_global_check():
    """The per-line methods (used online) agree with the quiescent walk."""
    config = SystemConfig(num_cores=8, protocol="widir")
    run = run_app("radiosity", config, memops_per_core=100, trace_seed=5)
    assert run.cycles > 0  # the machine ran; per-line logic is exercised
    machine = Manycore(config)
    done = {"n": 0}
    for node in range(4):
        machine.caches[node].load(0x80, lambda _v: done.__setitem__("n", done["n"] + 1))
    machine.run(max_events=100_000)
    assert done["n"] == 4
    checker = machine.checker
    holders = checker._holders()
    for line, entries in holders.items():
        assert checker.line_holders(line) == entries
        checker.check_swmr_line(line, entries)
        checker.check_value_line(line, entries)
    machine.check_coherence()


def test_checker_online_error_carries_cycle_context():
    """Corrupt a cache copy by hand; the sweep must blame a cycle."""
    config = SystemConfig(num_cores=4, protocol="widir", check_interval=5)
    machine = Manycore(config)
    done = {"n": 0}
    for node in range(2):
        machine.caches[node].load(0x100, lambda _v: done.__setitem__("n", done["n"] + 1))
    machine.run(max_events=100_000)
    assert done["n"] == 2
    # Two shared copies now exist; corrupt one and poke the monitor.
    line = 0x100 // config.l1.line_bytes
    entry = machine.caches[0].array.lookup(line, touch=False)
    assert entry is not None
    entry.data[0] = 0xDEAD
    machine.monitor.touch(line)
    with pytest.raises(ProtocolError, match=r"\[online @ cycle"):
        machine.sim.run(max_events=10_000)
