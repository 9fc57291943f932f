"""A finished run frees its machine by reference counting.

``harness.runner.execute`` (every live run and continuous or windowed
replay), segmented replay, fuzz trials and litmus schedules release their
machine (``Manycore.release``) once the result, or the text of a failure,
is formed. Release breaks every reference cycle the machine holds, so
nothing of it is left for the cyclic collector: each run below, with the
collector off and ``gc.DEBUG_SAVEALL`` on, leaves no object of a
``repro`` type in ``gc.garbage``, and a weak reference to its machine is
dead as soon as the call returns. A run that hands its machine and
cores to a ``machine_sink`` keeps them usable; ``api.trace``, which
takes its capture from a sink-held machine, releases them after.
"""

import gc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro.coherence import messages as mk
from repro.coherence.backend import backend_names
from repro.config.presets import protocol_config
from repro.config.system import ObsConfig
from repro import api
from repro.cpu.trace import TraceChunk
from repro.engine.errors import SimulationError
from repro.harness import runner
from repro.harness.runner import build_machine, drive, run_app
from repro.system import Manycore
from repro.traces import (
    plan_windows,
    record_app_trace,
    replay_trace,
    replay_window,
    result_digest,
)
from repro.verify.fuzz import execute_trial, generate_trial
from repro.verify.litmus import litmus_suite, run_litmus
from repro.wireless.mac import mac_names

_APP = "radiosity"
_CORES = 8
_MEMOPS = 300


def _config(protocol="widir", **changes):
    mac = changes.pop("mac", "brs")
    config = protocol_config(protocol, num_cores=_CORES, seed=42, mac=mac)
    return replace(config, **changes)


def _lifetime(monkeypatch, run):
    """Call ``run()`` with the collector off.

    Returns what it returned, the weak references to every machine it
    built (read as the call returns), and a count by type of the
    ``repro`` objects the cyclic collector then finds unreachable.
    """
    machines = []
    init = Manycore.__init__

    def tracked(self, config):
        init(self, config)
        machines.append(weakref.ref(self))

    monkeypatch.setattr(Manycore, "__init__", tracked)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        outcome = run()
        alive = [ref for ref in machines if ref() is not None]
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = Counter(
            type(obj).__qualname__
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert machines, "the run built no machine"
    return outcome, alive, leaked


def _assert_freed(monkeypatch, run):
    outcome, alive, leaked = _lifetime(monkeypatch, run)
    assert leaked == Counter()
    assert alive == []
    return outcome


_LIVE = [(protocol, "brs") for protocol in backend_names()] + [
    ("widir", mac) for mac in mac_names() if mac != "brs"
]


@pytest.mark.parametrize("protocol,mac", _LIVE, ids=[f"{p}-{m}" for p, m in _LIVE])
def test_live_run_frees_its_machine_and_repeats(monkeypatch, protocol, mac):
    config = _config(protocol, mac=mac)
    first = _assert_freed(monkeypatch, lambda: run_app(_APP, config, _MEMOPS))
    # Nothing shared between machines was torn down with the first one.
    again = run_app(_APP, config, _MEMOPS)
    assert result_digest(again) == result_digest(first)


@pytest.mark.parametrize(
    "changes",
    [{"obs": ObsConfig(enabled=True)}, {"check_interval": 150}],
    ids=["obs", "online-monitor"],
)
def test_instrumented_run_frees_its_machine(monkeypatch, changes):
    config = _config(**changes)
    first = _assert_freed(monkeypatch, lambda: run_app(_APP, config, _MEMOPS))
    assert result_digest(run_app(_APP, config, _MEMOPS)) == result_digest(first)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("lifetime") / "radiosity.wtr"
    record_app_trace(path, _APP, _CORES, _MEMOPS, chunk_records=64)
    return path


@pytest.mark.parametrize("shape", ["continuous", "segmented", "window"])
def test_replay_frees_every_machine(monkeypatch, trace_path, shape):
    config = _config()
    replay = {
        "continuous": lambda: replay_trace(trace_path, config),
        "segmented": lambda: replay_trace(trace_path, config, snapshot_every=2),
        "window": lambda: replay_window(
            trace_path, config, plan_windows(trace_path, 2)[0]
        ),
    }[shape]
    first = _assert_freed(monkeypatch, replay)
    assert result_digest(replay()) == result_digest(first)


def test_failed_run_frees_its_machine_after_naming_open_items(monkeypatch):
    """Directory 3 drops its first GetS; the error still lists the stalled
    miss, read before the machine was released."""
    dropped = []
    build = runner.build_machine

    def build_dropping(config):
        machine, cores, barrier = build(config)
        directory = machine.directories[3]
        handle = directory.handle_message

        def drop_first_gets(msg):
            if not dropped and msg.kind_id == mk.GETS_ID:
                dropped.append((msg.src, msg.line))
                return
            handle(msg)

        directory.handle_message = drop_first_gets
        return machine, cores, barrier

    monkeypatch.setattr(runner, "build_machine", build_dropping)

    def failing_run():
        try:
            run_app(_APP, _config(), _MEMOPS)
        except SimulationError as exc:
            return str(exc)
        raise AssertionError("the run did not deadlock")

    message = _assert_freed(monkeypatch, failing_run)
    [(node, line)] = dropped
    assert "did not finish" in message
    assert f"[node {node:>3}] l1.mshr line=0x{line:x}" in message


@pytest.mark.parametrize("mutation", [None, "token_lost"], ids=["clean", "livelock"])
def test_fuzz_trial_frees_its_machine(monkeypatch, mutation):
    """A livelocked trial stops on its event budget with frames still
    queued for the channel; release withdraws them."""
    spec = replace(generate_trial(0, 0, mac="token"), max_events=20_000)
    first = _assert_freed(monkeypatch, lambda: execute_trial(spec, mutation))
    assert first.ok == (mutation is None), first.failure
    again = execute_trial(spec, mutation)
    assert (again.digest, again.failure) == (first.digest, first.failure)


def test_litmus_schedules_free_their_machines(monkeypatch):
    test = next(t for t in litmus_suite() if t.name == "MP")
    result = _assert_freed(
        monkeypatch, lambda: run_litmus(test, _config(), schedules=2, seed=1)
    )
    assert result.ok, result.violations


def test_machine_sink_keeps_the_machine_usable():
    sink = []
    result = run_app(_APP, _config(), _MEMOPS, machine_sink=sink)
    machine, cores = sink
    assert [core.node for core in cores if core.finished] == list(range(_CORES))
    machine.check_coherence()
    assert machine.in_flight() == []
    assert machine.stats.get_counter("core.total.instructions") == result.instructions


def test_api_trace_frees_its_machine(monkeypatch):
    """The capture is read from a sink-held machine, which is released
    once the capture is taken."""
    traced = _assert_freed(
        monkeypatch, lambda: api.trace(_APP, cores=_CORES, memops=_MEMOPS)
    )
    again = api.trace(_APP, cores=_CORES, memops=_MEMOPS)
    assert traced.capture == again.capture
    assert result_digest(traced.result) == result_digest(again.result)


def test_released_machine_fails_loudly():
    machine, cores, _ = build_machine(_config())
    drive(machine, cores, [(TraceChunk(), None)] * _CORES, 0, _APP)
    machine.release(cores)
    with pytest.raises(AttributeError):
        machine.run()
    with pytest.raises(AttributeError):
        machine.check_coherence()
    with pytest.raises(AttributeError):
        cores[0].result
