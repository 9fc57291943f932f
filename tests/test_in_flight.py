"""The machine's inventory of open items, ``Manycore.in_flight``.

One inventory answers "what does this machine hold open?" for its
readers: a snapshot is refused while it is non-empty
(``traces.snapshot.assert_quiescent``), and the stuck-state report
(``obs.recorder.open_items``) renders its first rows, which a deadlock
error (``harness.runner.drive``) and a verify run's deadlock verdict
(``verify.litmus.run_programs``) list.
"""

import pytest

from repro.coherence import messages as mk
from repro.config.presets import protocol_config
from repro.engine.errors import SimulationError
from repro.harness.runner import build_machine, drive
from repro.obs import FlightRecorder, open_items, state_payload
from repro.traces.snapshot import SnapshotError, capture_machine
from repro.workloads.generator import build_traces
from repro.workloads.profiles import resolve_profile

_APP = "radiosity"
_CORES = 8
_MEMOPS = 300


def _started(protocol):
    """An 8-core machine whose cores have been handed their traces."""
    machine, cores, barrier = build_machine(
        protocol_config(protocol, num_cores=_CORES, seed=42)
    )
    traces = build_traces(resolve_profile(_APP), _CORES, _MEMOPS, 0)
    for core, trace in zip(cores, traces):
        core.run_trace(trace)
    return machine, cores, barrier


def _stamped(machine, rows):
    return [[machine.sim.now, *row] for row in rows]


@pytest.mark.parametrize("protocol", ["widir", "hybrid_update"])
def test_stopped_mid_run_lists_what_is_open_then_drains(protocol):
    machine, cores, barrier = _started(protocol)
    machine.run(until=400)
    rows = machine.in_flight(cores, barrier)
    assert {"core.wait", "l1.mshr", "dir.busy"} <= {row[1] for row in rows}
    payload = state_payload(machine, cores, barrier)
    assert payload["events"] == _stamped(machine, rows)
    # Caches and directories are read whether or not their cores are given.
    assert state_payload(machine)["events"] == _stamped(
        machine, [row for row in rows if row[1] != "core.wait"]
    )
    rendered = FlightRecorder.render_payload(payload, indent="  ")
    assert len(rows) > 8
    assert open_items(machine, cores, barrier) == [
        *rendered[:8],
        f"  ({len(rows) - 8} more open items)",
    ]

    machine.run()
    assert machine.in_flight(cores, barrier) == []
    assert state_payload(machine, cores, barrier)["events"] == []
    assert open_items(machine, cores, barrier) == []
    assert capture_machine(machine, cores, barrier)["now"] == machine.sim.now


def test_widir_inventory_covers_the_wireless_plane():
    """Stopping a WiDir run every 50 cycles shows every machine-wide kind."""
    machine, cores, barrier = _started("widir")
    seen = set()
    while machine.sim.pending_events:
        machine.run(until=machine.sim.now + 50)
        seen.update(row[1] for row in machine.in_flight(cores, barrier))
    assert {
        "l1.pending_wireless",
        "l1.pinned",
        "wnoc.pending",
        "wnoc.on_air",
        "wnoc.jammed",
        "wnoc.arbitration",
        "tone.op",
        "barrier.arrived",
    } <= seen
    assert machine.in_flight(cores, barrier) == []


def _drained():
    machine, cores, barrier = _started("widir")
    machine.run()
    return machine, cores, barrier


def _jam(machine, _barrier, line):
    machine.wireless.jam(line)
    return f"[machine] wnoc.jammed line=0x{line:x}"


def _open_transaction(machine, _barrier, line):
    directory = machine.directories[machine.amap.home_of(line)]
    entry = directory.array.lookup(line, touch=False)
    directory._begin(entry, {"type": "fetch", "requester": 0})
    return f"[node {directory.node:>3}] dir.busy line=0x{line:x}"


def _park_at_barrier(_machine, barrier, _line):
    barrier.arrive(99, lambda: None)
    return "[machine] barrier.arrived"


@pytest.mark.parametrize("leave_open", [_jam, _open_transaction, _park_at_barrier])
def test_one_item_left_open_refuses_the_snapshot(leave_open):
    machine, cores, barrier = _drained()
    line = next(machine.directories[0].array.entries()).line
    named = leave_open(machine, barrier, line)
    assert len(machine.in_flight(cores, barrier)) == 1
    with pytest.raises(SnapshotError, match="1 open items") as refused:
        capture_machine(machine, cores, barrier)
    assert named in str(refused.value)


def test_deadlock_error_names_the_stalled_mshr():
    """Directory 3 drops its first GetS: the requester's miss never fills."""
    machine, cores, _barrier = build_machine(
        protocol_config("widir", num_cores=_CORES, seed=42)
    )
    traces = build_traces(resolve_profile(_APP), _CORES, _MEMOPS, 0)
    directory = machine.directories[3]
    handle = directory.handle_message
    dropped = []

    def drop_first_gets(msg):
        if not dropped and msg.kind_id == mk.GETS_ID:
            dropped.append((msg.src, msg.line))
            return
        handle(msg)

    directory.handle_message = drop_first_gets
    with pytest.raises(SimulationError) as stuck:
        drive(
            machine,
            cores,
            [(trace, None) for trace in traces],
            sum(len(trace) for trace in traces),
            _APP,
        )
    [(node, line)] = dropped
    header, *rows, rest = str(stuck.value).splitlines()
    assert "did not finish" in header
    assert len(rows) == 8
    assert f"[node {node:>3}] l1.mshr line=0x{line:x}" in "\n".join(rows)
    assert rest == "  (2 more open items)"
