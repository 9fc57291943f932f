"""Unit-level tests of the L1 cache controller's message/frame handlers."""

import pytest

from repro.coherence import messages as mk
from repro.coherence.backend import get_backend
from repro.config import baseline_config, widir_config
from repro.cpu import trace as t
from repro.cpu.core import Core
from repro.engine.errors import ProtocolError
from repro.noc.message import Message
from repro.system import Manycore
from repro.wireless.frames import WirelessFrame

ADDR = 0x0008_0000


def make(protocol="widir", cores=8):
    build = widir_config if protocol == "widir" else baseline_config
    return Manycore(build(num_cores=cores))


def settle_load(machine, core, address=ADDR):
    out = []
    machine.caches[core].load(address, out.append)
    machine.run(max_events=10_000_000)
    return out[0]


def settle_store(machine, core, value, address=ADDR):
    done = []
    machine.caches[core].store(address, value, lambda: done.append(1))
    machine.run(max_events=10_000_000)
    assert done


class TestInvHandling:
    def test_inv_on_absent_line_acks(self):
        machine = make("baseline")
        cache = machine.caches[2]
        line = machine.amap.line_of(ADDR)
        acks = []
        original = machine.mesh.send

        def spy(message, extra_delay=0):
            if message.kind == mk.INV_ACK:
                acks.append(message)
            original(message, extra_delay)

        machine.mesh.send = spy
        cache.handle_message(Message(mk.INV, 0, 2, line))
        machine.run(max_events=100_000)
        assert len(acks) == 1

    def test_inv_needs_data_returns_dirty_payload(self):
        machine = make("baseline")
        settle_store(machine, 2, 99)
        cache = machine.caches[2]
        line = machine.amap.line_of(ADDR)
        responses = []
        original = machine.mesh.send

        def spy(message, extra_delay=0):
            if message.kind == mk.INV_ACK_DATA:
                responses.append(message.payload)
            original(message, extra_delay)

        machine.mesh.send = spy
        home = machine.amap.home_of(line)
        cache.handle_message(Message(mk.INV, home, 2, line, {"needs_data": True}))
        machine.run(max_events=100_000)
        assert responses and responses[0]["dirty"]
        assert responses[0]["data"][0] == 99

    def test_inv_does_not_touch_wireless_lines(self):
        """A maximally delayed Inv from a pre-W epoch only gets an ack."""
        machine = make("widir")
        for core in range(5):
            settle_load(machine, core)
        line = machine.amap.line_of(ADDR)
        cache = machine.caches[1]
        assert cache.array.lookup(line, touch=False).state == "W"
        cache.handle_message(Message(mk.INV, 0, 1, line))
        machine.run(max_events=100_000)
        assert cache.array.lookup(line, touch=False).state == "W"
        machine.check_coherence()


class TestFrameHandling:
    def test_wir_upd_ignored_without_line(self):
        machine = make("widir")
        machine.caches[3].handle_frame(
            WirelessFrame(mk.WIR_UPD, 0, machine.amap.line_of(ADDR), 0, 5)
        )
        machine.run(max_events=10_000)

    def test_own_wir_upd_echo_ignored(self):
        machine = make("widir")
        for core in range(5):
            settle_load(machine, core)
        line = machine.amap.line_of(ADDR)
        entry = machine.caches[2].array.lookup(line, touch=False)
        before = entry.update_count
        machine.caches[2].handle_frame(
            WirelessFrame(mk.WIR_UPD, 2, line, 0, 123)
        )
        assert entry.update_count == before
        assert entry.data.get(0, 0) != 123  # own echo must not apply

    def test_foreign_wir_upd_applies_and_counts(self):
        machine = make("widir")
        for core in range(5):
            settle_load(machine, core)
        line = machine.amap.line_of(ADDR)
        entry = machine.caches[2].array.lookup(line, touch=False)
        machine.caches[2].handle_frame(
            WirelessFrame(mk.WIR_UPD, 0, line, 3, 777)
        )
        assert entry.data[3] == 777
        assert entry.update_count == 1

    def test_wir_dwgr_without_line_is_silent(self):
        machine = make("widir")
        machine.caches[3].handle_frame(
            WirelessFrame(mk.WIR_DWGR, 0, machine.amap.line_of(ADDR))
        )
        machine.run(max_events=10_000)

    def test_duplicate_wir_upgr_is_idempotent(self):
        machine = make("widir")
        for core in range(5):
            settle_load(machine, core)
        line = machine.amap.line_of(ADDR)
        cache = machine.caches[1]
        home = machine.amap.home_of(line)
        snapshot = dict(cache.array.lookup(line, touch=False).data)
        cache.handle_message(
            Message(
                mk.WIR_UPGR, home, 1, line,
                {"data": snapshot, "ack_required": True},
            )
        )
        machine.run(max_events=1_000_000)
        refreshed = cache.array.lookup(line, touch=False)
        assert refreshed.state == "W"
        assert refreshed.data == snapshot
        machine.check_coherence()


class TestErrorPaths:
    def test_unknown_wired_kind_raises(self):
        machine = make("baseline")
        with pytest.raises(ProtocolError):
            machine.caches[0].handle_message(
                Message("Martian", 1, 0, machine.amap.line_of(ADDR))
            )

    def test_unsolicited_forward_raises(self):
        machine = make("baseline")
        with pytest.raises(ProtocolError):
            machine.caches[0].handle_message(
                Message(
                    mk.FWD_GETS, 1, 0, machine.amap.line_of(ADDR),
                    {"requester": 2},
                )
            )

    def test_wireless_store_without_channel_raises(self):
        machine = make("baseline")
        settle_load(machine, 0)
        line = machine.amap.line_of(ADDR)
        entry = machine.caches[0].array.lookup(line, touch=False)
        entry.state = "W"  # forge an impossible state on a wired machine
        with pytest.raises(ProtocolError):
            machine.caches[0].store(ADDR, 1, lambda: None)


class TestUpdateCountEdges:
    def test_pinned_line_never_self_invalidates(self):
        machine = make("widir")
        for core in range(5):
            settle_load(machine, core)
        line = machine.amap.line_of(ADDR)
        cache = machine.caches[2]
        entry = cache.array.lookup(line, touch=False)
        entry.pinned += 1
        threshold = machine.config.directory.update_count_threshold
        for i in range(threshold + 3):
            cache.handle_frame(WirelessFrame(mk.WIR_UPD, 0, line, 0, i))
        assert cache.array.lookup(line, touch=False) is not None
        entry.pinned -= 1

    def test_update_count_saturates_into_self_invalidation(self):
        machine = make("widir")
        for core in range(5):
            settle_load(machine, core)
        line = machine.amap.line_of(ADDR)
        cache = machine.caches[2]
        threshold = machine.config.directory.update_count_threshold
        for i in range(threshold):
            cache.handle_frame(WirelessFrame(mk.WIR_UPD, 0, line, 0, i))
        machine.run(max_events=1_000_000)
        assert cache.array.lookup(line, touch=False) is None
        # The PutW reached the home and decremented the count.
        home = machine.amap.home_of(line)
        entry = machine.directories[home].array.lookup(line, touch=False)
        assert entry.sharer_count <= 4


#: Probed line state per case; "I" means the line is absent. W exists only
#: under WiDir.
PROBE_CASES = [
    ("baseline", "I"), ("baseline", "S"), ("baseline", "E"), ("baseline", "M"),
    ("widir", "I"), ("widir", "S"), ("widir", "E"), ("widir", "M"),
    ("widir", "W"),
]
PROBE_CORE = 1


def probed_machine(protocol, state):
    """A machine whose core 1 holds ADDR's line in ``state`` and, as MRU,
    a second line of the same set. A W line carries update_count 2."""
    machine = make(protocol)
    config = machine.config
    other = ADDR + config.l1.num_sets * config.l1.line_bytes
    if state == "S":
        settle_load(machine, 0)
        settle_load(machine, PROBE_CORE)
    elif state == "E":
        settle_load(machine, PROBE_CORE)
    elif state == "M":
        settle_store(machine, PROBE_CORE, 5)
    elif state == "W":
        for core in range(5):
            settle_load(machine, core)
    settle_load(machine, PROBE_CORE, other)
    cache = machine.caches[PROBE_CORE]
    line = machine.amap.line_of(ADDR)
    entry = cache.array.lookup(line, touch=False)
    assert (entry.state if entry is not None else "I") == state
    ways = [way.line for way in cache.array.ways_of(line)]
    assert ways[-1] == machine.amap.line_of(other)
    if state == "W":
        entry.update_count = 2
    return machine, cache, line, entry


def counts(machine, kind):
    """``l1.<PROBE_CORE>.<kind>`` and ``l1.total.accesses``, read through
    the registry (which folds the core's tallies in first)."""
    stats = machine.stats
    return (
        stats.counter(f"l1.{PROBE_CORE}.{kind}").value,
        stats.counter("l1.total.accesses").value,
    )


def issue_one(machine, op):
    """Issue ``op`` on a core bound to PROBE_CORE's L1 and run it out.

    The L1's miss legs are replaced by recorders before the core binds
    them, so only the core's hit check acts on the line. Returns the core
    and the addresses that took a miss leg.
    """
    cache = machine.caches[PROBE_CORE]
    missed = []
    cache.load_miss = lambda address, on_done: missed.append(address)
    cache.store_miss = lambda address, value, on_done: missed.append(address)
    core = Core(machine.sim, PROBE_CORE, cache, machine.config, machine.stats)
    core.run_trace([op])
    machine.run(max_events=1_000)
    return core, missed


class TestProbes:
    """The L1 hit check the core's issue loop makes per access
    (:meth:`Core._step <repro.cpu.core.Core._step>`), one reference at a
    time over a real L1."""

    @pytest.mark.parametrize("protocol,state", PROBE_CASES)
    def test_load_probe(self, protocol, state):
        machine, cache, line, entry = probed_machine(protocol, state)
        readable = get_backend(machine.config.protocol).readable_states
        loads, accesses = counts(machine, "loads")
        core, missed = issue_one(machine, t.load(ADDR + 8))
        hit = not missed
        assert hit is (state in readable)
        assert core.finished is hit
        assert counts(machine, "loads") == (loads + 1, accesses + 1)
        if entry is None:
            assert cache.array.lookup(line, touch=False) is None
            return
        assert [way.line for way in cache.array.ways_of(line)][-1] == line
        assert entry.state == state
        assert entry.update_count == 0

    @pytest.mark.parametrize("protocol,state", PROBE_CASES)
    def test_store_probe(self, protocol, state):
        machine, cache, line, entry = probed_machine(protocol, state)
        writable = get_backend(machine.config.protocol).writable_states
        stores, accesses = counts(machine, "stores")
        before = dict(entry.data) if entry is not None else None
        core, missed = issue_one(machine, t.store(ADDR + 8, 77))
        hit = not missed
        assert hit is (state in writable)
        assert core.finished is hit
        assert counts(machine, "stores") == (stores + 1, accesses + 1)
        if entry is None:
            assert cache.array.lookup(line, touch=False) is None
            return
        assert [way.line for way in cache.array.ways_of(line)][-1] == line
        if hit:
            assert entry.state == "M"
            assert entry.dirty
            assert entry.data == {**before, 1: 77}
        else:
            assert entry.state == state
            assert entry.data == before
            assert entry.update_count == (2 if state == "W" else 0)
