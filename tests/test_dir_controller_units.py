"""Unit-level tests of directory controller handlers on a live machine.

These inject specific wired messages / states and check the handler-level
behaviour that the end-to-end tests only cover implicitly: deferral rules,
Nack serial echoing, PutM-for-unknown-line handling, recall completion, and
stale-message tolerance.
"""

import pytest

from repro.coherence import messages as mk
from repro.config import baseline_config, widir_config
from repro.noc.message import Message
from repro.system import Manycore

ADDR = 0x0007_0000


def quiesce_store(machine, core, value, address=ADDR):
    done = []
    machine.caches[core].store(address, value, lambda: done.append(1))
    machine.run(max_events=10_000_000)
    assert done


def quiesce_load(machine, core, address=ADDR):
    out = []
    machine.caches[core].load(address, out.append)
    machine.run(max_events=10_000_000)
    return out[0]


def home_dir(machine, address=ADDR):
    line = machine.amap.line_of(address)
    return machine.directories[machine.amap.home_of(line)], line


class TestDeferral:
    def test_busy_entry_defers_new_requests(self):
        machine = Manycore(baseline_config(num_cores=4))
        quiesce_store(machine, 0, 1)
        directory, line = home_dir(machine)
        # Force a fetch-style busy state and inject a request by hand.
        entry = directory.array.lookup(line, touch=False)
        entry.busy = True
        entry.transaction = {"type": "fwd_gets", "requester": 2}
        directory.handle_message(Message(mk.GETS, 3, directory.node, line))
        assert len(entry.deferred) == 1
        # Restore and let the machine settle via the real path.
        entry.busy = False
        entry.transaction = None
        entry.deferred.clear()

    def test_put_s_processed_while_busy(self):
        """PutS is bookkeeping and must not sit in the deferred queue."""
        machine = Manycore(baseline_config(num_cores=4))
        for core in (0, 1):
            quiesce_load(machine, core)
        directory, line = home_dir(machine)
        entry = directory.array.lookup(line, touch=False)
        entry.busy = True
        entry.transaction = {"type": "fetch", "requester": 3}
        directory.handle_message(Message(mk.PUTS, 1, directory.node, line))
        assert 1 not in entry.sharers
        assert len(entry.deferred) == 0
        entry.busy = False
        entry.transaction = None


class TestPutMHandling:
    def test_put_m_for_unknown_line_writes_memory_and_acks(self):
        machine = Manycore(baseline_config(num_cores=4))
        directory, line = home_dir(machine)
        payload = {"dirty": True, "data": {0: 4242}}
        directory.handle_message(
            Message(mk.PUTM, 2, directory.node, line, payload)
        )
        machine.run(max_events=1_000_000)
        assert machine.memory.read_word(line, 0) == 4242

    def test_put_m_from_non_owner_still_acked(self):
        machine = Manycore(baseline_config(num_cores=4))
        quiesce_store(machine, 0, 1)
        directory, line = home_dir(machine)
        # Core 3 never owned the line; a stale PutM must not corrupt state.
        directory.handle_message(
            Message(mk.PUTM, 3, directory.node, line, {"dirty": False})
        )
        machine.run(max_events=1_000_000)
        entry = directory.array.lookup(line, touch=False)
        assert entry.owner == 0
        assert quiesce_load(machine, 1) == 1


class TestStaleMessageTolerance:
    def test_stray_inv_ack_ignored(self):
        machine = Manycore(baseline_config(num_cores=4))
        quiesce_store(machine, 0, 1)
        directory, line = home_dir(machine)
        directory.handle_message(Message(mk.INV_ACK, 2, directory.node, line))
        machine.run(max_events=1_000_000)
        machine.check_coherence()

    def test_stray_wb_data_ignored(self):
        machine = Manycore(baseline_config(num_cores=4))
        quiesce_store(machine, 0, 1)
        directory, line = home_dir(machine)
        directory.handle_message(
            Message(mk.WB_DATA, 2, directory.node, line, {"data": {0: 9}})
        )
        machine.run(max_events=1_000_000)
        assert quiesce_load(machine, 1) == 1

    def test_stray_put_w_on_wired_machine_ignored(self):
        machine = Manycore(baseline_config(num_cores=4))
        quiesce_store(machine, 0, 1)
        directory, line = home_dir(machine)
        directory.handle_message(Message(mk.PUTW, 2, directory.node, line))
        machine.run(max_events=1_000_000)
        machine.check_coherence()

    def test_unknown_kind_raises(self):
        machine = Manycore(baseline_config(num_cores=4))
        directory, line = home_dir(machine)
        from repro.engine.errors import ProtocolError

        with pytest.raises(ProtocolError):
            directory.handle_message(
                Message("Bogus", 0, directory.node, line)
            )


class TestNackSerialEcho:
    def test_nack_carries_request_serial(self):
        """During S->W, bounced requests echo the requester's serial so the
        cache can discard stale bounces."""
        machine = Manycore(widir_config(num_cores=8))
        captured = []
        original = machine.mesh.send

        def spy(message, extra_delay=0):
            if message.kind == "Nack":
                captured.append(message.payload.get("req_serial"))
            original(message, extra_delay)

        machine.mesh.send = spy
        # Drive a hot line through S->W while more requesters pile on.
        for core in range(3):
            quiesce_load(machine, core)
        pending = []
        for core in range(3, 8):
            machine.caches[core].load(ADDR, pending.append)
        machine.run(max_events=20_000_000)
        assert len(pending) == 5
        # Any bounce that occurred carried a serial (never None).
        assert all(serial is not None for serial in captured)


class TestRecallCompletion:
    def test_shared_recall_collects_all_acks(self):
        machine = Manycore(baseline_config(num_cores=4))
        for core in range(3):
            quiesce_load(machine, core)
        directory, line = home_dir(machine)
        entry = directory.array.lookup(line, touch=False)
        directory._start_entry_eviction(entry)
        machine.run(max_events=10_000_000)
        assert directory.array.lookup(line, touch=False) is None
        for core in range(3):
            cached = machine.caches[core].array.lookup(line, touch=False)
            assert cached is None
        # The data survives in memory for the next user.
        assert quiesce_load(machine, 3) == 0
        machine.check_coherence()

    def test_exclusive_recall_preserves_dirty_data(self):
        machine = Manycore(baseline_config(num_cores=4))
        quiesce_store(machine, 1, 777)
        directory, line = home_dir(machine)
        entry = directory.array.lookup(line, touch=False)
        directory._start_entry_eviction(entry)
        machine.run(max_events=10_000_000)
        assert machine.memory.read_word(line, 0) == 777
        assert quiesce_load(machine, 2) == 777
        machine.check_coherence()

    def test_wireless_recall_preserves_dirty_data(self):
        machine = Manycore(widir_config(num_cores=8))
        for core in range(5):
            quiesce_load(machine, core)
        quiesce_store(machine, 0, 555)
        directory, line = home_dir(machine)
        entry = directory.array.lookup(line, touch=False)
        assert entry.state == "W"
        directory._start_entry_eviction(entry)
        machine.run(max_events=10_000_000)
        assert machine.memory.read_word(line, 0) == 555
        assert quiesce_load(machine, 6) == 555
        machine.check_coherence()


class TestInvFanout:
    def test_every_inv_goes_through_mesh_send(self):
        """INV fan-outs take the one wired send path, like every message."""
        machine = Manycore(baseline_config(num_cores=8))
        for core in (1, 2, 3):
            quiesce_load(machine, core)
        invs = []
        original = machine.mesh.send

        def spy(message, extra_delay=0):
            if message.kind == mk.INV:
                invs.append(message.dst)
            original(message, extra_delay)

        machine.mesh.send = spy
        quiesce_store(machine, 4, 7)
        assert sorted(invs) == [1, 2, 3]
        assert machine.stats.get_counter("dir.total.invalidations_sent") == len(invs)
        machine.check_coherence()


class TestLineDataIsolation:
    @pytest.mark.parametrize(
        "build, readers, state",
        [(baseline_config, (1, 2, 3), "S"), (widir_config, (1, 2, 3, 4, 5), "W")],
        ids=["baseline", "widir"],
    )
    def test_no_two_holders_share_storage(self, build, readers, state):
        """Writing one holder's words never shows through another holder.

        Every cache copy and the directory's LLC copy hold their own dict,
        and main memory keeps its own lines too.
        """
        machine = Manycore(build(num_cores=8))
        directory, line = home_dir(machine)
        machine.memory.write_word(line, 1, 11)
        quiesce_store(machine, 0, 5)
        for core in readers:
            quiesce_load(machine, core)
        holders = []
        for core in (0,) + readers:
            entry = machine.caches[core].array.lookup(line, touch=False)
            assert entry.state == state
            holders.append(entry.data)
        holders.append(directory.array.lookup(line, touch=False).data)
        memory = {key: dict(words) for key, words in machine.memory._lines.items()}
        assert memory[line] == {1: 11}

        for i, data in enumerate(holders):
            before = [dict(words) for words in holders]
            data[0] = 1000 + i
            for j, other in enumerate(holders):
                if j != i:
                    assert other == before[j], (i, j)
            assert machine.memory._lines == memory
