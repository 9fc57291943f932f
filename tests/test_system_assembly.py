"""Tests for the Manycore assembly: routing, wiring, and determinism."""

from dataclasses import replace

import pytest

from repro.coherence import messages as mk
from repro.coherence.states import WIRELESS
from repro.config import baseline_config, widir_config
from repro.engine.errors import ProtocolError
from repro.harness.runner import run_app
from repro.noc.message import Message
from repro.system import Manycore
from repro.traces import record_app_trace, replay_trace
from repro.wireless.frames import WirelessFrame


class TestConstruction:
    def test_one_controller_pair_per_tile(self):
        machine = Manycore(widir_config(num_cores=8))
        assert len(machine.caches) == 8
        assert len(machine.directories) == 8
        assert len(machine.memory_controllers) == 4

    def test_baseline_has_no_wireless_parts(self):
        machine = Manycore(baseline_config(num_cores=8))
        assert machine.wireless is None
        assert machine.tone is None
        for cache in machine.caches:
            assert cache.wireless is None

    def test_widir_shares_one_channel(self):
        machine = Manycore(widir_config(num_cores=8))
        channels = {id(cache.wireless) for cache in machine.caches}
        channels |= {id(d.wireless) for d in machine.directories}
        assert channels == {id(machine.wireless)}

    def test_invalid_config_rejected_at_construction(self):
        from dataclasses import replace
        from repro.engine.errors import ConfigurationError

        bad = replace(widir_config(num_cores=8), protocol="nonsense")
        with pytest.raises(ConfigurationError):
            Manycore(bad)


class TestMessageRouting:
    def test_directory_kinds_reach_directory(self):
        machine = Manycore(baseline_config(num_cores=4))
        hits = []
        directory = machine.directories[2]
        original = directory.handle_message
        directory.handle_message = lambda m: hits.append(m.kind) or original(m)
        machine.mesh.send(Message(mk.PUTS, 0, 2, 0x40))
        machine.run(max_events=10_000)
        assert hits == [mk.PUTS]

    def test_cache_kinds_reach_cache(self):
        machine = Manycore(baseline_config(num_cores=4))
        hits = []
        cache = machine.caches[3]
        original = cache.handle_message
        cache.handle_message = lambda m: hits.append(m.kind) or original(m)
        machine.mesh.send(Message(mk.PUT_ACK, 0, 3, 0x40))
        machine.run(max_events=10_000)
        assert hits == [mk.PUT_ACK]

    @staticmethod
    def _spy_frames(machine):
        """Record every handle_frame call as (node, side); handle nothing."""
        seen = []
        for node in range(machine.config.num_cores):
            machine.caches[node].handle_frame = (
                lambda f, n=node: seen.append((n, "cache"))
            )
            machine.directories[node].handle_frame = (
                lambda f, n=node: seen.append((n, "dir"))
            )
        return seen

    def test_wirupd_reaches_holders_and_home_directory_only(self):
        machine = Manycore(widir_config(num_cores=8))
        line = next(
            ln for ln in range(0, 1 << 16, 64) if machine.amap.home_of(ln) == 3
        )
        for node in (6, 3, 0):
            machine.caches[node].array.insert(line, WIRELESS)
        assert machine.holders == {line: 0b1001001}
        seen = self._spy_frames(machine)
        machine.wireless.transmit(WirelessFrame(mk.WIR_UPD, 0, line, 0, 1))
        machine.run(max_events=10_000)
        assert seen == [(0, "cache"), (3, "cache"), (3, "dir"), (6, "cache")]

    def test_wirupd_for_an_unheld_line_reaches_its_home_directory(self):
        machine = Manycore(widir_config(num_cores=8))
        line = next(
            ln for ln in range(0, 1 << 16, 64) if machine.amap.home_of(ln) == 5
        )
        seen = self._spy_frames(machine)
        machine.wireless.transmit(WirelessFrame(mk.WIR_UPD, 2, line, 0, 1))
        machine.run(max_events=10_000)
        assert seen == [(5, "dir")]

    @pytest.mark.parametrize("kind", [mk.BR_WIR_UPGR, mk.WIR_DWGR, mk.WIR_INV])
    def test_directory_frames_reach_every_tile(self, kind):
        machine = Manycore(widir_config(num_cores=4))
        machine.caches[2].array.insert(0x40, WIRELESS)
        seen = self._spy_frames(machine)
        machine.wireless.transmit(WirelessFrame(kind, 1, 0x40))
        machine.run(max_events=10_000)
        assert seen == [
            (node, side) for node in range(4) for side in ("cache", "dir")
        ]


def _holders_from_arrays(machine):
    """The holder map rebuilt from every L1 array."""
    rebuilt = {}
    for cache in machine.caches:
        for entry in cache.array.lines():
            rebuilt[entry.line] = rebuilt.get(entry.line, 0) | 1 << cache.node
    return rebuilt


class TestHolderIndex:
    def test_wired_machines_keep_no_index(self):
        machine = Manycore(baseline_config(num_cores=4))
        assert machine.holders is None

    def test_index_matches_arrays_after_a_run(self):
        sink = []
        run_app(
            "radiosity", widir_config(num_cores=16), memops_per_core=300,
            trace_seed=1, machine_sink=sink,
        )
        machine = sink[0]
        assert machine.holders
        assert machine.holders == _holders_from_arrays(machine)

    def test_index_matches_arrays_after_each_segment_restore(
        self, tmp_path, monkeypatch
    ):
        import repro.traces.replay as replay_mod

        path = tmp_path / "radiosity.wtr"
        record_app_trace(path, "radiosity", 8, 300, trace_seed=3, chunk_records=64)
        original = replay_mod.restore_machine
        restored = []

        def restore_then_check(machine, cores, snapshot):
            original(machine, cores, snapshot)
            assert machine.holders == _holders_from_arrays(machine)
            restored.append(len(machine.holders))

        monkeypatch.setattr(replay_mod, "restore_machine", restore_then_check)
        replay_trace(path, widir_config(num_cores=8), snapshot_every=2)
        assert len(restored) >= 2 and all(restored)

    def test_online_monitor_rejects_a_stale_index(self):
        machine = Manycore(replace(widir_config(num_cores=4), check_interval=50))
        line = machine.amap.line_of(0x40)
        done = []
        machine.caches[1].load(0x40, lambda _v: done.append(1))
        machine.run(max_events=100_000)
        assert done and machine.holders == {line: 0b10}
        machine.holders[line] = 0b110  # names a cache that does not hold it
        machine.caches[3].load(0x40, lambda _v: None)
        with pytest.raises(ProtocolError, match="holder index"):
            machine.run(max_events=100_000)


class TestDeterminismAcrossBuilds:
    def test_same_seed_same_machine_behaviour(self):
        def run_once():
            machine = Manycore(widir_config(num_cores=8, seed=77))
            done = []
            for core in range(8):
                machine.caches[core].rmw(0x9000, lambda _o, c=core: done.append(c))
            machine.run(max_events=50_000_000)
            return machine.sim.now, machine.sim.events_executed, tuple(done)

        assert run_once() == run_once()

    def test_different_core_counts_are_independent(self):
        small = Manycore(widir_config(num_cores=4, seed=1))
        large = Manycore(widir_config(num_cores=16, seed=1))
        for machine in (small, large):
            out = []
            machine.caches[0].store(0x5000, 1, lambda: out.append(1))
            machine.run(max_events=1_000_000)
            assert out == [1]
