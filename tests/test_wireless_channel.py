"""Tests for the BRS wireless data channel: arbitration, collisions,
backoff, jamming, cancellation, and the serialization-point contract."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.config.presets import widir_config
from repro.config.system import WirelessConfig
from repro.engine.rng import DeterministicRng
from repro.engine.simulator import Simulator
from repro.harness.runner import run_app
from repro.stats.collectors import StatsRegistry
from repro.wireless.channel import WirelessDataChannel
from repro.wireless.frames import WirelessFrame
from repro.wireless.mac import get_mac, mac_names
from tests.test_golden_digest import (
    GOLDEN_APP,
    GOLDEN_CORES,
    GOLDEN_MEMOPS,
    GOLDEN_SEED,
    GOLDEN_TRACE_SEED,
)


def make_channel(num_nodes=4, **config_kwargs):
    sim = Simulator(7)
    config = WirelessConfig(**config_kwargs)
    stats = StatsRegistry()
    channel = WirelessDataChannel(
        sim, config, num_nodes, stats, DeterministicRng(3)
    )
    return sim, channel, stats


def upd(src, line=0x100, word=0, value=1):
    return WirelessFrame("WirUpd", src, line, word, value)


class TestBasicTransmission:
    def test_sole_frame_delivered_to_all_nodes(self):
        sim, channel, stats = make_channel()
        heard = []
        for node in range(4):
            channel.register_receiver(node, lambda f, n=node: heard.append(n))
        channel.transmit(upd(0))
        sim.run()
        assert sorted(heard) == [0, 1, 2, 3]
        assert stats.get_counter("wnoc.frames") == 1
        assert stats.get_counter("wnoc.collisions") == 0

    def test_commit_precedes_delivery(self):
        sim, channel, _ = make_channel()
        events = []
        channel.register_receiver(0, lambda f: events.append(("deliver", sim.now)))
        channel.transmit(
            upd(0),
            on_commit=lambda: events.append(("commit", sim.now)),
            on_delivered=lambda: events.append(("done", sim.now)),
        )
        sim.run()
        kinds = [k for k, _ in events]
        assert kinds == ["commit", "deliver", "done"]
        commit_time = events[0][1]
        deliver_time = events[1][1]
        # Commit at preamble+collision-detect; delivery at frame end.
        assert commit_time == 2
        assert deliver_time == 6

    def test_back_to_back_frames_serialize(self):
        sim, channel, _ = make_channel()
        done = []
        channel.register_receiver(0, lambda f: None)
        channel.transmit(upd(0), on_delivered=lambda: done.append(sim.now))
        sim.run()
        channel.transmit(upd(1), on_delivered=lambda: done.append(sim.now))
        sim.run()
        assert done[1] - done[0] >= 6  # one full frame apart


class TestCollisions:
    def test_simultaneous_senders_collide_then_succeed(self):
        sim, channel, stats = make_channel()
        delivered = []
        channel.register_receiver(0, lambda f: delivered.append(f.src))
        channel.transmit(upd(0))
        channel.transmit(upd(1))
        sim.run()
        assert sorted(delivered) == [0, 1]
        assert stats.get_counter("wnoc.collisions") >= 2  # both contenders

    def test_no_two_successful_frames_overlap(self):
        sim, channel, _ = make_channel(num_nodes=8)
        spans = []
        starts = {}

        def commit_for(i):
            def cb():
                starts[i] = sim.now - 2  # frame started 2 cycles before commit

            return cb

        def done_for(i):
            def cb():
                spans.append((starts[i], sim.now))

            return cb

        channel.register_receiver(0, lambda f: None)
        for i in range(8):
            channel.transmit(upd(i % 8, value=i), commit_for(i), done_for(i))
        sim.run()
        assert len(spans) == 8
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2, f"frames overlap: ({s1},{e1}) vs ({s2},{e2})"

    def test_collision_probability_metric(self):
        sim, channel, _ = make_channel()
        channel.register_receiver(0, lambda f: None)
        channel.transmit(upd(0))
        channel.transmit(upd(1))
        sim.run()
        assert 0.0 < channel.collision_probability < 1.0


class TestJamming:
    def test_jammed_line_blocked_until_unjam(self):
        sim, channel, stats = make_channel()
        delivered = []
        channel.register_receiver(0, lambda f: delivered.append(sim.now))
        channel.jam(0x100)
        channel.transmit(upd(0, line=0x100))
        sim.run(until=200)
        assert delivered == []
        assert stats.get_counter("wnoc.jams") > 0
        channel.unjam(0x100)
        sim.run()
        assert len(delivered) == 1

    def test_other_lines_unaffected_by_jam(self):
        sim, channel, _ = make_channel()
        delivered = []
        channel.register_receiver(0, lambda f: delivered.append(f.line))
        channel.jam(0x100)
        channel.transmit(upd(0, line=0x200))
        sim.run(until=100)
        assert delivered == [0x200]

    def test_directory_frames_pass_their_own_jam(self):
        """BrWirUpgr/WirDwgr/WirInv are not jammable even for the jammed line."""
        sim, channel, _ = make_channel()
        delivered = []
        channel.register_receiver(0, lambda f: delivered.append(f.kind))
        channel.jam(0x100)
        channel.transmit(WirelessFrame("BrWirUpgr", 2, 0x100))
        sim.run(until=100)
        assert delivered == ["BrWirUpgr"]

    def test_partial_address_jamming_false_positives(self):
        sim = Simulator(7)
        channel = WirelessDataChannel(
            sim, WirelessConfig(), 4, StatsRegistry(), DeterministicRng(3),
            jam_address_bits=4,
        )
        channel.register_receiver(0, lambda f: None)
        channel.jam(0x10)
        # 0x30 shares the low 4 bits with 0x10: jammed (false positive).
        assert channel.is_jammed(0x30)
        assert not channel.is_jammed(0x31)


class TestCancellation:
    def test_cancel_before_commit_suppresses_frame(self):
        sim, channel, stats = make_channel()
        delivered = []
        channel.register_receiver(0, lambda f: delivered.append(f))
        request = channel.transmit(upd(0))
        assert request.cancel()
        sim.run()
        assert delivered == []
        assert stats.get_counter("wnoc.frames") == 0

    def test_cancel_after_commit_fails(self):
        sim, channel, _ = make_channel()
        channel.register_receiver(0, lambda f: None)
        request = channel.transmit(upd(0))
        sim.run(until=3)  # past the commit point (cycle 2)
        assert not request.cancel()
        sim.run()
        assert request.committed

    def test_cancelled_mid_arbitration_wastes_slot_only(self):
        sim, channel, stats = make_channel()
        delivered = []
        channel.register_receiver(0, lambda f: delivered.append(f.src))
        request = channel.transmit(upd(0))
        channel.transmit(upd(1))
        # Cancel the first at cycle 1 (post-arbitration, pre-commit).
        sim.schedule(1, request.cancel)
        sim.run()
        assert delivered.count(1) == 1
        assert 0 not in delivered


class TestLiveness:
    def test_every_frame_eventually_delivers_under_contention(self):
        sim, channel, _ = make_channel(num_nodes=8)
        delivered = []
        channel.register_receiver(0, lambda f: delivered.append(f.value))
        for i in range(30):
            channel.transmit(upd(i % 8, value=i))
        sim.run(max_events=100_000)
        assert sorted(delivered) == list(range(30))

    def test_no_duplicate_deliveries(self):
        """Regression: a stale arbitration event once re-transmitted an
        in-flight frame, double-delivering it."""
        sim, channel, _ = make_channel(num_nodes=8)
        delivered = []
        channel.register_receiver(0, lambda f: delivered.append(f.value))
        # Interleave transmissions over time to create stale arbitration
        # events landing at end-of-frame cycles.
        for i in range(20):
            sim.schedule(i * 3, lambda i=i: channel.transmit(upd(i % 8, value=i)))
        sim.run(max_events=100_000)
        assert sorted(delivered) == list(range(20))
        assert len(delivered) == len(set(delivered))


class TestOneArbitrationPerCycle:
    """The channel keeps one live arbitration and runs at most one
    contention round per cycle, however often it and its MAC ask."""

    def test_stale_arbitration_does_not_split_a_cycles_round(self):
        """Two transmits ready in one cycle contend in one BRS round, even
        when the second comes after a superseded arbitration event that
        was queued for that cycle."""
        sim, channel, stats = make_channel()
        channel.register_receiver(0, lambda f: None)
        rounds = []
        arbitrate = channel._mac.arbitrate

        def record(now, contenders):
            rounds.append((now, sorted(r.frame.src for r in contenders)))
            arbitrate(now, contenders)

        channel._mac.arbitrate = record
        # Cycle 20's bucket, in order: the first transmit, an arbitration
        # that an earlier request supersedes, the second transmit.
        sim.schedule_at(20, lambda: channel.transmit(upd(0)))
        channel._schedule_arbitration(20)
        sim.schedule_at(20, lambda: channel.transmit(upd(1)))
        channel._schedule_arbitration(5)
        sim.run()
        assert rounds[0] == (20, [0, 1])
        assert stats.get_counter("wnoc.collisions") == 2
        assert stats.get_counter("wnoc.frames") == 2

    @pytest.mark.parametrize("mac", mac_names())
    def test_golden_run_arbitrates_once_per_cycle(self, mac, monkeypatch):
        """On the golden WiDir workload every MAC sees at most one round
        per cycle, and no more than two arbitration events fire per
        round (stale events included)."""
        state_class = get_mac(mac).state_factory
        rounds = Counter()
        fired = []
        mac_arbitrate = state_class.arbitrate
        channel_arbitrate = WirelessDataChannel._arbitrate

        def count_round(self, now, contenders):
            rounds[now] += 1
            return mac_arbitrate(self, now, contenders)

        def count_event(self, *args):
            fired.append(self.sim.now)
            return channel_arbitrate(self, *args)

        monkeypatch.setattr(state_class, "arbitrate", count_round)
        monkeypatch.setattr(WirelessDataChannel, "_arbitrate", count_event)
        config = replace(
            widir_config(num_cores=GOLDEN_CORES, seed=GOLDEN_SEED), mac=mac
        )
        run_app(
            GOLDEN_APP, config, memops_per_core=GOLDEN_MEMOPS,
            trace_seed=GOLDEN_TRACE_SEED,
        )
        assert rounds, "the golden run never reached the MAC"
        assert max(rounds.values()) == 1, (
            f"{mac}: up to {max(rounds.values())} rounds in one cycle"
        )
        total = sum(rounds.values())
        assert len(fired) <= 2 * total, (
            f"{mac}: {len(fired)} arbitration events for {total} rounds"
        )
