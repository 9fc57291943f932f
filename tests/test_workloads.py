"""Tests for the workload layout, profiles, and trace generator."""

import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.trace import OP_BARRIER, OP_LOAD, OP_RMW, OP_STORE, OP_THINK
from repro.workloads import ALL_APPS, APP_PROFILES, AddressLayout, build_traces
from repro.workloads.generator import build_core_trace
from repro.workloads.layout import (
    BARRIER_BASE,
    COLD_OFFSET,
    LOCK_BASE,
    PRIVATE_BASE,
    PRIVATE_SPAN,
    SHARED_BASE,
)


def _in_hot_set(address: int, core: int) -> bool:
    """Whether ``address`` lies below the core's streaming (cold) region."""
    base = PRIVATE_BASE + core * PRIVATE_SPAN
    return base <= address < base + COLD_OFFSET


class TestLayout:
    def test_private_regions_disjoint_across_cores(self):
        layout = AddressLayout(64)
        a = layout.private_hot(0, 0)
        b = layout.private_hot(1, 0)
        assert abs(a - b) >= 0x10_0000

    def test_regions_ordered_and_disjoint(self):
        assert PRIVATE_BASE < SHARED_BASE < LOCK_BASE < BARRIER_BASE

    def test_shared_regions_disjoint_by_group_size(self):
        layout = AddressLayout(64)
        small = layout.shared_word(8, 0, 0)
        large = layout.shared_word(64, 0, 0)
        assert abs(small - large) >= 0x100_0000

    def test_group_membership(self):
        layout = AddressLayout(64)
        assert layout.group_of(0, 8) == 0
        assert layout.group_of(7, 8) == 0
        assert layout.group_of(8, 8) == 1
        assert layout.group_of(63, 64) == 0

    def test_group_size_clamped_to_machine(self):
        layout = AddressLayout(4)
        assert layout.group_of(3, 64) == 0

    def test_locks_and_barriers_get_own_lines(self):
        layout = AddressLayout(64)
        assert layout.lock(0) // 64 != layout.lock(1) // 64
        assert layout.barrier_word(0) // 64 != layout.barrier_word(1) // 64


class TestProfiles:
    def test_all_twenty_paper_apps_present(self):
        assert len(APP_PROFILES) == 20
        splash = [p for p in APP_PROFILES.values() if p.suite == "splash3"]
        parsec = [p for p in APP_PROFILES.values() if p.suite == "parsec"]
        assert len(splash) == 13
        assert len(parsec) == 7

    def test_table4_mpki_values_recorded(self):
        assert APP_PROFILES["blackscholes"].paper_mpki == pytest.approx(0.13)
        assert APP_PROFILES["canneal"].paper_mpki == pytest.approx(23.21)
        assert APP_PROFILES["lu-nc"].paper_mpki == pytest.approx(21.52)

    def test_sharing_weights_normalized(self):
        for profile in APP_PROFILES.values():
            weights = profile.sharing_weights()
            if weights:
                assert abs(sum(weights.values()) - 1.0) < 1e-9

    def test_radiosity_is_dominated_by_machine_wide_sharing(self):
        """Figure 5: >90% of radiosity's updates reach 50+ sharers."""
        weights = APP_PROFILES["radiosity"].sharing_weights()
        assert weights.get(64, 0) > 0.9

    def test_low_sharing_parsec_apps(self):
        for app in ("blackscholes", "dedup", "ferret", "freqmine"):
            profile = APP_PROFILES[app]
            assert profile.shared_fraction <= 0.03
            assert max(s for s, _ in profile.sharing_mix) <= 8


class TestGenerator:
    def test_determinism(self):
        a = build_core_trace(APP_PROFILES["fft"], 3, 16, 200, seed=5)
        b = build_core_trace(APP_PROFILES["fft"], 3, 16, 200, seed=5)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert (x.kind, x.address, x.arg, x.blocking) == (
                y.kind, y.address, y.arg, y.blocking
            )

    def test_different_cores_differ(self):
        a = build_core_trace(APP_PROFILES["fft"], 0, 16, 200, seed=5)
        b = build_core_trace(APP_PROFILES["fft"], 1, 16, 200, seed=5)
        addresses = lambda t: [op.address for op in t if op.kind == OP_LOAD]
        assert addresses(a) != addresses(b)

    def test_memop_count_approximates_request(self):
        trace = build_core_trace(APP_PROFILES["volrend"], 0, 16, 500, seed=1)
        memops = sum(1 for op in trace if op.kind in (OP_LOAD, OP_STORE, OP_RMW))
        # Lock sections and barriers add ops beyond the base count.
        assert 500 <= memops <= 800

    def test_phases_emit_barriers(self):
        profile = APP_PROFILES["ocean-nc"]
        trace = build_core_trace(profile, 0, 16, 400, seed=0)
        barrier_phases = [op.arg for op in trace if op.kind == OP_BARRIER]
        assert barrier_phases == list(range(profile.phases))

    def test_shared_fraction_realized(self):
        profile = APP_PROFILES["radiosity"]  # shared_fraction 0.28
        trace = build_core_trace(profile, 0, 64, 4000, seed=0)
        shared = sum(
            1 for op in trace
            if op.kind in (OP_LOAD, OP_STORE) and op.address >= SHARED_BASE
        )
        memops = sum(1 for op in trace if op.kind in (OP_LOAD, OP_STORE, OP_RMW))
        # Shared-data refs plus lock/barrier traffic around the ~28% target.
        assert 0.18 < shared / memops < 0.50

    def test_blackscholes_mostly_private(self):
        trace = build_core_trace(APP_PROFILES["blackscholes"], 0, 64, 1000, seed=0)
        private = sum(
            1 for op in trace
            if op.kind in (OP_LOAD, OP_STORE) and op.address < SHARED_BASE
        )
        memops = sum(1 for op in trace if op.kind in (OP_LOAD, OP_STORE, OP_RMW))
        assert private / memops > 0.95

    def test_think_gaps_match_mem_ratio(self):
        profile = APP_PROFILES["fft"]  # mem_ratio 0.33
        trace = build_core_trace(profile, 0, 16, 1000, seed=0)
        think = sum(op.arg for op in trace if op.kind == OP_THINK)
        memops = sum(1 for op in trace if op.kind in (OP_LOAD, OP_STORE, OP_RMW))
        ratio = memops / (memops + think)
        assert 0.2 < ratio < 0.5

    def test_think_bursts_are_positive(self):
        """Every slot opens with a think burst of at least one instruction."""
        trace = build_core_trace(APP_PROFILES["fft"], 0, 16, 300, seed=2)
        bursts = [op.arg for op in trace if op.kind == OP_THINK]
        assert bursts and min(bursts) >= 1
        assert max(bursts) > 1  # fft's mean gap is 3, so the draws vary

    def test_think_gap_floor_is_one_instruction(self):
        """A profile with no non-memory work still issues one-instruction
        gaps (a mean of 1 draws nothing from the RNG)."""
        profile = replace(APP_PROFILES["fft"], mem_ratio=1.0)
        trace = build_core_trace(profile, 0, 16, 200, seed=2)
        assert {op.arg for op in trace if op.kind == OP_THINK} == {1}

    def test_hot_set_reads_and_writes(self):
        """Private hot-set references come as both loads and stores."""
        profile = APP_PROFILES["blackscholes"]  # write_fraction 0.30
        trace = build_core_trace(profile, 3, 16, 400, seed=2)
        kinds = {
            op.kind for op in trace
            if op.kind in (OP_LOAD, OP_STORE) and _in_hot_set(op.address, 3)
        }
        assert kinds == {OP_LOAD, OP_STORE}

    def test_hot_set_addresses_stay_in_own_region(self):
        profile = replace(APP_PROFILES["blackscholes"], hot_words=8)
        layout = AddressLayout(16)
        trace = build_core_trace(profile, 2, 16, 400, seed=2)
        low = layout.private_hot(2, 0)
        high = layout.private_hot(2, 7)
        private = [
            op.address for op in trace
            if op.kind in (OP_LOAD, OP_STORE) and op.address < SHARED_BASE
        ]
        hot = [address for address in private if _in_hot_set(address, 2)]
        assert len(hot) > 0.9 * len(private)
        assert all(low <= address <= high for address in hot)

    def test_build_traces_one_per_core(self):
        traces = build_traces(APP_PROFILES["lu-c"], 8, 100, seed=0)
        assert len(traces) == 8
        assert all(len(trace) > 100 for trace in traces)

    def test_memo_holds_only_the_last_set(self):
        profile = APP_PROFILES["radiosity"]
        build_traces(profile, 16, 400, seed=100)  # numpy and tables loaded
        tracemalloc.start()
        try:
            last = build_traces(profile, 16, 400, seed=101)
            one_set, _ = tracemalloc.get_traced_memory()
            for seed in (102, 103, 104):
                last = build_traces(profile, 16, 400, seed=seed)
            four_builds, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert four_builds < 1.5 * one_set
        again = build_traces(profile, 16, 400, seed=104)
        assert again is not last
        assert all(a is b for a, b in zip(again, last))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_property_addresses_word_aligned(self, seed):
        trace = build_core_trace(APP_PROFILES["barnes"], 2, 16, 150, seed=seed)
        for op in trace:
            if op.kind in (OP_LOAD, OP_STORE, OP_RMW):
                assert op.address % 8 == 0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_property_rmw_targets_sync_lines(self, seed):
        """Atomics only hit lock and barrier words in these workloads."""
        trace = build_core_trace(APP_PROFILES["radiosity"], 1, 16, 300, seed=seed)
        for op in trace:
            if op.kind == OP_RMW:
                assert op.address >= LOCK_BASE
