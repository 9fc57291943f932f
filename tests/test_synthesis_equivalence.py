"""The vectorized generator against the scalar reference, column for column.

``build_core_trace`` draws each core's stream in numpy blocks and fills
the trace columns vectorized; ``tests/scalar_synthesis.py`` keeps the
one-draw-at-a-time loop that defines the stream. Columns are compared as
compact JSON lists of kind names, ints and bools (as
``test_synthesis_digest`` hashes them); ``tests/test_trace_columns.py``
pins the column buffer types.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.rng import DeterministicRng, draw_block
from repro.workloads import generator
from repro.workloads.generator import build_core_trace, think_gaps
from repro.workloads.profiles import ALL_APPS, APP_PROFILES, AppProfile
from tests.scalar_synthesis import column_lists, scalar_core_trace


def _columns(chunk) -> str:
    return json.dumps(column_lists(chunk), separators=(",", ":"))


def _assert_cores_match(profile, cores, memops, seed, core_ids=None):
    for core in range(cores) if core_ids is None else core_ids:
        fast = build_core_trace(profile, core, cores, memops, seed)
        reference = scalar_core_trace(profile, core, cores, memops, seed)
        assert _columns(fast) == _columns(reference), (
            f"{profile.name}: core {core} of {cores}, {memops} memops, seed {seed}"
        )


#: Every kind of draw at its most frequent: most slots are shared visits
#: over three group sizes, half of them migratory, and every slot is
#: followed by a lock section of eight critical ops.
DRAW_HEAVY = AppProfile(
    name="draw-heavy",
    suite="synthetic",
    paper_mpki=0.0,
    shared_fraction=0.9,
    migratory_fraction=0.5,
    sharing_mix=((64, 0.5), (16, 0.3), (3, 0.2)),
    lock_interval=1,
    lock_critical_ops=8,
    cold_fraction=0.05,
)


@pytest.mark.parametrize("app", ALL_APPS)
def test_every_app_every_core(app):
    _assert_cores_match(APP_PROFILES[app], 16, 300, 3)


@pytest.mark.parametrize("memops", [0, 1, 5])
def test_fewer_slots_than_phases(memops):
    for app in ALL_APPS:
        _assert_cores_match(APP_PROFILES[app], 4, memops, 11)


@pytest.mark.parametrize("cores", [1, 3, 48])
def test_group_sizes_that_do_not_divide_the_machine(cores):
    for app in ("radiosity", "ocean-nc", "canneal", "volrend", "fft"):
        core_ids = sorted({0, cores // 2, cores - 1})
        _assert_cores_match(APP_PROFILES[app], cores, 200, 5, core_ids)


@pytest.mark.parametrize("app", ["radiosity", "blackscholes"])
def test_every_core_of_a_64_core_machine(app):
    _assert_cores_match(APP_PROFILES[app], 64, 800, 1)


def test_draw_heavy_profile():
    _assert_cores_match(DRAW_HEAVY, 8, 400, 2)


def test_a_one_draw_first_block_is_extended_to_the_same_trace(monkeypatch):
    """Extending the stream mid-walk, before a slot or a lock section,
    continues it draw for draw. The first block is sized to cover the
    expected draws with headroom, so real profiles seldom extend it."""
    monkeypatch.setattr(generator._Shape, "expected_draws", lambda self, per_phase: 1)
    for app in ("radiosity", "canneal", "blackscholes", "water-spa"):
        _assert_cores_match(APP_PROFILES[app], 4, 250, 9)
    _assert_cores_match(DRAW_HEAVY, 2, 60, 4)


def test_profile_without_think_draws_or_sharing_mix():
    profile = replace(
        APP_PROFILES["barnes"], name="dense", mem_ratio=0.9, sharing_mix=()
    )
    _assert_cores_match(profile, 8, 300, 6)


#: Knob values at the ends of their ranges, each on radiosity.
EDGE_KNOBS = {
    "no-critical-ops": dict(lock_critical_ops=0),
    "no-spins": dict(lock_spin_reads=0, barrier_spin_reads=0),
    "burst-0": dict(shared_burst=0),
    "all-migratory": dict(migratory_fraction=1.0),
    "all-shared": dict(shared_fraction=1.0),
    "all-streaming": dict(cold_fraction=1.0, shared_fraction=0.0),
    "no-writes": dict(write_fraction=0.0, shared_write_fraction=0.0),
    "all-writes": dict(write_fraction=1.0, shared_write_fraction=1.0),
    "no-use-dependence": dict(load_block_fraction=0.0),
    "empty-regions": dict(hot_words=0, shared_words=0, locks=0),
    "no-phases": dict(phases=0),
    "zero-weights": dict(sharing_mix=((8, 0.0), (64, 0.0))),
    "repeated-size": dict(sharing_mix=((8, 0.5), (64, 0.3), (8, 0.2))),
}


@pytest.mark.parametrize("knobs", sorted(EDGE_KNOBS))
def test_edge_knobs(knobs):
    profile = replace(APP_PROFILES["radiosity"], name=knobs, **EDGE_KNOBS[knobs])
    for memops in (0, 3, 150):
        _assert_cores_match(profile, 1, memops, 4)
        _assert_cores_match(profile, 16, memops, 4, [0, 15])


@settings(max_examples=25, deadline=None)
@given(
    app=st.sampled_from(ALL_APPS),
    cores=st.integers(1, 64),
    core=st.integers(0, 63),
    memops=st.integers(0, 500),
    seed=st.integers(0, 2**32),
)
def test_property_matches_scalar_reference(app, cores, core, memops, seed):
    _assert_cores_match(APP_PROFILES[app], cores, memops, seed, [core % cores])


class TestThinkGaps:
    """``think_gaps`` must round as ``math.log`` does, even where the
    quotient ``log(1 - u) / log_keep`` sits on an integer: ``u = 1 -
    keep**k`` puts it at ``k``, and its float neighbours straddle ``k``."""

    @pytest.mark.parametrize("mean", [2, 3, 7, 100])
    def test_integer_boundaries(self, mean):
        log_keep = math.log(1.0 - 1.0 / mean)
        draws = []
        for k in range(1, 61):
            u = 1.0 - math.exp(k * log_keep)
            draws += [math.nextafter(u, 0.0), u, math.nextafter(u, 1.0)]
        draws = [u for u in draws if 0.0 <= u < 1.0]
        expected = [max(1, math.ceil(math.log(1.0 - u) / log_keep)) for u in draws]
        assert think_gaps(np.array(draws), log_keep).tolist() == expected

    def test_draws_where_numpy_and_libm_disagree(self):
        """Where numpy's ``log`` and ``math.log`` differ in the last bit,
        choose ``log_keep`` to put the libm quotient on an integer: a
        plain ``np.log`` gap is then off by one at many of these draws."""
        _, unit = draw_block(DeterministicRng(0), 0, 20_000)
        logs = np.log(1.0 - unit).tolist()
        for u, np_log in zip(unit.tolist(), logs):
            if np_log == math.log(1.0 - u):
                continue
            for k in (2, 3, 5, 7):
                log_keep = math.log(1.0 - u) / k
                expected = max(1, math.ceil(math.log(1.0 - u) / log_keep))
                assert think_gaps(np.array([u]), log_keep).tolist() == [expected]

    def test_zero_draw_gives_one(self):
        assert think_gaps(np.array([0.0]), math.log(0.5)).tolist() == [1]
