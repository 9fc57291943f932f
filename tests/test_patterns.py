"""Unit tests for the workload pattern emitters.

The think gap and the private hot-set reference are written inline by the
generator; their tests live with the generator's in ``test_workloads``.
"""

from repro.cpu.trace import OP_BARRIER, OP_LOAD, OP_RMW, OP_STORE, TraceChunk
from repro.engine.rng import DeterministicRng
from repro.workloads.layout import AddressLayout, LOCK_BASE, SHARED_BASE
from repro.workloads.patterns import (
    emit_barrier_episode,
    emit_lock_section,
    emit_migratory_access,
    emit_shared_access,
    emit_streaming_access,
)


def make():
    return TraceChunk(), DeterministicRng(7), AddressLayout(16)


class TestStreaming:
    def test_cursor_advances_one_line_per_access(self):
        ops, _rng, layout = make()
        cursor = [0]
        emit_streaming_access(ops, layout, 0, cursor, region_lines=100)
        emit_streaming_access(ops, layout, 0, cursor, region_lines=100)
        assert cursor[0] == 2
        assert ops[1].address - ops[0].address == 64

    def test_wraps_at_region_end(self):
        ops, _rng, layout = make()
        cursor = [99]
        emit_streaming_access(ops, layout, 0, cursor, region_lines=100)
        emit_streaming_access(ops, layout, 0, cursor, region_lines=100)
        assert ops[1].address == layout.private_cold(0, 0)

    def test_streaming_loads_are_non_blocking(self):
        ops, _rng, layout = make()
        emit_streaming_access(ops, layout, 0, [0], region_lines=10)
        assert not ops[0].blocking


class TestSharedAccess:
    def test_burst_emits_requested_count(self):
        ops, rng, layout = make()
        count = emit_shared_access(
            ops, rng, layout, core=0, group_size=8, shared_words=16,
            write_fraction=0.0, burst=4,
        )
        assert count == 4
        assert len(ops) == 4
        assert len({op.address for op in ops}) == 1  # same word re-touched

    def test_at_most_one_write_per_visit(self):
        ops, rng, layout = make()
        visits = 40
        for _ in range(visits):
            burst_ops = TraceChunk()
            emit_shared_access(
                burst_ops, rng, layout, core=0, group_size=8, shared_words=16,
                write_fraction=1.0, burst=3,
            )
            stores_in_visit = sum(1 for op in burst_ops if op.kind == OP_STORE)
            assert stores_in_visit <= 1
            ops.extend(burst_ops)
        # The effective write fraction is clamped at 0.5 even when asked
        # for 1.0, so roughly half the visits write.
        total_stores = sum(1 for op in ops if op.kind == OP_STORE)
        assert 0 < total_stores < visits

    def test_group_write_scaling(self):
        """Wider groups write less often per visit (8/size scaling)."""
        rng_a, rng_b = DeterministicRng(3), DeterministicRng(3)
        layout = AddressLayout(64)
        narrow, wide = TraceChunk(), TraceChunk()
        for _ in range(400):
            emit_shared_access(narrow, rng_a, layout, 0, 8, 16, 0.2, burst=1)
            emit_shared_access(wide, rng_b, layout, 0, 64, 16, 0.2, burst=1)
        narrow_writes = sum(1 for op in narrow if op.kind == OP_STORE)
        wide_writes = sum(1 for op in wide if op.kind == OP_STORE)
        assert wide_writes < narrow_writes

    def test_addresses_in_shared_region(self):
        ops, rng, layout = make()
        emit_shared_access(ops, rng, layout, 0, 8, 16, 0.5, burst=2)
        assert all(op.address >= SHARED_BASE for op in ops)


class TestMigratory:
    def test_read_then_write_pair(self):
        ops, rng, layout = make()
        emit_migratory_access(ops, rng, layout, core=0, token=5, shared_words=8)
        assert [op.kind for op in ops] == [OP_LOAD, OP_STORE]
        assert ops[0].address == ops[1].address


class TestLockSection:
    def test_structure_spins_rmw_critical_release(self):
        ops, rng, layout = make()
        emit_lock_section(ops, rng, layout, lock_id=2, spin_reads=3, critical_ops=4)
        kinds = [op.kind for op in ops]
        assert kinds[:3] == [OP_LOAD] * 3          # spins
        assert kinds[3] == OP_RMW                   # acquire
        assert kinds[-1] == OP_STORE                # release
        assert len(ops) == 3 + 1 + 4 + 1

    def test_critical_data_on_separate_line(self):
        ops, rng, layout = make()
        emit_lock_section(ops, rng, layout, lock_id=0, spin_reads=1, critical_ops=4)
        lock_line = layout.lock(0) // 64
        for op in ops[2:-1]:  # the critical-section accesses
            assert op.address // 64 != lock_line

    def test_lock_addresses_in_lock_region(self):
        ops, rng, layout = make()
        emit_lock_section(ops, rng, layout, lock_id=3, spin_reads=2, critical_ops=1)
        assert all(op.address >= LOCK_BASE for op in ops)


class TestBarrierEpisode:
    def test_rmw_spins_then_alignment(self):
        ops, _rng, layout = make()
        emit_barrier_episode(ops, layout, phase=2, spin_reads=3)
        kinds = [op.kind for op in ops]
        assert kinds[0] == OP_RMW
        assert kinds[1:4] == [OP_LOAD] * 3
        assert kinds[4] == OP_BARRIER
        assert ops[4].arg == 2

    def test_distinct_phases_use_distinct_lines(self):
        ops, _rng, layout = make()
        emit_barrier_episode(ops, layout, phase=0, spin_reads=0)
        emit_barrier_episode(ops, layout, phase=1, spin_reads=0)
        assert ops[0].address // 64 != ops[2].address // 64
