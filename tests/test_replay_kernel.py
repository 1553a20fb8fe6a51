"""Unit tests for the whole-trace replay kernel (repro.cpu.replaykernel).

Bit-for-bit equivalence against the batched path over the full SQL suite
lives in ``tests/test_replay_equivalence.py``; these tests pin the
supporting machinery — the replay-mode hook, the eligibility gate's fallback
decisions, and the end-state reconstruction on a small system.
"""

import pytest

from repro.cpu.machine import REPLAY_MODES, Machine
from repro.cpu.replaykernel import (
    has_write_after_read,
    kernel_eligible,
    kernel_ineligibility,
)
from repro.cpu.trace import Op
from repro.cpu.tracebuffer import TraceBuffer
from repro.errors import ConfigurationError
from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.imdb.database import Database
from repro.obs import tracer as obs


def _small_db(system="RC-NVM", rows=32):
    # 32 rows keeps the trace's unique lines within the small LLC's
    # associativity, so pure-read traces stay kernel-eligible.
    memory = build_system(system, small=True)
    db = Database(memory, cache_config=SMALL_CACHE_CONFIG)
    db.create_table("t", [("f1", 8), ("f2", 8)], layout="row")
    db.insert_many("t", [(i, i * 3) for i in range(rows)])
    return db


def test_llc_set_overflow_falls_back():
    # More distinct lines than LLC ways in one set would make the
    # inclusive LLC evict (and back-invalidate), which the flat cache
    # model does not track.
    db = _small_db(rows=64)
    fin = _read_trace(db).finalize()
    db.reset_timing()
    assert kernel_ineligibility(db.machine, fin) == "llc-overflow"


def _read_trace(db, sql="SELECT SUM(f2) FROM t WHERE f1 > x"):
    plan = db.plan(sql, params={"x": 10})
    _result, buffer = db.executor.execute(plan)
    return buffer


class TestModeSelection:
    def test_replay_modes_constant(self):
        assert REPLAY_MODES == ("batched", "kernel")

    def test_invalid_mode_raises(self):
        db = _small_db()
        machine = Machine(db.memory, db.hierarchy)
        assert machine.replay_mode == "kernel"  # the default
        for mode in ("vectorized", "precise"):
            with pytest.raises(ValueError):
                machine.replay_mode = mode
            assert machine.replay_mode == "kernel"

    def test_database_threads_mode_through_reset_timing(self):
        db = _small_db("DRAM")
        assert db.machine.replay_mode == "kernel"  # the default
        db.machine.replay_mode = "batched"
        db.reset_timing()  # reuses the machine and leaves its mode alone
        assert db.machine.replay_mode == "batched"
        with obs.tracing():
            spans = db.execute("SELECT SUM(f2) FROM t").timing.spans
        run = next(c for c in spans["children"] if c["name"] == "machine.run")
        assert run["metrics"]["replay"] == "batched"
        assert db.machine.replay_mode == "batched"

    def test_invalid_mode_raises_on_reused_machine(self):
        db = _small_db()
        machine = db.machine
        db.reset_timing()
        assert db.machine is machine
        with pytest.raises(ValueError):
            db.machine.replay_mode = "vectorized"
        assert db.machine.replay_mode == "kernel"

    def test_database_takes_no_replay_mode(self):
        with pytest.raises(TypeError):
            Database(build_system("DRAM", small=True), replay_mode="kernel")

    def test_access_list_replays_like_its_buffer(self):
        """A plain ``Access`` list is converted at ``Machine.run``'s
        boundary and replays exactly like the buffer it came from."""
        db = _small_db()
        buffer = _read_trace(db)
        db.reset_timing()
        expected = db.machine.run(buffer)
        db.reset_timing()
        assert db.machine.run(buffer.to_accesses()) == expected


class TestEligibility:
    def test_pure_read_trace_is_eligible(self):
        db = _small_db()
        fin = _read_trace(db).finalize()
        db.reset_timing()
        assert kernel_eligible(db.machine, fin)

    def test_writes_fall_back(self):
        db = _small_db()
        plan = db.plan("UPDATE t SET f2 = 7 WHERE f1 > x", params={"x": 20})
        _result, buffer = db.executor.execute(plan)
        fin = buffer.finalize()
        assert fin.n_writes > 0
        db.reset_timing()
        assert kernel_ineligibility(db.machine, fin) == "writes"

    def test_empty_trace_falls_back(self):
        db = _small_db()
        db.reset_timing()
        assert kernel_ineligibility(
            db.machine, TraceBuffer().finalize()
        ) == "empty"

    def test_dirty_simulator_state_falls_back(self):
        db = _small_db()
        fin = _read_trace(db).finalize()
        db.reset_timing()
        db.machine.run(fin)  # leaves warm caches and touched banks
        assert kernel_ineligibility(db.machine, fin) == "not-pristine"

    def test_shallow_queue_falls_back(self):
        # queue_depth <= window could force overflow-driven early
        # scheduling, which the flat loop does not model.
        memory = build_system("RC-NVM", small=True, queue_depth=4)
        db = Database(memory, cache_config=SMALL_CACHE_CONFIG, window=8)
        db.create_table("t", [("f1", 8), ("f2", 8)], layout="row")
        db.insert_many("t", [(i, i) for i in range(32)])
        fin = _read_trace(db).finalize()
        db.reset_timing()
        assert kernel_ineligibility(db.machine, fin) == "scheduler"

    def test_closed_page_policy_falls_back(self):
        memory = build_system("RC-NVM", small=True, page_policy="closed")
        db = Database(memory, cache_config=SMALL_CACHE_CONFIG)
        db.create_table("t", [("f1", 8), ("f2", 8)], layout="row")
        db.insert_many("t", [(i, i) for i in range(32)])
        fin = _read_trace(db).finalize()
        db.reset_timing()
        assert kernel_ineligibility(db.machine, fin) == "scheduler"

    def test_mixed_orientation_with_synonym_falls_back(self):
        # RC-NVM arms a synonym tracker; a trace mixing row and column
        # lines could charge crossing cycles the flat model skips.
        db = _small_db("RC-NVM")
        buffer = TraceBuffer()
        buffer.emit(int(Op.READ), 0x0, 64, 1)
        buffer.emit(int(Op.CREAD), 0x40, 64, 1)
        fin = buffer.finalize()
        db.reset_timing()
        assert kernel_ineligibility(db.machine, fin) == "mixed-orientation"

    def test_fallback_still_replays_correctly(self):
        db = _small_db()
        plan = db.plan("UPDATE t SET f2 = 9 WHERE f1 > x", params={"x": 20})
        _result, buffer = db.executor.execute(plan)
        db.reset_timing()
        db.machine.replay_mode = "batched"
        batched = db.machine.run(buffer)
        db.reset_timing()
        db.machine.replay_mode = "kernel"
        assert db.machine.run(buffer) == batched


class TestEndState:
    def test_kernel_leaves_identical_simulator_state(self):
        db = _small_db()
        buffer = _read_trace(db)
        db.reset_timing()
        db.machine.replay_mode = "batched"
        db.machine.run(buffer)
        expected = self._state(db)
        db.reset_timing()
        db.machine.replay_mode = "kernel"
        db.machine.run(buffer)
        assert self._state(db) == expected

    def test_repeat_replay_reuses_memoized_columns(self):
        db = _small_db()
        fin = _read_trace(db).finalize()
        db.reset_timing()
        first = db.machine.run(fin)
        assert "static" in fin._kernel_cache
        assert db.memory.mapper in fin._kernel_cache
        db.reset_timing()
        assert db.machine.run(fin) == first

    @staticmethod
    def _state(db):
        hierarchy = db.machine.hierarchy
        state = [list(hierarchy._counts)]
        for level in hierarchy.levels:
            state.append(level.stats.snapshot())
            state.append([list(s.keys()) for s in level.sets])
        for ctrl in db.memory.controllers:
            state.append(ctrl.stats.snapshot())
            state.append(ctrl.bus_free)
            state.extend(
                (bank.open_entry, bank.ready_at, bank.activated_at,
                 bank.accesses, bank.activations)
                for bank in ctrl.banks
            )
        return state


class TestWriteAfterReadHazard:
    """The stale-flat-state hazard gate (``has_write_after_read``).

    The kernel replays reads against a flat snapshot of line state; a
    write to a line the trace already read would leave later flat reads
    seeing pre-write state.  Today the pure-read shape check already
    rejects every write, but the hazard gate is what keeps a future
    write-trace widening from silently replaying read-write-read lines
    wrong — so its semantics are pinned here.
    """

    def test_read_then_write_same_line_is_flagged(self):
        buffer = TraceBuffer()
        buffer.emit(int(Op.READ), 0x0, 64, 1)
        buffer.emit(int(Op.WRITE), 0x0, 64, 1)
        assert has_write_after_read(buffer.finalize())

    def test_write_then_read_same_line_is_not_flagged(self):
        buffer = TraceBuffer()
        buffer.emit(int(Op.WRITE), 0x0, 64, 1)
        buffer.emit(int(Op.READ), 0x0, 64, 1)
        assert not has_write_after_read(buffer.finalize())

    def test_disjoint_lines_are_not_flagged(self):
        buffer = TraceBuffer()
        buffer.emit(int(Op.READ), 0x0, 64, 1)
        buffer.emit(int(Op.WRITE), 0x40, 64, 1)
        assert not has_write_after_read(buffer.finalize())

    def test_pure_traces_are_not_flagged(self):
        reads = TraceBuffer()
        reads.emit(int(Op.READ), 0x0, 64, 1)
        reads.emit(int(Op.READ), 0x40, 64, 1)
        assert not has_write_after_read(reads.finalize())
        writes = TraceBuffer()
        writes.emit(int(Op.WRITE), 0x0, 64, 1)
        writes.emit(int(Op.WRITE), 0x0, 64, 1)
        assert not has_write_after_read(writes.finalize())

    def test_verdict_is_memoized_per_finalized_trace(self):
        buffer = TraceBuffer()
        buffer.emit(int(Op.READ), 0x0, 64, 1)
        buffer.emit(int(Op.WRITE), 0x0, 64, 1)
        fin = buffer.finalize()
        assert has_write_after_read(fin)
        assert fin._kernel_cache["write_after_read"] is True

    def test_mixed_trace_rejected_and_fallback_matches_batched(self):
        # The full seam: a write-after-same-line-read trace must be
        # rejected by the eligibility gate, and the kernel-mode machine
        # must fall back to a replay identical to the batched path.
        db = _small_db()
        buffer = TraceBuffer()
        buffer.emit(int(Op.READ), 0x0, 64, 1)
        buffer.emit(int(Op.WRITE), 0x0, 64, 1)
        buffer.emit(int(Op.READ), 0x40, 64, 1)
        fin = buffer.finalize()
        assert has_write_after_read(fin)
        db.reset_timing()
        assert kernel_ineligibility(db.machine, fin) == "writes"
        db.machine.replay_mode = "batched"
        batched = db.machine.run(buffer)
        db.reset_timing()
        db.machine.replay_mode = "kernel"
        assert db.machine.run(buffer) == batched
