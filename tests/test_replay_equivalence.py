"""The equivalence oracle for the shipped replay engines.

``Machine.run`` replays every trace through the whole-trace kernel or,
where the kernel cannot reproduce it, the batched per-line loop;
``MulticoreMachine.run``/``run_segmented`` step finalized per-line
arrays.  Both are performance engineering only: on the same trace they
must produce *bit-for-bit* the :class:`RunResult` (every counter, every
cache/memory stats snapshot, every latency histogram bucket) and the
simulator end state of the per-access reference replay in
``tests/reference_replay.py``.  These tests enforce that on every query
of the SQL benchmark suite (scale from ``REPRO_BENCH_SCALE``, default
0.05) for every figure system, and on the multicore OLXP mix.
"""

import os

import pytest

from reference_replay import run_multicore_precise, run_precise
from repro.harness.systems import build_system
from repro.workloads.queries import QUERIES, SQL_BENCHMARK_IDS
from repro.workloads.suite import build_benchmark_database

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
SYSTEMS = ("RC-NVM", "RRAM", "GS-DRAM", "DRAM")


def _query_traces(db, qids=SQL_BENCHMARK_IDS):
    for qid in qids:
        spec = QUERIES[qid]
        plan = db.plan(
            spec.sql, params=spec.params, selectivity_hint=spec.selectivity_hint
        )
        _result, buffer = db.executor.execute(plan)
        yield qid, buffer


@pytest.fixture(scope="module", params=SYSTEMS)
def suite(request):
    """``(system_name, db, [(qid, buffer), ...])`` for one figure system,
    shared by the single-core tests below."""
    db = build_benchmark_database(build_system(request.param), scale=SCALE)
    return request.param, db, list(_query_traces(db))


def test_batched_replay_is_bit_for_bit(suite):
    """The batched loop against the per-access reference, on every suite
    query: same ``RunResult`` and same simulator end state."""
    system_name, db, traces = suite
    db.machine.replay_mode = "batched"
    for qid, buffer in traces:
        db.reset_timing()
        reference = run_precise(db.machine, buffer.to_accesses())
        reference_state = _simulator_state(db)
        db.reset_timing()
        batched = db.machine.run(buffer)
        assert reference == batched, (system_name, qid)
        assert reference_state == _simulator_state(db), (system_name, qid)


def test_kernel_replay_is_bit_for_bit(suite):
    """The default engine (kernel, batched where it falls back) must match
    the batched loop, and thereby the reference, bit for bit on every
    suite query — including the simulator end state it leaves behind,
    which downstream reporting reads."""
    system_name, db, traces = suite
    for qid, buffer in traces:
        db.reset_timing()
        db.machine.replay_mode = "batched"
        batched = db.machine.run(buffer)
        batched_state = _simulator_state(db)
        db.reset_timing()
        db.machine.replay_mode = "kernel"
        kernel = db.machine.run(buffer)
        kernel_state = _simulator_state(db)
        assert batched == kernel, (system_name, qid)
        assert batched_state == kernel_state, (system_name, qid)


def _simulator_state(db):
    """Everything a replay leaves behind: the contents of every non-empty
    cache set in LRU order with line flags, per-level stats, synonym
    counters, pending writebacks, controller stats and bank state."""
    hierarchy = db.machine.hierarchy
    state = []
    for level in hierarchy.levels:
        state.append(level.stats.snapshot())
        state.append([
            (index, [(key, line.dirty, line.pinned, line.crossing)
                     for key, line in cache_set.items()])
            for index, cache_set in enumerate(level.sets) if cache_set
        ])
    state.append(list(hierarchy._counts))
    state.append(list(hierarchy.pending_writebacks))
    if hierarchy.synonym is not None:
        state.append(hierarchy.synonym.stats.snapshot())
    for ctrl in db.memory.controllers:
        state.append(ctrl.stats.snapshot())
        state.append(ctrl.bus_free)
        for bank in ctrl.banks:
            state.append((
                bank.open_kind, bank.open_subarray, bank.open_index,
                bank.open_entry, bank.ready_at, bank.activated_at,
                bank.accesses, bank.activations,
            ))
    return state


@pytest.mark.parametrize("system_name", ("RC-NVM", "DRAM"))
def test_multicore_batched_replay_is_bit_for_bit(system_name):
    """``run`` (over buffers, finalized traces and plain ``Access``
    lists) and ``run_segmented`` with one segment per core must match
    the per-access reference heap driver."""
    from repro.cpu.multicore import MulticoreMachine
    from repro.harness.multicore import DEFAULT_CORE_MIX, build_core_traces

    memory = build_system(system_name)
    db = build_benchmark_database(memory, scale=SCALE)
    buffers = build_core_traces(db, DEFAULT_CORE_MIX)
    lists = [buffer.to_accesses() for buffer in buffers]

    def fresh_machine():
        memory.reset()
        return MulticoreMachine(memory, n_cores=len(buffers))

    reference = run_multicore_precise(fresh_machine(), lists)
    for traces in (buffers, [b.finalize() for b in buffers], lists):
        assert fresh_machine().run(traces) == reference, system_name
    segmented = fresh_machine().run_segmented(
        [[(buffer, buffer.stream, core)] for core, buffer in enumerate(buffers)]
    )
    assert set(segmented.segment_ends) == set(range(len(buffers)))
    segmented.segment_ends.clear()
    assert segmented == reference, system_name
