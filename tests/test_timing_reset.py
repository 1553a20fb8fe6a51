"""Per-statement timing reset and the default replay engine.

``Database.reset_timing`` builds the cache stack and ``Machine`` once and
then clears them in place, so a reset costs what the previous statement
touched.  These tests pin that a reused stack is indistinguishable from
a freshly built one — same ``RunResult``, same simulator end state — on
every figure system and both trace replay engines, and that the default
kernel replay falls back to the batched loop exactly where the kernel
cannot reproduce a trace, with the reason recorded on the span.
"""

import os

import pytest

from repro.cache.stats import CacheStats, SynonymStats
from repro.harness.systems import build_system
from repro.obs import tracer as obs
from repro.workloads.queries import QUERIES, SQL_BENCHMARK_IDS
from repro.workloads.suite import build_benchmark_database
from test_replay_equivalence import _simulator_state

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
SYSTEMS = ("RC-NVM", "RRAM", "GS-DRAM", "DRAM")
#: Consecutive pairs (A, B) of this chain are checked: row and column
#: scans, a mixed-orientation plan (Q2), gathers, point lookups and the
#: two UPDATEs, wrapping round so a write statement precedes a read.
CHAIN = ("Q1", "Q2", "Q3", "Q4", "Q6", "Q10", "Q12", "Q13", "Q1")


def _execute(db, qid, **kwargs):
    spec = QUERIES[qid]
    return db.execute(
        spec.sql, params=spec.params, selectivity_hint=spec.selectivity_hint,
        **kwargs,
    )


@pytest.mark.parametrize("mode", ("batched", "kernel"))
@pytest.mark.parametrize("system_name", SYSTEMS)
def test_reused_timing_state_matches_fresh_database(system_name, mode):
    reused = build_benchmark_database(build_system(system_name), scale=SCALE)
    reused.machine.replay_mode = mode  # survives every reset
    _execute(reused, CHAIN[0])
    for position, qid in enumerate(CHAIN[1:], start=1):
        timing = _execute(reused, qid).timing
        fresh = build_benchmark_database(build_system(system_name), scale=SCALE)
        fresh.machine.replay_mode = mode
        for earlier in CHAIN[:position]:
            # Same data as the reused database (UPDATEs change it), but
            # the timing state is never touched.
            _execute(fresh, earlier, simulate=False)
        expected = _execute(fresh, qid).timing
        pair = (system_name, mode, CHAIN[position - 1], qid)
        assert timing == expected, pair
        assert _simulator_state(reused) == _simulator_state(fresh), pair


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_reset_clears_in_place(system_name):
    db = build_benchmark_database(build_system(system_name), scale=SCALE)
    hierarchy, machine = db.hierarchy, db.machine
    for qid in ("Q2", "Q13"):
        _execute(db, qid)
        db.reset_timing()
        assert db.hierarchy is hierarchy
        assert db.machine is machine
        assert machine.hierarchy is hierarchy
        for level in hierarchy.levels:
            assert level.occupancy() == 0, level.name
            assert level.stats == CacheStats(), level.name
        assert hierarchy._counts == [0, 0, 0]
        assert hierarchy.pending_writebacks == []
        assert hierarchy.check_invariants() == []
        if hierarchy.synonym is not None:
            assert hierarchy.synonym.stats == SynonymStats()


def test_reset_rereads_window():
    """``db.window`` set after construction governs the next statement,
    as it did when every reset built a new ``Machine``."""
    db = build_benchmark_database(build_system("RC-NVM"), scale=SCALE)
    cycles = {}
    for window in (8, 1, 8):
        db.window = window
        timing = _execute(db, "Q4").timing
        assert db.machine.window == window
        cycles.setdefault(window, timing.cycles)
        assert timing.cycles == cycles[window], window
    assert cycles[1] > 1.3 * cycles[8]


@pytest.mark.parametrize("system_name", ("RC-NVM", "DRAM"))
def test_warm_statement_keeps_previous_state(system_name):
    db = build_benchmark_database(build_system(system_name), scale=SCALE)
    cold = _execute(db, "Q1").timing
    warm = _execute(db, "Q1", fresh_timing=False).timing
    assert warm.llc_misses < cold.llc_misses
    # Level stats accumulate across the two statements.
    assert warm.caches["L1"]["accesses"] > cold.caches["L1"]["accesses"]
    assert warm.caches["L3"]["misses"] >= cold.caches["L3"]["misses"]


def test_kernel_fallback_reasons_on_suite():
    """At scale 0.1 the kernel takes every suite statement except RC-NVM's
    mixed-orientation Q2 and the Q13 UPDATE on both systems."""
    fallbacks = {}
    with obs.tracing():
        for system_name in ("RC-NVM", "DRAM"):
            db = build_benchmark_database(build_system(system_name), scale=0.1)
            for qid in SQL_BENCHMARK_IDS:
                spans = _execute(db, qid).timing.spans
                run = next(
                    child for child in spans["children"]
                    if child["name"] == "machine.run"
                )
                reason = run["metrics"]["kernel_fallback"]
                replay = run["metrics"]["replay"]
                assert replay == ("batched" if reason else "kernel")
                if reason is not None:
                    fallbacks[(system_name, qid)] = reason
    assert fallbacks == {
        ("RC-NVM", "Q2"): "mixed-orientation",
        ("RC-NVM", "Q13"): "writes",
        ("DRAM", "Q13"): "writes",
    }
