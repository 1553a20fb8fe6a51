"""Tracing overhead: disabled spans must not slow the batched replay path.

The span hook's disabled cost is one module-global read plus a no-op
context manager, exercised O(1) times per ``Machine.run`` — never per
access.  This benchmark replays the same workload the committed CI
baseline records (the Figure 18 SQL suite over all four systems, via
``repro.harness.perfbench``'s own generator) with tracing disabled and
enabled, interleaved best-of-N in one process (alternating which side
runs first each round), and requires:

* enabling tracing changes batched-replay accesses/sec by < 2% (the
  per-query span cost is constant, so over a thousands-of-accesses
  replay it is noise) — which bounds the *disabled* path's overhead from
  above, since disabled does strictly less work than enabled.  The
  measurement is retried over a few independent trials and judged on the
  best observed overhead: a genuine per-access slowdown fails every
  trial, while a scheduler hiccup cannot fail all of them;
* the disabled-path rate clears the committed floor in
  ``benchmarks/bench_baseline.json`` (recorded before the span layer
  existed) under the same 25% allowance ``check_regression`` applies in
  CI, so instrumentation cannot silently regress the pipeline between
  baseline refreshes.
"""

import json
import pathlib

import pytest

from repro.harness.perfbench import _generate, _replay_round
from repro.obs import tracer as obs

BASELINE = (pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks" / "bench_baseline.json")
SCALE = 0.05
ROUNDS = 8
TRIALS = 3
MAX_OVERHEAD = 0.02
#: Same allowance check_regression's CI gate uses against this baseline.
MAX_BASELINE_REGRESSION = 0.25


@pytest.fixture(scope="module")
def workload():
    from repro.harness.experiment import FIGURE_SYSTEMS, SQL_BENCHMARK_IDS

    work, _gen_seconds, n_accesses = _generate(
        FIGURE_SYSTEMS, SQL_BENCHMARK_IDS, SCALE
    )
    buffers = [buffer for _db, _qid, buffer in work]
    return work, buffers, n_accesses


def _trial(work, rounds=ROUNDS):
    """One interleaved best-of trial; returns (disabled_s, enabled_s).

    Which side runs first alternates round by round, so a drift in host
    speed during a round (warm-up, a neighbour's load) lands on both
    sides alike instead of always on the one that runs second."""
    assert obs.active() is None
    disabled, enabled = [], []
    for round_index in range(rounds):
        for traced in ((False, True) if round_index % 2 == 0 else (True, False)):
            if traced:
                with obs.tracing():
                    seconds, _results = _replay_round(work)
                enabled.append(seconds)
            else:
                seconds, _results = _replay_round(work)
                disabled.append(seconds)
    return min(disabled), min(enabled)


@pytest.mark.benchmark
def test_disabled_tracing_overhead_under_two_percent(workload):
    work, _buffers, n_accesses = workload
    assert n_accesses > 1000  # meaningful replay, not a toy trace
    _replay_round(work)  # warm caches and code paths

    best_overhead, best_disabled_s, observed = None, None, []
    for _ in range(TRIALS):
        disabled_s, enabled_s = _trial(work)
        overhead = max(0.0, (enabled_s - disabled_s) / disabled_s)
        observed.append(f"{overhead:.1%} ({disabled_s:.4f}s/{enabled_s:.4f}s)")
        if best_disabled_s is None or disabled_s < best_disabled_s:
            best_disabled_s = disabled_s
        if best_overhead is None or overhead < best_overhead:
            best_overhead = overhead
        if best_overhead < MAX_OVERHEAD:
            break
    assert best_overhead < MAX_OVERHEAD, (
        f"tracing overhead >= {MAX_OVERHEAD:.0%} in every trial over "
        f"{n_accesses} accesses: {', '.join(observed)}"
    )

    rate = n_accesses / best_disabled_s
    baseline = json.loads(BASELINE.read_text())
    floor = (baseline["replay_after_batched"]["accesses_per_sec"]
             * (1 - MAX_BASELINE_REGRESSION))
    assert rate >= floor, (
        f"instrumented batched replay measured {rate:.0f} accesses/sec, "
        f"below the committed pre-instrumentation floor {floor:.0f} "
        f"(see {BASELINE})"
    )


@pytest.mark.benchmark
def test_enabled_tracing_span_count_is_per_run_constant(workload):
    """The structural half of the overhead claim: a traced replay
    creates exactly two spans per Machine.run (machine.run +
    controller.drain), independent of trace length."""
    work, buffers, _n_accesses = workload
    with obs.tracing() as tracer:
        _seconds, _results = _replay_round(work)
    assert len(tracer.roots) == len(buffers)
    for root in tracer.roots:
        assert [s.name for s in root.walk()] == ["machine.run", "controller.drain"]
