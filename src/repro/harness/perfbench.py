"""Self-benchmarking harness for the vectorized trace pipeline.

Measures, on the Figure 18 SQL workload, the costs the
structure-of-arrays trace pipeline targets:

* **trace generation** — planner + executor producing
  :class:`~repro.cpu.tracebuffer.TraceBuffer` traces;
* **replay, batched path** — ``Machine.run`` over those buffers with
  ``machine.replay_mode = "batched"``, the interpreted per-line loop
  (the kernel's shipped fallback);
* **replay, kernel path** — the same buffers under the default
  ``"kernel"`` mode, the compiled whole-trace replay core.

The two replay paths are timed interleaved in the same process, so the
reported rates are insensitive to machine load, and every query's
:class:`RunResult` is compared field-for-field between them — the
in-bench equivalence oracle (the per-access reference replay they both
must match lives in the test suite, ``tests/test_replay_equivalence.py``).
A run aborts with nonzero mismatches rather than reporting a throughput
for a replay that changed the simulation.

Two serving-path sections ride along: **template serving** repeats the
suite through the plan/trace template cache (round 0 misses and stores;
the measured rounds must hit) and reports the hit rate and served
statement/access rates, and the **rebind microbenchmark** times the
parameter-rebind path (cached trace reused, result recomputed) in
microseconds per rebind.

A **multi-tenant serving scenario** (``repro.serving``) rides along
too: four mixed-arrival tenants interleaved across a multicore machine,
reporting wall-clock statements/sec plus deterministic simulated-cycle
metrics — fairness (max/min tenant throughput) and the per-stream
row-buffer hit-rate delta against a global-FIFO baseline — which the
regression gate fences when the committed baseline records limits.

A **write-path scenario** (``repro.harness.wear``) compares write
coalescing + read-around-write against the knobs-off controller on the
write-heavy mix, reporting the NVM write-pulse reduction and the read
p99 ratio — both deterministic and fenced when the committed baseline
records limits.

Also reported: per-access memory of both trace representations (the
``__slots__``-objects list vs the NumPy columns) and the process's peak
RSS.  Results are written as JSON (``BENCH_trace_pipeline.json``); see
``python -m repro.harness.perfbench --help`` or the ``bench``
experiment of ``rcnvm-experiments`` (``--bench-out``).

A committed baseline (``benchmarks/bench_baseline.json``) plus
``--baseline/--max-regression`` turn the harness into a CI smoke gate
on replay and trace-generation accesses/sec.
"""

import argparse
import json
import platform
import resource
import sys
import time
import tracemalloc

from repro.harness.experiment import FIGURE_SYSTEMS, SQL_BENCHMARK_IDS
from repro.harness.systems import build_system
from repro.workloads.queries import QUERIES
from repro.workloads.suite import build_benchmark_database

DEFAULT_OUT = "BENCH_trace_pipeline.json"


def _generate(systems, qids, scale, sched_kwargs=None):
    """Build one database per system and generate every query's trace.

    Returns ``(work, gen_seconds, n_accesses)`` where ``work`` is a list
    of ``(db, qid, buffer)`` entries; only planner+executor time counts
    toward ``gen_seconds`` (database load is setup, not pipeline cost).
    """
    work = []
    gen_seconds = 0.0
    n_accesses = 0
    for system_name in systems:
        memory = build_system(system_name, **(sched_kwargs or {}))
        db = build_benchmark_database(memory, scale=scale)
        for qid in qids:
            spec = QUERIES[qid]
            start = time.perf_counter()
            plan = db.plan(
                spec.sql, params=spec.params, selectivity_hint=spec.selectivity_hint
            )
            _result, buffer = db.executor.execute(plan)
            gen_seconds += time.perf_counter() - start
            n_accesses += len(buffer)
            work.append((db, qid, buffer))
    return work, gen_seconds, n_accesses


def _replay_round(work, mode="batched"):
    """Replay every ``work`` buffer on its database's machine under
    ``mode``; returns ``(seconds, results)`` with cache/bank state reset
    outside the timed region (reset cost is not replay cost)."""
    seconds = 0.0
    results = []
    for db, _qid, buffer in work:
        db.reset_timing()
        db.machine.replay_mode = mode
        start = time.perf_counter()
        results.append(db.machine.run(buffer))
        seconds += time.perf_counter() - start
    return seconds, results


def _measure_allocation(work):
    """Per-access bytes of both trace representations.

    The ``List[Access]`` number is measured with :mod:`tracemalloc`
    (``__slots__`` keeps it low; this is the satellite's allocation
    metric), the columnar number is the NumPy arrays' actual storage.
    """
    n = sum(len(buffer) for _db, _qid, buffer in work)
    if not n:
        return {}
    tracemalloc.start()
    before, _peak = tracemalloc.get_traced_memory()
    materialized = [list(buffer.to_accesses()) for _db, _qid, buffer in work]
    after, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    list_bytes = max(0, after - before)
    del materialized
    soa_bytes = sum(
        sum(column.nbytes for column in buffer.columns())
        for _db, _qid, buffer in work
    )
    return {
        "accesses": n,
        "list_of_access_bytes_per_access": round(list_bytes / n, 1),
        "soa_bytes_per_access": round(soa_bytes / n, 1),
    }


def _template_serving(systems, qids, scale, warmup_rounds=2,
                      measured_rounds=3, sched_kwargs=None):
    """Serve the suite repeatedly through the template cache.

    The warmup rounds reach the cache's fixed point (round 0 misses and
    stores; a data-changing UPDATE needs one more round to become
    idempotent and cacheable), then the measured rounds — where every
    statement should hit — are timed against the cold first round."""
    cold_seconds = 0.0
    warm_seconds = 0.0
    statements = 0
    accesses = 0
    totals = {"hits": 0, "misses": 0, "rebinds": 0, "invalidations": 0}
    for system_name in systems:
        memory = build_system(system_name, **(sched_kwargs or {}))
        db = build_benchmark_database(memory, scale=scale)
        db.enable_template_cache()
        stats = db.template_cache.stats
        for round_index in range(warmup_rounds + measured_rounds):
            if round_index == warmup_rounds:  # fixed point reached
                baseline = stats.snapshot()
            start = time.perf_counter()
            for qid in qids:
                spec = QUERIES[qid]
                outcome = db.execute(
                    spec.sql, params=spec.params,
                    selectivity_hint=spec.selectivity_hint,
                )
                if round_index >= warmup_rounds:
                    statements += 1
                    accesses += outcome.trace_length
            elapsed = time.perf_counter() - start
            if round_index == 0:
                cold_seconds += elapsed
            elif round_index >= warmup_rounds:
                warm_seconds += elapsed
        snap = stats.snapshot()
        for field_name in totals:
            totals[field_name] += snap[field_name] - baseline[field_name]
    lookups = totals["hits"] + totals["misses"] + totals["rebinds"]
    return {
        "warmup_rounds": warmup_rounds,
        "measured_rounds": measured_rounds,
        "statements": statements,
        **totals,
        "hit_rate": round(totals["hits"] / lookups, 4) if lookups else None,
        "cold_round_seconds": round(cold_seconds, 4),
        "measured_seconds": round(warm_seconds, 4),
        "statements_per_sec": round(statements / warm_seconds)
        if warm_seconds else None,
        "served_accesses_per_sec": round(accesses / warm_seconds)
        if warm_seconds else None,
        "speedup_vs_cold": round(
            (cold_seconds * measured_rounds) / warm_seconds, 2
        ) if warm_seconds else None,
    }


def _rebind_microbench(scale, n=16, system="RC-NVM", sched_kwargs=None):
    """Time the parameter-rebind path: one seeded binding, then ``n``
    executions of the same aggregate template with fresh constants.
    Only the functional recompute is timed (``rebind_ns``); replay is
    skipped (``simulate=False``) — rebind cost is a planner/executor
    metric, not a replay one."""
    memory = build_system(system, **(sched_kwargs or {}))
    db = build_benchmark_database(memory, scale=scale)
    db.enable_template_cache()
    spec = QUERIES["Q7"]  # full-column AVG: rebind-safe by construction
    for step in range(n + 1):
        db.execute(
            spec.sql, params={"x": spec.params["x"] + step},
            selectivity_hint=spec.selectivity_hint, simulate=False,
        )
    stats = db.template_cache.stats
    return {
        "statements": n + 1,
        "rebinds": stats.rebinds,
        "avg_us_per_rebind": round(stats.rebind_ns / stats.rebinds / 1000, 2)
        if stats.rebinds else None,
    }


def _multi_tenant_serving(scale, sched_kwargs=None):
    """The multi-tenant serving scenario (``repro.serving``).

    Four mixed-arrival tenants on the small geometry, with the
    global-FIFO baseline comparison.  The simulated-cycle metrics
    (fairness, per-stream hit-rate delta vs FIFO) are deterministic and
    gateable; the wall-clock statements/sec measures front-end overhead.
    """
    from repro.harness.serve import run_serving

    start = time.perf_counter()
    result = run_serving(
        scale=min(scale, 0.05), n_tenants=4, mean_gap=10_000,
        n_statements=4, small=True, seed=0, sched_kwargs=sched_kwargs,
    )
    elapsed = time.perf_counter() - start
    report = result["report"]
    statements = report["statements"]
    return {
        "tenants": len(report["tenants"]),
        "statements": statements,
        "shed": report["shed"],
        "makespan_cycles": report["makespan"],
        "fairness": round(report["fairness"], 4),
        "stream_hit_rate": round(result["stream_hit_rate"], 4),
        "fifo_hit_rate": round(result["baseline"]["stream_hit_rate"], 4),
        "hit_rate_delta": round(result["hit_rate_delta"], 4),
        "wall_seconds": round(elapsed, 4),
        "statements_per_sec": round(statements / elapsed) if elapsed else None,
    }


def _tiering_scenario(scale, sched_kwargs=None):
    """The hybrid-tier scenario (``repro.harness.tiering``).

    Small geometry, mixed OLXP workload, DRAM capacity large enough to
    admit the hot table.  The fenced metrics — aggregate hit-rate delta
    over untiered RC-NVM and the promotion count — are simulated-cycle
    quantities, fully deterministic.
    """
    from repro.harness.tiering import run_tier

    start = time.perf_counter()
    result = run_tier(
        dram_fraction=0.5, workload="mixed", scale=min(scale, 0.05),
        rounds=5, small=True, sched_kwargs=sched_kwargs,
    )
    elapsed = time.perf_counter() - start
    migration = result["tiered"]["migration"]
    return {
        "statements": result["config"]["statements"],
        "dram_fraction": result["config"]["dram_fraction"],
        "aggregate_hit_rate": round(result["tiered"]["aggregate_hit_rate"], 4),
        "baseline_hit_rate": round(result["baseline"]["aggregate_hit_rate"], 4),
        "hit_rate_delta": round(result["hit_rate_delta"], 4),
        "promotions": migration["promotions"],
        "demotions": migration["demotions"],
        "migrated_cells": migration["migrated_cells"],
        "consistency_problems": result["consistency_problems"],
        "wall_seconds": round(elapsed, 4),
    }


def _write_path_scenario(scale, sched_kwargs=None):
    """The write-asymmetry scenario (``repro.harness.wear``).

    Two cells of the wear ablation — knobs off vs coalescing +
    read-around-write — on the small write-heavy workload.  The fenced
    metrics (write-pulse reduction, read p99 ratio) are simulated-cycle
    quantities, fully deterministic.
    """
    from repro.harness.wear import run_wear_cell

    start = time.perf_counter()
    base = run_wear_cell(scale=min(scale, 0.05), rounds=5, small=True,
                         sched_kwargs=sched_kwargs)
    full = run_wear_cell(write_coalescing=True, read_around_write=True,
                         scale=min(scale, 0.05), rounds=5, small=True,
                         sched_kwargs=sched_kwargs)
    elapsed = time.perf_counter() - start
    base_p99 = base["read_p99"]
    return {
        "statements": base["statements"],
        "baseline_write_pulses": base["totals"]["write_pulses"],
        "write_pulses": full["totals"]["write_pulses"],
        "write_pulse_reduction": (
            base["totals"]["write_pulses"] - full["totals"]["write_pulses"]
        ),
        "writes_coalesced": full["totals"]["writes_coalesced"],
        "read_around_writes": full["totals"]["read_around_writes"]
        + base["totals"]["read_around_writes"],
        "baseline_read_p99": base_p99,
        "read_p99": full["read_p99"],
        "read_p99_ratio": round(full["read_p99"] / base_p99, 4)
        if base_p99 else None,
        "max_wear": full["wear"]["max_wear"],
        "baseline_max_wear": base["wear"]["max_wear"],
        "wall_seconds": round(elapsed, 4),
    }


def run_perfbench(scale=0.1, systems=FIGURE_SYSTEMS, qids=SQL_BENCHMARK_IDS,
                  rounds=3, sched_kwargs=None, serving_rounds=3):
    """Run the full benchmark; returns the result dict (JSON-ready)."""
    from repro.cpu.replaykernel import kernel_eligible

    work, gen_seconds, n_accesses = _generate(systems, qids, scale, sched_kwargs)
    buffers = [buffer for _db, _qid, buffer in work]

    kernel_eligible_queries = 0
    for (db, _qid, _buffer), buffer in zip(work, buffers):
        db.reset_timing()
        if kernel_eligible(db.machine, buffer.finalize()):
            kernel_eligible_queries += 1

    # Warm both paths once (finalize caches, code paths JIT-warm in the
    # bytecode-cache sense), then time interleaved rounds and keep the
    # best of each — the fair same-conditions comparison.
    _replay_round(work, "batched")
    _replay_round(work, "kernel")
    batched_times, kernel_times = [], []
    batched_results = kernel_results = None
    for _ in range(rounds):
        seconds, batched_results = _replay_round(work, "batched")
        batched_times.append(seconds)
        seconds, kernel_results = _replay_round(work, "kernel")
        kernel_times.append(seconds)

    mismatches = [
        (db.memory.name, qid)
        for (db, qid, _buffer), batched, kernel in zip(
            work, batched_results, kernel_results
        )
        if batched != kernel
    ]

    batched_s = min(batched_times)
    kernel_s = min(kernel_times)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "meta": {
            "workload": "fig18 SQL suite",
            "scale": scale,
            "systems": list(systems),
            "queries": list(qids),
            "rounds": rounds,
            "accesses": n_accesses,
            "lines": sum(b.finalize().n_lines for b in buffers),
            "python": platform.python_version(),
        },
        "generation": {
            "seconds": round(gen_seconds, 4),
            "accesses_per_sec": round(n_accesses / gen_seconds) if gen_seconds else None,
        },
        "replay_after_batched": {
            "seconds": round(batched_s, 4),
            "accesses_per_sec": round(n_accesses / batched_s),
        },
        "replay_after_kernel": {
            "seconds": round(kernel_s, 4),
            "accesses_per_sec": round(n_accesses / kernel_s),
            "kernel_eligible_queries": kernel_eligible_queries,
        },
        "equivalence": {
            "checked_queries": len(work),
            "modes": ["batched", "kernel"],
            "mismatches": len(mismatches),
            "mismatched": mismatches,
        },
        "template_serving": _template_serving(
            systems, qids, scale, measured_rounds=serving_rounds,
            sched_kwargs=sched_kwargs,
        ),
        "rebind_microbench": _rebind_microbench(scale, sched_kwargs=sched_kwargs),
        "serving": _multi_tenant_serving(scale, sched_kwargs=sched_kwargs),
        "tiering": _tiering_scenario(scale, sched_kwargs=sched_kwargs),
        "write_path": _write_path_scenario(scale, sched_kwargs=sched_kwargs),
        "allocation": _measure_allocation(work),
        "peak_rss_kib": peak_rss_kib,
    }
    return report


def check_regression(report, baseline_path, max_regression=0.25):
    """Compare pipeline accesses/sec against a committed baseline.

    Gates batched replay and (when the baseline records them) kernel
    replay and trace generation with the same fractional fence, plus the
    template-serving hit rate.  Returns a list of failure strings
    (empty = pass).  A report that failed its own equivalence oracle
    always fails the gate.
    """
    failures = []
    if report["equivalence"]["mismatches"]:
        failures.append(
            f"equivalence oracle failed on {report['equivalence']['mismatched']}"
        )
    hit_rate = (report.get("template_serving") or {}).get("hit_rate")
    if hit_rate is not None and hit_rate < 0.9:
        failures.append(
            f"template cache hit rate {hit_rate:.2%} < 90% on suite repeats"
        )
    # A broken baseline must produce a readable gate failure, not a
    # KeyError/FileNotFoundError traceback in the CI log.
    try:
        with open(baseline_path) as handle:
            baseline = json.load(handle)
    except OSError as exc:
        failures.append(
            f"baseline {baseline_path!r} could not be read ({exc}); "
            "regenerate it with `python -m repro.harness.perfbench "
            f"--out {baseline_path}`"
        )
        return failures
    except json.JSONDecodeError as exc:
        failures.append(f"baseline {baseline_path!r} is not valid JSON: {exc}")
        return failures
    if "replay_after_batched" not in baseline:
        failures.append(
            f"baseline {baseline_path!r} lacks "
            "replay_after_batched.accesses_per_sec; regenerate it with "
            "`python -m repro.harness.perfbench`"
        )
        return failures
    # Older baselines predate the kernel path and the generation floor;
    # gate only what they record.
    for key, label in (("replay_after_batched", "batched replay"),
                       ("replay_after_kernel", "kernel replay"),
                       ("generation", "trace generation")):
        section = baseline.get(key)
        if section is None:
            continue
        base_rate = (section or {}).get("accesses_per_sec")
        if not isinstance(base_rate, (int, float)) or base_rate <= 0:
            failures.append(
                f"baseline {baseline_path!r} has unusable "
                f"{key}.accesses_per_sec = {base_rate!r}"
            )
            continue
        floor = base_rate * (1 - max_regression)
        measured = report[key]["accesses_per_sec"]
        if measured < floor:
            failures.append(
                f"{label} regressed: {measured} accesses/sec < "
                f"{floor:.0f} (baseline {base_rate} - {max_regression:.0%})"
            )
    ceiling = (baseline.get("rebind_microbench") or {}).get(
        "max_avg_us_per_rebind"
    )
    measured_us = (report.get("rebind_microbench") or {}).get(
        "avg_us_per_rebind"
    )
    if ceiling is not None and measured_us is not None and measured_us > ceiling:
        failures.append(
            f"rebind regressed: {measured_us} us/rebind > "
            f"baseline ceiling {ceiling} us"
        )
    # Serving gate: only when the baseline opts in by recording fences.
    # The fenced metrics are simulated-cycle quantities (deterministic),
    # so the fences are tight, not variance-padded.
    fences = baseline.get("serving")
    serving = report.get("serving")
    if fences and serving:
        max_fairness = fences.get("max_fairness")
        if max_fairness is not None and serving["fairness"] > max_fairness:
            failures.append(
                f"serving fairness regressed: max/min throughput "
                f"{serving['fairness']} > ceiling {max_fairness}"
            )
        min_delta = fences.get("min_hit_rate_delta")
        if min_delta is not None and serving["hit_rate_delta"] < min_delta:
            failures.append(
                f"serving locality regressed: per-stream hit rate delta "
                f"{serving['hit_rate_delta']:+.4f} vs global FIFO is below "
                f"floor {min_delta:+.4f}"
            )
        if serving["shed"] and not fences.get("allow_shed"):
            failures.append(
                f"serving shed {serving['shed']} statements at the "
                "benchmark load (admission control should be idle here)"
            )
    # Tiering gate: like serving, only when the baseline records fences.
    tier_fences = baseline.get("tiering")
    tiering = report.get("tiering")
    if tier_fences and tiering:
        min_delta = tier_fences.get("min_hit_rate_delta")
        if min_delta is not None and tiering["hit_rate_delta"] < min_delta:
            failures.append(
                f"tiering locality regressed: aggregate hit rate delta "
                f"{tiering['hit_rate_delta']:+.4f} vs untiered RC-NVM is "
                f"below floor {min_delta:+.4f}"
            )
        min_promotions = tier_fences.get("min_promotions")
        if min_promotions is not None and tiering["promotions"] < min_promotions:
            failures.append(
                f"tiering migration stalled: {tiering['promotions']} "
                f"promotions < floor {min_promotions}"
            )
        if tiering["consistency_problems"]:
            failures.append(
                "tiering engine inconsistent: "
                + "; ".join(tiering["consistency_problems"])
            )
    # Write-path gate: again only when the baseline records fences.
    wp_fences = baseline.get("write_path")
    write_path = report.get("write_path")
    if wp_fences and write_path:
        min_reduction = wp_fences.get("min_write_pulse_reduction")
        if (min_reduction is not None
                and write_path["write_pulse_reduction"] < min_reduction):
            failures.append(
                f"write coalescing regressed: only "
                f"{write_path['write_pulse_reduction']} NVM write pulses "
                f"saved vs knobs-off (floor {min_reduction})"
            )
        max_ratio = wp_fences.get("max_read_p99_ratio")
        ratio = write_path["read_p99_ratio"]
        if max_ratio is not None and ratio is not None and ratio > max_ratio:
            failures.append(
                f"write path hurt reads: p99 ratio {ratio} vs knobs-off "
                f"exceeds ceiling {max_ratio}"
            )
    return failures


def write_report(report, path):
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the trace pipeline (generation + replay)."
    )
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="table-size scale factor (default 0.1)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed replay rounds, best-of (default 3)")
    parser.add_argument("--serving-rounds", type=int, default=3,
                        help="measured template-serving rounds (default 3)")
    parser.add_argument("--systems", nargs="*", default=list(FIGURE_SYSTEMS),
                        help="memory systems to run (default: all four)")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to gate against (CI smoke check)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional accesses/sec drop vs the "
                             "baseline (default 0.25)")
    args = parser.parse_args(argv)

    report = run_perfbench(
        scale=args.scale, systems=tuple(args.systems), rounds=args.rounds,
        serving_rounds=args.serving_rounds,
    )
    write_report(report, args.out)
    after = report["replay_after_batched"]["accesses_per_sec"]
    kernel = report["replay_after_kernel"]["accesses_per_sec"]
    serving = report["template_serving"]
    rebind = report["rebind_microbench"]
    print(f"trace generation : {report['generation']['accesses_per_sec']} accesses/sec")
    equivalence = report["equivalence"]
    print(f"replay batched   : {after} accesses/sec")
    print(f"replay kernel    : {kernel} accesses/sec "
          f"({report['replay_after_kernel']['kernel_eligible_queries']}"
          f"/{equivalence['checked_queries']} queries eligible)")
    print(f"equivalence      : {equivalence['mismatches']} mismatches "
          f"over {equivalence['checked_queries']} queries x "
          f"{len(equivalence['modes'])} modes")
    hit_rate = serving["hit_rate"]
    print(f"template serving : {serving['statements_per_sec']} statements/sec, "
          f"hit rate {hit_rate:.1%}" if hit_rate is not None
          else "template serving : (no lookups)")
    print(f"rebind           : {rebind['avg_us_per_rebind']} us/rebind "
          f"over {rebind['rebinds']} rebinds")
    srv = report["serving"]
    print(f"serving          : {srv['tenants']} tenants, "
          f"{srv['statements_per_sec']} statements/sec wall, "
          f"fairness {srv['fairness']:.2f}, "
          f"hit rate {srv['stream_hit_rate']:.3f} vs "
          f"FIFO {srv['fifo_hit_rate']:.3f} "
          f"({srv['hit_rate_delta']:+.3f})")
    tier = report["tiering"]
    print(f"tiering          : dram fraction {tier['dram_fraction']}, "
          f"hit rate {tier['aggregate_hit_rate']:.3f} vs "
          f"untiered {tier['baseline_hit_rate']:.3f} "
          f"({tier['hit_rate_delta']:+.3f}), "
          f"{tier['promotions']} promoted")
    wp = report["write_path"]
    print(f"write path       : {wp['write_pulses']} pulses vs "
          f"{wp['baseline_write_pulses']} knobs-off "
          f"(saved {wp['write_pulse_reduction']}), "
          f"{wp['writes_coalesced']} coalesced, "
          f"read p99 ratio {wp['read_p99_ratio']}")
    print(f"written to       : {args.out}")
    if equivalence["mismatches"]:
        print(f"FAIL: kernel replay diverged from batched replay on "
              f"{equivalence['mismatched']}", file=sys.stderr)
        return 1
    if args.baseline:
        failures = check_regression(report, args.baseline, args.max_regression)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"baseline check   : ok (vs {args.baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
