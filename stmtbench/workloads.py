"""The served-statement benchmark's workloads and their measurement.

A workload builds its systems through the public API and then serves
statements in *units*: one pass over the statements in a seeded order on
the ``suite-*`` workloads, one complete multi-tenant serving run on
``olxp-tenants``.  Units repeat until the measured host time reaches the
run length.  Every statement's result is compared with the reference
engine outside the timed region, in the order the statements ran, and
the first units' simulated results are hashed into a digest, so a change
meant only to speed up the host can show that simulation stayed
bit-identical.
"""

import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Tuple

from repro import build_system
from repro.cpu.multicore import MulticoreMachine
from repro.imdb.sql_parser import parse
from repro.serving import ServingSimulator, TenantSpec
from repro.workloads.queries import QUERIES, SQL_BENCHMARK_IDS
from repro.workloads.suite import build_benchmark_database

#: The two Figure 18 systems every ``suite-*`` statement runs on.
SUITE_SYSTEMS = ("RC-NVM", "DRAM")
#: Cores of the serving machine, one tenant per core.
SERVING_CORES = 4
#: Warm-up passes allowed before ``suite-warm`` must serve only template
#: hits (two reach the fixed point: the first pass's UPDATEs invalidate
#: the templates they touch).
MAX_WARMUP_PASSES = 5
#: The tail percentile, fixed so that a faster commit, which completes
#: more statements in the same run length, is compared at the same
#: percentile.  At the benchmark's run length every workload has well over
#: ten samples beyond it; the report records the actual count.
TAIL_PCT = 90
#: Tenant-private UPDATE: each tenant rewrites its own f10 band of
#: table-b, so writes sit beside the suite's reads in the executor and
#: the controllers.
TENANT_UPDATE = "UPDATE table-b SET f3 = x, f4 = y WHERE f10 > z AND f10 < w"
#: Simulated metrics that are rates or percentiles: several units combine
#: them by median, not by sum.
INTENSIVE = frozenset((
    "sim_p99_cycles", "fairness", "cache.l1_hit_rate", "mem.buffer_miss_rate",
    "mem.avg_queue_occupancy", "mem.read_latency_p99",
))
#: RunResult fields hashed into the digest (spans and degradation events
#: are host-side bookkeeping, not simulated state).
RUN_RESULT_FIELDS = (
    "cycles", "accesses", "reads", "writes", "lines_touched", "l1_hits",
    "l2_hits", "l3_hits", "llc_misses", "writebacks", "synonym_cycles",
    "memory", "caches", "synonym",
)


@dataclass(frozen=True)
class Workload:
    """One named workload: what is built and how statements are served."""

    name: str
    why: str
    #: Table-size scale factor for :func:`build_benchmark_database`.
    scale: float
    #: ``suite-*``: serve repeats through the template cache.
    warm: bool = False
    #: ``olxp-tenants``: tenant sessions on a multicore machine.
    tenants: int = 0
    statements_per_tenant: int = 0
    mean_gap: int = 0
    #: Units every run serves, whatever its length; their simulated
    #: results are kept.  ``suite-cold`` needs five passes for ten samples
    #: beyond the tail percentile; ``olxp-tenants`` averages its simulated
    #: metrics over four arrival draws.
    min_units: int = 1
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 9

    @property
    def serving(self):
        return self.tenants > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite-cold",
            "Q1-Q13 at scale 1.0 with fresh timing and no template cache: "
            "trace generation and replay dominate, timing reset is small",
            scale=1.0,
            min_units=5,
        ),
        Workload(
            "suite-warm",
            "Q1-Q13 at scale 0.1 served from the template cache: no executor "
            "work, per-statement timing reset dominates",
            scale=0.1,
            warm=True,
            setup_repeats=3,
        ),
        Workload(
            "olxp-tenants",
            "four open/closed-loop tenants mixing reads and UPDATEs on a "
            "4-core MESI machine: dispatch and coherence, no per-statement reset",
            scale=0.5,
            tenants=4,
            statements_per_tenant=30,
            mean_gap=400_000,
            min_units=4,
        ),
    )
}


# -- result checking ---------------------------------------------------------
def same_result(result, expected):
    """Does an executor result match the reference engine's?"""
    if result.kind != expected.kind:
        return False
    if result.kind == "scalar":
        if isinstance(result.value, float) or isinstance(expected.value, float):
            return abs(result.value - expected.value) < 1e-6
        return result.value == expected.value
    if result.kind == "count":
        return result.count == expected.count
    if result.ordered or expected.ordered:
        return result.rows == expected.rows
    return sorted(result.rows) == sorted(expected.rows)


class Checker:
    """Checks each statement against :class:`ReferenceEngine`.

    The reference runs on the live database just before the statement
    (an UPDATE's expected count is taken before it writes), and the
    checker keeps its own time apart so every timing can leave it out.
    """

    def __init__(self):
        self.mismatches = 0
        self.exceptions = 0
        self.seconds = 0.0

    def expected(self, db, sql, params):
        start = perf_counter()
        try:
            return db.reference.execute(parse(sql), params)
        finally:
            self.seconds += perf_counter() - start

    def check(self, sql, result, expected):
        start = perf_counter()
        if not same_result(result, expected):
            self.mismatches += 1
            print(f"stmtbench: result mismatch: {sql}", file=sys.stderr)
        self.seconds += perf_counter() - start

    def exception(self, sql):
        self.exceptions += 1
        print(f"stmtbench: statement raised: {sql}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


# -- one unit of served statements ---------------------------------------------
@dataclass
class Unit:
    """What one unit measured."""

    #: Host seconds inside the timed regions (checks excluded).
    host_s: float
    #: ``(statement key, host milliseconds)`` of every completed statement.
    latencies: List[Tuple[object, float]]
    #: Trace accesses replayed.
    accesses: int
    attempted: int
    shed: int = 0
    #: Statements an exception kept from completing (a serving run that
    #: raises loses all of its statements).
    lost: int = 0
    rounds: int = 0
    #: Simulated results (digest and simulated metrics), kept for the
    #: first ``Workload.min_units`` units.
    sim: Optional[dict] = None


def _digest(payload):
    text = json.dumps(payload, sort_keys=True, default=repr)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _histogram_p99(histograms):
    """p99 of merged ``{bucket upper bound: count}`` histograms, with
    :class:`repro.memsim.stats.LatencyHistogram`'s first-crossing rule."""
    merged = {}
    for hist in histograms:
        for bound, count in hist.items():
            merged[int(bound)] = merged.get(int(bound), 0) + count
    threshold = 0.99 * sum(merged.values())
    seen = 0
    for bound in sorted(merged):
        seen += merged[bound]
        if seen >= threshold:
            return bound
    return 0


def memory_metrics(snapshots):
    """Controller-layer metrics over memory-stats snapshots."""
    total = lambda key: sum(s[key] for s in snapshots)  # noqa: E731
    accesses = total("accesses")
    samples = total("queue_occupancy_samples")
    return {
        "mem.buffer_miss_rate": (
            (total("buffer_empty_misses") + total("buffer_conflicts")) / accesses
            if accesses else 0.0
        ),
        "mem.activations": total("activations"),
        "mem.avg_queue_occupancy": (
            total("queue_occupancy_sum") / samples if samples else 0.0
        ),
        "mem.read_latency_p99": _histogram_p99(
            s["read_latency_hist"] for s in snapshots
        ),
        "mem.write_pulses": total("write_pulses"),
        "mem.write_drain_episodes": total("write_drain_episodes"),
    }


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _suite_sim(records):
    cycles = [r["cycles"] for r in records]
    per_system = {}
    for r in records:
        per_system[r["system"]] = per_system.get(r["system"], 0) + r["cycles"]
    l1 = [r["caches"]["L1"] for r in records]
    l1_accesses = sum(c["accesses"] for c in l1)
    sim = {
        "digest": _digest(records),
        "sim_cycles": sum(cycles),
        "sim_p99_cycles": nearest_rank(cycles, 99),
        "fairness": max(per_system.values()) / min(per_system.values()),
        "cache.llc_misses": sum(r["llc_misses"] for r in records),
        "cache.l1_hit_rate": (
            sum(c["hits"] for c in l1) / l1_accesses if l1_accesses else 0.0
        ),
        "synonym.cycles": sum(r["synonym_cycles"] for r in records),
        "coherence.invalidations_sent": 0,
        "coherence.downgrades": 0,
        "coherence.llc_recalls": 0,
    }
    sim.update(memory_metrics([r["memory"] for r in records]))
    return sim


def _serving_sim(report, machine, latencies):
    directory = machine.directory
    payload = report.to_dict()
    payload["coherence"] = directory.stats.snapshot()
    if directory.synonym is not None:
        payload["synonym"] = directory.synonym.stats.snapshot()
    l1_hits = sum(cache.stats.hits for cache in directory.private_caches)
    l1_accesses = sum(cache.stats.accesses for cache in directory.private_caches)
    sim = {
        "digest": _digest(payload),
        "sim_cycles": report.makespan,
        "sim_p99_cycles": max(
            nearest_rank(values, 99) for values in latencies.values() if values
        ),
        "fairness": report.fairness,
        "cache.llc_misses": directory.llc.stats.misses,
        "cache.l1_hit_rate": l1_hits / l1_accesses if l1_accesses else 0.0,
        "synonym.cycles": payload.get("synonym", {}).get("overhead_cycles", 0),
        "coherence.invalidations_sent": directory.stats.invalidations_sent,
        "coherence.downgrades": directory.stats.downgrades,
        "coherence.llc_recalls": directory.stats.llc_recalls,
    }
    sim.update(memory_metrics([report.memory]))
    return sim


# -- suite workloads ---------------------------------------------------------------
@dataclass
class _SuiteState:
    dbs: dict
    rng: random.Random
    #: The statement order of the next pass.
    order: list


def _suite_setup(workload, seed):
    rng = random.Random(seed)
    order = rng.sample(
        [(system, qid) for system in SUITE_SYSTEMS for qid in SQL_BENCHMARK_IDS],
        len(SUITE_SYSTEMS) * len(SQL_BENCHMARK_IDS),
    )
    dbs = {}
    for system in SUITE_SYSTEMS:
        db = build_benchmark_database(build_system(system), scale=workload.scale)
        if workload.warm:
            db.enable_template_cache()
        dbs[system] = db
    if workload.warm:
        for _ in range(MAX_WARMUP_PASSES):
            misses = [db.template_cache.stats.misses for db in dbs.values()]
            for system, qid in order:
                spec = QUERIES[qid]
                dbs[system].execute(
                    spec.sql, params=spec.params,
                    selectivity_hint=spec.selectivity_hint,
                )
            if misses == [db.template_cache.stats.misses for db in dbs.values()]:
                break
    return _SuiteState(dbs, rng, order)


def _suite_unit(state):
    # Every pass draws a fresh order, so the garbage collector's pauses,
    # which follow the allocation pattern of a pass, do not land on the
    # same statements pass after pass.
    dbs, order = state.dbs, state.order
    state.order = state.rng.sample(order, len(order))

    def run(checker, keep_sim):
        host = 0.0
        latencies = []
        accesses = 0
        lost = 0
        records = []
        for system, qid in order:
            spec = QUERIES[qid]
            db = dbs[system]
            try:
                expected = checker.expected(db, spec.sql, spec.params)
                start = perf_counter()
                outcome = db.execute(
                    spec.sql, params=spec.params,
                    selectivity_hint=spec.selectivity_hint,
                )
                elapsed = perf_counter() - start
            except Exception:
                checker.exception(spec.sql)
                lost += 1
                continue
            host += elapsed
            latencies.append(((system, qid), elapsed * 1000))
            checker.check(spec.sql, outcome.result, expected)
            accesses += outcome.trace_length
            if keep_sim:
                timing = outcome.timing
                record = {name: getattr(timing, name) for name in RUN_RESULT_FIELDS}
                record.update(system=system, qid=qid)
                records.append(record)
        sim = _suite_sim(records) if keep_sim and records else None
        return Unit(host, latencies, accesses, len(order), lost=lost, sim=sim)

    return run


# -- the multi-tenant workload -------------------------------------------------------
def tenant_specs(workload, seed):
    """Tenants alternating open/closed loops, each with a 3-query window
    over the suite plus its own range UPDATE."""
    n = len(SQL_BENCHMARK_IDS)
    specs = []
    for index in range(workload.tenants):
        qids = [SQL_BENCHMARK_IDS[(index * 3 + k) % n] for k in range(3)]
        mix = [
            (QUERIES[qid].sql, QUERIES[qid].params, QUERIES[qid].selectivity_hint)
            for qid in qids
        ]
        low = 100 + 200 * index
        mix.append((
            TENANT_UPDATE,
            {"x": index + 1, "y": index + 2, "z": low, "w": low + 60},
            None,
        ))
        specs.append(TenantSpec(
            name=f"tenant{index}",
            stream=index + 1,
            statements=mix,
            n_statements=workload.statements_per_tenant,
            arrival="open" if index % 2 == 0 else "closed",
            mean_gap=workload.mean_gap,
            seed=seed * 1000 + index,
        ))
    return specs


@dataclass
class _ServingState:
    workload: Workload
    db: object
    seed: int
    units: int = 0


def _serving_unit(state):
    workload, db = state.workload, state.db
    # Each serving run draws its own arrivals (derived from the run's
    # seed) and starts from idle controllers and cold caches.
    specs = tenant_specs(workload, state.seed * 1000 + state.units)
    state.units += 1
    db.memory.reset()
    machine = MulticoreMachine(db.memory, n_cores=SERVING_CORES)
    simulator = ServingSimulator(db, machine, specs)

    def run(checker, keep_sim):
        host = [0.0]
        rest = [0.0]  # round time outside dispatch: replay and bookkeeping
        accesses = [0]
        served = []  # (statement key, dispatch seconds, trace length)
        sim_latencies = {spec.name: [] for spec in specs}
        execute = db.execute
        step = simulator.step

        def checked_execute(sql, params=None, **kwargs):
            expected = checker.expected(db, sql, params)
            start = perf_counter()
            outcome = execute(sql, params=params, **kwargs)
            served.append((
                (sql, tuple(sorted((params or {}).items()))),
                perf_counter() - start,
                outcome.trace_length,
            ))
            checker.check(sql, outcome.result, expected)
            accesses[0] += outcome.trace_length
            return outcome

        def timed_step():
            checking, dispatched = checker.seconds, len(served)
            start = perf_counter()
            more = step()
            elapsed = perf_counter() - start - (checker.seconds - checking)
            host[0] += elapsed
            rest[0] += elapsed - sum(s for _k, s, _n in served[dispatched:])
            return more

        def latencies():
            # A round replays its statements interleaved, so a statement's
            # host latency is its own dispatch time plus its trace length
            # times the run's replay seconds per access: it does not depend
            # on which statements the arrivals put in the same round.
            per_access = rest[0] / accesses[0] if accesses[0] else 0.0
            return [(key, (s + n * per_access) * 1000) for key, s, n in served]

        def recording_complete(session):
            complete = session.complete

            def recorded(pending, completion):
                sim_latencies[session.spec.name].append(
                    completion - pending.arrival
                )
                return complete(pending, completion)

            return recorded

        db.execute = checked_execute
        simulator.step = timed_step
        for session in simulator.sessions:
            session.complete = recording_complete(session)
        attempted = workload.tenants * workload.statements_per_tenant
        try:
            report = simulator.run()
        except Exception:
            checker.exception("serving run")
            return Unit(host[0], [], accesses[0], attempted, lost=attempted)
        finally:
            del db.execute
        sim = (
            _serving_sim(report, machine, sim_latencies) if keep_sim else None
        )
        return Unit(host[0], latencies(), accesses[0], attempted,
                    shed=report.shed, rounds=report.rounds, sim=sim)

    return run


def setup(workload, seed):
    if workload.serving:
        db = build_benchmark_database(build_system("RC-NVM"), scale=workload.scale)
        return _ServingState(workload, db, seed)
    return _suite_setup(workload, seed)


def unit(workload, state):
    """Prepare one unit (untimed) and return its ``run(checker, keep_sim)``."""
    if workload.serving:
        return _serving_unit(state)
    return _suite_unit(state)


# -- measurement ---------------------------------------------------------------------
def percentile(values, pct):
    """Linearly interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    position = pct / 100 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def host_calibration(repeats=5):
    """Median seconds of a fixed pure-Python loop, so throughput measured
    on different hosts can be normalised (not a gated metric)."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append(perf_counter() - start)
    return statistics.median(times)


#: End-to-end metrics (measured with tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "stmts_per_s": "1/s",
    "stmt_p50_ms": "ms",
    "stmt_tail_ms": "ms",
    "accesses_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "sim_cycles": "cycles",
    "sim_p99_cycles": "cycles",
    "fairness": "ratio",
}


@dataclass
class Measurement:
    """Everything one run of one workload measured."""

    units: List[Unit] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    checker: Checker = field(default_factory=Checker)

    @property
    def host_s(self):
        return sum(u.host_s for u in self.units)

    @property
    def completed(self):
        return sum(len(u.latencies) for u in self.units)

    def typical_latencies_ms(self):
        """Each completed statement's latency, taken as the median over
        every serving of the same statement in the run.

        Statements repeat (once per pass, or once per tenant cycle), so
        this removes the host's noise from each one before percentiles
        are taken; otherwise a percentile at the boundary between two
        statements' latencies would read the extreme of a few noisy
        samples."""
        by_key = {}
        for u in self.units:
            for key, ms in u.latencies:
                by_key.setdefault(key, []).append(ms)
        return [
            statistics.median(values)
            for values in by_key.values()
            for _ in values
        ]

    @property
    def attempted(self):
        return sum(u.attempted for u in self.units)

    @property
    def shed(self):
        return sum(u.shed for u in self.units)

    @property
    def lost(self):
        return sum(u.lost for u in self.units)

    @property
    def failed(self):
        """Statements that mismatched, were shed or were lost to an
        exception."""
        return self.checker.mismatches + self.shed + self.lost

    @property
    def sim(self):
        """Simulated results of the first ``min_units`` units: counters
        summed, rates and percentiles as the median over units."""
        sims = [u.sim for u in self.units if u.sim]
        if len(sims) <= 1:
            return sims[0] if sims else {}
        out = {"digest": _digest([sim["digest"] for sim in sims])}
        for key in sims[0]:
            if key != "digest":
                values = [sim[key] for sim in sims]
                out[key] = (
                    statistics.median(values) if key in INTENSIVE else sum(values)
                )
        return out

    def end_to_end(self):
        """The end-to-end metrics (measured with tracing off)."""
        latencies = self.typical_latencies_ms()
        host = self.host_s
        sim = self.sim
        return {
            "setup_s": statistics.median(self.setup_s),
            "stmts_per_s": self.completed / host if host else 0.0,
            "stmt_p50_ms": percentile(latencies, 50) if latencies else 0.0,
            "stmt_tail_ms": percentile(latencies, TAIL_PCT) if latencies else 0.0,
            "accesses_per_s": (
                sum(u.accesses for u in self.units) / host if host else 0.0
            ),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            ),
            "sim_cycles": sim.get("sim_cycles", 0),
            "sim_p99_cycles": sim.get("sim_p99_cycles", 0),
            "fairness": sim.get("fairness", 0.0),
        }


def run_units(workload, state, measurement, seconds, recorder=nullcontext,
              max_units=None):
    """Serve units until the timed host seconds reach ``seconds``, and at
    least ``workload.min_units`` of them (at most ``max_units``).  Each
    unit is prepared outside ``recorder()`` and served inside it.  Returns
    the number of units served."""
    start = measurement.host_s
    count = 0
    while count == 0 or len(measurement.units) < workload.min_units or (
        measurement.host_s - start < seconds
        and (max_units is None or count < max_units)
    ):
        run = unit(workload, state)
        keep_sim = len(measurement.units) < workload.min_units
        with recorder():
            measurement.units.append(run(measurement.checker, keep_sim))
        count += 1
    return count


def measure(workload, seed, seconds):
    """The untraced run: set up ``workload.setup_repeats`` times, then
    serve for ``seconds`` of timed host time."""
    measurement = Measurement()
    for _ in range(workload.setup_repeats):
        state = None  # free the previous set-up before timing the next
        gc.collect()
        start = perf_counter()
        state = setup(workload, seed)
        measurement.setup_s.append(perf_counter() - start)
    gc.collect()
    run_units(workload, state, measurement, seconds)
    return measurement
