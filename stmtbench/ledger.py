"""Per-layer ledger for the traced run.

The ledger wraps the calls into each layer's entry points from the
benchmark's own files (the program itself is not changed) and keeps, per
layer, the *self* time of those calls: a span's duration minus the part
its child spans cover.  Work done only to take the measurement (the
kernel-eligibility probe, the ledger's own counting hooks and the result
checks) is kept out of every layer, so it shows as tracing overhead.
"""

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from workloads import Checker, Measurement, run_units, setup

#: Layers whose self time is reported, in pipeline order (README.md names
#: the entry points each one times).
LAYERS = (
    "parse", "plan", "template", "execute", "reset", "replay", "query",
    "dispatch", "serving", "multicore", "coherence",
)
#: TemplateCacheStats counters the ledger tallies per fetch/store.
TEMPLATE_COUNTERS = ("hits", "misses", "rebinds", "invalidations")


class Ledger:
    """Self-time spans around layer entry points, installed on demand."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.recording = False
        #: Entry points this commit does not have (reported, not fatal).
        self.missing = []
        self._stack = []
        self._saved = []
        self._kernel_eligible = None

    # -- spans ---------------------------------------------------------------
    def _wrap(self, layer, fn, pre=None, post=None):
        """``fn`` timed as ``layer`` (a name, or ``f(args, kwargs)`` giving
        one).  ``pre(args, kwargs)`` runs before the span and its result
        goes to ``post(args, kwargs, result, token)`` after it; both are
        kept out of every layer."""
        ledger = self

        def wrapper(*args, **kwargs):
            if not ledger.recording:
                return fn(*args, **kwargs)
            hooks = perf_counter()
            token = pre(args, kwargs) if pre else None
            name = layer(args, kwargs) if callable(layer) else layer
            stack = ledger._stack
            stack.append(0.0)
            start = perf_counter()
            hooks = start - hooks
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                ledger.busy[name] += elapsed - stack.pop()
                ledger.calls[name] += 1
            if post:
                post(args, kwargs, result, token)
            hooks += perf_counter() - end
            ledger.busy["ledger"] += hooks
            if stack:
                stack[-1] += elapsed + hooks
            return result

        return wrapper

    def _patch(self, module, path, layer, pre=None, post=None):
        """Replace ``module.path`` (``name`` or ``Class.name``) by a span."""
        try:
            owner = importlib.import_module("repro." + module)
            *classes, name = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[name] if classes else getattr(owner, name)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}.{path}")
            return
        self._saved.append((owner, name, original))
        setattr(owner, name, self._wrap(layer, original, pre, post))

    def install(self):
        """Wrap every entry point; the result checks become the unreported
        ``check`` span."""
        self._patch("imdb.database", "parse", "parse")
        self._patch("imdb.planner", "Planner.plan", "plan")
        for method in ("fetch", "store"):
            self._patch("cpu.tracetemplate", f"TraceTemplateCache.{method}",
                        "template", self._template_before, self._template_after)
        self._patch("imdb.executor", "Executor.execute", "execute",
                    post=self._count_execute)
        self._patch("imdb.database", "Database.reset_timing", "reset")
        self._patch("imdb.database", "make_hierarchy", "reset.hierarchy")
        self._patch("memsim.system", "MemorySystem.reset", "reset.memory")
        try:
            from repro.cpu.replaykernel import kernel_eligible
        except ImportError:
            kernel_eligible = None
            self.missing.append("cpu.replaykernel.kernel_eligible")
        self._kernel_eligible = kernel_eligible
        self._patch("cpu.machine", "Machine.run", "replay",
                    self._replay_before, self._replay_after)
        self._patch(
            "imdb.database", "Database.execute",
            lambda args, kwargs: (
                "dispatch" if kwargs.get("simulate", True) is False else "query"
            ),
        )
        self._patch("serving.server", "ServingSimulator.step", "serving")
        self._patch("cpu.multicore", "MulticoreMachine.run_segmented", "multicore")
        self._patch("cache.coherence", "MesiDirectory.read", "coherence")
        self._patch("cache.coherence", "MesiDirectory.write", "coherence")
        for method in ("expected", "check"):
            original = Checker.__dict__[method]
            self._saved.append((Checker, method, original))
            setattr(Checker, method, self._wrap("check", original))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @contextmanager
    def record(self):
        self.recording = True
        try:
            yield self
        finally:
            self.recording = False

    # -- counting hooks ----------------------------------------------------------
    @staticmethod
    def _template_before(args, kwargs):
        stats = args[0].stats
        return [getattr(stats, name) for name in TEMPLATE_COUNTERS]

    def _template_after(self, args, kwargs, result, before):
        stats = args[0].stats
        for name, old in zip(TEMPLATE_COUNTERS, before):
            self.counts["template." + name] += getattr(stats, name) - old

    def _count_execute(self, args, kwargs, result, token):
        _result, trace = result
        self.counts["execute.accesses"] += len(trace)

    def _replay_before(self, args, kwargs):
        """Finalize the trace (timed, and credited to replay afterwards)
        and probe whether the replay kernel could take it; the probe must
        see the machine before the run changes its state."""
        machine, trace = args[0], args[1]
        start = perf_counter()
        fin = trace.finalize() if hasattr(trace, "finalize") else trace
        finalize_s = perf_counter() - start
        eligible = False
        if self._kernel_eligible is not None and hasattr(fin, "line_key"):
            stream = args[2] if len(args) > 2 else kwargs.get("stream")
            eligible = bool(self._kernel_eligible(machine, fin, stream))
        return finalize_s, eligible

    def _replay_after(self, args, kwargs, result, token):
        finalize_s, eligible = token
        self.busy["replay"] += finalize_s
        self.busy["ledger"] -= finalize_s
        self.counts["replay.accesses"] += result.accesses
        self.counts["replay.statements"] += 1
        self.counts["replay.kernel_eligible"] += eligible

    # -- report ------------------------------------------------------------------
    def metrics(self, wall_s, untraced_wall_s):
        """Per-layer metrics for a traced wall time ``wall_s``; the same
        units served untraced took ``untraced_wall_s``."""
        busy, counts = self.busy, self.counts
        out = {}
        for layer in LAYERS:
            out[layer + ".busy_s"] = busy[layer]
        out["reset.busy_s"] += busy["reset.hierarchy"] + busy["reset.memory"]
        out["reset.hierarchy_s"] = busy["reset.hierarchy"]
        out["reset.memory_s"] = busy["reset.memory"]
        out["reset.calls"] = self.calls["reset"]
        lookups = sum(counts["template." + n] for n in ("hits", "misses", "rebinds"))
        for name in TEMPLATE_COUNTERS:
            out["template." + name] = counts["template." + name]
        out["template.hit_rate"] = (
            (counts["template.hits"] + counts["template.rebinds"]) / lookups
            if lookups else 0.0
        )
        out["execute.accesses"] = counts["execute.accesses"]
        out["replay.accesses"] = counts["replay.accesses"]
        out["replay.accesses_per_s"] = (
            counts["replay.accesses"] / busy["replay"] if busy["replay"] else 0.0
        )
        out["replay.kernel_share"] = (
            counts["replay.kernel_eligible"] / counts["replay.statements"]
            if counts["replay.statements"] else 0.0
        )
        for layer in LAYERS:
            out[layer + ".share"] = (
                out[layer + ".busy_s"] / wall_s if wall_s else 0.0
            )
        out["trace.wall_s"] = wall_s
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.overhead_s"] = wall_s - untraced_wall_s
        out["trace.overhead_share"] = (
            out["trace.overhead_s"] / untraced_wall_s if untraced_wall_s else 0.0
        )
        return out


#: Simulated per-layer metrics taken from the workload's simulated results.
SIM_LAYER_METRICS = {
    "coherence.invalidations_sent": "count",
    "coherence.downgrades": "count",
    "coherence.llc_recalls": "count",
    "cache.llc_misses": "count",
    "cache.l1_hit_rate": "ratio",
    "synonym.cycles": "cycles",
    "mem.buffer_miss_rate": "ratio",
    "mem.activations": "count",
    "mem.avg_queue_occupancy": "requests",
    "mem.read_latency_p99": "cycles",
    "mem.write_pulses": "count",
    "mem.write_drain_episodes": "count",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    **{f"{layer}.busy_s": "s" for layer in LAYERS},
    "reset.hierarchy_s": "s",
    "reset.memory_s": "s",
    "reset.calls": "count",
    **{f"template.{name}": "count" for name in TEMPLATE_COUNTERS},
    "template.hit_rate": "ratio",
    "execute.accesses": "count",
    "replay.accesses": "count",
    "replay.accesses_per_s": "1/s",
    "replay.kernel_share": "ratio",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "serving.rounds": "count",
    "serving.shed": "count",
    **SIM_LAYER_METRICS,
}


def measure_traced(workload, seed, seconds):
    """The traced run: serve units with the ledger recording for half of
    ``seconds``, then the same number of units untraced, whose host time
    gives the tracing overhead.  Returns ``(traced, untraced, metrics,
    missing entry points)``."""
    ledger = Ledger()
    ledger.install()
    try:
        state = setup(workload, seed)
        traced = Measurement()
        units = run_units(workload, state, traced, seconds / 2, ledger.record)
    finally:
        ledger.uninstall()
    untraced = Measurement()
    run_units(workload, state, untraced, float("inf"), max_units=units)
    metrics = ledger.metrics(traced.host_s, untraced.host_s)
    sim = traced.sim
    for name in SIM_LAYER_METRICS:
        metrics[name] = sim.get(name, 0)
    metrics["serving.rounds"] = sum(u.rounds for u in traced.units)
    metrics["serving.shed"] = traced.shed
    return traced, untraced, metrics, ledger.missing
