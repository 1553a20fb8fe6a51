"""Per-access reference replay: the oracle for the shipped replay engines.

These are the original one-``Access``-at-a-time replay loops of the two
machine models, kept only to check the engines that ship in ``src/``:
``Machine.run`` (whole-trace kernel plus batched per-line fallback) and
``MulticoreMachine.run``/``run_segmented`` (SoA cursor stepping).  They
derive every line key, write word mask and memory request from the
``Access`` objects themselves, so a precomputation bug in
:class:`~repro.cpu.tracebuffer.FinalizedTrace` shows up as a mismatch
(``tests/test_replay_equivalence.py``).

:func:`run_precise` drives a :class:`~repro.cpu.machine.Machine`'s cache
stack and memory; :func:`run_multicore_precise` drives a
:class:`~repro.cpu.multicore.MulticoreMachine`'s MESI directory and
memory.  Both return the result types of the machine they stand in for.
"""

import heapq
from collections import deque

from repro.cache.hierarchy import MISS
from repro.cache.line import key_address, key_orientation, line_key_from_index
from repro.core.addressing import Orientation
from repro.cpu.machine import RunResult, post_writeback
from repro.cpu.multicore import CoreResult, MulticoreResult
from repro.cpu.trace import Op
from repro.errors import CapabilityError
from repro.geometry import CACHE_LINE_BYTES, WORD_BYTES
from repro.obs import tracer as obs


# -- shared per-access helpers ---------------------------------------------------
def _line_request(memory, key, access, arrival, stream=0):
    orientation = key_orientation(key)
    if orientation is Orientation.GATHER:
        if access.coord is None:
            raise CapabilityError("gather access requires a device coordinate")
        return memory.request_for_coord(
            access.coord, Orientation.GATHER, access.is_write, arrival,
            stream=stream,
        )
    return memory.request_for_line(
        key_address(key), orientation, access.is_write, arrival,
        stream=stream,
    )


def _word_mask(access, line_index):
    """Bitmask of the 8-byte words of line ``line_index`` covered by
    ``access`` (used for crossing-bit write updates)."""
    line_start = line_index * CACHE_LINE_BYTES
    start = max(access.address, line_start)
    end = min(access.address + access.size, line_start + CACHE_LINE_BYTES)
    first_word = (start - line_start) // WORD_BYTES
    last_word = (end - 1 - line_start) // WORD_BYTES
    mask = 0
    for word in range(first_word, last_word + 1):
        mask |= 1 << word
    return mask


def _lines(access):
    first_line = access.address // CACHE_LINE_BYTES
    last_line = (access.address + access.size - 1) // CACHE_LINE_BYTES
    return range(first_line, last_line + 1)


# -- single core -----------------------------------------------------------------
def run_precise(machine, trace, stream=0) -> RunResult:
    """Replay an iterable of ``Access`` on ``machine`` one access at a
    time; the reference for ``Machine.run``."""
    result = RunResult()
    hierarchy = machine.hierarchy
    memory = machine.memory
    outstanding = deque()
    now = 0

    for access in trace:
        now += access.gap
        op = access.op
        if op == Op.UNPIN:
            for line_index in _lines(access):
                hierarchy.unpin(line_key_from_index(line_index, access.orientation))
            continue
        if access.barrier and outstanding:
            while outstanding:
                now = max(now, memory.completion_of(outstanding.popleft()))
        result.accesses += 1
        if access.is_write:
            result.writes += 1
        else:
            result.reads += 1

        orientation = access.orientation
        for line_index in _lines(access):
            key = line_key_from_index(line_index, orientation)
            result.lines_touched += 1
            word_mask = _word_mask(access, line_index) if access.is_write else 0xFF
            level, extra = hierarchy.lookup(key, access.is_write, word_mask)
            if extra:
                now += extra
                result.synonym_cycles += extra
            if level != MISS:
                now += machine._hit_costs[level]
                if level == 0:
                    result.l1_hits += 1
                elif level == 1:
                    result.l2_hits += 1
                else:
                    result.l3_hits += 1
                if access.pin:
                    hierarchy.pin(key)
                continue
            # -- LLC miss: fetch the line from main memory.
            result.llc_misses += 1
            req = _line_request(
                memory, key, access, now + machine._llc_latency, stream
            )
            outstanding.append(req)
            if len(outstanding) > machine.window:
                now = max(now, memory.completion_of(outstanding.popleft()))
            extra = hierarchy.fill(key, access.is_write, access.pin, word_mask)
            if extra:
                now += extra
                result.synonym_cycles += extra
            for victim_key in hierarchy.drain_writebacks():
                result.writebacks += 1
                post_writeback(memory, victim_key, now, stream)

    while outstanding:
        now = max(now, memory.completion_of(outstanding.popleft()))
    result.cycles = now
    # Retire posted writes so statistics are complete.
    with obs.span("controller.drain") as dsp:
        drained_at = memory.drain()
        if dsp.enabled:
            dsp.set(end_cycles=drained_at, accesses=memory.stats.accesses)
    result.memory = memory.stats.snapshot()
    result.caches = hierarchy.stats_by_level()
    if hierarchy.synonym is not None:
        result.synonym = hierarchy.synonym.stats.snapshot()
    return result


# -- multi-core ------------------------------------------------------------------
def run_multicore_precise(machine, traces, streams=None) -> MulticoreResult:
    """Run one iterable of ``Access`` per core of ``machine``, always
    stepping the core whose clock is furthest behind; the reference for
    ``MulticoreMachine.run``."""
    if len(traces) > machine.n_cores:
        raise ValueError(f"{len(traces)} traces for {machine.n_cores} cores")
    if streams is None:
        streams = [getattr(trace, "stream", 0) for trace in traces]
    memory = machine.memory
    iterators = [iter(trace) for trace in traces]
    clocks = [0] * len(traces)
    outstanding = [deque() for _ in traces]
    results = [CoreResult() for _ in traces]
    # Min-heap of (clock, core) — always step the core furthest behind.
    active = [(0, core) for core in range(len(traces))]
    heapq.heapify(active)
    while active:
        _clock, core = heapq.heappop(active)
        access = next(iterators[core], None)
        if access is None:
            while outstanding[core]:
                clocks[core] = max(
                    clocks[core], memory.completion_of(outstanding[core].popleft())
                )
            results[core].cycles = clocks[core]
            continue
        _step(machine, core, access, clocks, outstanding, results, streams[core])
        heapq.heappush(active, (clocks[core], core))
    result = MulticoreResult(cores=results)
    memory.drain()
    result.coherence = machine.directory.stats.snapshot()
    if machine.directory.synonym is not None:
        result.synonym = machine.directory.synonym.stats.snapshot()
    result.memory = memory.stats.snapshot()
    return result


def _step(machine, core, access, clocks, outstanding, results, stream=0):
    directory = machine.directory
    memory = machine.memory
    clocks[core] += access.gap
    if access.op == Op.UNPIN:
        for index in _lines(access):
            directory.llc.set_pinned(
                line_key_from_index(index, access.orientation), False
            )
        return
    if access.barrier:
        while outstanding[core]:
            clocks[core] = max(
                clocks[core], memory.completion_of(outstanding[core].popleft())
            )
    result = results[core]
    result.accesses += 1
    orientation = access.orientation
    for index in _lines(access):
        key = line_key_from_index(index, orientation)
        if access.is_write:
            hit, llc_hit, extra, writebacks = directory.write(
                core, key, _word_mask(access, index)
            )
        else:
            hit, llc_hit, extra, writebacks = directory.read(core, key)
        clocks[core] += extra
        result.coherence_cycles += extra
        for victim_key in writebacks:
            post_writeback(memory, victim_key, clocks[core], stream)
        if hit:
            result.private_hits += 1
            continue
        if llc_hit:
            result.llc_hits += 1
            clocks[core] += machine.llc_latency
            if access.pin:
                directory.llc.set_pinned(key, True)
            continue
        result.misses += 1
        req = _line_request(
            memory, key, access, clocks[core] + machine.llc_latency, stream
        )
        outstanding[core].append(req)
        if len(outstanding[core]) > machine.window:
            clocks[core] = max(
                clocks[core], memory.completion_of(outstanding[core].popleft())
            )
        if access.pin:
            directory.llc.set_pinned(key, True)
