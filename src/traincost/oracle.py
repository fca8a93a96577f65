"""Independent brute-force and simulation oracles for the closed-form models.

Nothing here reuses the analytic formulas it checks: the pipeline simulator
is a discrete-event replay of the interleaved 1F1B schedule, the activation
ledger walks the same schedule counting live allocations (both execute the
op order plan.py defines, which basecost's phase formulas count), the fault
simulator draws actual failure arrival times, and the interval search is an
exhaustive scan of the end-to-end objective.

numpy is imported by the two functions that use it, so importing the
package (and the CLI) does not load it.
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate, repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import InputError, check_count, check_number
from .fault import CheckpointPolicy, FaultModel, mean_repair_time
from .plan import ParallelPlan, in_device_order


# ---------------------------------------------------------------------------
# Interleaved 1F1B schedule replay


class TraceEvent(NamedTuple):
    kind: str          # "fwd" or "bwd"
    micro_batch: int
    chunk: int
    device: int
    start: float
    end: float


class PipelineTrace(NamedTuple):
    """A replay's own start and end tables: a row per micro-batch and
    direction (all forwards, then all backwards), each a sentinel slot and
    then one slot per stage 0..p*v-1, and one trailing sentinel. Sentinel
    slots are not ops (0.0 in `starts`, -hop or -inf in `ends`). `micros` and
    the two chunk lists give each virtual slot's (micro_batch, chunk) for
    its kind, on every device."""
    makespan: float
    starts: array
    ends: array
    micros: list[int]
    fwd_chunks: list[int]
    bwd_chunks: list[int]

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """One TraceEvent per op, sorted by (start, device, kind).

        Built afresh on every read and not kept, so a held trace stays
        small; keep the tuple rather than re-reading in a loop."""
        v = max(self.fwd_chunks) + 1
        m_b = len(self.micros) // v
        row = (len(self.starts) - 1) // (2 * m_b)  # p*v stages and a sentinel
        p = (row - 1) // v
        events: list[TraceEvent] = []
        for dev in range(p):
            for kind, at, chunks in (("bwd", m_b * row, self.bwd_chunks),
                                     ("fwd", 0, self.fwd_chunks)):
                js = [at + m * row + c * p + 1 + dev for m, c in zip(self.micros, chunks)]
                events += map(tuple.__new__, repeat(TraceEvent), zip(
                    repeat(kind), self.micros, chunks, repeat(dev),
                    map(self.starts.__getitem__, js), map(self.ends.__getitem__, js)))
        # built by device, then kind, then slot (each kind runs its slots in
        # order), so a stable sort on start alone leaves them in (start,
        # device, kind) order with ties in run order
        events.sort(key=itemgetter(4))
        return tuple(events)


def simulate_pipeline(
    t_fwd: float,
    t_bwd: float,
    plan: ParallelPlan,
    *,
    t_pp: float = 0.0,
    t_embed: float = 0.0,
    t_embed_bwd: float = 0.0,
    t_head: float = 0.0,
    t_head_bwd: float = 0.0,
) -> tuple[float, PipelineTrace]:
    """Discrete-event replay of interleaved 1F1B; returns (makespan, trace).

    t_fwd/t_bwd are per-layer times; each slot runs layers_per_stage of them.
    Transfers between adjacent stages cost t_pp of latency without occupying
    either device. Devices of one warmup depth share one op order, built on
    device 0's slots and shifted by the device index. The trace is the
    replay's own start and end tables (see PipelineTrace); the makespan is
    the last device clock. Every time must be finite and >= 0."""
    for name, value in (("t_fwd", t_fwd), ("t_bwd", t_bwd), ("t_pp", t_pp),
                        ("t_embed", t_embed), ("t_embed_bwd", t_embed_bwd),
                        ("t_head", t_head), ("t_head_bwd", t_head_bwd)):
        check_number(name, value)
    p, v, m_b, l = plan.pp, plan.chunks, plan.micro_batches, plan.layers_per_stage
    warmups = plan.warmups()
    n_stages = p * v
    hop = t_pp if p > 1 else 0.0  # adjacent stages sit on different devices
    fwd_d, bwd_d = [l * t_fwd] * n_stages, [l * t_bwd] * n_stages
    fwd_d[0], bwd_d[0] = fwd_d[0] + t_embed, bwd_d[0] + t_embed_bwd
    fwd_d[-1], bwd_d[-1] = fwd_d[-1] + t_head, bwd_d[-1] + t_head_bwd
    # End times, a row per micro-batch and direction: a sentinel, then stages
    # 0..last (None until run); the start (0.0 until run) and duration lists
    # share the layout, and the trace keeps it. A forward row's -hop readies
    # stage 0 at -hop + hop = 0; a backward row's -inf ends the row before,
    # so the last stage never waits downstream.
    row = n_stages + 1
    bwd_at = m_b * row
    end = ([-hop] + [None] * n_stages) * m_b + ([-math.inf] + [None] * n_stages) * m_b \
        + [-math.inf]
    start = [0.0] * len(end)
    duration = ([0.0] + fwd_d) * m_b + ([0.0] + bwd_d) * m_b

    def replay(js: list[int], dev: int):
        """Run one device's ops in order (js on device 0, shifted by dev);
        while the next op waits on an op not yet run, yield its index."""
        now = 0.0
        for j in js:
            j += dev
            if j < bwd_at:
                while (ready := end[j - 1]) is None:
                    yield j
                ready += hop
            else:  # needs its own forward (bwd_at back) and the downstream backward
                while (ready := end[j - bwd_at]) is None or (dep := end[j + 1]) is None:
                    yield j
                if (dep := dep + hop) > ready:
                    ready = dep
            if ready > now:
                now = ready
            start[j] = now
            now += duration[j]
            end[j] = now

    # per virtual slot, shared by all devices: (micro, chunk) and the end-list
    # index of its forward and backward on device 0; device d's op sits d
    # slots further on, so devices of one warmup depth share one op order
    micros, fwd_chunks, bwd_chunks = plan.slots()
    fwd_ids = [m * row + c * p + 1 for m, c in zip(micros, fwd_chunks)]
    bwd_ids = [bwd_at + m * row + c * p + 1 for m, c in zip(micros, bwd_chunks)]
    orders = {w: in_device_order(fwd_ids, bwd_ids, w) for w in set(warmups)}
    runs = [replay(orders[w], dev) for dev, w in enumerate(warmups)]

    # Sweep the devices alternately up and down, running each as far as its
    # dependencies allow: forwards flow downstream, backwards upstream. A
    # pass in which no device moves past the op it last waited on deadlocks.
    pending, waits_on = list(range(p)), {}
    while pending:
        waiting = {dev: next(runs[dev], None) for dev in pending}
        if waiting == waits_on:
            raise InputError("schedule deadlocked; plan outside supported regime")
        waits_on = waiting
        pending = [dev for dev in reversed(pending) if waiting[dev] is not None]
    makespan = max(end[orders[w][-1] + dev] for dev, w in enumerate(warmups))
    del orders, runs
    starts, ends = array("d"), array("d")
    starts.fromlist(start)
    ends.fromlist(end)
    return makespan, PipelineTrace(makespan, starts, ends, micros, fwd_chunks, bwd_chunks)


def simulate_activation_ledger(
    plan: ParallelPlan, act_bytes_per_layer: float
) -> list[float]:
    """Per-stage peak of live activations over the schedule order: each
    forward slot allocates one layer-set of activation bytes and the matching
    backward frees it, so stage r's peak is the running sum's maximum."""
    slots = plan.micro_batches * plan.chunks
    allocs, frees = [1] * slots, [-1] * slots
    warmups = plan.warmups()
    peaks = {w: max(accumulate(in_device_order(allocs, frees, w))) * act_bytes_per_layer
             for w in set(warmups)}
    return [peaks[w] for w in warmups]


# ---------------------------------------------------------------------------
# Fault replay


def simulate_faults(
    fault: FaultModel,
    policy: CheckpointPolicy,
    trials: int = 10000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo ETTR: (sample mean, standard error of the mean).

    Each trial replays a run that must bank the full training time plus its
    checkpoint saves. Failures arrive as a Poisson process over wall-clock
    time (the clock never pauses, so failures can also strike during saves
    and recovery); each failure costs a recovery draw from the three-level
    mixture plus a uniformly distributed rollback loss within the current
    checkpoint interval.

    Draw contract: the first arrivals are standard_exponential * (1/lam)
    for every trial; then each round draws, for the trials still failing in
    trial order, the mixture's repair (a fixed mean_repair_s draws nothing),
    the rollback as random * I and the next arrival as
    standard_exponential * (1/lam), where I is the checkpoint interval in
    seconds. Those equal numpy's uniform(0, I) and exponential(1/lam) bit
    for bit, so a seed fixes (mean, se)."""
    check_count("trials", trials)
    lam = fault.failures_per_second
    t_tr = policy.training_s
    base = t_tr + fault.init_s + policy.num_saves * policy.save_s
    if lam == 0:
        return t_tr / base, 0.0

    import numpy as np
    rng = np.random.default_rng(seed)
    wall = np.full(trials, base, dtype=float)
    scale = 1.0 / lam
    arrival = rng.standard_exponential(trials)
    arrival *= scale
    recoveries = (fault.recovery_process_s, fault.recovery_pod_s, fault.recovery_job_s)
    repair = fault.mean_repair_s
    interval_s = policy.interval_steps * policy.step_s
    # a trial leaves the compacted arrays, with its wall time written back,
    # in the round it finishes
    failing = np.flatnonzero(arrival < wall)
    wall_f, arrival_f = wall[failing], arrival[failing]
    buf = np.empty(failing.size)

    while failing.size:
        n = failing.size
        cost = repair if repair is not None else rng.choice(recoveries, size=n, p=fault.mix)
        draw = rng.random(out=buf[:n])
        draw *= interval_s
        draw += cost
        wall_f += draw
        draw = rng.standard_exponential(out=buf[:n])
        draw *= scale
        arrival_f += draw
        still = arrival_f < wall_f
        keep = np.flatnonzero(still)
        if keep.size < n:
            done = np.flatnonzero(~still)
            wall[failing[done]] = wall_f[done]
            failing, wall_f, arrival_f = failing[keep], wall_f[keep], arrival_f[keep]

    ettr = t_tr / wall
    mean = float(ettr.mean())
    se = float(ettr.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, se


# ---------------------------------------------------------------------------
# Interval grid search


def grid_search_interval(
    fault: FaultModel,
    save_s: float,
    total_steps: int,
    step_s: float,
    intervals: range | list[int],
) -> int:
    """Exhaustive argmin of the end-to-end objective over candidate
    intervals; infeasible points are skipped, ties go to the smaller
    interval. Vectorized, so scanning hundreds of thousands of candidate
    intervals stays cheap."""
    import numpy as np
    grid = np.unique(np.asarray(list(intervals), dtype=np.int64))
    grid = grid[grid >= 1]
    if grid.size == 0:
        raise InputError("interval range is empty")
    lam = fault.failures_per_second
    u_b = mean_repair_time(fault)
    interval_s = grid * step_s
    den = 1.0 - lam * (u_b + interval_s / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (total_steps * step_s * (1.0 + save_s / interval_s)) / den
    g = np.where(den > 0, g, np.inf)
    if not np.isfinite(g).any():
        raise InputError("no feasible interval in the range")
    return int(grid[int(np.argmin(g))])
