"""Independent brute-force and simulation oracles for the closed-form models.

Nothing here reuses the analytic formulas it checks: the pipeline simulator
is a discrete-event replay of the interleaved 1F1B schedule, the activation
ledger walks the same schedule counting live allocations, the fault
simulator draws actual failure arrival times, and the interval search is an
exhaustive scan of the end-to-end objective.

numpy is imported by the two functions that use it, so importing the
package (and the CLI) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .errors import InputError
from .fault import CheckpointPolicy, FaultModel, mean_repair_time
from .plan import ParallelPlan


# ---------------------------------------------------------------------------
# Interleaved 1F1B schedule replay


class TraceEvent(NamedTuple):
    kind: str          # "fwd" or "bwd"
    micro_batch: int
    chunk: int
    device: int
    start: float
    end: float


@dataclass(frozen=True)
class PipelineTrace:
    events: tuple[TraceEvent, ...]
    makespan: float

    def to_chrome_trace(self) -> list[dict]:
        """Chrome trace-event list (microsecond timestamps) for inspection."""
        return [
            {
                "name": f"{e.kind} mb{e.micro_batch} chunk{e.chunk}",
                "ph": "X",
                "pid": 0,
                "tid": e.device,
                "ts": e.start * 1e6,
                "dur": (e.end - e.start) * 1e6,
                "args": {"micro_batch": e.micro_batch, "chunk": e.chunk},
            }
            for e in self.events
        ]


def _device_op_order(plan: ParallelPlan, device: int) -> list[tuple[str, int]]:
    """Static (kind, virtual slot) order one device executes: warmup forwards,
    one-forward-one-backward pairs, trailing backwards.

    The warmup depth 2(p-r-1) + (v-1)p is the interleaved launch pattern and
    is used for every chunk count, v=1 included: the deeper-than-classic
    warmup only moves forwards into otherwise idle bubble time (single-chunk
    makespans are unchanged; property-checked in the tests) while producing
    the activation residency the memory model assumes."""
    p, v, m_b = plan.pp, plan.chunks, plan.micro_batches
    total = m_b * v
    if v > 1 and m_b == p:
        warmup = total  # all forwards first, then all backwards
    else:
        warmup = min((p - device - 1) * 2 + (v - 1) * p, total)
    ops: list[tuple[str, int]] = [("fwd", i) for i in range(warmup)]
    for k in range(total - warmup):
        ops.append(("fwd", warmup + k))
        ops.append(("bwd", k))
    for k in range(total - warmup, total):
        ops.append(("bwd", k))
    return ops


def _slot_ids(plan: ParallelPlan, slot: int, forward: bool) -> tuple[int, int]:
    """(micro_batch, chunk) for a virtual slot index, processing micro-batches
    in groups of pp and cycling chunks per group; backwards run chunks in
    reverse."""
    p, v = plan.pp, plan.chunks
    in_group = slot % (p * v)
    chunk = in_group // p
    if not forward:
        chunk = v - 1 - chunk
    micro = (slot // (p * v)) * p + slot % p
    return micro, chunk


def simulate_pipeline(
    t_fwd: float,
    t_bwd: float,
    plan: ParallelPlan,
    t_pp: float = 0.0,
    t_embed: float = 0.0,
    t_embed_bwd: float = 0.0,
    t_head: float = 0.0,
    t_head_bwd: float = 0.0,
) -> tuple[float, PipelineTrace]:
    """Discrete-event replay of interleaved 1F1B; returns (makespan, trace).

    t_fwd/t_bwd are per-layer times; each slot runs layers_per_stage of them.
    Transfers between adjacent stages cost t_pp of latency without occupying
    either device."""
    p, v, m_b, l = plan.pp, plan.chunks, plan.micro_batches, plan.layers_per_stage
    if m_b < p:
        raise InputError(
            f"unsupported regime: micro_batches={m_b} < pp={p}; "
            "the analytic formula remains usable"
        )
    if v > 1 and m_b % p != 0:
        raise InputError("interleaved schedule needs micro_batches divisible by pp")

    n_stages = p * v
    last = n_stages - 1
    hop = t_pp if p > 1 else 0.0  # adjacent stages sit on different devices

    def op_row(kind: str, slot: int, dev: int) -> tuple:
        fwd = kind == "fwd"
        micro, chunk = _slot_ids(plan, slot, fwd)
        gs = chunk * p + dev
        duration = l * (t_fwd if fwd else t_bwd)
        if gs == 0:
            duration += t_embed if fwd else t_embed_bwd
        if gs == last:
            duration += t_head if fwd else t_head_bwd
        return kind, fwd, micro, chunk, gs, duration, micro * n_stages + gs

    orders = [[op_row(kind, slot, dev) for kind, slot in _device_op_order(plan, dev)]
              for dev in range(p)]
    cursor = [0] * p
    clock = [0.0] * p
    # end time of each (micro, global stage) op at index micro * n_stages + gs
    fwd_end: list[float | None] = [None] * (m_b * n_stages)
    bwd_end: list[float | None] = [None] * (m_b * n_stages)
    events: list[TraceEvent] = []
    append = events.append

    remaining = sum(map(len, orders))
    while remaining:
        progressed = False
        for dev in range(p):
            ops, i, now = orders[dev], cursor[dev], clock[dev]
            while i < len(ops):
                kind, fwd, micro, chunk, gs, duration, idx = ops[i]
                # earliest start permitted by data dependencies; stop at the
                # first op whose dependency has not executed yet
                if fwd:
                    if gs == 0:
                        ready = 0.0
                    else:
                        dep = fwd_end[idx - 1]
                        if dep is None:
                            break
                        ready = dep + hop
                else:
                    # backward: needs own forward plus the downstream backward
                    ready = fwd_end[idx]
                    if ready is None:
                        break
                    if gs != last:
                        dep = bwd_end[idx + 1]
                        if dep is None:
                            break
                        ready = max(ready, dep + hop)
                start = max(now, ready)
                now = start + duration
                (fwd_end if fwd else bwd_end)[idx] = now
                append(TraceEvent(kind, micro, chunk, dev, start, now))
                i += 1
            if i > cursor[dev]:
                remaining -= i - cursor[dev]
                cursor[dev], clock[dev] = i, now
                progressed = True
        if not progressed:
            raise InputError("schedule deadlocked; plan outside supported regime")

    makespan = max(map(itemgetter(5), events)) - min(map(itemgetter(4), events))
    events.sort(key=itemgetter(4, 3, 0))
    return makespan, PipelineTrace(tuple(events), makespan)


def simulate_activation_ledger(
    plan: ParallelPlan, act_bytes_per_layer: float
) -> list[float]:
    """Per-stage peak of live activations from replaying the schedule order:
    each forward slot allocates one layer-set of activation bytes, the
    matching backward frees it. Returns peaks for stages 0..pp-1."""
    p, v, m_b = plan.pp, plan.chunks, plan.micro_batches
    if m_b < p:
        raise InputError(f"ledger needs micro_batches >= pp, got {m_b} < {p}")
    if v > 1 and m_b % p != 0:
        raise InputError("interleaved schedule needs micro_batches divisible by pp")
    peaks = []
    for dev in range(p):
        live = 0
        peak = 0
        for kind, _slot in _device_op_order(plan, dev):
            if kind == "fwd":
                live += 1
                peak = max(peak, live)
            else:
                # allocation stays live until the backward completes
                peak = max(peak, live)
                live -= 1
        peaks.append(peak * act_bytes_per_layer)
    return peaks


# ---------------------------------------------------------------------------
# Fault replay


def simulate_faults(
    fault: FaultModel,
    policy: CheckpointPolicy,
    trials: int = 10000,
    seed: int = 0,
    include_rollback: bool = True,
) -> tuple[float, float]:
    """Monte Carlo ETTR: (sample mean, standard error of the mean).

    Each trial replays a run that must bank the full training time plus its
    checkpoint saves. Failures arrive as a Poisson process over wall-clock
    time (the clock never pauses, so failures can also strike during saves
    and recovery); each failure costs a recovery draw from the three-level
    mixture plus, when rollback is enabled, a uniformly distributed loss
    within the current checkpoint interval."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    lam = fault.failures_per_second
    t_tr = policy.training_s
    base = t_tr + fault.init_s + policy.num_saves * policy.save_s
    if lam == 0:
        return t_tr / base, 0.0

    import numpy as np
    rng = np.random.default_rng(seed)
    wall = np.full(trials, base, dtype=float)
    arrival = rng.exponential(1.0 / lam, size=trials)
    active = arrival < wall
    recovery_values = np.array([fault.recovery_process_s, fault.recovery_pod_s,
                                fault.recovery_job_s])
    mix = np.array(fault.mix)
    interval_s = policy.interval_steps * policy.step_s

    while active.any():
        n = int(active.sum())
        if fault.mean_repair_s is not None:
            repair = np.full(n, fault.mean_repair_s)
        else:
            repair = rng.choice(recovery_values, size=n, p=mix)
        cost = repair
        if include_rollback:
            cost = cost + rng.uniform(0.0, interval_s, size=n)
        wall[active] += cost
        arrival[active] = arrival[active] + rng.exponential(1.0 / lam, size=n)
        active = arrival < wall

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
