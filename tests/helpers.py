"""Shared builders for test fixtures: tiny architectures, flat profiles whose
expected costs are easy to compute by hand, the brute-force tuner reference,
and straightforward copies of the oracles that the optimised ones must
match bit for bit."""

from __future__ import annotations

import itertools
import math
from array import array
from itertools import accumulate

from traincost.arch import ModelArchitecture
from traincost.basecost import evaluate_plan
from traincost.errors import InputError, ShapeError
from traincost.fault import CheckpointPolicy, FaultModel, ettr_closed_form
from traincost.plan import DIMS, ParallelPlan, in_device_order
from traincost.profile import (
    CommBucket,
    CommEntry,
    CommProfile,
    ComputeEntry,
    ComputeProfile,
    HardwareSpec,
    ProfileDB,
)
from traincost.tuner import CANDIDATE_FIELDS, Candidate


def make_hardware(**overrides) -> HardwareSpec:
    values = dict(
        h2d_bw=32e9, d2h_bw=32e9,
        cpu_memory=2000e9, cpu_flops=3e9, gpu_peak_flops=512e12,
        gpu_memory=32e9, gpus_per_node=8, hbm_bw=1600e9,
        optimizer_throughput=2e9,
    )
    values.update(overrides)
    return HardwareSpec(**values)


def e2e_objective(fault: FaultModel, policy: CheckpointPolicy) -> float:
    """Total expected wall time for the run, the objective the checkpoint
    interval minimises: training time over the closed-form ETTR."""
    return policy.total_steps * policy.step_s / ettr_closed_form(fault, policy)


def make_db(hw: HardwareSpec | None = None, tflops: float = 1.0,
            bandwidth_gbps: float = 1.0, beta: float = 1.0,
            entries: list[ComputeEntry] | None = None,
            per_kind_gbps: dict[str, float] | None = None,
            group_sizes: tuple[int, ...] = (8,)) -> ProfileDB:
    """Flat profile: one wildcard throughput and one flat bucket per
    collective kind and group size, so expected latencies are simple ratios.
    An entry's bandwidth scales with group_size / 8."""
    hw = hw or make_hardware()
    compute = ComputeProfile(tuple(entries or ()) + (
        ComputeEntry(module="*", fwd_flops_per_s=tflops * 1e12),
    ))
    kinds = ("all-gather", "reduce-scatter", "all-reduce", "all-to-all", "p2p")
    per_kind = per_kind_gbps or {}
    comm = CommProfile(tuple(
        CommEntry(kind=kind, group_size=group,
                  buckets=(CommBucket(1.0, per_kind.get(kind, bandwidth_gbps)
                                      * (group / 8) * 1e9, beta),))
        for kind in kinds for group in group_sizes
    ))
    return ProfileDB(hardware=hw, compute=compute, comm=comm)


def tiny_dense(l: int = 2, s: int = 8, h: int = 4, a: int = 2, v: int = 16,
               g_d: int = 8, **extra) -> ModelArchitecture:
    return ModelArchitecture(num_layers=l, seq_len=s, hidden_size=h,
                             num_heads=a, vocab_size=v, dense_ffn_size=g_d,
                             **extra)


def tiny_moe(l: int = 2, s: int = 8, h: int = 4, a: int = 2, v: int = 16,
             g_d: int = 8, g_e: int = 4, t_k: int = 2,
             n_experts: int = 4) -> ModelArchitecture:
    return ModelArchitecture(num_layers=l, seq_len=s, hidden_size=h,
                             num_heads=a, vocab_size=v, dense_ffn_size=g_d,
                             expert_ffn_size=g_e, top_k=t_k,
                             num_experts=n_experts, structure_kind="MoE")


def reference_pipeline_time(t_fwd, t_bwd, plan, t_pp=0.0, t_embed=0.0,
                            t_embed_bwd=0.0, t_head=0.0, t_head_bwd=0.0,
                            t_pp_steady=None):
    """The interleaved-1F1B phase expression written out on the plan's fields,
    with the float operations in the order basecost must keep bit for bit:
    (warmup, steady, cooldown, total, notes)."""
    p, v, l, m_b = plan.pp, plan.chunks, plan.layers_per_stage, plan.micro_batches
    e_f, e_b = t_embed, t_embed_bwd
    h_f, h_b = t_head, t_head_bwd
    pp_s = t_pp if t_pp_steady is None else t_pp_steady

    warmup = p * (e_f + l * t_fwd + t_pp) + (v * p - p - 1) * (l * t_fwd + t_pp)
    steady = (p * (l * t_fwd + h_f + h_b + l * t_bwd)
              + (m_b - p) * (v * l * t_fwd + h_f + h_b + l * t_bwd)
              + (4 * m_b * v - 2 * m_b + 2 * p - 2) * pp_s)
    cooldown = p * (e_b + l * t_bwd + t_pp) + (v * p - p - 1) * (l * t_bwd + t_pp)

    notes = ()
    if m_b < p:
        notes = (f"degenerate pipeline: micro_batches={m_b} < pp={p}; "
                 "phase formulas evaluated as defined",)
    return warmup, steady, cooldown, warmup + steady + cooldown, notes


def printed_rules(space, assigned: dict) -> str | None:
    """The reason of the first printed rule that an assignment of plan
    dimensions breaks, or None. A rule applies once its inputs are assigned;
    the parallel product counts the assigned degrees."""
    world = math.prod(assigned.get(name, 1) for name in ("tp", "cp", "pp", "ep", "dp"))
    if world > space.total_gpus:
        return "resource: parallel product exceeds total gpus"
    if "tp" in assigned and assigned["tp"] > space.db.hardware.gpus_per_node:
        return "tp exceeds gpus per node"
    if "micro_batch" in assigned:
        m_bs, batch = assigned["micro_batch"], space.global_batch
        if m_bs > batch:
            return "micro batch exceeds global batch"
        if "dp" in assigned and batch % (m_bs * assigned["dp"]) != 0:
            return "global batch not divisible by micro_batch*dp"
        if "pp" in assigned and batch // m_bs < assigned["pp"]:
            return "too few micro batches for the pipeline depth"
    if "pp" in assigned and "chunks" in assigned:
        if space.arch.num_layers % (assigned["pp"] * assigned["chunks"]) != 0:
            return "layers not divisible by pp*chunks"
    return None


def reference_walk(space) -> tuple[list[ParallelPlan], dict[str, int]]:
    """The pruned enumeration of a resolved space written out: a depth-first
    walk in DIMS order that checks every printed rule once per tried value.
    Returns the plans in walk order and the rejection counts in the order
    each reason first occurred."""
    names = list(DIMS.values())
    values = [getattr(space, name) for name in CANDIDATE_FIELDS.values()]
    plans: list[ParallelPlan] = []
    rejections: dict[str, int] = {}

    def descend(prefix: dict) -> None:
        if len(prefix) == len(names):
            plans.append(ParallelPlan(**prefix, global_batch=space.global_batch,
                                      num_layers=space.arch.num_layers))
            return
        for value in values[len(prefix)]:
            tried = {**prefix, names[len(prefix)]: value}
            reason = printed_rules(space, tried)
            if reason is None:
                descend(tried)
            else:
                rejections[reason] = rejections.get(reason, 0) + 1

    descend({})
    return plans, rejections


def exhaustive_tune_reference(space, top_k):
    """Brute-force tuner oracle: raw Cartesian product, full-candidate
    filtering with the printed rules applied at the end, same ranking key as
    the pruned search. Shares no code with the tuner's enumeration."""
    space = space.resolved()
    hw = space.db.hardware
    survivors = []
    for combo in itertools.product(space.tp_candidates, space.cp_candidates,
                                   space.pp_candidates, space.ep_candidates,
                                   space.dp_candidates,
                                   space.micro_batch_candidates,
                                   space.chunk_candidates):
        t, c, p, e, d, m_bs, v = combo
        if printed_rules(space, dict(zip(DIMS.values(), combo))) is not None:
            continue
        for idx, opts in enumerate(space.opt_combos):
            plan = ParallelPlan(tp=t, cp=c, pp=p, ep=e, dp=d, micro_batch=m_bs,
                                global_batch=space.global_batch, chunks=v,
                                num_layers=space.arch.num_layers)
            try:
                result = evaluate_plan(space.arch, plan, space.db, opts,
                                       space.dtypes,
                                       tflops_mode=space.tflops_mode)
            except (ShapeError, InputError):
                continue
            if result.memory.m_peak > hw.gpu_memory:
                continue
            survivors.append(Candidate(plan, opts, idx, result.cost,
                                       result.memory))
    survivors.sort(key=lambda cand: cand.step_key)
    return survivors[:top_k]


def reference_simulate_pipeline(t_fwd, t_bwd, plan, *, t_pp=0.0, t_embed=0.0,
                                t_embed_bwd=0.0, t_head=0.0, t_head_bwd=0.0):
    """The interleaved-1F1B replay with one op list built per device:
    (makespan, starts, ends), the trace's two columns."""
    p, v, m_b, l = plan.pp, plan.chunks, plan.micro_batches, plan.layers_per_stage
    warmups = plan.warmups()
    n_stages = p * v
    hop = t_pp if p > 1 else 0.0
    fwd_d, bwd_d = [l * t_fwd] * n_stages, [l * t_bwd] * n_stages
    fwd_d[0], bwd_d[0] = fwd_d[0] + t_embed, bwd_d[0] + t_embed_bwd
    fwd_d[-1], bwd_d[-1] = fwd_d[-1] + t_head, bwd_d[-1] + t_head_bwd
    row = n_stages + 1
    bwd_at = m_b * row
    end = ([-hop] + [None] * n_stages) * m_b + ([-math.inf] + [None] * n_stages) * m_b \
        + [-math.inf]
    start = [0.0] * len(end)
    duration = ([0.0] + fwd_d) * m_b + ([0.0] + bwd_d) * m_b

    def replay(js):
        now = 0.0
        for j in js:
            if j < bwd_at:
                while (ready := end[j - 1]) is None:
                    yield j
                ready += hop
            else:
                while (ready := end[j - bwd_at]) is None or (dep := end[j + 1]) is None:
                    yield j
                if (dep := dep + hop) > ready:
                    ready = dep
            if ready > now:
                now = ready
            start[j] = now
            now += duration[j]
            end[j] = now

    micros, fwd_chunks, bwd_chunks = plan.slots()
    fwd_ids = [m * row + c * p + 1 for m, c in zip(micros, fwd_chunks)]
    bwd_ids = [bwd_at + m * row + c * p + 1 for m, c in zip(micros, bwd_chunks)]
    op_ids = [in_device_order([j + dev for j in fwd_ids], [j + dev for j in bwd_ids], w)
              for dev, w in enumerate(warmups)]
    runs = [replay(js) for js in op_ids]
    pending, waits_on = list(range(p)), {}
    while pending:
        waiting = {dev: next(runs[dev], None) for dev in pending}
        if waiting == waits_on:
            raise InputError("schedule deadlocked; plan outside supported regime")
        waits_on = waiting
        pending = [dev for dev in reversed(pending) if waiting[dev] is not None]
    makespan = max(end[js[-1]] for js in op_ids)
    return makespan, array("d", start), array("d", end)


def reference_activation_ledger(plan, act_bytes_per_layer):
    """Per-stage activation peak, one running sum per stage."""
    slots = plan.micro_batches * plan.chunks
    allocs, frees = [1] * slots, [-1] * slots
    return [max(accumulate(in_device_order(allocs, frees, w))) * act_bytes_per_layer
            for w in plan.warmups()]


def reference_simulate_faults(fault, policy, trials, seed):
    """Monte Carlo ETTR with numpy's uniform and exponential draws, a filled
    repair array and a write-back of every active trial each round."""
    import numpy as np
    lam = fault.failures_per_second
    t_tr = policy.training_s
    base = t_tr + fault.init_s + policy.num_saves * policy.save_s
    if lam == 0:
        return t_tr / base, 0.0

    rng = np.random.default_rng(seed)
    wall = np.full(trials, base, dtype=float)
    arrival = rng.exponential(1.0 / lam, size=trials)
    recoveries = (fault.recovery_process_s, fault.recovery_pod_s, fault.recovery_job_s)
    interval_s = policy.interval_steps * policy.step_s
    failing = np.flatnonzero(arrival < wall)
    wall_f, arrival_f = wall[failing], arrival[failing]

    while failing.size:
        n = failing.size
        if fault.mean_repair_s is not None:
            cost = np.full(n, fault.mean_repair_s)
        else:
            cost = rng.choice(recoveries, size=n, p=fault.mix)
        wall_f += cost + rng.uniform(0.0, interval_s, size=n)
        arrival_f += rng.exponential(1.0 / lam, size=n)
        still = arrival_f < wall_f
        wall[failing] = wall_f
        failing, wall_f, arrival_f = failing[still], wall_f[still], arrival_f[still]

    ettr = t_tr / wall
    mean = float(ettr.mean())
    se = float(ettr.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, se
