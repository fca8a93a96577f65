"""Base cost model: layer times, interleaved-1F1B pipeline phases, memory,
step time and achieved TFLOPS, plus the plan evaluator that adds the
optimizer terms and overlays the optimization features.

Latency is tracked per exposure channel (compute, tp, cp, ep, pp). The phase
expression, _phases on integer counts taken once per plan, is linear in its
inputs, so each channel is that expression on the channel's terms alone and
the channels sum to the scalar result up to rounding. A channel whose inputs
are all zero is +0.0 for every plan and is skipped.

evaluate_plan runs in an EvalMemo, the context of one (arch, db, dtypes): a
fresh one per call, or the one the tuner shares between a tune's evaluations.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import optim as _optim
from .arch import (
    ATTENTION_CORE_MODULES,
    Decomposition,
    ModelArchitecture,
    decompose,
    model_flops_total,
)
from .errors import (NOT_FINITE, InfeasibleError, InputError, ShapeError, check_keys,
                     check_number, record)
from .optim import NO_FEATURES, OptimizationSet
from .plan import ParallelPlan
from .profile import ProfileDB, comm_time, op_time, roofline_bound


# Config key -> Dtypes field.
DTYPE_KEYS = {"D_para": "param_bytes", "D_grad": "grad_bytes", "D_opt": "opt_bytes",
              "D_act": "act_bytes"}


@record
class Dtypes:
    def __new__(cls, param_bytes: float = 2.0, grad_bytes: float = 2.0,
                opt_bytes: float = 4.0, act_bytes: float = 2.0):
        values = (param_bytes, grad_bytes, opt_bytes, act_bytes)
        for name, value in zip(cls._fields, values):
            check_number(name, value)
        return tuple.__new__(cls, values)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Dtypes":
        check_keys(data, tuple(DTYPE_KEYS), "dtypes")
        return cls(**{DTYPE_KEYS[key]: value for key, value in data.items()})

    def to_json_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in DTYPE_KEYS.items()}


class TimeParts(NamedTuple):
    """One latency split into exposure channels; `total` is their sum."""
    cal: float = 0.0
    tp: float = 0.0
    cp: float = 0.0
    ep: float = 0.0

    @property
    def total(self) -> float:
        return self.cal + self.tp + self.cp + self.ep

    def __add__(self, other: "TimeParts") -> "TimeParts":
        return TimeParts(self.cal + other.cal, self.tp + other.tp,
                         self.cp + other.cp, self.ep + other.ep)


class PipelinePhases(NamedTuple):
    warmup: float
    steady: float
    cooldown: float
    total: float
    warnings: tuple[str, ...] = ()


class CostReport(NamedTuple):
    t_fwd: float
    t_bwd: float
    t_warmup: float
    t_steady: float
    t_cooldown: float
    t_pipeline: float
    t_dp: float
    t_update: float
    t_opt: float
    t_step: float
    tflops: float
    t_cal: float
    t_tp: float
    t_pp: float
    t_ep: float
    t_cp: float
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "T_step": self.t_step,
            "TFLOPS": self.tflops,
            "T_cal": self.t_cal,
            "T_TP": self.t_tp,
            "T_PP": self.t_pp,
            "T_DP": self.t_dp,
            "T_EP": self.t_ep,
            "T_CP": self.t_cp,
            "T_update": self.t_update,
            "T_FWD": self.t_fwd,
            "T_BWD": self.t_bwd,
            "T_Warmup": self.t_warmup,
            "T_Steady": self.t_steady,
            "T_Cooldown": self.t_cooldown,
            "T_Pipeline": self.t_pipeline,
            "T_Opt": self.t_opt,
            "warnings": list(self.warnings),
        }


class MemoryReport(NamedTuple):
    m_static: float
    m_activation: float
    m_peak: float
    param_bytes: float
    grad_bytes: float
    optimizer_bytes: float
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "M_sta": self.m_static,
            "M_act": self.m_activation,
            "M_peak": self.m_peak,
            "M_param": self.param_bytes,
            "M_grad": self.grad_bytes,
            "M_optimizer": self.optimizer_bytes,
            "warnings": list(self.warnings),
        }


class PlanEvaluation(NamedTuple):
    cost: CostReport | None   # None when memory exceeded the evaluation's limit
    memory: MemoryReport


# ---------------------------------------------------------------------------
# Layer level

# Tensor-parallel collectives per layer direction under the sequence-parallel
# layout: an all-gather entering each matmul block, a reduce-scatter leaving it.
_TP_PAIRS = (
    ("all-gather", "qkv"),
    ("reduce-scatter", "o-projection"),
    ("all-gather", "mlp-linear-1"),
    ("reduce-scatter", "mlp-linear-2"),
)


BWD_FLOPS_RATIO = 2.0   # backward work relative to forward


def _module_time(shape, db: ProfileDB, opts: OptimizationSet, backward: bool) -> float:
    """The module's work over its rate in db: its profiled throughput in one
    direction times its compute lambda, capped by the roofline."""
    if shape.flops_fwd == 0:
        return 0.0
    entry = db.compute.lookup(shape.name)
    cap = (roofline_bound(entry.intensity, 1.0, db.hardware)
           if entry.intensity is not None else db.hardware.gpu_peak_flops)
    return op_time(shape.flops_fwd * (BWD_FLOPS_RATIO if backward else 1.0),
                   min(entry.throughput(backward) * opts.compute_lambda(shape.name), cap))


def _collective_time(db: ProfileDB, opts: OptimizationSet, kind: str,
                     group: int, volume: float) -> float:
    if volume == 0:
        return 0.0
    bw, beta = db.comm.effective_bandwidth(kind, group, volume)
    return comm_time(volume, bw * opts.comm_lambda(kind), beta)


class LayerCost(NamedTuple):
    fwd: TimeParts
    bwd: TimeParts
    t_qkv_fwd: float
    t_attention_fwd: float


def layer_cost(arch: ModelArchitecture, plan: ParallelPlan, db: ProfileDB,
               opts: OptimizationSet | None = None, dtypes: Dtypes = Dtypes(),
               decomp: Decomposition | None = None) -> LayerCost:
    """Per-layer forward/backward latency with exposure channels, plus the
    forward times the recomputation strategies replay."""
    opts = opts or NO_FEATURES
    if decomp is None:
        decomp = decompose(arch, plan, act_dtype_bytes=dtypes.act_bytes)

    # Message bytes: a full activation per tp collective, a context-sharded
    # one per cp ring hop and its top-k routed copies per ep all-to-all.
    b, s, h, d_act = plan.micro_batch, arch.seq_len, arch.hidden_size, dtypes.act_bytes
    tp_times: dict[str, float] = {}
    if plan.tp > 1:
        vol = b * s * h * d_act
        tp_times = {kind: _collective_time(db, opts, kind, plan.tp, vol)
                    for kind in ("all-gather", "reduce-scatter")}
    cp_total = 0.0
    if plan.cp > 1:
        vol = b * (s / plan.cp) * h * d_act
        cp_total = (plan.cp - 1) * _collective_time(db, opts, "p2p", 2, vol)
    ep_total = 0.0
    if plan.ep > 1:
        vol = b * (s / plan.cp) * arch.top_k * h * d_act
        # dispatch + combine
        ep_total = 2 * _collective_time(db, opts, "all-to-all", plan.ep, vol)

    # Each direction sums its module times in layer order; each tp partner
    # and attention-core name occurs once per layer.
    names = [m.name for m in decomp.layer]

    def attention(times: list[float]) -> float:
        return sum(t for name, t in zip(names, times) if name in ATTENTION_CORE_MODULES)

    def exposed(times: list[float]) -> TimeParts:
        hidden: tuple[str, ...] = ()   # modules a tp or cp overlap hides comm behind
        tp = cp = ep = 0.0
        if tp_times:
            if opts.tp_overlap is not None:
                ov, hidden = opts.tp_overlap, tuple(partner for _, partner in _TP_PAIRS)
                for kind, partner in _TP_PAIRS:
                    t_comp = times[names.index(partner)]
                    tp += _optim.tp_overlap(t_comp, tp_times[kind], ov.splits,
                                            ov.alpha, ov.beta) - t_comp
            else:
                tp = sum(tp_times[kind] for kind, _ in _TP_PAIRS)
        if cp_total > 0:
            if opts.cp_overlap is not None:
                ov, hidden = opts.cp_overlap, hidden + ATTENTION_CORE_MODULES
                t_att = attention(times)
                cp = _optim.cp_overlap(t_att, cp_total, plan.cp, ov.alpha, ov.beta) - t_att
            else:
                cp = cp_total
        if ep_total > 0:
            if opts.ep_overlap is not None:
                ov = opts.ep_overlap
                remaining = sum(t for name, t in zip(names, times) if name not in hidden)
                ep = _optim.ep_overlap(remaining, ep_total, ov.alpha, ov.beta) - remaining
            else:
                ep = ep_total
        return TimeParts(sum(times), tp, cp, ep)

    fwd_times = [_module_time(m, db, opts, False) for m in decomp.layer]
    return LayerCost(
        fwd=exposed(fwd_times),
        bwd=exposed([_module_time(m, db, opts, True) for m in decomp.layer]),
        t_qkv_fwd=fwd_times[names.index("qkv")],
        t_attention_fwd=attention(fwd_times),
    )


# ---------------------------------------------------------------------------
# Pipeline level


def _phase_counts(plan: ParallelPlan) -> tuple:
    """The integer factors of the phase formula, and the m_b < p note."""
    p, v, l, m_b = plan.pp, plan.chunks, plan.layers_per_stage, plan.micro_batches
    notes: tuple[str, ...] = ()
    if m_b < p:
        notes = (f"degenerate pipeline: micro_batches={m_b} < pp={p}; "
                 "phase formulas evaluated as defined",)
    return p, l, v * p - p - 1, m_b - p, v * l, 4 * m_b * v - 2 * m_b + 2 * p - 2, notes


def _phases(counts: tuple, t_fwd: float, t_bwd: float, t_pp: float, pp_s: float,
            e_f: float, e_b: float, h_f: float, h_b: float) -> tuple:
    """The phase expression on _phase_counts: (warmup, steady, cooldown, total)."""
    p, l, fill, extra, vl, hops, _ = counts
    warmup = p * (e_f + l * t_fwd + t_pp) + fill * (l * t_fwd + t_pp)
    steady = (p * (l * t_fwd + h_f + h_b + l * t_bwd)
              + extra * (vl * t_fwd + h_f + h_b + l * t_bwd)
              + hops * pp_s)
    cooldown = p * (e_b + l * t_bwd + t_pp) + fill * (l * t_bwd + t_pp)
    return warmup, steady, cooldown, warmup + steady + cooldown


def _channel(counts: tuple, t_fwd: float, t_bwd: float, t_pp: float = 0.0,
             pp_s: float = 0.0) -> float:
    """One exposure channel's phase total. With every input zero it is +0.0
    for any plan (each term is an integer times +-0.0, added to +0.0), so
    that case returns 0.0 without evaluating."""
    if t_fwd or t_bwd or t_pp or pp_s:
        return _phases(counts, t_fwd, t_bwd, t_pp, pp_s, 0.0, 0.0, 0.0, 0.0)[3]
    return 0.0


def pipeline_time(t_fwd: float, t_bwd: float, plan: ParallelPlan, *,
                  t_pp: float = 0.0, t_embed: float = 0.0, t_embed_bwd: float = 0.0,
                  t_head: float = 0.0, t_head_bwd: float = 0.0,
                  t_pp_steady: float | None = None) -> PipelinePhases:
    """Interleaved 1F1B phase times from per-layer forward/backward latency.

    All times are per layer except the embedding/head terms and the pipeline
    hop t_pp; t_pp_steady substitutes an overlapped hop cost in the steady
    phase only."""
    counts = _phase_counts(plan)
    pp_s = t_pp if t_pp_steady is None else t_pp_steady
    return PipelinePhases(*_phases(counts, t_fwd, t_bwd, t_pp, pp_s, t_embed,
                                   t_embed_bwd, t_head, t_head_bwd), counts[-1])


# ---------------------------------------------------------------------------
# Step level


def step_time(t_pipeline: float, t_opt: float) -> float:
    total = t_pipeline + t_opt
    if total <= 0:
        raise InputError(f"step time must be positive, got {total}")
    if not math.isfinite(total):
        raise InfeasibleError(NOT_FINITE)
    return total


TFLOPS_MODES = ("fwd-bwd-per-device", "raw")


def tflops(model_fwd_flops: float, plan: ParallelPlan, t_step: float,
           mode: str = "fwd-bwd-per-device") -> float:
    """Achieved teraFLOPS from forward model FLOPs per global batch.

    The default convention counts forward+backward as 3x the forward work and
    divides by the world size (per-device number). 'raw' divides the plain
    forward count by step time only."""
    if t_step <= 0:
        raise InputError("t_step must be positive")
    if mode == "raw":
        return model_fwd_flops / 1e12 / t_step
    if mode == "fwd-bwd-per-device":
        return 3.0 * model_fwd_flops / 1e12 / (plan.world_size * t_step)
    raise InputError(f"unknown tflops mode {mode!r}")


# ---------------------------------------------------------------------------
# Full evaluation


class EvalMemo:
    """The context of the evaluations of one (arch, db, dtypes), and the work
    they share, as the tuner's are for every candidate of a tune. Whether the
    profile is complete, so that no lookup can fail and a plan over the
    memory limit may skip latency, is set once. Each table is keyed by what
    its values read:

    * `combos`, per OptimizationSet by identity (the entry holds the set, so
      its id cannot be reused): small ids from `classes`, equal for equal
      fields, for three classes. The layer-cost class is compute and comm
      scaling and the tp/cp/ep overlaps; the layer-time class adds the
      activation strategy and offload coefficients; the terms class adds
      pp_overlap and dp_overlap, every field but the optimizer strategy. A
      set's scaling maps must not change while its memo is in use.
    * `decomps`, per shape (tp, cp, ep, micro_batch), the only plan fields
      decompose reads: its Decomposition, or the ShapeError message it
      raised, raised again for every later plan of that shape.
    * `depths`, per shape, pp, chunks and num_layers: the held parameters
      and their parameter and gradient bytes, every activation strategy's
      bytes (the retention factor warmup_depth(0)+1 reads only pp and
      chunks), and the static bytes of the none and cpu optimizer
      strategies, which read only the held parameters and the hardware.
    * `shapes`, per shape and layer-cost id: the layer cost and the
      embedding/head module times. `parts`, per shape and layer-time id: the
      strategy-adjusted layer TimeParts and their totals.
    * `terms`, per terms id, for the current plan (the last one seen, by
      identity) from its first full evaluation on: the phases, the five
      exposure channels and t_dp. The plan's phase counts (_phase_counts)
      and the static bytes of the distributed optimizer strategy, which
      divide by dp, are kept beside it. A full evaluation adds only
      t_update, the step time and TFLOPS.
    * `collectives`, per (kind, group size, message bytes,
      comm_lambda(kind)): the times of the pipeline hop, the dp all-reduce
      and the dp overlap's per-chunk reduce-scatter/all-gather.
    * `flops`, per batch split (micro_batch, micro_batches * dp):
      model_flops_total.

    evaluate_plan without a memo uses a fresh one, so shared and unshared
    evaluations compute every term through the same functions; without a
    set it uses NO_FEATURES, so such calls share one `combos` entry."""

    def __init__(self, arch: ModelArchitecture, db: ProfileDB, dtypes: Dtypes) -> None:
        self.arch, self.db, self.dtypes, self.hw = arch, db, dtypes, db.hardware
        self.complete = db.compute.has_wildcard and db.comm.has_every_kind
        self.plan: ParallelPlan | None = None
        self.combos: dict[int, tuple] = {}
        self.classes: tuple[dict, ...] = ({}, {}, {})   # per class: fields -> id
        self.decomps: dict[tuple, Decomposition | str] = {}
        self.depths: dict[tuple, tuple] = {}
        self.shapes: dict[tuple, tuple] = {}
        self.parts: dict[tuple, tuple] = {}
        self.collectives: dict[tuple, float] = {}
        self.flops: dict[tuple[int, int], float] = {}

    def combo(self, opts: OptimizationSet) -> tuple:
        """opts' entry: (opts, layer-cost id, layer-time id, terms id)."""
        entry = self.combos.get(id(opts))
        if entry is None:
            cost = (tuple(opts.compute_scaling.items()), tuple(opts.comm_scaling.items()),
                    opts.tp_overlap, opts.cp_overlap, opts.ep_overlap)
            time = (cost, opts.activation_strategy, opts.offload_coeffs)
            keys = (cost, time, (time, opts.pp_overlap, opts.dp_overlap))
            entry = self.combos[id(opts)] = (
                opts, *(ids.setdefault(key, len(ids)) for ids, key in zip(self.classes, keys)))
        return entry

    def start_plan(self, plan: ParallelPlan) -> None:
        """Set the decomposition and byte terms of `plan`, valid as built or
        pruned; raises ShapeError for a shape decompose rejects."""
        shape = (plan.tp, plan.cp, plan.ep, plan.micro_batch)
        decomp = self.decomps.get(shape)
        if decomp is None:
            try:
                decomp = decompose(self.arch, plan, act_dtype_bytes=self.dtypes.act_bytes)
            except ShapeError as exc:
                decomp = str(exc)
            self.decomps[shape] = decomp
        if isinstance(decomp, str):
            raise ShapeError(decomp)
        self.plan, self.shape, self.decomp = plan, shape, decomp
        key = (*shape, plan.pp, plan.chunks, plan.num_layers)
        depth = self.depths.get(key)
        if depth is None:
            held = plan.chunks * plan.layers_per_stage * decomp.layer_params
            dt = self.dtypes
            self.params_held = held
            self.param_bytes, self.grad_bytes = dt.param_bytes * held, dt.grad_bytes * held
            depth = self.depths[key] = (
                held, self.param_bytes, self.grad_bytes,
                {strategy: self.activation(strategy, t_fwd=0.0, t_bwd=0.0)[0]
                 for strategy in _optim.ACTIVATION_STRATEGIES},
                {strategy: self.static_bytes(strategy)
                 for strategy in _optim.OPTIMIZER_STRATEGIES if strategy != "distributed"})
        self.params_held, self.param_bytes, self.grad_bytes, self.act_bytes, self.static = depth
        self.sharded = self.static_bytes("distributed")
        self.terms: dict[int, tuple] | None = None

    def collective(self, opts: OptimizationSet, kind: str, group: int,
                   volume: float) -> float:
        """_collective_time, memoised on the inputs it reads."""
        key = (kind, group, volume, opts.comm_lambda(kind))
        t = self.collectives.get(key)
        if t is None:
            t = self.collectives[key] = _collective_time(self.db, opts, kind, group, volume)
        return t

    def activation(self, strategy: str, **times) -> tuple[float, float, float]:
        """The activation strategy op on the current plan's byte terms; the
        first norm retains the layer input."""
        d = self.decomp
        return _optim.apply_activation_strategy(
            strategy, self.plan, act_bytes_per_layer=d.layer_act_bytes,
            attention_act_bytes=d.attention_act_bytes,
            input_act_bytes=d.layer[0].act_bytes, hw=self.hw, **times)

    def optimizer(self, strategy: str, t_update: float) -> tuple[float, float]:
        """The optimizer strategy op on the current plan's parameter terms."""
        return _optim.apply_optimizer_strategy(
            strategy, self.plan, 4 * self.dtypes.opt_bytes * self.params_held, t_update,
            params_total=self.decomp.layer_params, grad_bytes_total=self.grad_bytes,
            param_bytes_total=self.param_bytes, hw=self.hw)

    def static_bytes(self, strategy: str) -> tuple[float, float]:
        """(static bytes, optimizer-state bytes) of the current plan under an
        optimizer strategy; the strategy ops return the same bytes for any
        update time."""
        opt_bytes = self.optimizer(strategy, 0.0)[0]
        dt = self.dtypes
        return (dt.param_bytes + dt.grad_bytes) * self.params_held + opt_bytes, opt_bytes


def _plan_terms(memo: EvalMemo, opts: OptimizationSet, cost_id: int, time_id: int) -> tuple:
    """The cost terms of memo's current plan under `opts`, whose combo ids
    are given, that no optimizer strategy changes: the CostReport fields
    before t_update, and those after tflops."""
    arch, db, dtypes, plan, decomp = memo.arch, memo.db, memo.dtypes, memo.plan, memo.decomp
    parts = memo.parts.get((memo.shape, time_id))
    if parts is None:
        shape = memo.shapes.get((memo.shape, cost_id))
        if shape is None:
            shape = memo.shapes[memo.shape, cost_id] = (
                layer_cost(arch, plan, db, opts, dtypes, decomp=decomp),
                tuple(_module_time(m, db, opts, backward)
                      for m in (decomp.embedding, decomp.head) for backward in (False, True)))
        lc, ends = shape   # ends: the embedding and head forward/backward times

        # Activation strategy: scalar result from the strategy op, then the
        # delta mirrored onto the channel split so totals stay consistent.
        _, fwd_total, bwd_total = memo.activation(
            opts.activation_strategy, t_fwd=lc.fwd.total, t_bwd=lc.bwd.total,
            t_qkv=lc.t_qkv_fwd, t_attention=lc.t_attention_fwd, coeffs=opts.offload_coeffs)
        fwd_parts, bwd_parts = lc.fwd, lc.bwd
        if opts.activation_strategy == "full-recompute":
            bwd_parts = bwd_parts + fwd_parts
        else:
            bwd_parts = TimeParts(bwd_parts.cal + (bwd_total - lc.bwd.total),
                                  bwd_parts.tp, bwd_parts.cp, bwd_parts.ep)
        fwd_parts = TimeParts(fwd_parts.cal + (fwd_total - lc.fwd.total),
                              fwd_parts.tp, fwd_parts.cp, fwd_parts.ep)
        parts = memo.parts[memo.shape, time_id] = (fwd_parts, bwd_parts, fwd_parts.total,
                                                   bwd_parts.total, ends)
    fwd_parts, bwd_parts, t_fwd, t_bwd, ends = parts

    # The pipeline hop, the held gradients' all-reduce and, under a dp
    # overlap, its per-chunk reduce-scatter/all-gather. The all-reduce is
    # timed even where the overlap replaces it, so that a profile without
    # it fails alike.
    t_pp_hop = 0.0
    if plan.pp > 1:
        vol = plan.micro_batch * (arch.seq_len / plan.cp) * arch.hidden_size * dtypes.act_bytes
        t_pp_hop = memo.collective(opts, "p2p", 2, vol)
    vol = dtypes.grad_bytes * plan.chunks * plan.layers_per_stage * decomp.layer_params
    t_dp = memo.collective(opts, "all-reduce", plan.dp, vol) if plan.dp > 1 else 0.0
    if opts.dp_overlap is not None and plan.dp > 1:
        per_chunk_params = plan.layers_per_stage * decomp.layer_params
        rs = [memo.collective(opts, "reduce-scatter", plan.dp,
                              dtypes.grad_bytes * per_chunk_params)] * plan.chunks
        ag = [memo.collective(opts, "all-gather", plan.dp,
                              dtypes.param_bytes * per_chunk_params)] * plan.chunks
        t_dp = _optim.dp_overlap(rs, ag, t_fwd, t_bwd, plan, opts.dp_overlap)

    # The hop's steady-phase overlap.
    t_pp_steady = t_pp_hop
    if opts.pp_overlap is not None and t_pp_hop > 0:
        ov = opts.pp_overlap
        # Steady alternates directions; hide behind the mean of one stage's
        # forward and backward layer block.
        hide = plan.layers_per_stage * (t_fwd + t_bwd) / 2.0
        t_pp_steady = _optim.pp_overlap(t_pp_hop, hide, ov.alpha, ov.beta)

    counts = memo.counts
    warmup, steady, cooldown, t_pipeline = _phases(
        counts, t_fwd, t_bwd, t_pp_hop, t_pp_steady, *ends)
    # The phase formulas are linear in their inputs, so each exposure channel
    # is the same expression on that channel's terms alone.
    t_cal = _phases(counts, fwd_parts.cal, bwd_parts.cal, 0.0, 0.0, *ends)[3]
    t_tp = _channel(counts, fwd_parts.tp, bwd_parts.tp)
    t_cp = _channel(counts, fwd_parts.cp, bwd_parts.cp)
    t_ep = _channel(counts, fwd_parts.ep, bwd_parts.ep)
    t_pp = _channel(counts, 0.0, 0.0, t_pp_hop, t_pp_steady)
    return ((t_fwd, t_bwd, warmup, steady, cooldown, t_pipeline, t_dp),
            (t_cal, t_tp, t_pp, t_ep, t_cp, counts[-1]))


def evaluate_plan(arch: ModelArchitecture, plan: ParallelPlan, db: ProfileDB,
                  opts: OptimizationSet | None = None,
                  dtypes: Dtypes = Dtypes(),
                  tflops_mode: str = "fwd-bwd-per-device",
                  memory_limit: float | None = None,
                  memo: EvalMemo | None = None) -> PlanEvaluation:
    """Evaluate one plan end to end: memory, then layer times with feature
    overlays, pipeline phases, optimizer, step time and TFLOPS.

    Memory depends on the decomposition, the plan and the strategies, never
    on latency. When its peak exceeds memory_limit, cost is None. The latency
    terms are then skipped if the profile is complete; otherwise they still
    run, so a missing profile entry raises as it would without the limit.
    memo, when given, must be the EvalMemo of this arch, db and dtypes."""
    opts = opts or NO_FEATURES
    if memo is None:
        memo = EvalMemo(arch, db, dtypes)
    elif memo.arch is not arch or memo.db is not db or memo.dtypes is not dtypes:
        if (memo.arch, memo.db, memo.dtypes) != (arch, db, dtypes):
            raise InputError("memo was built for another arch, db or dtypes")
    if memo.plan is not plan:
        memo.start_plan(plan)

    # Memory: every strategy's bytes are kept per depth, the distributed
    # optimizer's per plan.
    strategy = opts.optimizer_strategy
    m_static, opt_bytes = memo.sharded if strategy == "distributed" else memo.static[strategy]
    m_act = memo.act_bytes[opts.activation_strategy]
    # tuple.__new__ skips the NamedTuples' Python-level __new__, a large part
    # of a memory rejection's cost.
    memory = tuple.__new__(MemoryReport, (m_static, m_act, m_static + m_act,
                                         memo.param_bytes, memo.grad_bytes, opt_bytes, ()))
    over_limit = memory_limit is not None and memory.m_peak > memory_limit
    if over_limit and memo.complete:
        return tuple.__new__(PlanEvaluation, (None, memory))  # no lookup below can fail

    _, cost_id, time_id, terms_id = memo.combo(opts)
    if memo.terms is None:   # the plan's first full evaluation
        memo.counts, memo.terms = _phase_counts(plan), {}
    terms = memo.terms.get(terms_id)
    if terms is None:
        terms = memo.terms[terms_id] = _plan_terms(memo, opts, cost_id, time_id)
    head, tail = terms   # head ends with t_pipeline and t_dp

    # Optimizer: the base update under the strategy, after the dp term.
    p_opt = memo.hw.optimizer_throughput * opts.compute_lambda("optimizer")
    t_update = memo.optimizer(strategy, memo.params_held / p_opt)[1]
    t_opt = head[6] + t_update

    t_step = step_time(head[5], t_opt)
    split = (plan.micro_batch, plan.micro_batches * plan.dp)
    flops = memo.flops.get(split)
    if flops is None:
        flops = memo.flops[split] = model_flops_total(arch, plan)
    achieved = tflops(flops, plan, t_step, mode=tflops_mode)
    cost = tuple.__new__(CostReport, (*head, t_update, t_opt, t_step, achieved, *tail))
    return tuple.__new__(PlanEvaluation, (None if over_limit else cost, memory))
