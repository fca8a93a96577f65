"""Optimization-feature overlays: the scaling tables, overlap equations, and
the optimizer/activation memory strategies.

Every overlap follows the same pattern: two latencies that the runtime can
execute concurrently collapse into a residual term plus a max of the two,
inflated by contention coefficients alpha (communication side) and beta
(computation side).  Coefficients default to 1.0 and must be >= 1.
"""

from __future__ import annotations

from .errors import (MAX_COUNT, ConfigError, InputError, check_count, check_keys,
                     check_number, check_object, record)
from .plan import ParallelPlan
from .profile import HardwareSpec

OPTIMIZER_STRATEGIES = ("none", "distributed", "cpu")
ACTIVATION_STRATEGIES = ("none", "selective-recompute", "full-recompute", "offload")


@record
class OverlapCoeffs:
    def __new__(cls, alpha: float = 1.0, beta: float = 1.0, splits: int = 1):
        """alpha inflates the communication time under contention, beta the
        computation time; splits is the pipelining split count (tensor-parallel
        overlap only)."""
        check_number("alpha", alpha, low=1.0)
        check_number("beta", beta, low=1.0)
        check_count("splits", splits, high=MAX_COUNT)
        return tuple.__new__(cls, (alpha, beta, splits))


@record
class DpOverlapCoeffs:
    def __new__(cls, alpha_rs: float = 1.0, beta_bwd: float = 1.0, alpha_ag: float = 1.0,
                beta_fwd: float = 1.0, mode: str = "exposed-only"):
        """mode is "exposed-only" or "verbatim"."""
        values = (alpha_rs, beta_bwd, alpha_ag, beta_fwd)
        for name, value in zip(cls._fields, values):
            check_number(name, value, low=1.0)
        if mode not in ("exposed-only", "verbatim"):
            raise InputError(f"unknown dp overlap mode {mode!r}")
        return tuple.__new__(cls, (*values, mode))


@record
class OffloadCoeffs:
    def __new__(cls, alpha_offload: float = 1.0, beta_offload: float = 1.0,
                alpha_fetch: float = 1.0, beta_fetch: float = 1.0):
        """Inflation of the device-to-host transfer, the forward compute, the
        host-to-device transfer and the backward compute."""
        values = (alpha_offload, beta_offload, alpha_fetch, beta_fetch)
        for name, value in zip(cls._fields, values):
            check_number(name, value, low=1.0)
        return tuple.__new__(cls, values)


@record
class OptimizationSet:
    """Which features are active and with what coefficients.

    Scaling maps are keyed by module name (compute) or collective kind
    (communication), with '*' as the fallback key; None stands for an empty
    map."""

    def __new__(cls, compute_scaling: dict[str, float] | None = None,
                comm_scaling: dict[str, float] | None = None,
                tp_overlap: OverlapCoeffs | None = None,
                cp_overlap: OverlapCoeffs | None = None,
                ep_overlap: OverlapCoeffs | None = None,
                pp_overlap: OverlapCoeffs | None = None,
                dp_overlap: DpOverlapCoeffs | None = None,
                optimizer_strategy: str = "none", activation_strategy: str = "none",
                offload_coeffs: OffloadCoeffs = OffloadCoeffs()):
        if optimizer_strategy not in OPTIMIZER_STRATEGIES:
            raise InputError(f"unknown optimizer strategy {optimizer_strategy!r}")
        if activation_strategy not in ACTIVATION_STRATEGIES:
            raise InputError(f"unknown activation strategy {activation_strategy!r}")
        tables = ({} if compute_scaling is None else compute_scaling,
                  {} if comm_scaling is None else comm_scaling)
        for table, scaling in zip(cls._fields, tables):
            for key, value in scaling.items():
                check_number(f"{table} {key!r}", value, strict=True)
        return tuple.__new__(cls, (*tables, tp_overlap, cp_overlap, ep_overlap, pp_overlap,
                                   dp_overlap, optimizer_strategy, activation_strategy,
                                   offload_coeffs))

    def compute_lambda(self, module: str) -> float:
        return self.compute_scaling.get(module, self.compute_scaling.get("*", 1.0))

    def comm_lambda(self, kind: str) -> float:
        return self.comm_scaling.get(kind, self.comm_scaling.get("*", 1.0))

    def feature_names(self) -> list[str]:
        """Active features, for report rendering."""
        names = []
        if self.compute_scaling:
            names.append("compute-scaling")
        if self.comm_scaling:
            names.append("comm-scaling")
        for attr in ("tp_overlap", "cp_overlap", "ep_overlap", "pp_overlap", "dp_overlap"):
            if getattr(self, attr) is not None:
                names.append(attr.replace("_", "-"))
        if self.optimizer_strategy != "none":
            names.append(f"{self.optimizer_strategy}-optimizer")
        if self.activation_strategy != "none":
            names.append(self.activation_strategy)
        return names

    @classmethod
    def from_json_dict(cls, data: dict) -> "OptimizationSet":
        check_keys(data, cls._fields, "optimization")
        kwargs: dict = {}
        for table in ("compute_scaling", "comm_scaling"):
            kwargs[table] = dict(check_object(data.get(table, {}), table))
        for key, coeffs in (("tp_overlap", OverlapCoeffs), ("cp_overlap", OverlapCoeffs),
                            ("ep_overlap", OverlapCoeffs), ("pp_overlap", OverlapCoeffs),
                            ("dp_overlap", DpOverlapCoeffs), ("offload_coeffs", OffloadCoeffs)):
            raw = data.get(key)
            if raw is not None:  # splits pipelines the tp collectives only
                check_keys(raw, tuple(name for name in coeffs._fields
                                      if key == "tp_overlap" or name != "splits"), key)
                kwargs[key] = coeffs(**raw)
        kwargs["optimizer_strategy"] = data.get("optimizer_strategy", "none")
        kwargs["activation_strategy"] = data.get("activation_strategy", "none")
        return cls(**kwargs)


# Every feature off: the one set of the evaluations given none, one memo entry.
NO_FEATURES = OptimizationSet()


def default_feature_combos() -> tuple[OptimizationSet, ...]:
    """The default tuning allowlist: every overlap enabled with unit
    coefficients, crossed with each optimizer and activation strategy (those
    are mutually exclusive, so the cross enumerates them). The first entry is
    the strategy-free combination."""
    overlaps = dict(
        tp_overlap=OverlapCoeffs(), cp_overlap=OverlapCoeffs(),
        ep_overlap=OverlapCoeffs(), pp_overlap=OverlapCoeffs(),
        dp_overlap=DpOverlapCoeffs(),
    )
    return tuple(
        OptimizationSet(optimizer_strategy=opt, activation_strategy=act,
                        **overlaps)
        for opt in OPTIMIZER_STRATEGIES
        for act in ACTIVATION_STRATEGIES
    )


def tp_overlap(t_comp: float, t_tp: float, splits: int = 1,
               alpha: float = 1.0, beta: float = 1.0) -> float:
    """Exposed time of a matmul pipelined against its adjacent tensor-parallel
    collective in `splits` stages."""
    if splits < 1:
        raise InputError("splits must be >= 1")
    return min(t_comp, t_tp) / splits + max(alpha * t_comp, beta * t_tp)


def cp_overlap(t_attention: float, t_cp: float, cp: int = 1,
               alpha: float = 1.0, beta: float = 1.0) -> float:
    """Exposed time of ring attention hiding its peer-to-peer transfers."""
    if cp < 1:
        raise InputError("cp must be >= 1")
    return min(t_attention, t_cp) / cp + max(alpha * t_attention, beta * t_cp)


def ep_overlap(t_comp_sum: float, t_ep_sum: float,
               alpha: float = 1.0, beta: float = 1.0) -> float:
    """Exposed time when forward/backward compute mutually hides the expert
    all-to-all traffic."""
    return max(alpha * t_comp_sum, beta * t_ep_sum)


def pp_overlap(t_pp: float, t_layers_sum: float,
               alpha: float = 1.0, beta: float = 1.0) -> float:
    """Exposed steady-phase pipeline hop after hiding behind the next
    micro-batch's layer compute. alpha inflates the hiding compute, beta the
    hop itself."""
    return max(0.0, beta * t_pp - alpha * t_layers_sum)


def dp_overlap(
    chunk_rs: list[float],
    chunk_ag: list[float],
    t_fwd_layer: float,
    t_bwd_layer: float,
    plan: ParallelPlan,
    coeffs: DpOverlapCoeffs = DpOverlapCoeffs(),
) -> float:
    """Effective data-parallel communication time when chunk i+1's gradient
    reduce-scatter hides behind chunk i's backward and the parameter
    all-gather behind the forward.

    The first chunk's transfers are always exposed. In 'verbatim' mode, the
    remaining chunks contribute max(comm, hiding compute) as the source
    equation states; 'exposed-only' mode (default) contributes only the
    excess of comm over compute, since the compute is already counted in the
    pipeline phases."""
    v = plan.chunks
    if len(chunk_rs) != v or len(chunk_ag) != v:
        raise InputError(f"need {v} per-chunk times, got {len(chunk_rs)}/{len(chunk_ag)}")
    rest_rs = coeffs.alpha_rs * sum(chunk_rs[1:])
    rest_ag = coeffs.alpha_ag * sum(chunk_ag[1:])
    hide_bwd = coeffs.beta_bwd * plan.pp * plan.layers_per_stage * (v - 1) * t_bwd_layer
    hide_fwd = coeffs.beta_fwd * plan.pp * plan.layers_per_stage * (v - 1) * t_fwd_layer
    if coeffs.mode == "verbatim":
        tail = max(rest_rs, hide_bwd) + max(rest_ag, hide_fwd)
    else:
        tail = max(0.0, rest_rs - hide_bwd) + max(0.0, rest_ag - hide_fwd)
    return chunk_rs[0] + chunk_ag[0] + tail


def apply_optimizer_strategy(
    strategy: str,
    plan: ParallelPlan,
    optimizer_bytes: float,
    t_update: float,
    *,
    params_total: float = 0.0,
    grad_bytes_total: float = 0.0,
    param_bytes_total: float = 0.0,
    hw: HardwareSpec | None = None,
) -> tuple[float, float]:
    """Return (optimizer state bytes, parameter-update seconds) under the
    chosen strategy.

    'distributed' shards states and update work across the data-parallel
    group.  'cpu' keeps states in host memory (only the overflow beyond host
    capacity stays on device) and pays host-side update plus both transfer
    directions: gradients device to host at d2h_bw, parameters back at
    h2d_bw. params_total is the per-device parameter count,
    grad/param_bytes_total the corresponding transfer volumes."""
    if strategy == "none":
        return optimizer_bytes, t_update
    if strategy == "distributed":
        return optimizer_bytes / plan.dp, t_update / plan.dp
    if strategy == "cpu":
        if hw is None:
            raise ConfigError("cpu optimizer strategy requires a hardware spec")
        mem = max(0.0, optimizer_bytes - hw.cpu_memory)
        t = (params_total / hw.cpu_flops
             + grad_bytes_total / hw.d2h_bw
             + param_bytes_total / hw.h2d_bw)
        return mem, t
    raise InputError(f"unknown optimizer strategy {strategy!r}")


def apply_activation_strategy(
    strategy: str,
    plan: ParallelPlan,
    *,
    act_bytes_per_layer: float,
    attention_act_bytes: float,
    input_act_bytes: float,
    t_fwd: float,
    t_bwd: float,
    t_qkv: float = 0.0,
    t_attention: float = 0.0,
    hw: HardwareSpec | None = None,
    coeffs: OffloadCoeffs = OffloadCoeffs(),
    r_pp: int = 0,
) -> tuple[float, float, float]:
    """Return (activation bytes, forward seconds, backward seconds) for one
    layer under the chosen strategy.

    Recomputation variants keep the pipeline-depth retention factor;
    offloading retains a single layer's activations and turns each direction
    into a race between transfer and compute. r_pp is the pipeline stage
    whose retention is returned: the warmup stacks plan.warmup_depth(r_pp) + 1
    live micro-batch activations there, stage 0 holding the most."""
    if not 0 <= r_pp < plan.pp:
        raise InputError(f"r_pp must be in [0, pp), got {r_pp}")
    factor = plan.warmup_depth(r_pp) + 1
    if strategy == "none":
        return factor * act_bytes_per_layer, t_fwd, t_bwd
    if strategy == "selective-recompute":
        mem = factor * (act_bytes_per_layer - attention_act_bytes)
        return mem, t_fwd, t_bwd + t_qkv + t_attention
    if strategy == "full-recompute":
        return factor * input_act_bytes, t_fwd, t_bwd + t_fwd
    if strategy == "offload":
        if hw is None:
            raise ConfigError("offload strategy requires a hardware spec")
        mem = act_bytes_per_layer
        new_fwd = max(coeffs.alpha_offload * mem / hw.d2h_bw,
                      coeffs.beta_offload * t_fwd)
        new_bwd = max(coeffs.alpha_fetch * mem / hw.h2d_bw,
                      coeffs.beta_fetch * t_bwd)
        return mem, new_fwd, new_bwd
    raise InputError(f"unknown activation strategy {strategy!r}")
