"""Transformer architecture decomposition and FLOP/activation/parameter accounting.

A model is broken into a fixed per-layer module list (norm, qkv, attention map,
softmax, attention on value, o-projection, norm, mlp-linear-1, swiglu,
mlp-linear-2, and for MoE a router) plus an embedding and a head module.  Each
module carries three per-device numbers under a given parallel plan: forward
FLOPs for one micro-batch, activation bytes retained for the backward pass, and
the parameter count held on one device after sharding.

Sharding rules:
  * context parallelism evaluates every sequence term at s/cp (including the
    quadratic attention terms);
  * tensor parallelism divides FLOPs, activations and parameters of every
    module by tp;
  * expert modules are additionally divided by ep and their FLOPs multiplied
    by the routing top-k.

Attention variants: MHA is the base table; GQA scales the K/V share of the qkv
projection by query_groups/num_heads; the latent-attention variant is supported
only through per-module override entries supplied with the model.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property

from .errors import InputError, ShapeError, check_count, check_keys, check_number, check_object
from .plan import ParallelPlan

ATTENTION_KINDS = ("MHA", "GQA", "MLA-plugin")
STRUCTURE_KINDS = ("Dense", "MoE")

# Module-name groups used by activation strategies and overlap pairing.
ATTENTION_CORE_MODULES = ("attention-map", "softmax", "attention-on-value")
EXPERT_MODULES = ("mlp-linear-1", "swiglu", "mlp-linear-2")

# Config key -> ModelArchitecture field, in the order the config echo prints
# them; module_overrides is the one other model key.
MODEL_KEYS = {
    "L": "num_layers", "s": "seq_len", "h": "hidden_size", "a": "num_heads",
    "q": "query_groups", "V": "vocab_size", "g_d": "dense_ffn_size",
    "g_e": "expert_ffn_size", "t_k": "top_k", "n_experts": "num_experts",
    "attention": "attention_kind", "structure": "structure_kind",
}


@dataclass(frozen=True)
class ModuleOverride:
    """Per-module replacement for the built-in polynomials (used for attention
    variants the table does not cover). Values are per token of the full,
    unsharded model; the standard sharding divisors still apply."""
    flops_per_token: float | None = None
    act_elems_per_token: float | None = None
    params: float | None = None

    def __post_init__(self):
        for name in ("flops_per_token", "act_elems_per_token", "params"):
            if getattr(self, name) is not None:
                check_number(name, getattr(self, name))


@dataclass(frozen=True)
class ModelArchitecture:
    num_layers: int
    hidden_size: int
    seq_len: int
    num_heads: int
    vocab_size: int
    dense_ffn_size: int
    query_groups: int | None = None
    expert_ffn_size: int | None = None
    top_k: int | None = None
    num_experts: int | None = None
    attention_kind: str = "MHA"
    structure_kind: str = "Dense"
    module_overrides: dict[str, ModuleOverride] = field(default_factory=dict)

    def __post_init__(self):
        optional = ("query_groups", "expert_ffn_size", "top_k", "num_experts")
        for name in ("num_layers", "hidden_size", "seq_len", "num_heads", "vocab_size",
                     "dense_ffn_size", *optional):
            if name not in optional or getattr(self, name) is not None:
                check_count(name, getattr(self, name))
        if self.attention_kind not in ATTENTION_KINDS:
            raise InputError(f"unknown attention_kind {self.attention_kind!r}")
        if self.structure_kind not in STRUCTURE_KINDS:
            raise InputError(f"unknown structure_kind {self.structure_kind!r}")
        if self.attention_kind == "GQA":
            if not self.query_groups:
                raise InputError("GQA requires query_groups")
            if self.num_heads % self.query_groups != 0:
                raise InputError(
                    f"num_heads={self.num_heads} not divisible by "
                    f"query_groups={self.query_groups}"
                )
        if self.is_moe:
            if not (self.expert_ffn_size and self.top_k and self.num_experts):
                raise InputError("MoE requires expert_ffn_size, top_k and num_experts")
            if self.top_k > self.num_experts:
                raise InputError("top_k cannot exceed num_experts")

    @property
    def is_moe(self) -> bool:
        return self.structure_kind == "MoE"

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModelArchitecture":
        """Accepts the config keys of MODEL_KEYS and module_overrides."""
        check_keys(data, (*MODEL_KEYS, "module_overrides"), "model")
        kwargs = {MODEL_KEYS.get(key, key): value for key, value in data.items()}
        overrides = kwargs.get("module_overrides")
        if overrides is not None:
            known = tuple(f.name for f in fields(ModuleOverride))
            kwargs["module_overrides"] = {}
            for name, entry in check_object(overrides, "module_overrides").items():
                check_keys(entry, known, "module override")
                kwargs["module_overrides"][name] = ModuleOverride(**entry)
        if "structure_kind" not in kwargs:
            moe = kwargs.get("expert_ffn_size") and kwargs.get("num_experts")
            kwargs["structure_kind"] = "MoE" if moe else "Dense"
        return cls(**kwargs)

    def to_json_dict(self) -> dict:
        """The config keys of every field that is set; from_json_dict reads
        it back to an equal architecture."""
        out = {key: getattr(self, name) for key, name in MODEL_KEYS.items()
               if getattr(self, name) is not None}
        overrides = {name: {k: v for k, v in asdict(ov).items() if v is not None}
                     for name, ov in self.module_overrides.items()}
        return out | ({"module_overrides": overrides} if overrides else {})


@dataclass(frozen=True)
class ModuleShape:
    name: str
    flops_fwd: float
    act_bytes: float
    param_count: float
    is_expert: bool = False


@dataclass(frozen=True)
class Decomposition:
    """One layer's module list plus the embedding and head shapes. The
    per-layer sums are computed on first read and kept."""
    layer: tuple[ModuleShape, ...]
    embedding: ModuleShape
    head: ModuleShape

    @cached_property
    def layer_flops(self) -> float:
        return sum(m.flops_fwd for m in self.layer)

    @cached_property
    def layer_act_bytes(self) -> float:
        return sum(m.act_bytes for m in self.layer)

    @cached_property
    def attention_act_bytes(self) -> float:
        return sum(m.act_bytes for m in self.layer if m.name in ATTENTION_CORE_MODULES)

    @cached_property
    def layer_params(self) -> float:
        return sum(m.param_count for m in self.layer)


def _check_divisibility(arch: ModelArchitecture, plan: ParallelPlan) -> None:
    if arch.hidden_size % plan.tp != 0:
        raise ShapeError(f"hidden_size={arch.hidden_size} not divisible by tp={plan.tp}")
    if arch.num_heads % plan.tp != 0:
        raise ShapeError(f"num_heads={arch.num_heads} not divisible by tp={plan.tp}")
    if arch.seq_len % plan.cp != 0:
        raise ShapeError(f"seq_len={arch.seq_len} not divisible by cp={plan.cp}")
    if arch.is_moe and arch.num_experts % plan.ep != 0:
        raise ShapeError(
            f"num_experts={arch.num_experts} not divisible by ep={plan.ep}"
        )
    if not arch.is_moe and plan.ep != 1:
        raise ShapeError("ep > 1 requires an MoE architecture")


def decompose(
    arch: ModelArchitecture,
    plan: ParallelPlan,
    act_dtype_bytes: float = 2.0,
) -> Decomposition:
    """Evaluate the per-module cost table at b=micro_batch under the plan's
    sharding, returning per-device shapes."""
    _check_divisibility(arch, plan)
    b = plan.micro_batch
    h = arch.hidden_size
    s = arch.seq_len / plan.cp
    gd = arch.dense_ffn_size
    t = plan.tp
    dt = act_dtype_bytes

    # qkv projection: GQA shrinks the K/V share by query_groups/num_heads.
    if arch.attention_kind == "GQA":
        kv_scale = arch.query_groups / arch.num_heads
    else:
        kv_scale = 1.0
    qkv_flops = 2 * b * s * h * h * (1 + 2 * kv_scale)
    qkv_params = h * h * (1 + 2 * kv_scale)

    def dense(name, flops, act_elems, params) -> ModuleShape:
        return ModuleShape(name, flops / t, act_elems * dt / t, params / t)

    modules = [
        dense("norm", b * s * h, 2 * b * s * h, h),
        dense("qkv", qkv_flops, 2 * b * s * h, qkv_params),
        dense("attention-map", 2 * b * s * s * h, 6 * b * s * h, 0),
        dense("softmax", 0, 2 * b * s * s, 0),
        dense("attention-on-value", 2 * b * s * s * h, 2 * b * s * s, 0),
        dense("o-projection", 2 * b * s * h * h, 2 * b * s * h, h * h),
        dense("norm", b * s * h, 2 * b * s * h, h),
    ]
    if arch.is_moe:
        ge = arch.expert_ffn_size
        tk = arch.top_k
        ne = arch.num_experts
        share = tk / (plan.ep * t)
        modules.append(dense("router", 0, 0, h * ne))
        # The published MLP table keeps the dense ffn width in the first
        # linear's FLOPs even for MoE; evaluated as printed, overridable below.
        modules.extend([
            ModuleShape("mlp-linear-1", 4 * b * s * h * gd * share,
                        2 * b * s * h * dt * share, ne * 2 * h * ge / (plan.ep * t),
                        is_expert=True),
            ModuleShape("swiglu", b * s * ge * share,
                        b * s * ge * dt * share, 0, is_expert=True),
            ModuleShape("mlp-linear-2", 2 * b * s * h * ge * share,
                        b * s * ge * dt * share, ne * h * ge / (plan.ep * t),
                        is_expert=True),
        ])
    else:
        modules.extend([
            dense("mlp-linear-1", 4 * b * s * h * gd, 2 * b * s * h, 2 * h * gd),
            dense("swiglu", b * s * gd, b * s * gd, 0),
            dense("mlp-linear-2", 2 * b * s * h * gd, b * s * gd, h * gd),
        ])

    embedding = dense("embedding", b * s * h, 2 * b * s * h, arch.vocab_size * h)
    head = dense("head", 2 * b * s * h * arch.vocab_size, b * s * h,
                 arch.vocab_size * h)

    if arch.module_overrides:
        modules = [_apply_override(m, arch, plan, b, s, dt) for m in modules]
        embedding = _apply_override(embedding, arch, plan, b, s, dt)
        head = _apply_override(head, arch, plan, b, s, dt)
    return Decomposition(tuple(modules), embedding, head)


def _apply_override(shape: ModuleShape, arch: ModelArchitecture,
                    plan: ParallelPlan, b: float, s: float,
                    dt: float) -> ModuleShape:
    ov = arch.module_overrides.get(shape.name)
    if ov is None:
        return shape
    div = plan.tp * (plan.ep if shape.is_expert else 1)
    flops = shape.flops_fwd
    act = shape.act_bytes
    params = shape.param_count
    if ov.flops_per_token is not None:
        flops = ov.flops_per_token * b * s / div
    if ov.act_elems_per_token is not None:
        act = ov.act_elems_per_token * b * s * dt / div
    if ov.params is not None:
        params = ov.params / div
    return ModuleShape(shape.name, flops, act, params, shape.is_expert)


def model_flops_total(arch: ModelArchitecture, plan: ParallelPlan) -> float:
    """Unsharded forward FLOPs for one global batch: embedding + head +
    num_layers * layer, scaled from micro-batch to global batch."""
    neutral = replace(plan, tp=1, cp=1, ep=1)
    d = decompose(arch, neutral)
    scale = plan.micro_batches * plan.dp
    return (d.embedding.flops_fwd + d.head.flops_fwd
            + arch.num_layers * d.layer_flops) * scale
