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

from typing import NamedTuple

from .errors import (MAX_COUNT, InputError, ShapeError, check_count, check_keys,
                     check_number, check_object, record)
from .plan import ParallelPlan

ATTENTION_KINDS = ("MHA", "GQA", "MLA-plugin")
STRUCTURE_KINDS = ("Dense", "MoE")

# Module-name groups used by activation strategies and overlap pairing.
ATTENTION_CORE_MODULES = ("attention-map", "softmax", "attention-on-value")

# Config key -> ModelArchitecture field, in the order the config echo prints
# them; module_overrides is the one other model key.
MODEL_KEYS = {
    "L": "num_layers", "s": "seq_len", "h": "hidden_size", "a": "num_heads",
    "q": "query_groups", "V": "vocab_size", "g_d": "dense_ffn_size",
    "g_e": "expert_ffn_size", "t_k": "top_k", "n_experts": "num_experts",
    "attention": "attention_kind", "structure": "structure_kind",
}


@record
class ModuleOverride:
    """Per-module replacement for the built-in polynomials (used for attention
    variants the table does not cover). Values are per token of the full,
    unsharded model; the standard sharding divisors still apply."""

    def __new__(cls, flops_per_token: float | None = None,
                act_elems_per_token: float | None = None, params: float | None = None):
        values = (flops_per_token, act_elems_per_token, params)
        for name, value in zip(cls._fields, values):
            if value is not None:
                check_number(name, value)
        return tuple.__new__(cls, values)


@record
class ModelArchitecture:
    def __new__(cls, num_layers: int, hidden_size: int, seq_len: int, num_heads: int,
                vocab_size: int, dense_ffn_size: int, query_groups: int | None = None,
                expert_ffn_size: int | None = None, top_k: int | None = None,
                num_experts: int | None = None, attention_kind: str = "MHA",
                structure_kind: str = "Dense",
                module_overrides: dict[str, ModuleOverride] | None = None):
        """module_overrides=None stands for no overrides, {}."""
        optional = ("query_groups", "expert_ffn_size", "top_k", "num_experts")
        values = (num_layers, hidden_size, seq_len, num_heads, vocab_size, dense_ffn_size,
                  query_groups, expert_ffn_size, top_k, num_experts)
        for name, value in zip(cls._fields, values):
            if name not in optional or value is not None:
                check_count(name, value, high=MAX_COUNT)
        if attention_kind not in ATTENTION_KINDS:
            raise InputError(f"unknown attention_kind {attention_kind!r}")
        if structure_kind not in STRUCTURE_KINDS:
            raise InputError(f"unknown structure_kind {structure_kind!r}")
        if attention_kind == "GQA":
            if not query_groups:
                raise InputError("GQA requires query_groups")
            if num_heads % query_groups != 0:
                raise InputError(
                    f"num_heads={num_heads} not divisible by "
                    f"query_groups={query_groups}"
                )
        if structure_kind == "MoE":
            if not (expert_ffn_size and top_k and num_experts):
                raise InputError("MoE requires expert_ffn_size, top_k and num_experts")
            if top_k > num_experts:
                raise InputError("top_k cannot exceed num_experts")
        return tuple.__new__(cls, (*values, attention_kind, structure_kind,
                                   {} if module_overrides is None else module_overrides))

    @property
    def is_moe(self) -> bool:
        return self.structure_kind == "MoE"

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModelArchitecture":
        """Accepts the config keys of MODEL_KEYS and module_overrides."""
        check_keys(data, (*MODEL_KEYS, "module_overrides"), "model")
        # a missing required key raises KeyError: "missing field 's'"
        kwargs = {MODEL_KEYS[key]: data[key] for key in ("L", "s", "h", "a", "V", "g_d")}
        kwargs.update((MODEL_KEYS.get(key, key), value) for key, value in data.items())
        overrides = kwargs.get("module_overrides")
        if overrides is not None:
            known = ModuleOverride._fields
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
        overrides = {name: {k: v for k, v in ov._asdict().items() if v is not None}
                     for name, ov in self.module_overrides.items()}
        return out | ({"module_overrides": overrides} if overrides else {})


class ModuleShape(NamedTuple):
    name: str
    flops_fwd: float
    act_bytes: float
    param_count: float
    is_expert: bool = False


class Decomposition(NamedTuple):
    """One layer's module list plus the embedding and head shapes, and the
    per-layer sums decompose computes once. The repr shows the shapes only,
    as the sums follow from them."""
    layer: tuple[ModuleShape, ...]
    embedding: ModuleShape
    head: ModuleShape
    layer_flops: float
    layer_act_bytes: float
    attention_act_bytes: float
    layer_params: float

    def __repr__(self) -> str:
        return (f"Decomposition(layer={self.layer!r}, embedding={self.embedding!r}, "
                f"head={self.head!r})")


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

    # tuple.__new__ skips the NamedTuple's Python-level __new__, which
    # checks nothing
    def dense(name, flops, act_elems, params) -> ModuleShape:
        return tuple.__new__(ModuleShape, (name, flops / t, act_elems * dt / t, params / t,
                                           False))

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

    overrides = arch.module_overrides
    if overrides:
        *modules, embedding, head = [
            _apply_override(m, overrides[m.name], plan, b, s, dt) if m.name in overrides else m
            for m in (*modules, embedding, head)]
    return tuple.__new__(Decomposition, (
        tuple(modules), embedding, head, sum(m.flops_fwd for m in modules),
        sum(m.act_bytes for m in modules),
        sum(m.act_bytes for m in modules if m.name in ATTENTION_CORE_MODULES),
        sum(m.param_count for m in modules)))


def _apply_override(shape: ModuleShape, ov: ModuleOverride, plan: ParallelPlan,
                    b: float, s: float, dt: float) -> ModuleShape:
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
    neutral = plan._replace(tp=1, cp=1, ep=1)
    d = decompose(arch, neutral)
    scale = plan.micro_batches * plan.dp
    return (d.embedding.flops_fwd + d.head.flops_fwd
            + arch.num_layers * d.layer_flops) * scale
