import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tiny_dense, tiny_moe
from traincost.arch import (
    ModelArchitecture,
    ModuleOverride,
    decompose,
    model_flops_total,
)
from traincost.errors import InputError, ShapeError
from traincost.plan import ParallelPlan


def plan_for(arch, **kwargs):
    defaults = dict(micro_batch=1, global_batch=1, num_layers=arch.num_layers)
    defaults.update(kwargs)
    return ParallelPlan(**defaults)


def zero_batch_plan(arch):
    """plan_for with micro_batch 0, which the plan constructor rejects, built
    past its checks as the tuner's enumerator builds plans."""
    return tuple.__new__(ParallelPlan, {**plan_for(arch)._asdict(), "micro_batch": 0}.values())


def module(decomp, name):
    return next(m for m in decomp.layer if m.name == name)


class TestDecompose:
    def test_qkv_flops_mha(self):
        arch = ModelArchitecture(num_layers=1, seq_len=4096, hidden_size=8192,
                                 num_heads=64, vocab_size=32000,
                                 dense_ffn_size=28672)
        d = decompose(arch, plan_for(arch))
        assert module(d, "qkv").flops_fwd == 6 * 1 * 4096 * 8192**2

    def test_dense_mlp_rows(self):
        arch = tiny_dense(l=1, s=2, h=4, g_d=8)
        d = decompose(arch, plan_for(arch))
        assert module(d, "mlp-linear-1").flops_fwd == 256
        assert module(d, "swiglu").flops_fwd == 16
        assert module(d, "mlp-linear-2").flops_fwd == 128

    def test_zero_batch_degenerate(self, dense_arch):
        d = decompose(dense_arch, zero_batch_plan(dense_arch))
        assert all(m.flops_fwd == 0 for m in d.layer)
        assert all(m.act_bytes == 0 for m in d.layer)

    def test_embedding_and_head_flops(self, dense_arch):
        d = decompose(dense_arch, plan_for(dense_arch))
        b, s, h, v = 1, dense_arch.seq_len, dense_arch.hidden_size, dense_arch.vocab_size
        assert d.embedding.flops_fwd == b * s * h
        assert d.head.flops_fwd == 2 * b * s * h * v

    def test_gqa_with_full_groups_matches_mha(self):
        mha = tiny_dense(a=8)
        gqa = tiny_dense(a=8, query_groups=8, attention_kind="GQA")
        d1 = decompose(mha, plan_for(mha))
        d2 = decompose(gqa, plan_for(gqa))
        for m1, m2 in zip(d1.layer, d2.layer):
            assert m1.flops_fwd == m2.flops_fwd
            assert m1.param_count == m2.param_count

    def test_gqa_shrinks_kv(self):
        gqa = tiny_dense(a=8, query_groups=2, attention_kind="GQA")
        d = decompose(gqa, plan_for(gqa))
        b, s, h = 1, gqa.seq_len, gqa.hidden_size
        assert module(d, "qkv").flops_fwd == 2 * b * s * h * h * (1 + 2 * 2 / 8)

    def test_nondivisible_hidden_size_names_dimension(self, dense_arch):
        with pytest.raises(ShapeError, match="hidden_size"):
            decompose(dense_arch, plan_for(dense_arch, tp=3,
                                           global_batch=3, dp=3))

    def test_nondivisible_sequence(self, dense_arch):
        with pytest.raises(ShapeError, match="seq_len"):
            decompose(dense_arch, plan_for(dense_arch, cp=3, global_batch=3, dp=3))

    def test_ep_on_dense_rejected(self, dense_arch):
        with pytest.raises(ShapeError, match="MoE"):
            decompose(dense_arch, plan_for(dense_arch, ep=2, global_batch=2, dp=2))

    def test_expert_count_divisibility(self, moe_arch):
        with pytest.raises(ShapeError, match="num_experts"):
            decompose(moe_arch, plan_for(moe_arch, ep=3, global_batch=3, dp=3))

    def test_deterministic(self, moe_arch):
        plan = plan_for(moe_arch, tp=2, ep=2, global_batch=4, dp=1)
        assert decompose(moe_arch, plan) == decompose(moe_arch, plan)


class TestSharding:
    def test_tp_divides_dense_flops_and_params(self, dense_arch):
        base = decompose(dense_arch, plan_for(dense_arch))
        sharded = decompose(dense_arch, plan_for(dense_arch, tp=2))
        for m1, m2 in zip(base.layer, sharded.layer):
            assert m2.flops_fwd == pytest.approx(m1.flops_fwd / 2)
            assert m2.param_count == pytest.approx(m1.param_count / 2)

    def test_param_shard_sums_to_unsharded(self, moe_arch):
        base = decompose(moe_arch, plan_for(moe_arch))
        shard = decompose(moe_arch, plan_for(moe_arch, tp=2, ep=2))
        for m1, m2 in zip(base.layer, shard.layer):
            group = 2 * (2 if m2.is_expert else 1)
            assert m2.param_count * group == pytest.approx(m1.param_count)

    def test_cp_shards_sequence_including_quadratic(self, dense_arch):
        base = decompose(dense_arch, plan_for(dense_arch))
        half = decompose(dense_arch, plan_for(dense_arch, cp=2))
        assert (module(half, "attention-map").flops_fwd
                == pytest.approx(module(base, "attention-map").flops_fwd / 4))
        assert (module(half, "norm").flops_fwd
                == pytest.approx(module(base, "norm").flops_fwd / 2))

    def test_moe_mlp_rows_follow_printed_table(self):
        # the first expert linear keeps the dense ffn width; the swiglu and
        # second linear use the expert width
        arch = tiny_moe(s=2, h=4, g_d=8, g_e=4, t_k=1)
        d = decompose(arch, plan_for(arch))
        assert module(d, "mlp-linear-1").flops_fwd == 4 * 1 * 2 * 4 * 8
        assert module(d, "swiglu").flops_fwd == 1 * 2 * 4
        assert module(d, "mlp-linear-2").flops_fwd == 2 * 1 * 2 * 4 * 4
        assert module(d, "router").flops_fwd == 0

    def test_moe_topk_multiplier_doubles_expert_flops(self):
        one = tiny_moe(t_k=1)
        two = tiny_moe(t_k=2)
        d1 = decompose(one, plan_for(one))
        d2 = decompose(two, plan_for(two))
        for m1, m2 in zip(d1.layer, d2.layer):
            if m1.is_expert:
                assert m2.flops_fwd == pytest.approx(2 * m1.flops_fwd)
            else:
                assert m2.flops_fwd == m1.flops_fwd

    @given(b=st.integers(min_value=1, max_value=64))
    @settings(max_examples=25, deadline=None)
    def test_flops_and_activations_linear_in_batch(self, b):
        arch = tiny_dense()
        unit = decompose(arch, plan_for(arch, micro_batch=1, global_batch=1))
        scaled = decompose(arch, plan_for(arch, micro_batch=b, global_batch=b))
        for m1, mb in zip(unit.layer, scaled.layer):
            assert mb.flops_fwd == pytest.approx(b * m1.flops_fwd)
            assert mb.act_bytes == pytest.approx(b * m1.act_bytes)


class TestAggregates:
    def test_layer_total_is_module_sum(self, moe_arch):
        d = decompose(moe_arch, plan_for(moe_arch))
        attention = ("attention-map", "softmax", "attention-on-value")
        expected = {
            "layer_flops": sum(m.flops_fwd for m in d.layer),
            "layer_act_bytes": sum(m.act_bytes for m in d.layer),
            "layer_params": sum(m.param_count for m in d.layer),
            "attention_act_bytes": sum(m.act_bytes for m in d.layer if m.name in attention),
        }
        assert 0 < expected["attention_act_bytes"] < expected["layer_act_bytes"]
        for name, total in expected.items():
            first = getattr(d, name)
            assert first == total
            assert getattr(d, name) is first   # kept, not summed again

    def test_model_flops_scaling(self, dense_arch):
        plan = plan_for(dense_arch, micro_batch=2, global_batch=16, dp=2)
        d = decompose(dense_arch, plan._replace(tp=1, cp=1, ep=1))
        expected = (d.embedding.flops_fwd + d.head.flops_fwd
                    + dense_arch.num_layers * d.layer_flops)
        # 16/(2*2) micro-batches x dp 2 = global scale 8
        assert model_flops_total(dense_arch, plan) == pytest.approx(8 * expected)

    def test_model_flops_unsharded_despite_tp(self, dense_arch):
        base = model_flops_total(dense_arch, plan_for(dense_arch))
        sharded = model_flops_total(dense_arch, plan_for(dense_arch, tp=2))
        assert base == pytest.approx(sharded)

    def test_single_micro_batch_identity(self, dense_arch):
        plan = plan_for(dense_arch, micro_batch=1, global_batch=1, dp=1)
        d = decompose(dense_arch, plan)
        assert model_flops_total(dense_arch, plan) == pytest.approx(
            d.embedding.flops_fwd + d.head.flops_fwd
            + dense_arch.num_layers * d.layer_flops)


class TestActivationBytes:
    def test_qkv_row(self):
        arch = tiny_dense(s=2, h=4)
        d = decompose(arch, plan_for(arch), act_dtype_bytes=2.0)
        assert module(d, "qkv").act_bytes == 2 * 1 * 2 * 4 * 2

    def test_softmax_row(self):
        arch = tiny_dense(s=3, h=4, a=1)
        d = decompose(arch, plan_for(arch), act_dtype_bytes=2.0)
        assert module(d, "softmax").act_bytes == 2 * 1 * 3 * 3 * 2

    def test_zero_sequence_degenerate(self):
        arch = tiny_dense()
        assert decompose(arch, zero_batch_plan(arch)).layer_act_bytes == 0

    def test_dtype_width_scales(self, dense_arch):
        plan = plan_for(dense_arch)
        two = decompose(dense_arch, plan, act_dtype_bytes=2.0).layer_act_bytes
        four = decompose(dense_arch, plan, act_dtype_bytes=4.0).layer_act_bytes
        assert four == pytest.approx(2 * two)


class TestOverridesAndValidation:
    def test_mla_override_replaces_polynomial(self):
        arch = tiny_dense(module_overrides={
            "qkv": ModuleOverride(flops_per_token=100.0, params=50.0),
        })
        plan = plan_for(arch, micro_batch=2, global_batch=2)
        d = decompose(arch, plan)
        assert module(d, "qkv").flops_fwd == 100.0 * 2 * arch.seq_len
        assert module(d, "qkv").param_count == 50.0

    def test_override_sharded_by_tp(self):
        arch = tiny_dense(module_overrides={
            "qkv": ModuleOverride(flops_per_token=100.0),
        })
        d = decompose(arch, plan_for(arch, tp=2))
        assert module(d, "qkv").flops_fwd == 100.0 * arch.seq_len / 2

    def test_gqa_requires_groups(self):
        with pytest.raises(InputError, match="query_groups"):
            tiny_dense(attention_kind="GQA")

    def test_heads_divisible_by_groups(self):
        with pytest.raises(InputError, match="divisible"):
            tiny_dense(a=8, query_groups=3, attention_kind="GQA")

    def test_moe_requires_expert_fields(self):
        with pytest.raises(InputError, match="MoE"):
            tiny_dense(structure_kind="MoE")

    def test_topk_bounded_by_experts(self):
        with pytest.raises(InputError, match="top_k"):
            tiny_moe(t_k=8, n_experts=4)

    def test_from_json_short_keys(self):
        arch = ModelArchitecture.from_json_dict({
            "L": 80, "s": 4096, "h": 8192, "a": 64, "q": 8,
            "g_d": 28672, "V": 32000, "attention": "GQA",
        })
        assert arch.num_layers == 80
        assert arch.query_groups == 8
        assert arch.structure_kind == "Dense"

    def test_null_module_overrides_is_no_overrides(self):
        data = {"L": 2, "s": 8, "h": 4, "a": 2, "g_d": 8, "V": 16}
        arch = ModelArchitecture.from_json_dict({**data, "module_overrides": None})
        assert arch == ModelArchitecture.from_json_dict(data)
        assert arch.to_json_dict() == {**data, "attention": "MHA", "structure": "Dense"}

    def test_from_json_rejects_field_names(self):
        with pytest.raises(InputError, match="unknown model key 'num_layers'"):
            ModelArchitecture.from_json_dict({
                "L": 80, "num_layers": 40, "s": 4096, "h": 8192, "a": 64,
                "g_d": 28672, "V": 32000})
