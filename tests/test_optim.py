import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_db, make_hardware, tiny_dense
from traincost.basecost import layer_cost
from traincost.errors import ConfigError, InputError
from traincost.optim import (
    DpOverlapCoeffs,
    OptimizationSet,
    apply_activation_strategy,
    apply_optimizer_strategy,
    cp_overlap,
    dp_overlap,
    ep_overlap,
    pp_overlap,
    tp_overlap,
)
from traincost.plan import ParallelPlan
from traincost.profile import ComputeEntry

nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestScaling:
    """Scaled throughput and bandwidth in layer_cost. The tp=2 layer of
    ARCH runs 1856 forward FLOPs and moves 4 x 64 tp bytes per direction."""

    ARCH = tiny_dense(s=8, h=4, a=2, g_d=8)
    PLAN = ParallelPlan(tp=2, num_layers=2)

    def test_product(self):
        db = make_db(tflops=1e-9, bandwidth_gbps=1e-9)  # 1000 FLOPs/s, 1 B/s
        lc = layer_cost(self.ARCH, self.PLAN, db, OptimizationSet(
            compute_scaling={"*": 1.25}, comm_scaling={"all-gather": 2.0}))
        assert lc.fwd.cal == pytest.approx(1856 / 1250, rel=1e-12)
        assert lc.fwd.tp == pytest.approx(2 * 64 / 2 + 2 * 64, rel=1e-12)

    def test_identity(self):
        db = make_db(tflops=1e-9, bandwidth_gbps=1e-9)
        unit = OptimizationSet(compute_scaling={"*": 1.0}, comm_scaling={"*": 1.0})
        assert layer_cost(self.ARCH, self.PLAN, db, unit) == \
            layer_cost(self.ARCH, self.PLAN, db)

    def test_roofline_clamp(self):
        # intensity 20 FLOPs/B at 100 B/s HBM caps throughput at 2000 FLOPs/s
        db = make_db(make_hardware(hbm_bw=100.0),
                     entries=[ComputeEntry("*", 1000.0, intensity=20.0)])
        for scale, throughput in ((1.5, 1500.0), (5.0, 2000.0)):
            lc = layer_cost(self.ARCH, self.PLAN, db,
                            OptimizationSet(compute_scaling={"*": scale}))
            assert lc.fwd.cal == pytest.approx(1856 / throughput, rel=1e-12)

    def test_rejects_nonpositive(self):
        for table in ("compute_scaling", "comm_scaling"):
            with pytest.raises(InputError, match="not a finite number > 0"):
                OptimizationSet(**{table: {"*": 0.0}})


class TestOverlapOps:
    def test_tp_split_residual(self):
        assert tp_overlap(8.0, 4.0, splits=4) == pytest.approx(9.0)

    def test_tp_nothing_to_hide_behind(self):
        assert tp_overlap(0.0, 4.0, splits=2, beta=1.5) == pytest.approx(6.0)

    def test_tp_large_split_limit(self):
        assert tp_overlap(8.0, 4.0, splits=10**9) == pytest.approx(max(8.0, 4.0))

    def test_cp_ring(self):
        assert cp_overlap(6.0, 2.0, cp=2) == pytest.approx(7.0)

    def test_cp_no_comm(self):
        assert cp_overlap(6.0, 0.0, cp=4) == pytest.approx(6.0)

    def test_cp_single_rank_is_plain_sum(self):
        assert cp_overlap(6.0, 2.0, cp=1) == pytest.approx(8.0)

    def test_ep_compute_dominates(self):
        assert ep_overlap(10.0, 4.0) == 10.0

    def test_ep_comm_dominates(self):
        assert ep_overlap(0.0, 4.0) == 4.0

    def test_ep_coefficient_inflates(self):
        assert ep_overlap(10.0, 4.0, alpha=2.0) == 20.0

    def test_pp_fully_hidden(self):
        assert pp_overlap(3.0, 5.0) == 0.0

    def test_pp_partially_exposed(self):
        assert pp_overlap(7.0, 5.0) == 2.0

    def test_pp_nothing_overlapping(self):
        assert pp_overlap(7.0, 0.0) == 7.0

    @given(a=nonneg, b=nonneg, s_n=st.integers(1, 16), c=st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_unit_coefficient_bounds(self, a, b, s_n, c):
        for value in (tp_overlap(a, b, s_n), cp_overlap(a, b, c), ep_overlap(a, b)):
            assert max(a, b) - 1e-9 <= value <= a + b + 1e-9
        assert 0.0 <= pp_overlap(b, a) <= b

    @given(a=nonneg, b=nonneg, delta=st.floats(0.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_inputs(self, a, b, delta):
        assert tp_overlap(a + delta, b, 2) >= tp_overlap(a, b, 2)
        assert cp_overlap(a, b + delta, 2) >= cp_overlap(a, b, 2)
        assert ep_overlap(a + delta, b) >= ep_overlap(a, b)
        assert pp_overlap(b + delta, a) >= pp_overlap(b, a)

    @given(a=st.floats(0.1, 1e3), b=st.floats(0.1, 1e3),
           coeff=st.floats(1.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_coefficients(self, a, b, coeff):
        assert tp_overlap(a, b, 2, alpha=coeff) >= tp_overlap(a, b, 2)
        assert ep_overlap(a, b, beta=coeff) >= ep_overlap(a, b)

    def test_coefficients_below_one_rejected(self):
        with pytest.raises(InputError):
            DpOverlapCoeffs(alpha_rs=0.5)


class TestDpOverlap:
    def plan(self, v=2):
        return ParallelPlan(pp=2, chunks=v, micro_batch=1, global_batch=4,
                            dp=2, num_layers=2 * v)

    def test_verbatim_counts_hiding_compute(self):
        coeffs = DpOverlapCoeffs(mode="verbatim")
        value = dp_overlap([1.0, 1.0], [1.0, 1.0], t_fwd_layer=1.0,
                           t_bwd_layer=3.0, plan=self.plan(), coeffs=coeffs)
        assert value == pytest.approx(10.0)

    def test_exposed_only_subtracts(self):
        value = dp_overlap([1.0, 1.0], [1.0, 1.0], t_fwd_layer=1.0,
                           t_bwd_layer=3.0, plan=self.plan())
        assert value == pytest.approx(2.0)

    def test_single_chunk_keeps_first_transfers(self):
        plan = ParallelPlan(pp=2, chunks=1, micro_batch=1, global_batch=4,
                            dp=2, num_layers=2)
        assert dp_overlap([1.0], [1.0], 1.0, 1.0, plan) == pytest.approx(2.0)

    def test_chunk_count_validated(self):
        with pytest.raises(InputError):
            dp_overlap([1.0], [1.0, 1.0], 1.0, 1.0, self.plan())


class TestOptimizerStrategy:
    def test_distributed_divides(self):
        plan = ParallelPlan(dp=4, micro_batch=1, global_batch=4, num_layers=1)
        assert apply_optimizer_strategy("distributed", plan, 160.0, 8.0) == (40.0, 2.0)

    def test_cpu_memory_overflow_only(self):
        hw = make_hardware(cpu_memory=200e9)
        plan = ParallelPlan(num_layers=1)
        mem, _ = apply_optimizer_strategy("cpu", plan, 160e9, 1.0, hw=hw,
                                          params_total=1.0,
                                          grad_bytes_total=1.0,
                                          param_bytes_total=1.0)
        assert mem == 0.0

    def test_cpu_three_term_update(self):
        hw = make_hardware(cpu_flops=1e9, h2d_bw=32e9, d2h_bw=32e9)
        plan = ParallelPlan(num_layers=1)
        _, t = apply_optimizer_strategy("cpu", plan, 0.0, 0.0, hw=hw,
                                        params_total=1e9,
                                        grad_bytes_total=2e9,
                                        param_bytes_total=2e9)
        assert t == pytest.approx(1.0 + 0.0625 + 0.0625)

    @pytest.mark.parametrize("inputs,seconds", [
        ({"params_total": 3e9}, 3.0),
        ({"grad_bytes_total": 3e9}, 0.75),
        ({"param_bytes_total": 3e9}, 0.1875),
    ], ids=["host-update", "grads-d2h", "params-h2d"])
    def test_cpu_terms_use_their_own_direction(self, inputs, seconds):
        """On hardware whose two directions differ, gradients leave at d2h_bw
        and parameters return at h2d_bw, each term on its own."""
        hw = make_hardware(cpu_flops=1e9, d2h_bw=4e9, h2d_bw=16e9)
        _, t = apply_optimizer_strategy("cpu", ParallelPlan(num_layers=1), 0.0, 0.0,
                                        hw=hw, **inputs)
        assert t == seconds

    def test_cpu_requires_hardware(self):
        with pytest.raises(ConfigError):
            apply_optimizer_strategy("cpu", ParallelPlan(num_layers=1), 1.0, 1.0)

    def test_none_passthrough(self):
        plan = ParallelPlan(num_layers=1)
        assert apply_optimizer_strategy("none", plan, 5.0, 7.0) == (5.0, 7.0)


class TestActivationStrategy:
    def plan_factor3(self):
        # chunks*pp + pp - 1 = 3 at pp=1, chunks=3
        return ParallelPlan(pp=1, chunks=3, micro_batch=1, global_batch=1,
                            num_layers=3)

    def test_selective(self):
        mem, fwd, bwd = apply_activation_strategy(
            "selective-recompute", self.plan_factor3(),
            act_bytes_per_layer=10.0, attention_act_bytes=4.0,
            input_act_bytes=1.0, t_fwd=2.0, t_bwd=5.0, t_qkv=1.0,
            t_attention=2.0)
        assert (mem, fwd, bwd) == (18.0, 2.0, 8.0)

    def test_full(self):
        mem, fwd, bwd = apply_activation_strategy(
            "full-recompute", self.plan_factor3(),
            act_bytes_per_layer=10.0, attention_act_bytes=4.0,
            input_act_bytes=2.0, t_fwd=3.0, t_bwd=5.0)
        assert (mem, fwd, bwd) == (6.0, 3.0, 8.0)

    def test_offload_transfer_arm(self):
        hw = make_hardware(d2h_bw=32e9, h2d_bw=32e9)
        mem, fwd, bwd = apply_activation_strategy(
            "offload", ParallelPlan(num_layers=1),
            act_bytes_per_layer=32e9, attention_act_bytes=0.0,
            input_act_bytes=0.0, t_fwd=0.8, t_bwd=2.0, hw=hw)
        assert mem == 32e9
        assert fwd == pytest.approx(1.0)
        assert bwd == pytest.approx(2.0)  # compute arm wins backward

    def test_offload_requires_hardware(self):
        with pytest.raises(ConfigError):
            apply_activation_strategy("offload", ParallelPlan(num_layers=1),
                                      act_bytes_per_layer=1.0,
                                      attention_act_bytes=0.0,
                                      input_act_bytes=0.0, t_fwd=1.0, t_bwd=1.0)

    @given(t_fwd=st.floats(0.0, 1e3), t_bwd=st.floats(0.0, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_full_recompute_identity(self, t_fwd, t_bwd):
        _, fwd, bwd = apply_activation_strategy(
            "full-recompute", self.plan_factor3(), act_bytes_per_layer=1.0,
            attention_act_bytes=0.0, input_act_bytes=0.5, t_fwd=t_fwd,
            t_bwd=t_bwd)
        assert bwd == t_bwd + t_fwd  # recompute adds exactly one forward pass
        assert fwd == t_fwd

    def test_memory_never_above_baseline(self):
        hw = make_hardware()
        plan = ParallelPlan(pp=2, chunks=2, micro_batch=1, global_batch=4,
                            num_layers=4)
        kwargs = dict(act_bytes_per_layer=10.0, attention_act_bytes=4.0,
                      input_act_bytes=2.0, t_fwd=1.0, t_bwd=2.0,
                      t_qkv=0.1, t_attention=0.2, hw=hw)
        baseline, _, _ = apply_activation_strategy("none", plan, **kwargs)
        for strategy in ("selective-recompute", "full-recompute", "offload"):
            mem, _, _ = apply_activation_strategy(strategy, plan, **kwargs)
            assert mem <= baseline


class TestOptimizationSet:
    def test_lambda_lookup_falls_back_to_wildcard(self):
        opts = OptimizationSet(compute_scaling={"*": 1.5, "qkv": 2.0})
        assert opts.compute_lambda("qkv") == 2.0
        assert opts.compute_lambda("norm") == 1.5
        assert OptimizationSet().compute_lambda("norm") == 1.0

    @pytest.mark.parametrize("table", ["compute_scaling", "comm_scaling"])
    def test_rejects_non_positive_scaling(self, table):
        with pytest.raises(InputError, match=r"scaling '\*' value 0.0 is not a finite number > 0"):
            OptimizationSet(**{table: {"*": 0.0}})

    def test_from_json_round_trip_features(self):
        opts = OptimizationSet.from_json_dict({
            "tp_overlap": {"alpha": 1.1, "splits": 4},
            "optimizer_strategy": "cpu",
            "activation_strategy": "offload",
        })
        names = opts.feature_names()
        assert "tp-overlap" in names
        assert "cpu-optimizer" in names
        assert "offload" in names

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InputError):
            OptimizationSet(optimizer_strategy="zero-infinity")
