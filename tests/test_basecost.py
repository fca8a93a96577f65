import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_db, make_hardware, reference_pipeline_time, tiny_dense, tiny_moe
from traincost.arch import ModuleOverride, decompose
from traincost.basecost import (
    Dtypes,
    EvalMemo,
    _channel,
    _phase_counts,
    evaluate_plan,
    layer_cost,
    pipeline_time,
    step_time,
    tflops,
)
from traincost.errors import InfeasibleError, InputError, ProfileLookupError, ShapeError
from traincost.optim import (
    ACTIVATION_STRATEGIES,
    OPTIMIZER_STRATEGIES,
    DpOverlapCoeffs,
    OffloadCoeffs,
    OptimizationSet,
    OverlapCoeffs,
    apply_activation_strategy,
    apply_optimizer_strategy,
    default_feature_combos,
)
from traincost.plan import ParallelPlan
from traincost.profile import (
    CommProfile,
    ComputeEntry,
    ComputeProfile,
    ProfileDB,
)


def simple_plan(**kwargs):
    defaults = dict(micro_batch=1, global_batch=1, num_layers=1)
    defaults.update(kwargs)
    return ParallelPlan(**defaults)


class TestPipeline:
    def test_two_stage_classic(self):
        plan = simple_plan(pp=2, global_batch=4, num_layers=2)
        ph = pipeline_time(1.0, 2.0, plan)
        assert (ph.warmup, ph.steady, ph.cooldown) == (1.0, 12.0, 2.0)
        assert ph.total == 15.0

    def test_single_stage_single_batch(self):
        ph = pipeline_time(1.0, 1.0, simple_plan())
        assert ph.total == 2.0

    def test_v1_reduces_to_classic_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = int(rng.integers(1, 9))
            l = int(rng.integers(1, 5))
            m_b = int(rng.integers(p, 3 * p + 1))
            f, b = rng.uniform(0.1, 4.0, size=2)
            plan = simple_plan(pp=p, global_batch=m_b, num_layers=p * l)
            total = pipeline_time(float(f), float(b), plan).total
            assert total == pytest.approx((m_b + p - 1) * l * (f + b), rel=1e-12)

    def test_degenerate_warning_attached(self):
        plan = simple_plan(pp=4, global_batch=2, num_layers=4)
        ph = pipeline_time(1.0, 1.0, plan)
        assert any("degenerate" in w for w in ph.warnings)

    def test_steady_hop_substitution(self):
        plan = simple_plan(pp=2, global_batch=4, num_layers=2)
        base = pipeline_time(1.0, 2.0, plan, t_pp=0.5)
        hidden = pipeline_time(1.0, 2.0, plan, t_pp=0.5, t_pp_steady=0.0)
        steady_hops = 4 * 4 * 1 - 2 * 4 + 2 * 2 - 2
        assert base.total - hidden.total == pytest.approx(steady_hops * 0.5)

    def test_bubble_fraction_shrinks_with_more_micro_batches(self):
        fractions = []
        for m_b in (4, 8, 16, 32):
            plan = simple_plan(pp=4, global_batch=m_b, num_layers=4)
            total = pipeline_time(1.0, 1.0, plan).total
            fractions.append(1.0 - m_b * 2.0 / total)
        assert fractions == sorted(fractions, reverse=True)
        assert all(f > 0 for f in fractions)


# Signed zeros, awkward magnitudes and ratios with a full mantissa: a
# reordered sum or product shows up in the last bit or the sign of a zero.
phase_time = (st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3, allow_nan=False)
              | st.builds(lambda n, d: n / d, st.integers(-10**6, 10**6),
                          st.integers(1, 9999)))
zero = st.sampled_from([0.0, -0.0])


@st.composite
def pipeline_plans(draw):
    """p 1-16, v 1-5, m_b 1-4p (m_b < p included), 1-3 layers per stage."""
    p, v = draw(st.integers(1, 16)), draw(st.integers(1, 5))
    return ParallelPlan(pp=p, chunks=v, micro_batch=1,
                        global_batch=draw(st.integers(1, 4 * p)),
                        num_layers=p * v * draw(st.integers(1, 3)))


def hexes(values):
    return [float(x).hex() for x in values]


class TestPhaseExpression:
    """pipeline_time and evaluate_plan's per-plan counts keep the phase
    expression's float operations, so every phase is bit-identical to the
    expression written out on the plan's fields (helpers.reference_pipeline_time)."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(plan=pipeline_plans(), times=st.lists(phase_time, min_size=8, max_size=8),
           steady_hop=st.booleans())
    def test_phases_bit_identical_to_reference(self, plan, times, steady_hop):
        t_fwd, t_bwd, t_pp, pp_s, e_f, e_b, h_f, h_b = times
        kwargs = dict(t_pp=t_pp, t_embed=e_f, t_embed_bwd=e_b, t_head=h_f,
                      t_head_bwd=h_b, t_pp_steady=pp_s if steady_hop else None)
        *expected, notes = reference_pipeline_time(t_fwd, t_bwd, plan, **kwargs)
        phases = pipeline_time(t_fwd, t_bwd, plan, **kwargs)
        assert hexes(phases[:4]) == hexes(expected)
        assert phases.warnings == notes
        # evaluate_plan's channel path, on the counts its memo keeps per plan
        channel = reference_pipeline_time(t_fwd, t_bwd, plan, t_pp=t_pp,
                                          t_pp_steady=pp_s)[3]
        assert _channel(_phase_counts(plan), t_fwd, t_bwd, t_pp, pp_s).hex() == channel.hex()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(plan=pipeline_plans(), zeros=st.lists(zero, min_size=4, max_size=4))
    def test_zero_channel_is_positive_zero(self, plan, zeros):
        # why evaluate_plan may skip a channel whose inputs are all zero
        t_fwd, t_bwd, t_pp, pp_s = zeros
        total = reference_pipeline_time(t_fwd, t_bwd, plan, t_pp=t_pp,
                                        t_pp_steady=pp_s)[3]
        assert total.hex() == (0.0).hex()
        assert _channel(_phase_counts(plan), t_fwd, t_bwd, t_pp, pp_s).hex() == (0.0).hex()


class TestLayerTimes:
    def test_compute_only_sum(self):
        arch = tiny_dense()
        plan = simple_plan(num_layers=arch.num_layers)
        db = make_db(tflops=1e-9)  # 1000 FLOPs/s, times are visible numbers
        d = decompose(arch, plan)
        expected = sum(m.flops_fwd / 1000.0 for m in d.layer)
        assert layer_cost(arch, plan, db).fwd.total == pytest.approx(expected)

    def test_backward_doubles_compute_keeps_comm(self):
        arch = tiny_dense(h=8, a=2)
        plan = simple_plan(tp=2, num_layers=arch.num_layers)
        db = make_db(tflops=1e-9, bandwidth_gbps=1e-9)  # 1 B/s links
        lc = layer_cost(arch, plan, db)
        fwd, bwd = lc.fwd.total, lc.bwd.total
        d = decompose(arch, plan)
        comp_fwd = sum(m.flops_fwd / 1000.0 for m in d.layer)
        comm = fwd - comp_fwd
        assert comm > 0
        assert bwd == pytest.approx(2 * comp_fwd + comm)

    def test_collectives_counted_per_layer(self):
        arch = tiny_dense(h=8, a=2)
        plan = simple_plan(tp=2, num_layers=arch.num_layers)
        db = make_db(tflops=1e-9, bandwidth_gbps=1e-9)
        vol = 1 * 8 * 8 * 2.0  # b*s*h*D_act
        comm_expected = 4 * vol / 1.0  # 2 ag + 2 rs at 1 B/s
        d = decompose(arch, plan)
        comp = sum(m.flops_fwd / 1000.0 for m in d.layer)
        assert layer_cost(arch, plan, db).fwd.total == pytest.approx(comp + comm_expected)

    def test_missing_profile_entry_names_module(self):
        arch = tiny_dense()
        plan = simple_plan(num_layers=arch.num_layers)
        db = make_db()._replace(compute=ComputeProfile((ComputeEntry("qkv", 1e12),)))
        with pytest.raises(ProfileLookupError, match="norm"):
            layer_cost(arch, plan, db)


class TestOptimizerTime:
    """The gradient all-reduce and the base parameter update, as evaluate_plan
    computes them. tiny_dense holds 168 parameters per layer."""

    def test_direct_evaluation(self):
        # 2 layers x 168 params: 672 grad bytes over 336 B/s; update at 168/s
        hw = make_hardware(optimizer_throughput=168.0)
        db = make_db(hw, per_kind_gbps={"all-reduce": 336e-9})
        arch = tiny_dense(l=2)
        plan = simple_plan(dp=2, global_batch=2, num_layers=2)
        cost = evaluate_plan(arch, plan, db).cost
        assert cost.t_dp == pytest.approx(2.0, rel=1e-12)
        assert cost.t_update == 2.0
        assert cost.t_opt == pytest.approx(4.0, rel=1e-12)
        scaled = evaluate_plan(arch, plan, db,
                               OptimizationSet(compute_scaling={"optimizer": 4.0})).cost
        assert (scaled.t_dp, scaled.t_update) == (cost.t_dp, 0.5)

    def test_no_data_parallelism_no_exchange(self, flat_db):
        cost = evaluate_plan(tiny_dense(l=1), simple_plan(dp=1), flat_db).cost
        assert cost.t_dp == 0.0
        assert cost.t_opt == cost.t_update > 0

    def test_zero_params(self, flat_db):
        arch = tiny_dense(l=1, module_overrides={
            name: ModuleOverride(params=0.0)
            for name in ("norm", "qkv", "o-projection", "mlp-linear-1",
                         "mlp-linear-2")})
        cost = evaluate_plan(arch, simple_plan(dp=2, global_batch=2), flat_db).cost
        assert (cost.t_dp, cost.t_update, cost.t_opt) == (0.0, 0.0, 0.0)


class TestStepAndTflops:
    def test_step_sum(self):
        assert step_time(15.0, 3.0) == 18.0

    def test_step_rejects_nonpositive(self):
        with pytest.raises(InputError):
            step_time(0.0, 0.0)

    @pytest.mark.parametrize("t_pipeline,t_opt", [(1e308, 1e308), (float("inf"), 1.0),
                                                  (float("nan"), 1.0)])
    def test_step_rejects_non_finite(self, t_pipeline, t_opt):
        with pytest.raises(InfeasibleError, match="^the result is not finite"):
            step_time(t_pipeline, t_opt)

    def test_tflops_convention(self):
        assert tflops(6e12, simple_plan(), 18.0) == pytest.approx(1.0)

    def test_tflops_raw_mode(self):
        assert tflops(6e12, simple_plan(), 18.0, mode="raw") == pytest.approx(1 / 3)

    def test_tflops_divides_by_world_size(self):
        plan = simple_plan(dp=4, global_batch=4)
        assert tflops(6e12, plan, 18.0) == pytest.approx(0.25)


def retained(plan, act_bytes, r_pp=0):
    """Activation bytes held at stage r_pp with no memory strategy."""
    return apply_activation_strategy(
        "none", plan, act_bytes_per_layer=act_bytes, attention_act_bytes=0.0,
        input_act_bytes=0.0, t_fwd=0.0, t_bwd=0.0, r_pp=r_pp)[0]


class TestMemory:
    def test_static_direct(self):
        arch = tiny_dense(l=1)
        plan = simple_plan()
        dt = Dtypes(param_bytes=2, grad_bytes=2, opt_bytes=4)
        params = decompose(arch, plan).layer_params
        assert evaluate_plan(arch, plan, make_db(), dtypes=dt).memory.m_static \
            == 20 * params

    def test_static_zero_params(self):
        arch = tiny_dense(l=1, module_overrides={
            name: ModuleOverride(params=0.0)
            for name in ("norm", "qkv", "o-projection", "mlp-linear-1",
                         "mlp-linear-2")})
        plan = simple_plan()
        assert decompose(arch, plan).layer_params == 0
        assert evaluate_plan(arch, plan, make_db()).memory.m_static == 0.0

    def test_static_linear_in_chunks_at_fixed_layers_per_stage(self):
        one = evaluate_plan(tiny_dense(l=1), simple_plan(chunks=1, num_layers=1),
                            make_db()).memory
        two = evaluate_plan(tiny_dense(l=2), simple_plan(chunks=2, num_layers=2),
                            make_db()).memory
        assert two.m_static == 2 * one.m_static

    def test_activation_peak_stage(self):
        plan = simple_plan(pp=4, chunks=2, global_batch=8, num_layers=8)
        assert retained(plan, 1e9, r_pp=0) == 11e9

    def test_activation_no_pipelining(self):
        assert retained(simple_plan(), 123.0) == 123.0

    def test_activation_stage_bounds(self):
        for r_pp in (-1, 2):
            with pytest.raises(InputError, match="r_pp"):
                retained(simple_plan(pp=2, global_batch=2, num_layers=2), 1.0, r_pp=r_pp)

    def test_peak_sum(self):
        arch = tiny_dense(l=4)
        plan = simple_plan(pp=2, chunks=2, global_batch=4, num_layers=4)
        memory = evaluate_plan(arch, plan, make_db()).memory
        assert memory.m_peak == memory.m_static + memory.m_activation
        assert memory.m_activation == retained(
            plan, decompose(arch, plan).layer_act_bytes)

    def test_activation_linear_in_bytes(self):
        plan = simple_plan(pp=2, chunks=2, global_batch=4, num_layers=4)
        assert retained(plan, 2e9) == 2 * retained(plan, 1e9)


def _combo_variants():
    """A base combo and combos that differ from it in one field only: a
    per-kind or '*' comm scaling, one module's or the optimizer's compute
    scaling, pp_overlap, or dp_overlap in either mode."""
    base = OptimizationSet(tp_overlap=OverlapCoeffs(), cp_overlap=OverlapCoeffs(),
                           ep_overlap=OverlapCoeffs(alpha=1.25),
                           dp_overlap=DpOverlapCoeffs())
    return [base] + [base._replace(**change) for change in (
        {"comm_scaling": {"all-gather": 0.5}}, {"comm_scaling": {"p2p": 0.25}},
        {"comm_scaling": {"all-reduce": 2.0}}, {"comm_scaling": {"reduce-scatter": 0.5}},
        {"comm_scaling": {"*": 2.0}},
        {"compute_scaling": {"qkv": 2.0}}, {"compute_scaling": {"optimizer": 0.5}},
        {"pp_overlap": OverlapCoeffs(alpha=1.5, beta=1.25)},
        {"dp_overlap": DpOverlapCoeffs(mode="verbatim")}, {"dp_overlap": None},
    )]


def _float_bits(report) -> tuple:
    return tuple(value.hex() if isinstance(value, float) else value for value in report)


class TestEvalMemo:
    def test_memory_report_keeps_each_strategy_op_bytes(self):
        """Each strategy's bytes in evaluate_plan's MemoryReport, through one
        shared memo, are the bytes a direct call of the strategy op gives on
        the plan's decomposition."""
        arch = tiny_moe(l=4)
        plan = simple_plan(pp=2, chunks=2, dp=2, global_batch=8, num_layers=4)
        dt = Dtypes(param_bytes=2.0, grad_bytes=4.0, opt_bytes=8.0, act_bytes=3.0)
        hw = make_hardware(cpu_memory=100.0)   # the cpu optimizer overflows onto the device
        db = make_db(hw)
        memo = EvalMemo(arch, db, dt)
        d = decompose(arch, plan, act_dtype_bytes=dt.act_bytes)
        held = plan.chunks * plan.layers_per_stage * d.layer_params
        statics = set()
        for strategy in OPTIMIZER_STRATEGIES:
            opt_bytes = apply_optimizer_strategy(
                strategy, plan, 4 * dt.opt_bytes * held, 0.0, params_total=d.layer_params,
                grad_bytes_total=dt.grad_bytes * held, param_bytes_total=dt.param_bytes * held,
                hw=hw)[0]
            memory = evaluate_plan(arch, plan, db, OptimizationSet(optimizer_strategy=strategy),
                                   dt, memo=memo).memory
            assert (memory.m_static, memory.optimizer_bytes) == (
                (dt.param_bytes + dt.grad_bytes) * held + opt_bytes, opt_bytes)
            statics.add(memory.m_static)
        attention = sum(m.act_bytes for m in d.layer
                        if m.name in ("attention-map", "softmax", "attention-on-value"))
        for strategy in ACTIVATION_STRATEGIES:
            assert memo.act_bytes[strategy] == apply_activation_strategy(
                strategy, plan, act_bytes_per_layer=d.layer_act_bytes,
                attention_act_bytes=attention, input_act_bytes=d.layer[0].act_bytes,
                t_fwd=0.0, t_bwd=0.0, hw=hw)[0]
        # every strategy keeps different bytes, so a swapped key would show
        assert len(statics) == len(OPTIMIZER_STRATEGIES)
        assert len(set(memo.act_bytes.values())) == len(ACTIVATION_STRATEGIES)

    def test_memo_of_other_inputs_is_refused(self):
        """A memo built for another arch, db or dtypes would mix two models'
        terms; an equal memo built from copies is the same context."""
        arch, db = tiny_dense(l=4), make_db()
        plan = simple_plan(pp=2, global_batch=4, num_layers=4)
        for memo in (EvalMemo(tiny_dense(l=4, h=2, g_d=4), db, Dtypes()),
                     EvalMemo(arch, make_db(tflops=2.0), Dtypes()),
                     EvalMemo(arch, db, Dtypes(act_bytes=4.0))):
            with pytest.raises(InputError, match="^memo was built for another"):
                evaluate_plan(arch, plan, db, memo=memo)
        same = EvalMemo(tiny_dense(l=4), make_db(), Dtypes())
        assert evaluate_plan(arch, plan, db, memo=same) == evaluate_plan(arch, plan, db)

    def test_offload_coefficients_key_the_layer_times(self):
        """Two offload combos that differ only in alpha_offload share every
        memo table but the strategy-adjusted layer times. The host transfer
        wins the forward race here, so a key without the coefficients would
        hand the second combo the first one's forward time."""
        hw = make_hardware(d2h_bw=1e3)
        arch, db = tiny_dense(l=4), make_db(hw)
        plan = simple_plan(pp=2, global_batch=4, num_layers=4)
        assert decompose(arch, plan).layer_act_bytes / hw.d2h_bw \
            > layer_cost(arch, plan, db).fwd.total
        combos = [OptimizationSet(activation_strategy="offload",
                                  offload_coeffs=OffloadCoeffs(alpha_offload=alpha))
                  for alpha in (1.0, 2.0)]
        memo = EvalMemo(arch, db, Dtypes())
        shared = [evaluate_plan(arch, plan, db, opts, memo=memo) for opts in combos]
        assert shared == [evaluate_plan(arch, plan, db, opts) for opts in combos]
        assert shared[0].cost.t_fwd != shared[1].cost.t_fwd


    def test_combos_differing_in_one_field_match_unshared_evaluation(self):
        # roofline-capped and bwd-specific entries: the module rates read
        # the module, the direction and its compute lambda
        hw = make_hardware(hbm_bw=100e9)
        db = make_db(hw, entries=[
            ComputeEntry("qkv", 0.3e12, bwd_flops_per_s=0.2e12, intensity=4.0),
            ComputeEntry("mlp-linear-1", 1e12, intensity=8.0),
            ComputeEntry("head", 3e12, intensity=1.0)], group_sizes=(2, 4))
        plans = [ParallelPlan(tp=2, cp=cp, pp=pp, ep=ep, dp=dp, micro_batch=1,
                              global_batch=8, chunks=v, num_layers=4)
                 for cp, pp, ep, dp, v in ((1, 2, 1, 2, 2), (2, 2, 2, 2, 1),
                                           (1, 1, 2, 4, 1), (1, 4, 1, 2, 1))]
        combos = _combo_variants()   # reversed, the one without dp overlap comes first
        for arch, order in itertools.product((tiny_dense(l=4, h=8, a=2), tiny_moe(l=4, h=8, a=2)),
                                             (combos, combos[::-1])):
            memo = EvalMemo(arch, db, Dtypes())
            for plan in plans:
                if plan.ep > 1 and not arch.is_moe:
                    continue
                for opts in order:
                    shared = evaluate_plan(arch, plan, db, opts, memo=memo)
                    alone = evaluate_plan(arch, plan, db, opts)
                    assert _float_bits(shared.cost) == _float_bits(alone.cost)
                    assert _float_bits(shared.memory) == _float_bits(alone.memory)
            # every variant changes a field the terms read
            assert len(memo.classes[2]) == len(combos)

    def test_module_rates_read_module_direction_and_lambda(self):
        """Layer costs time every module at the profiled rate of its
        direction, times its compute lambda, capped by the roofline."""
        hw = make_hardware(hbm_bw=100e9)
        db = make_db(hw, entries=[
            ComputeEntry("qkv", 0.3e12, bwd_flops_per_s=0.2e12, intensity=4.0),
            ComputeEntry("mlp-linear-1", 1e12, intensity=8.0)])
        arch, plan = tiny_dense(l=4, h=8, a=2), simple_plan(num_layers=4)
        layer = decompose(arch, plan).layer
        for scaling in ({}, {"qkv": 2.0, "*": 0.5}, {"mlp-linear-1": 0.25}):
            opts = OptimizationSet(compute_scaling=scaling)
            lc = layer_cost(arch, plan, db, opts)
            for parts, factor, backward in ((lc.fwd, 1.0, False), (lc.bwd, 2.0, True)):
                times = []
                for m in layer:
                    entry = db.compute.lookup(m.name)
                    cap = (min(entry.intensity * hw.hbm_bw, hw.gpu_peak_flops)
                           if entry.intensity is not None else hw.gpu_peak_flops)
                    rate = min(entry.throughput(backward) * opts.compute_lambda(m.name), cap)
                    times.append(m.flops_fwd * factor / rate if m.flops_fwd else 0.0)
                assert parts.cal.hex() == sum(times).hex()

    def test_equal_combos_share_one_terms_call_per_plan(self, monkeypatch):
        import traincost.basecost as basecost
        calls = []
        original = basecost._plan_terms
        monkeypatch.setattr(basecost, "_plan_terms",
                            lambda *args: calls.append(args[0].plan) or original(*args))
        arch, db = tiny_dense(l=4, h=8, a=2), make_db(make_hardware(gpu_memory=1e12))
        first, second = (OptimizationSet(compute_scaling={"qkv": 2.0},
                                          pp_overlap=OverlapCoeffs()) for _ in range(2))
        assert first == second and first is not second
        memo = EvalMemo(arch, db, Dtypes())
        plans = [simple_plan(tp=2, pp=pp, dp=dp, global_batch=8, num_layers=4)
                 for pp, dp in ((1, 1), (2, 1), (2, 2))]
        for plan in plans:
            assert evaluate_plan(arch, plan, db, first, memo=memo) \
                == evaluate_plan(arch, plan, db, second, memo=memo)
        assert calls == plans

    def test_a_deleted_combo_id_is_not_served_again(self):
        arch, db = tiny_dense(l=4, h=8, a=2), make_db()
        plan = simple_plan(tp=2, pp=2, global_batch=8, num_layers=4)
        memo = EvalMemo(arch, db, Dtypes())
        opts = OptimizationSet(activation_strategy="full-recompute")
        evaluate_plan(arch, plan, db, opts, memo=memo)
        del opts
        other = OptimizationSet(compute_scaling={"*": 0.5})
        assert evaluate_plan(arch, plan, db, other, memo=memo) \
            == evaluate_plan(arch, plan, db, other)

    def test_calls_without_a_set_share_one_combo_entry(self):
        """A shared memo keeps each set it sees; a call that omits opts must
        not add a new one each time."""
        arch, db = tiny_dense(l=4, h=8, a=2), make_db()
        plan = simple_plan(tp=2, pp=2, global_batch=8, num_layers=4)
        memo = EvalMemo(arch, db, Dtypes())
        first = evaluate_plan(arch, plan, db, memo=memo)
        assert all(evaluate_plan(arch, plan, db, memo=memo) == first for _ in range(999))
        assert len(memo.combos) == 1
        assert first == evaluate_plan(arch, plan, db, OptimizationSet())


def _invariant_cases():
    """Every pipeline regime the tuner ranks: interleaving, hops with and
    without steady-phase overlap, full recomputation, context and expert
    parallelism."""
    feature_sets = {
        "plain": OptimizationSet(),
        "pp-overlap": OptimizationSet(pp_overlap=OverlapCoeffs(alpha=1.5, beta=1.2)),
        "full-recompute": OptimizationSet(activation_strategy="full-recompute"),
    }
    dense, moe = tiny_dense(l=16, h=8, a=2), tiny_moe(l=4, h=8, a=2)
    cases = []
    for name, opts in feature_sets.items():
        for pp, v in itertools.product((1, 2, 4), (1, 2, 4)):
            plan = ParallelPlan(tp=2, pp=pp, chunks=v, dp=2, micro_batch=1,
                                global_batch=8, num_layers=dense.num_layers)
            cases.append(pytest.param(dense, plan, opts, id=f"pp{pp}-v{v}-{name}"))
        plan = ParallelPlan(tp=2, cp=2, pp=2, chunks=2, micro_batch=1,
                            global_batch=4, num_layers=dense.num_layers)
        cases.append(pytest.param(dense, plan, opts, id=f"cp2-{name}"))
        plan = ParallelPlan(tp=2, pp=2, ep=2, micro_batch=1, global_batch=4,
                            num_layers=moe.num_layers)
        cases.append(pytest.param(moe, plan, opts, id=f"moe-ep2-{name}"))
    return cases


class TestEvaluatePlan:
    @pytest.mark.parametrize("arch,plan,opts", _invariant_cases())
    def test_invariants(self, arch, plan, opts, flat_db):
        result = evaluate_plan(arch, plan, flat_db, opts)
        c = result.cost
        assert c.t_step == pytest.approx(c.t_pipeline + c.t_opt)
        channels = c.t_cal + c.t_tp + c.t_cp + c.t_ep + c.t_pp
        assert channels == pytest.approx(c.t_pipeline, rel=1e-12, abs=0.0)
        assert c.t_tp > 0
        assert (c.t_pp > 0) == (plan.pp > 1)
        assert (c.t_cp > 0) == (plan.cp > 1)
        assert (c.t_ep > 0) == (plan.ep > 1)
        assert result.memory.m_peak == pytest.approx(
            result.memory.m_static + result.memory.m_activation)

    def test_step_monotone_in_compute_speed(self, dense_arch):
        plan = ParallelPlan(pp=2, micro_batch=1, global_batch=4,
                            num_layers=dense_arch.num_layers)
        slow = evaluate_plan(dense_arch, plan, make_db(tflops=0.5))
        fast = evaluate_plan(dense_arch, plan, make_db(tflops=1.0))
        assert fast.cost.t_step < slow.cost.t_step

    def test_report_field_names(self, dense_arch, flat_db):
        plan = ParallelPlan(num_layers=dense_arch.num_layers)
        payload = evaluate_plan(dense_arch, plan, flat_db).cost.to_json_dict()
        for key in ("T_step", "TFLOPS", "T_cal", "T_TP", "T_PP", "T_DP",
                    "T_EP", "T_update"):
            assert key in payload

    def test_deterministic(self, dense_arch, flat_db):
        plan = ParallelPlan(tp=2, micro_batch=1, global_batch=2, dp=2,
                            num_layers=dense_arch.num_layers)
        a = evaluate_plan(dense_arch, plan, flat_db)
        b = evaluate_plan(dense_arch, plan, flat_db)
        assert a.cost.to_json_dict() == b.cost.to_json_dict()
        assert a.memory.to_json_dict() == b.memory.to_json_dict()

    def test_scaling_speeds_up_exposed_comm(self, dense_arch):
        plan = ParallelPlan(tp=2, micro_batch=1, global_batch=1,
                            num_layers=dense_arch.num_layers)
        db = make_db(tflops=1e-6, bandwidth_gbps=1e-6)
        base = evaluate_plan(dense_arch, plan, db)
        boosted = evaluate_plan(dense_arch, plan, db,
                                OptimizationSet(comm_scaling={"*": 2.0}))
        assert boosted.cost.t_tp == pytest.approx(base.cost.t_tp / 2)

    def test_distributed_optimizer_divides_update(self, dense_arch, flat_db):
        plan = ParallelPlan(dp=4, micro_batch=1, global_batch=4,
                            num_layers=dense_arch.num_layers)
        base = evaluate_plan(dense_arch, plan, flat_db)
        dist = evaluate_plan(dense_arch, plan, flat_db,
                             OptimizationSet(optimizer_strategy="distributed"))
        assert dist.cost.t_update == pytest.approx(base.cost.t_update / 4)
        assert dist.memory.optimizer_bytes == pytest.approx(
            base.memory.optimizer_bytes / 4)

    def test_compute_scaling_speeds_up_compute(self, dense_arch):
        plan = ParallelPlan(num_layers=dense_arch.num_layers)
        db = make_db(tflops=1e-6)
        base = evaluate_plan(dense_arch, plan, db)
        boosted = evaluate_plan(dense_arch, plan, db,
                                OptimizationSet(compute_scaling={"*": 2.0}))
        assert boosted.cost.t_cal == pytest.approx(base.cost.t_cal / 2)

    def test_memory_strategies_never_exceed_baseline_peak(self, flat_db):
        dense_arch = tiny_dense(l=4)
        plan = ParallelPlan(pp=2, chunks=2, micro_batch=1, global_batch=4,
                            num_layers=dense_arch.num_layers)
        base = evaluate_plan(dense_arch, plan, flat_db).memory.m_peak
        for strategy in ("selective-recompute", "full-recompute", "offload"):
            got = evaluate_plan(
                dense_arch, plan, flat_db,
                OptimizationSet(activation_strategy=strategy)).memory.m_peak
            assert got <= base


def _small_plans(arch):
    """Every plan of a small (t, c, p, e, d, m_bs, v) space that decomposes."""
    experts = (1, 2) if arch.is_moe else (1,)
    for t, c, p, e, d, m_bs, v in itertools.product(
            (1, 2), (1, 2), (1, 2), experts, (1, 2), (1, 2), (1, 2)):
        try:
            plan = ParallelPlan(tp=t, cp=c, pp=p, ep=e, dp=d, micro_batch=m_bs,
                                global_batch=4, chunks=v, num_layers=arch.num_layers)
            decompose(arch, plan)
        except ShapeError:
            continue
        yield plan


SMALL_ARCHS = [tiny_dense(l=4, s=8, h=8, a=2), tiny_moe(l=4, s=8, h=8, a=2)]


class TestMemoryFirst:
    """evaluate_plan computes memory before latency; with a memory_limit it
    skips the latency terms of plans over the limit. These tests pin the
    equivalence that speed-up rests on."""

    @pytest.mark.parametrize("arch", SMALL_ARCHS, ids=["dense", "moe"])
    def test_limit_changes_only_whether_cost_is_computed(self, arch):
        # 1-byte host memory: the cpu optimizer's on-device overflow is nonzero
        db = make_db(make_hardware(cpu_memory=1.0))
        runs = [(plan, opts, evaluate_plan(arch, plan, db, opts))
                for plan in _small_plans(arch)
                for opts in default_feature_combos()]
        peaks = sorted(full.memory.m_peak for _, _, full in runs)
        limit = peaks[len(peaks) // 2]
        assert peaks[0] <= limit < peaks[-1]
        for plan, opts, full in runs:
            limited = evaluate_plan(arch, plan, db, opts, memory_limit=limit)
            assert limited.memory == full.memory
            assert (limited.cost is None) == (full.memory.m_peak > limit)
            if limited.cost is not None:
                assert limited.cost == full.cost

    @pytest.mark.parametrize("side,name", [
        ("compute", "norm"), ("compute", "head"), ("comm", "all-gather"),
        ("comm", "reduce-scatter"), ("comm", "all-reduce"), ("comm", "p2p"),
        ("comm", "all-to-all"),
    ])
    def test_incomplete_profile_raises_over_the_limit_too(self, side, name):
        # a plan rejected for memory raises the error its latency would;
        # only the dp overlap changes which entries are read, so two combos
        # (every overlap on, none) cover the feature set
        full = make_db()
        if side == "compute":
            compute = ComputeProfile(tuple(
                ComputeEntry(m, 1e12) for m in
                ("norm", "qkv", "attention-map", "attention-on-value",
                 "o-projection", "mlp-linear-1", "swiglu", "mlp-linear-2",
                 "embedding", "head") if m != name))
            db = ProfileDB(full.hardware, compute, full.comm)
        else:
            db = ProfileDB(full.hardware, full.compute, CommProfile(tuple(
                e for e in full.comm.entries if e.kind != name)))

        def outcome(arch, plan, opts, limit):
            try:
                return evaluate_plan(arch, plan, db, opts, memory_limit=limit).cost
            except ProfileLookupError as exc:
                return str(exc)

        raised = 0
        for arch in SMALL_ARCHS:
            for plan in _small_plans(arch):
                for opts in (default_feature_combos()[0], OptimizationSet()):
                    unlimited = outcome(arch, plan, opts, None)
                    if isinstance(unlimited, str):
                        raised += 1
                        assert outcome(arch, plan, opts, 0.0) == unlimited
                    else:
                        assert outcome(arch, plan, opts, 0.0) is None
        assert raised
