import math
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    e2e_objective,
    exhaustive_tune_reference,
    make_db,
    make_hardware,
    printed_rules,
    reference_walk,
    tiny_dense,
    tiny_moe,
)
from traincost import optim
from traincost.basecost import evaluate_plan
from traincost.config import load_config
from traincost.errors import InfeasibleError, InputError, ShapeError
from traincost.fault import (
    CheckpointPolicy,
    FaultModel,
    ettr_closed_form,
    optimal_ckpt_interval,
    run_cost,
)
from traincost.optim import (
    ACTIVATION_STRATEGIES,
    OPTIMIZER_STRATEGIES,
    DpOverlapCoeffs,
    OffloadCoeffs,
    OptimizationSet,
    OverlapCoeffs,
)
from traincost.plan import DIMS, ParallelPlan, dim_values
from traincost.tuner import (
    CANDIDATE_FIELDS,
    Candidate,
    SearchSpace,
    TuneResult,
    _enumerate_plans,
    _rank,
    prune,
    sweep,
    tune_e2e,
    tune_step,
)


def small_space(**overrides):
    arch = tiny_dense(l=4, s=8, h=8, a=2)
    defaults = dict(
        arch=arch,
        db=make_db(make_hardware(gpu_memory=1e12)),
        total_gpus=8,
        global_batch=16,
        tp_candidates=(1, 2),
        pp_candidates=(1, 2),
        ep_candidates=(1,),
        dp_candidates=(1, 2),
        micro_batch_candidates=(1, 2),
        chunk_candidates=(1, 2),
    )
    defaults.update(overrides)
    return SearchSpace(**defaults)


class TestPrune:
    def test_divisibility_rule(self):
        space = small_space(micro_batch_candidates=(3,), global_batch=16)
        reason = prune(space, {"tp": 1, "cp": 1, "pp": 1, "ep": 1, "dp": 1,
                               "micro_batch": 3})
        assert reason is not None and "divisible" in reason

    def test_tp_confined_to_node(self):
        space = small_space(tp_candidates=(16,), total_gpus=64)
        assert prune(space, {"tp": 16}) == "tp exceeds gpus per node"

    def test_bubble_rule_boundary_accepts(self):
        space = small_space(global_batch=16, total_gpus=64,
                            pp_candidates=(8,))
        assigned = {"tp": 1, "cp": 1, "pp": 8, "ep": 1, "dp": 1,
                    "micro_batch": 2}
        assert prune(space, assigned) is None

    def test_bubble_rule_rejects(self):
        space = small_space(global_batch=16, total_gpus=64)
        assigned = {"tp": 1, "cp": 1, "pp": 16, "ep": 1, "dp": 1,
                    "micro_batch": 2}
        reason = prune(space, assigned)
        assert reason is not None and "micro batches" in reason

    def test_resource_rule_fires_early(self):
        space = small_space(total_gpus=4)
        assert prune(space, {"tp": 2, "cp": 1, "pp": 2, "ep": 1, "dp": 2}) \
            == "resource: parallel product exceeds total gpus"

    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries({
        "tp": st.sampled_from([1, 2, 3, 16]), "cp": st.sampled_from([1, 2]),
        "pp": st.sampled_from([1, 2, 3, 4, 8]), "ep": st.sampled_from([1, 2]),
        "dp": st.sampled_from([1, 2, 3, 4]), "micro_batch": st.sampled_from([1, 2, 3, 8, 32]),
        "chunks": st.sampled_from([1, 2, 3])}))
    def test_every_prefix_matches_the_printed_rules(self, full):
        space = small_space(total_gpus=16).resolved()
        names = list(DIMS.values())
        for depth in range(len(names) + 1):
            prefix = {name: full[name] for name in names[:depth]}
            assert prune(space, prefix) == printed_rules(space, prefix)

    @pytest.mark.parametrize("assigned,reason", [
        # seven keys, one of them outside DIMS: chunks or tp is unassigned
        ({"tp": 1, "cp": 1, "pp": 2, "ep": 1, "dp": 1, "micro_batch": 1, "v": 3}, None),
        ({"t": 16, "cp": 1, "pp": 2, "ep": 1, "dp": 1, "micro_batch": 1, "chunks": 2}, None),
        # keys out of DIMS order are read by name
        ({"chunks": 3, "micro_batch": 1, "dp": 1, "ep": 1, "pp": 2, "cp": 1, "tp": 1},
         "layers not divisible by pp*chunks"),
        ({"chunks": 1, "micro_batch": 32, "dp": 1, "ep": 1, "pp": 1, "cp": 1, "tp": 1},
         "micro batch exceeds global batch"),
        ({"chunks": 3, "pp": 2}, "layers not divisible by pp*chunks"),
        ({"dp": 2, "micro_batch": 16}, "global batch not divisible by micro_batch*dp"),
    ])
    def test_assignment_is_read_by_name(self, assigned, reason):
        assert prune(small_space().resolved(), assigned) == reason


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
# the three shipped tune spaces, and the capture's space on which every rule rejects
SHIPPED_SPACES = {
    "run_tune_llama2": ("configs/run_tune_llama2.json", None),
    "tune_dense": ("bench/configs/tune_dense.json", None),
    "tune_moe_e2e": ("bench/configs/tune_moe_e2e.json", None),
    "space_every_rule": ("configs/run_tune_llama2.json", "tests/golden/space_every_rule.json"),
}
WORLD = "resource: parallel product exceeds total gpus"


def shipped_space(name):
    config, space = SHIPPED_SPACES[name]
    return load_config(os.path.join(ROOT, config),
                       space and os.path.join(ROOT, space)).space.resolved()


def random_space(seed):
    """A resolved space of one to three values per dimension drawn from
    {1, ..., 8, 12}, non-powers of two included, so that each rule can reject
    and the parallel-product rule can reject at every degree's level."""
    rng = random.Random(seed)
    pool = [1, 2, 3, 4, 5, 6, 7, 8, 12]
    values = {name: tuple(rng.sample(pool, rng.randint(1, 3)))
              for name in CANDIDATE_FIELDS.values()}
    hw = make_hardware(gpus_per_node=rng.choice([2, 3, 4, 8]))
    return SearchSpace(arch=tiny_dense(l=rng.choice([4, 6, 7, 12])), db=make_db(hw),
                       total_gpus=rng.choice([6, 8, 12, 24, 36]),
                       global_batch=rng.choice([6, 8, 12, 16, 18]), **values).resolved()


RANDOM_SEEDS = range(200)


class TestPruneHints:
    """The walk names each level's dimension to prune, which then checks
    only the rules that read it; the walk must reject exactly as the full
    check does."""

    def walk(self, space, monkeypatch):
        """_enumerate_plans on space, asserting that every hinted prune call
        returns the full check's reason; returns the plans, the rejections
        and the levels at which each reason fired."""
        import traincost.tuner as tuner
        levels: dict[str, set] = {}

        def checked(space, assigned, new=None):
            reason = prune(space, assigned, new)
            assert reason == prune(space, assigned), (dict(assigned), new)
            if reason is not None:
                levels.setdefault(reason, set()).add(new)
            return reason

        monkeypatch.setattr(tuner, "prune", checked)
        rejections: dict[str, int] = {}
        plans = _enumerate_plans(space, rejections)
        return plans, rejections, levels

    def assert_matches_reference(self, space, monkeypatch):
        plans, rejections, levels = self.walk(space, monkeypatch)
        reference_plans, reference_rejections = reference_walk(space)
        assert plans == reference_plans
        assert list(rejections.items()) == list(reference_rejections.items())
        return levels

    @pytest.mark.parametrize("name", sorted(SHIPPED_SPACES))
    def test_shipped_spaces(self, name, monkeypatch):
        levels = self.assert_matches_reference(shipped_space(name), monkeypatch)
        if name == "space_every_rule":
            assert len(levels) == 6 and levels[WORLD] == {"pp", "dp"}

    def test_random_spaces(self, monkeypatch):
        fired: dict[str, set] = {}
        for seed in RANDOM_SEEDS:
            levels = self.assert_matches_reference(random_space(seed), monkeypatch)
            for reason, names in levels.items():
                fired.setdefault(reason, set()).update(names)
        # every rule rejects, the parallel product at each degree's level
        assert len(fired) == 6 and fired[WORLD] == {"tp", "cp", "pp", "ep", "dp"}

    @pytest.mark.parametrize("name", [*sorted(SHIPPED_SPACES), "random"])
    def test_enumerated_plans_pass_the_constructor_checks(self, name):
        """The walk builds its plans past ParallelPlan's checks, which
        evaluate_plan then trusts: prune states the two divisibility rules and
        SearchSpace checks every count, so the constructor accepts each one."""
        spaces = ([random_space(seed) for seed in RANDOM_SEEDS] if name == "random"
                  else [shipped_space(name)])
        built = 0
        for space in spaces:
            plans = _enumerate_plans(space, {})
            assert plans == [ParallelPlan(*plan) for plan in plans]
            built += len(plans)
        assert built


class TestTuneStep:
    @pytest.mark.parametrize("sample", [False, True])
    def test_top_k_is_a_prefix_of_the_full_ranking(self, configs_dir, sample):
        space = (load_config(os.path.join(configs_dir, "run_tune_llama2.json")).space
                 if sample else small_space())
        full = tune_step(space, top_k=None).candidates
        n = len(full)
        assert n > 3
        for k in (0, 1, 3, n, n + 5):
            assert repr(tune_step(space, top_k=k).candidates) == repr(full[:k])

    def test_space_rejects_unknown_tflops_mode(self):
        with pytest.raises(InputError, match="unknown tflops mode 'bogus'"):
            small_space(tflops_mode="bogus")

    @pytest.mark.parametrize("field", sorted(CANDIDATE_FIELDS.values()))
    def test_space_rejects_a_repeated_candidate_value(self, field):
        with pytest.raises(InputError, match=f"^{field} repeats a value"):
            small_space(**{field: (2, 1, 2)})

    def test_matches_exhaustive_enumeration(self):
        space = small_space()
        mine = tune_step(space, top_k=5)
        reference = exhaustive_tune_reference(space, top_k=5)
        assert [c.to_json_dict() for c in mine.candidates] \
            == [c.to_json_dict() for c in reference]

    def test_matches_exhaustive_with_feature_combos(self):
        combos = (OptimizationSet(),
                  OptimizationSet(optimizer_strategy="distributed"))
        space = small_space(opt_combos=combos)
        mine = tune_step(space, top_k=8)
        reference = exhaustive_tune_reference(space, top_k=8)
        assert [c.to_json_dict() for c in mine.candidates] \
            == [c.to_json_dict() for c in reference]

    def test_memory_exhausted_space_is_empty_with_reasons(self):
        space = small_space(db=make_db(make_hardware(gpu_memory=1e-9)))
        result = tune_step(space, top_k=4)
        assert result.candidates == ()
        assert result.rejections.get("memory", 0) > 0

    def test_slow_tp_links_push_tp_out_of_top(self):
        db = make_db(make_hardware(gpu_memory=1e12),
                     per_kind_gbps={"all-gather": 1e-9, "reduce-scatter": 1e-9})
        space = small_space(db=db)
        best = tune_step(space, top_k=1).candidates[0]
        assert best.plan.tp == 1

    def test_deterministic_across_runs_and_workers(self):
        space = small_space()
        first = tune_step(space, top_k=6)
        second = tune_step(space, top_k=6)
        assert first.to_json_dict() == second.to_json_dict()
        # an equal space built from fresh objects: nothing carries over
        # between tunes or depends on object identity
        rebuilt = tune_step(small_space(), top_k=6)
        assert rebuilt.to_json_dict() == first.to_json_dict()

    def test_one_evaluate_plan_call_per_candidate(self, monkeypatch):
        # memory rejections too are full calls that return their
        # MemoryReport: the benchmark's traced accounting relies on it
        import traincost.tuner as tuner
        calls, no_cost = [], []
        evaluate = tuner.evaluate_plan

        def counting(*args, **kwargs):
            calls.append(1)
            result = evaluate(*args, **kwargs)
            if result.cost is None:
                no_cost.append(result.memory)
            return result

        monkeypatch.setattr(tuner, "evaluate_plan", counting)
        space = small_space(db=make_db(make_hardware(gpu_memory=3e4)),
                            tp_candidates=(1, 2, 3))
        result = tune_step(space, top_k=None)
        assert result.candidates and result.rejections["memory"] > 0
        assert len(calls) == result.evaluated
        assert len(no_cost) == result.rejections["memory"]

    def test_prune_runs_once_per_tried_value(self, monkeypatch):
        # the benchmark's traced accounting reads prune's results at this
        # binding: every rejection it returns must be one counted rejection
        import traincost.tuner as tuner
        calls = []
        original = tuner.prune

        def recording(space, assigned, new=None):
            reason = original(space, assigned, new)
            assert reason == original(space, assigned)   # the hint keeps the full check's
            calls.append((tuple(assigned.items()), reason))
            return reason

        monkeypatch.setattr(tuner, "prune", recording)
        # every rule fires, and the evaluations add memory and shape rejections
        space = small_space(db=make_db(make_hardware(gpu_memory=3e4)), total_gpus=16,
                            tp_candidates=(1, 2, 3, 16), pp_candidates=(1, 2, 4),
                            dp_candidates=(1, 2, 3), micro_batch_candidates=(1, 2, 8, 32),
                            chunk_candidates=(1, 2, 3))
        result = tune_step(space, top_k=None)
        resolved = space.resolved()
        sizes = [len(getattr(resolved, name)) for name in CANDIDATE_FIELDS.values()]
        assigned = [a for a, _ in calls]
        assert len(set(assigned)) == len(assigned)   # no value tried twice
        # each surviving prefix tries every value of the next dimension once
        survivors = 1
        for depth, size in enumerate(sizes, start=1):
            at_depth = [reason for a, reason in calls if len(a) == depth]
            assert len(at_depth) == survivors * size
            survivors = at_depth.count(None)
        assert result.evaluated == survivors * len(resolved.opt_combos)
        reasons = {}
        for _, reason in calls:
            if reason is not None:
                reasons[reason] = reasons.get(reason, 0) + 1
        assert len(reasons) == 6
        assert {key: result.rejections[key] for key in reasons} == reasons
        after_evaluation = sum(result.rejections.values()) - sum(reasons.values())
        assert result.evaluated == len(result.candidates) + after_evaluation

    def test_shape_rejection_counted_for_every_candidate(self):
        # the memo keeps a shape's ShapeError and raises it for every combo
        space = small_space(tp_candidates=(1, 3), pp_candidates=(1,),
                            dp_candidates=(1,), chunk_candidates=(1,))
        result = tune_step(space, top_k=None)
        combos = len(space.resolved().opt_combos)
        assert result.rejections["hidden_size=8 not divisible by tp=3"] == 2 * combos
        assert len(result.candidates) == 2 * combos

    def test_growing_space_never_worsens_top1(self):
        narrow = small_space(micro_batch_candidates=(1,))
        wide = small_space(micro_batch_candidates=(1, 2, 4))
        t_narrow = tune_step(narrow, top_k=1).candidates[0].cost.t_step
        t_wide = tune_step(wide, top_k=1).candidates[0].cost.t_step
        assert t_wide <= t_narrow

    def test_default_candidates_resolved(self):
        space = SearchSpace(arch=tiny_dense(l=4, s=8, h=8, a=2),
                            db=make_db(), total_gpus=16, global_batch=8)
        resolved = space.resolved()
        assert resolved.tp_candidates == (1, 2, 4, 8)
        assert resolved.cp_candidates == (1,)
        assert resolved.pp_candidates == (1, 2, 4)
        assert resolved.dp_candidates == (1, 2, 4, 8, 16)
        assert resolved.ep_candidates == (1,)
        assert resolved.micro_batch_candidates == (1, 2, 4, 8)
        assert resolved.chunk_candidates == (1, 2, 4)

    def test_default_allowlist_covers_strategy_cross(self):
        from traincost.optim import default_feature_combos
        space = SearchSpace(arch=tiny_dense(l=4, s=8, h=8, a=2),
                            db=make_db(), total_gpus=4, global_batch=8)
        combos = space.resolved().opt_combos
        assert combos == default_feature_combos()
        assert len(combos) == 12  # 3 optimizer x 4 activation strategies
        assert all(c.tp_overlap is not None and c.dp_overlap is not None
                   for c in combos)
        strategies = {(c.optimizer_strategy, c.activation_strategy)
                      for c in combos}
        assert ("cpu", "offload") in strategies and ("none", "none") in strategies


def unshared_tune_reference(space) -> TuneResult:
    """tune_step(top_k=None) without shared terms: every candidate is
    decomposed and evaluated on its own, with no memo."""
    space = space.resolved()
    rejections: dict[str, int] = {}
    feasible, evaluated = [], 0
    for plan in _enumerate_plans(space, rejections):
        for idx, opts in enumerate(space.opt_combos):
            evaluated += 1
            try:
                result = evaluate_plan(space.arch, plan, space.db, opts, space.dtypes,
                                       tflops_mode=space.tflops_mode,
                                       memory_limit=space.db.hardware.gpu_memory)
            except (ShapeError, InputError) as exc:
                key = str(exc).split(":")[0]
            else:
                if result.cost is not None:
                    feasible.append(Candidate(plan, opts, idx, result.cost,
                                              result.memory))
                    continue
                key = "memory"
            rejections[key] = rejections.get(key, 0) + 1
    feasible.sort(key=lambda c: c.step_key)
    return TuneResult(tuple(feasible), evaluated, rejections)


def exhaustive_e2e_reference(space, price) -> TuneResult:
    """tune_e2e(top_k=None) without the bound: every feasible candidate is
    priced by price(t_step) -> (I_ckpt, ETTR, T_e2e), then all are sorted by
    (T_e2e, step_key), infeasible ones last."""
    step = tune_step(space, top_k=None)
    ranked = []
    for cand in step.candidates:
        try:
            interval, ettr, t_e2e = price(cand.cost.t_step)
        except InfeasibleError as exc:
            ranked.append(((math.inf, cand.step_key), cand._replace(fault_note=str(exc))))
        else:
            ranked.append(((t_e2e, cand.step_key),
                           cand._replace(interval=interval, ettr=ettr, t_e2e=t_e2e)))
    ranked.sort(key=lambda entry: entry[0])
    return TuneResult(tuple(cand for _, cand in ranked), step.evaluated, step.rejections)


def scrambled_cost(fault, save_s, total_steps, step_s):
    """A stand-in for fault.run_cost that keeps ETTR <= 1, the bound's only
    premise, but orders T_e2e far from the step order and finds a tenth of
    the candidates infeasible."""
    u = step_s * 7919.0 % 1.0
    if u < 0.1:
        raise InfeasibleError("scrambled: infeasible")
    ettr = 0.2 + 0.8 * u
    return 1, ettr, total_steps * step_s / ettr


coeff = st.sampled_from([1.0, 1.25, 2.0])
overlap = st.none() | st.builds(OverlapCoeffs, alpha=coeff, beta=coeff,
                                splits=st.integers(1, 3))
COMBO_FIELDS = {
    "compute_scaling": st.sampled_from([{}, {"*": 0.5}, {"qkv": 2.0, "*": 0.8},
                                        {"head": 1.5}]),
    # maps keyed by one collective kind make a collective memo key without
    # comm_lambda(kind) collide
    "comm_scaling": st.sampled_from([{}, {"*": 2.0}, {"all-gather": 0.5, "p2p": 3.0},
                                     {"p2p": 0.5}, {"all-reduce": 0.5},
                                     {"reduce-scatter": 2.0}]),
    "tp_overlap": overlap, "cp_overlap": overlap, "ep_overlap": overlap,
    "pp_overlap": overlap,
    "dp_overlap": st.none() | st.builds(
        DpOverlapCoeffs, alpha_rs=coeff, beta_bwd=coeff,
        mode=st.sampled_from(["exposed-only", "verbatim"])),
    "optimizer_strategy": st.sampled_from(OPTIMIZER_STRATEGIES),
    "activation_strategy": st.sampled_from(ACTIVATION_STRATEGIES),
    "offload_coeffs": st.builds(OffloadCoeffs, alpha_offload=coeff,
                                beta_offload=coeff, alpha_fetch=coeff,
                                beta_fetch=coeff),
}


@st.composite
def feature_combos(draw):
    """A random combo plus variants of it that differ in one or two fields,
    so that a memo key missing a field makes two combos collide."""
    base = draw(st.builds(OptimizationSet, **COMBO_FIELDS))
    combos = [base]
    for _ in range(draw(st.integers(0, 4))):
        names = draw(st.lists(st.sampled_from(sorted(COMBO_FIELDS)), min_size=1,
                              max_size=2, unique=True))
        combos.append(base._replace(**{n: draw(COMBO_FIELDS[n]) for n in names}))
    if draw(st.booleans()):
        # the same combo with dp_overlap toggled: the all-reduce against the
        # per-chunk reduce-scatter/all-gather of equal bytes when chunks=1
        combos.append(base._replace(dp_overlap=None if base.dp_overlap
                                    else DpOverlapCoeffs()))
    return tuple(combos)


@st.composite
def small_spaces(draw):
    moe = draw(st.booleans())
    arch = tiny_moe(l=4, s=8, h=8) if moe else tiny_dense(l=4, s=8, h=8, a=2)
    hw = make_hardware(gpu_memory=draw(st.sampled_from([2e4, 6e4, 2e5, 1e12])),
                       cpu_memory=draw(st.sampled_from([1e3, 2000e9])))
    # distinct bandwidths per kind and per group size (2 or 8): a collective
    # memo key without the kind or the group makes two collectives collide
    db = make_db(hw, tflops=draw(st.sampled_from([0.5, 1.0])),
                 per_kind_gbps={"p2p": draw(st.sampled_from([0.1, 1.0])),
                                "all-to-all": 0.3, "all-reduce": 0.7,
                                "reduce-scatter": 1.3},
                 group_sizes=(2, 8))
    return SearchSpace(
        arch=arch, db=db, total_gpus=8, global_batch=8,
        # tp=3 does not divide h=8: the memo re-raises that shape's ShapeError
        tp_candidates=draw(st.sampled_from([(1, 2), (1, 2, 3)])),
        cp_candidates=draw(st.sampled_from([(1,), (1, 2)])),
        pp_candidates=(1, 2), ep_candidates=(1, 2, 4) if moe else (1,),
        micro_batch_candidates=(1, 2), chunk_candidates=(1, 2),
        opt_combos=draw(feature_combos()),
    )


class TestSharedTerms:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_spaces())
    def test_tune_step_matches_unshared_evaluation(self, space):
        # every float, the evaluated count and the rejection counts, and the
        # reasons in the order each first occurred
        result, reference = tune_step(space, top_k=None), unshared_tune_reference(space)
        assert result.to_json_dict() == reference.to_json_dict()
        assert list(result.rejections) == list(reference.rejections)

    def test_activation_op_runs_once_per_table_key(self, configs_dir, monkeypatch):
        """The memo calls the activation strategy op four times per depth key
        (shape, pp, chunks, num_layers) and once per key of the
        strategy-adjusted layer times among the full evaluations, not four
        times per plan and once per full evaluation."""
        space = load_config(os.path.join(configs_dir, "run_tune_llama2.json")).space
        op, calls = optim.apply_activation_strategy, []
        monkeypatch.setattr(optim, "apply_activation_strategy",
                            lambda *args, **kwargs: calls.append(args) or op(*args, **kwargs))
        result = tune_step(space, top_k=None)
        plans = _enumerate_plans(space.resolved(), {})
        depths = {(p.tp, p.cp, p.ep, p.micro_batch, p.pp, p.chunks, p.num_layers)
                  for p in plans}
        # The sample's profile is complete, so the full evaluations are the
        # feasible candidates; the layer times read no optimizer strategy and
        # neither the pp nor the dp overlap.
        parts = {(c.plan.tp, c.plan.cp, c.plan.ep, c.plan.micro_batch,
                  repr(c.opts._replace(optimizer_strategy="none", pp_overlap=None,
                                       dp_overlap=None)))
                 for c in result.candidates}
        assert len(calls) == 4 * len(depths) + len(parts) == 4 * 24 + 4
        assert 4 * len(plans) + len(result.candidates) == 4 * 66 + 102

    def test_optimizer_op_runs_per_depth_plan_and_full_evaluation(self, configs_dir,
                                                                 monkeypatch):
        """The memo calls the optimizer strategy op twice per depth key (the
        none and cpu strategies' bytes), once per plan (the distributed
        strategy's, which reads dp) and, for t_update, once per full
        evaluation, not three times per plan."""
        sample = load_config(os.path.join(configs_dir, "run_tune_llama2.json")).space
        # every default combo of every plan is feasible
        unlimited = small_space(opt_combos=optim.default_feature_combos())
        op = optim.apply_optimizer_strategy
        for space, counts in ((sample, (24, 66, 102)), (unlimited, (16, 32, 384))):
            calls = []
            monkeypatch.setattr(optim, "apply_optimizer_strategy",
                                lambda *args, **kwargs: calls.append(args) or op(*args, **kwargs))
            result = tune_step(space, top_k=None)
            plans = _enumerate_plans(space.resolved(), {})
            depths = {(p.tp, p.cp, p.ep, p.micro_batch, p.pp, p.chunks, p.num_layers)
                      for p in plans}
            # both profiles are complete: the full evaluations are the
            # feasible candidates
            full = result.candidates
            assert (len(depths), len(plans), len(full)) == counts
            assert len(calls) == 2 * len(depths) + len(plans) + len(full)
            assert [args[0] for args in calls].count("distributed") \
                == len(plans) + sum(c.opts.optimizer_strategy == "distributed" for c in full)


class TestTuneE2e:
    def fault(self, rate=0.01):
        return FaultModel(nodes=4, failures_per_node_day=rate,
                          mean_repair_s=60.0)

    def test_zero_risk_matches_step_ranking(self):
        space = small_space()
        fault = FaultModel(nodes=4, failures_per_node_day=0.0)
        step = tune_step(space, top_k=4)
        e2e = tune_e2e(space, fault, save_s=0.0, total_steps=1000, top_k=4)
        assert [c.plan for c in e2e.candidates] == [c.plan for c in step.candidates]

    def test_candidates_annotated(self):
        space = small_space()
        result = tune_e2e(space, self.fault(), save_s=2.0, total_steps=10000,
                          top_k=3)
        for cand in result.candidates:
            assert cand.interval is not None and cand.interval >= 1
            assert 0 < cand.ettr <= 1
            assert cand.t_e2e >= cand.cost.t_step * 10000

    def test_ranked_by_total_duration(self):
        space = small_space()
        result = tune_e2e(space, self.fault(), save_s=2.0, total_steps=10000,
                          top_k=8)
        totals = [c.t_e2e for c in result.candidates]
        assert totals == sorted(totals)

    def test_every_candidate_priced_by_the_closed_forms(self, configs_dir):
        """I_ckpt, ETTR and T_e2e of every feasible candidate of the sample
        config are optimal_ckpt_interval, ettr_closed_form and e2e_objective,
        bit for bit."""
        cfg = load_config(os.path.join(configs_dir, "run_tune_llama2.json"))
        fault, save_s = cfg.fault.model, cfg.fault.save_s
        steps = cfg.fault.resolve_steps(cfg.space.global_batch, cfg.arch.seq_len)
        result = tune_e2e(cfg.space, fault, save_s, steps, top_k=10**9)
        assert len(result.candidates) == 102
        for cand in result.candidates:
            t_step = cand.cost.t_step
            policy = CheckpointPolicy(cand.interval, save_s, steps, t_step)
            assert (cand.interval, cand.ettr) == optimal_ckpt_interval(fault, save_s, steps,
                                                                       t_step)
            assert cand.ettr.hex() == ettr_closed_form(fault, policy).hex()
            assert cand.t_e2e.hex() == e2e_objective(fault, policy).hex()

    REGIMES = {
        # ETTR is exactly 1, so each T_e2e meets its bound S * t_step
        "no-failures": (FaultModel(nodes=4, failures_per_node_day=0.0), 0.0),
        # repair outlasts the failure interval: every candidate gets a fault_note
        "negative-discriminant": (FaultModel(nodes=4, failures_per_node_day=1.0,
                                             mean_repair_s=1e5), 2.0),
        # ETTR far below 1
        "ettr-far-below-one": (FaultModel(nodes=64, failures_per_node_day=5.0,
                                          mean_repair_s=200.0), 2.0),
    }

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("top_k", [0, 1, 3, 10, 10**9])
    @pytest.mark.parametrize("moe", [False, True])
    def test_bounded_ranking_matches_exhaustive_sort(self, regime, top_k, moe):
        """Pricing candidates in step order until the bound closes returns
        the top_k of pricing every feasible candidate and sorting."""
        fault, save_s = self.REGIMES[regime]
        space = small_space()
        if moe:
            space = small_space(arch=tiny_moe(l=4, s=8, h=8), ep_candidates=(1, 2, 4),
                                opt_combos=(OptimizationSet(),
                                            OptimizationSet(optimizer_strategy="distributed")))
        result = tune_e2e(space, fault, save_s, total_steps=1000, top_k=top_k)
        reference = exhaustive_e2e_reference(space, lambda t: run_cost(fault, save_s, 1000, t))
        assert result.to_json_dict() == TuneResult(
            reference.candidates[:top_k], reference.evaluated,
            reference.rejections).to_json_dict()
        cands = reference.candidates
        if regime == "negative-discriminant":
            assert all(c.fault_note and c.t_e2e is None for c in cands)
        elif regime == "ettr-far-below-one":
            assert max(c.ettr for c in cands) < 0.5
        else:
            assert all(c.ettr == 1.0 for c in cands)

    @pytest.mark.parametrize("top_k", [0, 1, 3, 10, 10**9])
    def test_bounded_ranking_needs_only_ettr_at_most_one(self, top_k, monkeypatch):
        """The closed forms rank the candidates in step order; a pricing
        that does not still gets the exhaustive top_k, so the bound, not
        that order, decides where pricing stops."""
        import traincost.tuner as tuner
        monkeypatch.setattr(tuner, "run_cost", scrambled_cost)
        space = small_space()
        result = tune_e2e(space, None, 0.0, total_steps=1000, top_k=top_k)
        reference = exhaustive_e2e_reference(space,
                                             lambda t: scrambled_cost(None, 0.0, 1000, t))
        assert result.to_json_dict() == TuneResult(
            reference.candidates[:top_k], reference.evaluated,
            reference.rejections).to_json_dict()
        keys = [c.step_key for c in reference.candidates]
        assert keys != sorted(keys) and any(c.fault_note for c in reference.candidates)

    def test_bounded_ranking_prices_fewer_candidates(self, configs_dir, monkeypatch):
        """At top_k=4 the sample config's ranking stops pricing before the
        end of its 102 feasible candidates, and keeps the exhaustive top 4."""
        import traincost.tuner as tuner
        cfg = load_config(os.path.join(configs_dir, "run_tune_llama2.json"))
        fault, save_s = cfg.fault.model, cfg.fault.save_s
        steps = cfg.fault.resolve_steps(cfg.space.global_batch, cfg.arch.seq_len)
        calls = []
        monkeypatch.setattr(tuner, "run_cost",
                            lambda *args: calls.append(args) or run_cost(*args))
        result = tune_e2e(cfg.space, fault, save_s, steps, top_k=4)
        priced = len(calls)
        assert 4 <= priced < 102
        full = tune_e2e(cfg.space, fault, save_s, steps, top_k=10**9)
        assert len(full.candidates) == len(calls) - priced == 102
        assert result.candidates == full.candidates[:4]

    def test_top_0_prices_nothing(self, monkeypatch):
        """At top_k=0 no candidate is priced, and the counts are those of
        the full step ranking."""
        import traincost.tuner as tuner
        calls = []
        monkeypatch.setattr(tuner, "run_cost",
                            lambda *args: calls.append(args) or run_cost(*args))
        space = small_space(total_gpus=4)
        result = tune_e2e(space, self.fault(), save_s=2.0, total_steps=1000, top_k=0)
        full = tune_step(space, top_k=None)
        assert result.candidates == () and calls == [] and full.candidates
        assert result.evaluated == full.evaluated and full.rejections
        assert list(result.rejections.items()) == list(full.rejections.items())

    def test_two_phase_agrees_with_joint_grid(self):
        # joint (step time, interval) grid: the per-step winner also wins
        # end to end, so picking the interval separately loses nothing
        fault = self.fault()
        step_times = [27.83, 30.5, 45.0]
        joint = {}
        for t_step in step_times:
            joint[t_step] = min(
                e2e_objective(fault, CheckpointPolicy(i, 2.0, 10000, t_step))
                for i in range(1, 400))
        best_joint = min(joint, key=joint.get)
        assert best_joint == min(step_times)


class TestSweep:
    def test_chunk_sweep_rows(self):
        space = small_space(chunk_candidates=(1, 2, 4))
        result = sweep(space, "v", [1, 2, 4])
        assert result.columns == ("value", "t", "c", "p", "e", "d", "m_bs", "v",
                                  "T_step", "TFLOPS", "M_peak_GB")
        assert [row[0] for row in result.rows] == [1, 2, 4]
        assert [row[7] for row in result.rows] == [1, 2, 4]  # the plan's v
        assert all(row[8] > 0 for row in result.rows)  # T_step column

    def test_cluster_size_sweep_carries_linearity(self):
        space = small_space()
        result = sweep(space, "g_n", [4, 8])
        assert len(result.rows) == 2
        t_col = result.columns.index("T_step")
        lin_col = result.columns.index("linearity")
        first, second = result.rows
        assert first[lin_col] == 1.0
        ideal = first[t_col] * 4 / 8
        assert second[lin_col] == ideal / second[t_col]

    def test_fault_rate_sweep_monotone(self):
        space = small_space()
        fault = FaultModel(nodes=32, failures_per_node_day=0.01,
                           mean_repair_s=60.0)
        result = sweep(space, "r_f", [0.0025, 0.005, 0.01, 0.015],
                       fault=fault, save_s=2.0, total_steps=10000, step_s=28.0)
        ettrs = [row[1] for row in result.rows]
        assert all(a > b for a, b in zip(ettrs, ettrs[1:]))

    def test_interval_sweep_uses_given_interval(self):
        space = small_space()
        fault = FaultModel(nodes=32, failures_per_node_day=0.01,
                           mean_repair_s=60.0)
        result = sweep(space, "I_ckpt", [10, 37, 100], fault=fault,
                       save_s=2.0, total_steps=10000, step_s=28.0)
        assert [row[3] for row in result.rows] == [10, 37, 100]
        # the optimum sits at the middle value for this configuration
        ettrs = [row[1] for row in result.rows]
        assert ettrs[1] == max(ettrs)

    @pytest.mark.parametrize("parameter,values", [
        ("r_f", [0.0, 0.01, 5.0, 1e6]), ("u_b", [0.0, 60.0, 1e6, 1e300]),
        ("N_nodes", [1, 32, 10**7]), ("T_save", [0.0, 2.0, 1e6, 1e300]),
        ("I_ckpt", [1, 37, 10**6]),
    ])
    def test_fault_sweep_rows_are_run_cost(self, parameter, values):
        """Each row is run_cost at the swept value: at the optimal interval,
        or at the swept I_ckpt. An infeasible optimum blanks all three
        columns; an infeasible fixed I_ckpt keeps its interval."""
        fault = FaultModel(nodes=32, failures_per_node_day=0.01, mean_repair_s=60.0)
        result = sweep(small_space(), parameter, values, fault=fault, save_s=2.0,
                       total_steps=10000, step_s=28.0)
        swept = {"r_f": lambda v: (fault._replace(failures_per_node_day=v), 2.0, None),
                 "u_b": lambda v: (fault._replace(mean_repair_s=v), 2.0, None),
                 "N_nodes": lambda v: (fault._replace(nodes=v), 2.0, None),
                 "T_save": lambda v: (fault, v, None),
                 "I_ckpt": lambda v: (fault, 2.0, v)}[parameter]
        for value, row in zip(values, result.rows, strict=True):
            f, save_s, interval = swept(value)
            try:
                i_ckpt, ettr, t_e2e = run_cost(f, save_s, 10000, 28.0, interval)
            except InfeasibleError:
                assert row == (value, "", "", "" if interval is None else interval)
            else:
                assert row == (value, ettr, t_e2e, i_ckpt)
        # the last value of each sweep is infeasible
        assert result.rows[-1][1:3] == ("", "")

    @pytest.mark.parametrize("parameter,values,given", [
        ("g_bs", [4, 32], {"micro_batch_candidates": (8,)}),
        ("N", [1, 4], {"tp_candidates": (2,)}),
    ])
    def test_batch_and_node_sweeps_resolve_their_candidates_again(self, parameter, values,
                                                                  given):
        """A swept g_bs resolves the micro-batch candidates again against the
        new batch, and a swept N the tp candidates against the new node
        size: each row is the top-1 of the space built with that value and
        those candidates left to their defaults. The given candidate (a
        micro batch above 4, a tp above 1) would leave the first row empty."""
        result = sweep(small_space(**given), parameter, values)
        for value, row in zip(values, result.rows, strict=True):
            if parameter == "g_bs":
                space = small_space(global_batch=value, micro_batch_candidates=())
            else:
                space = small_space(db=make_db(make_hardware(gpu_memory=1e12,
                                                             gpus_per_node=value)),
                                    tp_candidates=())
            best = tune_step(space, top_k=1).candidates[0]
            assert row == (value, *dim_values(best.plan), best.cost.t_step,
                           best.cost.tflops, best.memory.m_peak / 1e9)

    def test_optimizer_strategy_sweep_pins_every_combo(self):
        # even when the space starts from the default allowlist, the swept
        # strategy must be pinned (with duplicates collapsed)
        space = small_space(opt_combos=())
        result = sweep(space, "optimizer_strategy", ["none", "cpu"])
        assert [row[0] for row in result.rows] == ["none", "cpu"]
        from traincost.tuner import _pin_parameter
        pinned = _pin_parameter(space, "optimizer_strategy", "cpu")
        assert all(c.optimizer_strategy == "cpu" for c in pinned.opt_combos)
        assert len(pinned.opt_combos) == 4  # one per activation strategy

    def test_dp_overlap_sweep_toggles(self):
        from traincost.tuner import _pin_parameter
        space = small_space(dp_candidates=(2,))
        on = _pin_parameter(space, "dp_overlap", "on")
        off = _pin_parameter(space, "dp_overlap", "off")
        assert all(c.dp_overlap is not None for c in on.opt_combos)
        assert all(c.dp_overlap is None for c in off.opt_combos)
        result = sweep(space, "dp_overlap", ["off", "on"])
        # the toggle changes the data-parallel pattern (single gradient
        # exchange vs per-chunk rs+ag), so the step times must differ
        assert result.rows[0][8] != result.rows[1][8]

    def test_dp_overlap_sweep_values(self):
        from traincost.tuner import _pin_parameter
        space = small_space(dp_candidates=(2,))
        for value, enabled in (("on", True), ("true", True), (1, True), (True, True),
                               ("off", False), ("false", False), (0, False),
                               (False, False)):
            pinned = _pin_parameter(space, "dp_overlap", value)
            assert all((c.dp_overlap is not None) == enabled for c in pinned.opt_combos)
        for value in ("yes", "", 2, 1.0, None):
            with pytest.raises(InputError, match="dp_overlap value"):
                _pin_parameter(space, "dp_overlap", value)

    def test_unknown_parameter(self):
        with pytest.raises(InputError, match="unknown sweep parameter"):
            sweep(small_space(), "zeta", [1])

    def test_fault_sweep_needs_context(self):
        with pytest.raises(InputError, match="needs a fault config"):
            sweep(small_space(), "r_f", [0.01])


class TestLinearity:
    """The g_n sweep's linearity column: the first feasible cluster's step
    time scaled ideally to each swept size, over that size's step time."""

    def test_ratio(self):
        result = sweep(small_space(), "g_n", [8, 4])
        t_col, lin_col = result.columns.index("T_step"), result.columns.index("linearity")
        first, second = result.rows
        assert second[lin_col] == first[t_col] * 8 / 4 / second[t_col]

    def test_equal_is_unity(self):
        result = sweep(small_space(), "g_n", [4, 4])
        lin_col = result.columns.index("linearity")
        assert [row[lin_col] for row in result.rows] == [1.0, 1.0]


def halve_rates(db):
    """The profile with every rate halved: each operator's throughputs, each
    collective bucket's bandwidth, and the host links, CPU, GPU peak, HBM
    and optimizer rates. Halving is exact in binary floating point."""
    hw = db.hardware
    hw = hw._replace(**{name: getattr(hw, name) / 2 for name in (
        "h2d_bw", "d2h_bw", "cpu_flops", "gpu_peak_flops", "hbm_bw",
        "optimizer_throughput")})
    compute = db.compute._replace(entries=tuple(
        entry._replace(fwd_flops_per_s=entry.fwd_flops_per_s / 2,
                       bwd_flops_per_s=entry.bwd_flops_per_s and entry.bwd_flops_per_s / 2)
        for entry in db.compute.entries))
    comm = db.comm._replace(entries=tuple(
        entry._replace(buckets=tuple(bucket._replace(bandwidth=bucket.bandwidth / 2)
                                     for bucket in entry.buckets))
        for entry in db.comm.entries))
    return db._replace(hardware=hw, compute=compute, comm=comm)


def llama2_default_space():
    """llama2-70b's default space at 128 GPUs and global batch 256, on the
    shipped hardware and profile."""
    cfg = load_config(os.path.join(ROOT, "configs/run_tune_llama2.json"))
    return SearchSpace(arch=cfg.arch, db=cfg.db, total_gpus=128, global_batch=256)


class TestHomogeneity:
    """Step time is positively homogeneous of degree one in the rates: with
    every rate halved, each time field of each feasible candidate doubles
    bit for bit, memory reads no rate, and the ranking and the rejection
    counts stay the same."""

    @pytest.mark.parametrize("build", [
        lambda: load_config(os.path.join(ROOT, "configs/run_tune_llama2.json")).space,
        llama2_default_space,
    ], ids=["run_tune_llama2", "llama2_default"])
    def test_halving_every_rate_doubles_every_time(self, build):
        space = build()
        ranked, evaluated, rejections = _rank(space)
        slow, slow_evaluated, slow_rejections = _rank(space._replace(db=halve_rates(space.db)))
        assert ranked and (slow_evaluated, slow_rejections) == (evaluated, rejections)
        assert [row[0][1:] for row in slow] == [row[0][1:] for row in ranked]
        times = [name for name in ranked[0][3]._fields if name.startswith("t_")]
        for (key, plan, opts, cost, memory), (s_key, s_plan, s_opts, s_cost, s_memory) \
                in zip(ranked, slow):
            assert (s_plan, s_opts, s_memory) == (plan, opts, memory)
            assert s_key[0] == 2 * key[0]
            assert [getattr(s_cost, name) for name in times] == \
                [2 * getattr(cost, name) for name in times]
