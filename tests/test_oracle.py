import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traincost.basecost import pipeline_time
from traincost.errors import InputError
from traincost.fault import CheckpointPolicy, FaultModel, ettr_closed_form, ettr_exact
from traincost.oracle import (
    grid_search_interval,
    simulate_activation_ledger,
    simulate_faults,
    simulate_pipeline,
)
from traincost.plan import ParallelPlan

from helpers import (
    reference_activation_ledger,
    reference_simulate_faults,
    reference_simulate_pipeline,
)


def plan_of(p=1, v=1, m_b=1, l=1):
    return ParallelPlan(pp=p, chunks=v, micro_batch=1, global_batch=m_b,
                        num_layers=p * v * l)


def device_op_order(plan, device):
    """(kind, virtual slot) order one device runs, written out one op at a
    time: the warmup forwards, then a forward and a backward in turn while
    forwards remain, then the remaining backwards."""
    slots, warmup = plan.micro_batches * plan.chunks, plan.warmups()[device]
    order = [("fwd", s) for s in range(warmup)]
    for s in range(warmup, slots):
        order += [("fwd", s), ("bwd", s - warmup)]
    order += [("bwd", s) for s in range(slots - warmup, slots)]
    return order


EXTRA_TIMES = ("t_pp", "t_embed", "t_embed_bwd", "t_head", "t_head_bwd")


@st.composite
def pipeline_cases(draw):
    """A plan the replay supports, per-layer times and hop, embedding and
    head costs that are each either zero or positive."""
    p, v, l = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    m_b = p * draw(st.integers(1, 4)) if v > 1 else draw(st.integers(p, 4 * p))
    t_f, t_b = draw(st.floats(0.05, 4.0)), draw(st.floats(0.05, 4.0))
    extras = {key: draw(st.just(0.0) | st.floats(0.01, 2.0)) for key in EXTRA_TIMES}
    return plan_of(p=p, v=v, m_b=m_b, l=l), t_f, t_b, extras


class TestPipelineSim:
    @settings(max_examples=100, deadline=None)
    @given(pipeline_cases())
    def test_every_op_starts_when_device_and_dependencies_allow(self, case):
        """Each device runs its static op order, and each op starts exactly
        at the later of its device's previous end and its dependencies'
        ready time, derived here from the trace's own events."""
        plan, t_f, t_b, extras = case
        p, v, m_b, l = plan.pp, plan.chunks, plan.micro_batches, plan.layers_per_stage
        makespan, trace = simulate_pipeline(t_f, t_b, plan, **extras)
        assert len(trace.events) == 2 * m_b * v * p
        last = p * v - 1
        by_op = {(e.kind, e.micro_batch, e.chunk * p + e.device): e for e in trace.events}
        micros, fwd_chunks, bwd_chunks = plan.slots()
        chunks = {"fwd": fwd_chunks, "bwd": bwd_chunks}

        def arrival(kind, micro, gs, device):
            dep = by_op[kind, micro, gs]
            return dep.end + (extras["t_pp"] if dep.device != device else 0.0)

        for dev in range(p):
            ran = [e for e in trace.events if e.device == dev]
            assert [(e.kind, e.micro_batch, e.chunk) for e in ran] == [
                (kind, micros[slot], chunks[kind][slot])
                for kind, slot in device_op_order(plan, dev)]
            previous_end = 0.0
            for e in ran:
                fwd, gs = e.kind == "fwd", e.chunk * p + dev
                if fwd:
                    ready = 0.0 if gs == 0 else arrival("fwd", e.micro_batch, gs - 1, dev)
                else:
                    ready = by_op["fwd", e.micro_batch, gs].end
                    if gs < last:
                        ready = max(ready, arrival("bwd", e.micro_batch, gs + 1, dev))
                assert e.start == max(previous_end, ready)
                duration = l * (t_f if fwd else t_b)
                if gs == 0:
                    duration += extras["t_embed" if fwd else "t_embed_bwd"]
                if gs == last:
                    duration += extras["t_head" if fwd else "t_head_bwd"]
                assert e.end == e.start + duration
                previous_end = e.end
        assert makespan == max(e.end for e in trace.events) - min(
            e.start for e in trace.events)

    @settings(max_examples=100, deadline=None)
    @given(pipeline_cases())
    def test_trace_keeps_the_replay_tables(self, case):
        """The trace holds a row per micro-batch and direction, each a
        sentinel and one slot per stage, plus one trailing sentinel; its
        events are the 2*m_b*v*p ops and never a sentinel slot, whose end
        (-hop or -inf) never passes its start (0.0) as every op's does."""
        plan, t_f, t_b, extras = case
        p, v, m_b = plan.pp, plan.chunks, plan.micro_batches
        _, trace = simulate_pipeline(t_f, t_b, plan, **extras)
        assert len(trace.starts) == len(trace.ends) == 2 * m_b * (p * v + 1) + 1
        events = trace.events
        assert len(events) == 2 * m_b * v * p
        assert all(math.isfinite(e.start) and math.isfinite(e.end) and e.end > e.start
                   for e in events)

    @settings(max_examples=100, deadline=None)
    @given(pipeline_cases(), st.booleans(), st.floats(0.5, 2.0))
    def test_matches_per_device_reference(self, case, costs_on, unit):
        """The replay, whose devices of one warmup depth share an op order,
        gives the makespan, the start and end columns and the ledger peaks
        of a replay that builds one op list per device, bit for bit; half
        the examples turn every hop, embedding and head cost on."""
        plan, t_f, t_b, extras = case
        if costs_on:
            extras = {key: value or 0.3 for key, value in extras.items()}
        makespan, trace = simulate_pipeline(t_f, t_b, plan, **extras)
        assert (makespan, trace.starts, trace.ends) == \
            reference_simulate_pipeline(t_f, t_b, plan, **extras)
        assert simulate_activation_ledger(plan, unit) == \
            reference_activation_ledger(plan, unit)

    @pytest.mark.parametrize("p,v,m_b,t_b,extras,makespan", [
        (2, 2, 4, 1.0, {}, 18.0),
        (4, 3, 8, 2.0, {"t_pp": 0.25, "t_embed": 0.5, "t_embed_bwd": 0.75,
                        "t_head": 0.5, "t_head_bwd": 1.0}, 101.5),
        (16, 5, 256, 2.0, {}, 3885.0),
    ], ids=["interleaved-p2-v2", "hop-embed-head", "p16-v5"])
    def test_pinned_makespans(self, p, v, m_b, t_b, extras, makespan):
        assert simulate_pipeline(1.0, t_b, plan_of(p=p, v=v, m_b=m_b), **extras)[0] \
            == makespan

    @pytest.mark.parametrize("p,v,m_b,l,t_f,t_b,costs,digest", [
        (2, 2, 4, 1, 1.0, 2.0, True,
         "1c4bc472587047eb1108219af15e89d92e2fe8d70332e5f0e8032ea004e7e3ae"),
        (4, 3, 8, 2, 1.25, 2.5, True,
         "0195dda5a7a23219ae34e3703052bc23ed891dd3911f2eb2b18b4f2dceb3808d"),
        (16, 3, 256, 1, 0.75, 1.5, True,
         "e51f9d7defc23789e13e8b1cee3a0ffa3c25cfce139d4be4639256c9c0536ea4"),
        (4, 2, 8, 1, 0.0, 1.0, False,
         "f56a468841949e65d1c9e71071a2136be6abed3592b18ca0a3ef2bf69c0cdeb4"),
        (4, 2, 8, 1, 0.0, 1.0, True,
         "768a5ad6b1442731ea56c77a720bb3c5d897d6908f388fdcd54d3418d542fab7"),
        (4, 3, 4, 1, 1.0, 2.0, False,
         "d2a55fcce29ee1e34e62b7e5d172de53d3b8a9cc00db24b3d7bc67cd452133f2"),
    ], ids=["p2-v2", "p4-v3-l2", "p16-v3", "zero-fwd", "zero-fwd-hop", "all-fwd-first"])
    def test_pinned_trace_digests(self, p, v, m_b, l, t_f, t_b, costs, digest):
        """Every event of a replay, in its (start, device, kind) order, hashes
        to a recorded digest, so any change to an event's values or to the
        order shows. Most rows turn hop, embedding and head costs on; the
        zero-forward rows tie many starts across devices and kinds, and the
        v>1, m_b=pp row runs every forward before any backward."""
        extras = {"t_pp": 0.3, "t_embed": 0.7, "t_embed_bwd": 1.1,
                  "t_head": 0.9, "t_head_bwd": 1.3} if costs else {}
        _, trace = simulate_pipeline(t_f, t_b, plan_of(p=p, v=v, m_b=m_b, l=l), **extras)
        assert hashlib.sha256(repr(trace.events).encode()).hexdigest() == digest

    def test_events_built_afresh_on_each_read(self):
        p, v, m_b = 4, 3, 8
        _, trace = simulate_pipeline(1.0, 2.0, plan_of(p=p, v=v, m_b=m_b), t_pp=0.25)
        first, second = trace.events, trace.events
        assert first == second and first is not second
        assert len(first) == 2 * m_b * v * p

    def test_held_trace_stays_small(self):
        """A held p=16, v=5, m_b=256 trace keeps its op times as columns,
        not one event object per op (about 5 MB)."""
        plan = plan_of(p=16, v=5, m_b=256)
        simulate_pipeline(1.0, 2.0, plan)  # warm any one-off allocations
        gc.collect()
        tracemalloc.start()
        try:
            held = simulate_pipeline(1.0, 2.0, plan)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held[0] == 3885.0 and retained <= 1_000_000

    def test_trace_event_is_a_tuple(self):
        _, trace = simulate_pipeline(1.0, 2.0, plan_of(p=2, m_b=2))
        first = trace.events[0]
        assert first == ("fwd", 0, 0, 0, 0.0, 1.0)
        kind, micro, chunk, device, start, end = first
        assert (kind, device, end) == (first.kind, first.device, first.end)

    def test_two_stage_example(self):
        makespan, trace = simulate_pipeline(1.0, 2.0, plan_of(p=2, m_b=4))
        assert makespan == 15.0
        assert makespan == pipeline_time(1.0, 2.0, plan_of(p=2, m_b=4)).total

    def test_no_pipeline(self):
        makespan, _ = simulate_pipeline(1.0, 2.0, plan_of(p=1, m_b=5))
        assert makespan == 5 * 3.0

    def test_three_stage_classic(self):
        makespan, _ = simulate_pipeline(1.0, 1.0, plan_of(p=3, m_b=6))
        assert makespan == (6 + 3 - 1) * 2.0

    def test_layers_scale_slot_duration(self):
        single = simulate_pipeline(1.0, 1.0, plan_of(p=2, m_b=4, l=1))[0]
        double = simulate_pipeline(1.0, 1.0, plan_of(p=2, m_b=4, l=2))[0]
        assert double == 2 * single

    def test_too_few_micro_batches_rejected(self):
        with pytest.raises(InputError, match="unsupported regime"):
            simulate_pipeline(1.0, 1.0, plan_of(p=4, m_b=2))

    def test_interleaved_needs_divisible_micro_batches(self):
        plan = ParallelPlan(pp=2, chunks=2, micro_batch=1, global_batch=5,
                            num_layers=4)
        with pytest.raises(InputError, match="divisible"):
            simulate_pipeline(1.0, 1.0, plan)

    @pytest.mark.parametrize("times", [
        {"t_fwd": -1.0}, {"t_bwd": float("nan")}, {"t_pp": -0.1},
        {"t_embed": float("inf")}, {"t_embed_bwd": -1e-9}, {"t_head": float("-inf")},
        {"t_head_bwd": float("nan")},
    ])
    def test_negative_or_non_finite_times_rejected(self, times):
        name = next(iter(times))
        args = {"t_fwd": 1.0, "t_bwd": 2.0, **times}
        with pytest.raises(InputError, match=f"^{name} value .* finite number >= 0"):
            simulate_pipeline(plan=plan_of(p=2, m_b=4), **args)

    def test_trace_events_well_formed(self):
        plan = plan_of(p=3, v=2, m_b=6)
        _, trace = simulate_pipeline(1.0, 2.0, plan, t_pp=0.1)
        by_device = {}
        for e in trace.events:
            by_device.setdefault(e.device, []).append(e)
        for events in by_device.values():
            events.sort(key=lambda e: e.start)
            for a, b in zip(events, events[1:]):
                assert a.end <= b.start + 1e-12  # no overlap on one device
        # every micro-batch runs backward after its forward on each stage
        fwd_end = {(e.micro_batch, e.chunk, e.device): e.end
                   for e in trace.events if e.kind == "fwd"}
        for e in trace.events:
            if e.kind == "bwd":
                assert e.start >= fwd_end[(e.micro_batch, e.chunk, e.device)] - 1e-12

    def test_embed_and_head_extend_boundary_stages(self):
        plain = simulate_pipeline(1.0, 1.0, plan_of(p=2, m_b=4))[0]
        with_extras = simulate_pipeline(1.0, 1.0, plan_of(p=2, m_b=4),
                                        t_embed=0.5, t_head=0.5)[0]
        assert with_extras > plain

    @pytest.mark.parametrize("func", [pipeline_time, simulate_pipeline],
                             ids=["pipeline_time", "simulate_pipeline"])
    @pytest.mark.parametrize("times", [(0.5,), (0.0, 0.5)], ids=["hop", "embedding"])
    def test_times_after_plan_are_keyword_only(self, func, times):
        plan = plan_of(p=2, m_b=4)
        with pytest.raises(TypeError):
            func(1.0, 2.0, plan, *times)
        func(1.0, 2.0, plan, t_pp=0.1, t_embed=0.2, t_embed_bwd=0.3, t_head=0.4,
             t_head_bwd=0.5)


class TestActivationLedger:
    def test_no_pipelining_single_live_batch(self):
        assert simulate_activation_ledger(plan_of(m_b=4), 7.0) == [7.0]

    def test_interleaved_peak_stage_zero(self):
        plan = plan_of(p=4, v=2, m_b=12)
        peaks = simulate_activation_ledger(plan, 1.0)
        assert peaks[0] == (2 * 4 + 4 - 1) * 1.0

    def test_peaks_weakly_decrease_downstream(self):
        plan = plan_of(p=4, v=3, m_b=16)
        peaks = simulate_activation_ledger(plan, 1.0)
        assert peaks == sorted(peaks, reverse=True)

    @settings(max_examples=100, deadline=None)
    @given(pipeline_cases(), st.floats(0.5, 2.0))
    def test_matches_literal_replay_of_op_order(self, case, unit):
        """Each stage's peak equals a step-by-step replay of the device's
        op order: a forward allocates, the matching backward frees."""
        plan = case[0]
        expected = []
        for dev in range(plan.pp):
            live = peak = 0
            for kind, _slot in device_op_order(plan, dev):
                live += 1 if kind == "fwd" else -1
                peak = max(peak, live)
            expected.append(peak * unit)
        assert simulate_activation_ledger(plan, unit) == expected

    def test_matches_closed_form_factor(self):
        from traincost.optim import apply_activation_strategy
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = int(rng.integers(1, 7))
            v = int(rng.integers(1, 4))
            plan = plan_of(p=p, v=v, m_b=p * (v + 2))
            unit = float(rng.uniform(0.5, 2.0))
            peaks = simulate_activation_ledger(plan, unit)
            for r in range(p):
                assert peaks[r] == apply_activation_strategy(
                    "none", plan, act_bytes_per_layer=unit,
                    attention_act_bytes=0.0, input_act_bytes=0.0,
                    t_fwd=0.0, t_bwd=0.0, r_pp=r)[0]


class TestFaultSim:
    def test_zero_rate_deterministic(self):
        fault = FaultModel(nodes=8, failures_per_node_day=0.0)
        policy = CheckpointPolicy(10, 2.0, 1000, 1.0)
        mean, se = simulate_faults(fault, policy, trials=100, seed=5)
        assert se == 0.0
        assert mean == ettr_exact(fault, policy).ettr

    def test_costless_recovery_loses_only_the_rollback(self):
        """With free recovery and no saves, a failure costs only its
        rollback within the checkpoint interval, as in the closed form."""
        fault = FaultModel(nodes=8, failures_per_node_day=5.0,
                           recovery_process_s=0, recovery_pod_s=0,
                           recovery_job_s=0, mix=(1.0, 0.0, 0.0))
        policy = CheckpointPolicy(100, 0.0, 20000, 1.0)
        mean, se = simulate_faults(fault, policy, trials=4000, seed=1)
        assert mean < 1.0
        assert abs(mean - ettr_closed_form(fault, policy)) < 4 * se

    def test_seed_reproducible(self):
        fault = FaultModel(nodes=32, failures_per_node_day=0.01)
        policy = CheckpointPolicy(20, 5.0, 20000, 20.0)
        a = simulate_faults(fault, policy, trials=2000, seed=42)
        b = simulate_faults(fault, policy, trials=2000, seed=42)
        assert a == b
        c = simulate_faults(fault, policy, trials=2000, seed=43)
        assert c != a

    def test_matches_closed_form(self):
        fault = FaultModel(nodes=32, failures_per_node_day=0.01)
        policy = CheckpointPolicy(20, 5.0, 20000, 20.0)
        mean, se = simulate_faults(fault, policy, trials=8000, seed=9)
        assert abs(mean - ettr_closed_form(fault, policy)) < 4 * se

    def test_reference_row_inputs(self):
        fault = FaultModel(nodes=16, failures_per_node_day=0.005,
                           mean_repair_s=134.41)
        policy = CheckpointPolicy(10, 4.19, 953675, 27.83)
        mean, se = simulate_faults(fault, policy, trials=10000, seed=77)
        assert abs(mean - 0.98492) < max(3 * se, 5e-5)

    def test_error_shrinks_with_trials(self):
        fault = FaultModel(nodes=32, failures_per_node_day=0.01)
        policy = CheckpointPolicy(20, 5.0, 20000, 20.0)
        _, se_small = simulate_faults(fault, policy, trials=500, seed=2)
        _, se_large = simulate_faults(fault, policy, trials=8000, seed=2)
        assert se_large < se_small / 2

    # Each id reads seed-repair-rollback-expectedN; every row draws the
    # rollback.
    @pytest.mark.parametrize("seed,repair,expected", [
        pytest.param(3, None, (0.9717292743604121, 3.1170153799021866e-05),
                     id="3-None-True-expected0"),
        pytest.param(3, 134.41, (0.9751871061384995, 2.347230039486556e-05),
                     id="3-134.41-True-expected2"),
        pytest.param(2024, None, (0.9716928192393911, 3.1154121207907894e-05),
                     id="2024-None-True-expected4"),
        pytest.param(2024, 134.41, (0.9751528007545553, 2.3059780277572572e-05),
                     id="2024-134.41-True-expected6"),
    ])
    def test_pinned_draw_stream(self, seed, repair, expected):
        """Exact (mean, se) for fixed seeds: any change to the order or the
        sizes of the random draws moves them. About a hundred failures per
        trial, so the loop runs many rounds."""
        fault = FaultModel(nodes=64, failures_per_node_day=0.05, mean_repair_s=repair)
        policy = CheckpointPolicy(10, 4.19, 95367, 27.83)
        assert simulate_faults(fault, policy, trials=2000, seed=seed) == expected

    @pytest.mark.parametrize("repair", [None, 134])
    def test_integer_recovery_times_with_rollback(self, repair):
        """Integer repair or recovery times (which FaultModel accepts) add
        a float rollback draw without a casting error."""
        fault = FaultModel(nodes=64, failures_per_node_day=0.05, recovery_process_s=140,
                           recovery_pod_s=260, recovery_job_s=300, mean_repair_s=repair)
        policy = CheckpointPolicy(10, 4.19, 95367, 27.83)
        mean, se = simulate_faults(fault, policy, trials=500, seed=3)
        assert 0.9 < mean < 1.0 and se > 0.0

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("trials", [1, 2, 7, 2000])
    @pytest.mark.parametrize("fault", [
        FaultModel(nodes=64, failures_per_node_day=0.05),
        FaultModel(nodes=64, failures_per_node_day=0.05, mean_repair_s=134.41),
        FaultModel(nodes=64, failures_per_node_day=0.05, recovery_process_s=140,
                   recovery_pod_s=260, recovery_job_s=300),
        FaultModel(nodes=64, failures_per_node_day=0.05, mean_repair_s=134),
        FaultModel(nodes=1, failures_per_node_day=1e-9),
        FaultModel(nodes=64, failures_per_node_day=0.0),
    ], ids=["mixture", "fixed-repair", "integer-mixture", "integer-repair",
            "none-fail", "zero-rate"])
    def test_matches_reference_draws(self, fault, trials, seed):
        """(mean, se) equal, bit for bit, those of a loop that draws numpy's
        uniform and exponential, fills the repair array and writes back
        every active trial each round."""
        policy = CheckpointPolicy(10, 4.19, 95367, 27.83)
        result = simulate_faults(fault, policy, trials=trials, seed=seed)
        assert result == reference_simulate_faults(fault, policy, trials, seed)
        if 0 < fault.failures_per_node_day < 1e-6:  # every trial ends unfailed
            base = policy.training_s + policy.num_saves * policy.save_s
            assert result[0] == float(np.full(trials, policy.training_s / base).mean())

    def test_trials_validated(self):
        fault = FaultModel(nodes=1, failures_per_node_day=0.0)
        policy = CheckpointPolicy(1, 0.0, 1, 1.0)
        with pytest.raises(InputError):
            simulate_faults(fault, policy, trials=0)


class TestIntervalGrid:
    def test_reference_figure(self):
        fault = FaultModel(nodes=32, failures_per_node_day=0.01,
                           mean_repair_s=60.0)
        assert grid_search_interval(fault, 2.0, 10000, 28.0, range(1, 400)) == 37

    def test_zero_rate_prefers_largest_interval(self):
        fault = FaultModel(nodes=32, failures_per_node_day=0.0)
        assert grid_search_interval(fault, 2.0, 1000, 10.0, range(1, 101)) == 100

    def test_empty_range(self):
        fault = FaultModel(nodes=1, failures_per_node_day=0.01)
        with pytest.raises(InputError):
            grid_search_interval(fault, 1.0, 100, 1.0, [])

    def test_vectorized_argmin_matches_scalar_loop(self):
        from helpers import e2e_objective
        fault = FaultModel(nodes=32, failures_per_node_day=0.01,
                           mean_repair_s=60.0)
        values = {i: e2e_objective(fault, CheckpointPolicy(i, 2.0, 10000, 28.0))
                  for i in range(1, 200)}
        scalar_argmin = min(values, key=values.get)
        assert grid_search_interval(fault, 2.0, 10000, 28.0,
                                    range(1, 200)) == scalar_argmin

    def test_tie_goes_to_smaller_interval(self):
        fault = FaultModel(nodes=32, failures_per_node_day=0.0)
        # zero rate and zero save cost: objective is flat, smallest wins
        assert grid_search_interval(fault, 0.0, 1000, 10.0, range(1, 50)) == 1
