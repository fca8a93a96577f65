import math

import numpy as np
import pytest

from helpers import e2e_objective
from traincost.errors import InfeasibleError, InputError
from traincost.fault import (
    CheckpointPolicy,
    FaultModel,
    ettr_closed_form,
    ettr_exact,
    failure_fixed_point,
    mean_repair_time,
    optimal_ckpt_interval,
    steps_from_tokens,
)

# The published evaluation-table reading this module reproduces: 16 nodes at
# 0.5% failures/node/day, 27.83 s steps, 953675 steps, saves every 10 steps.
REFERENCE = dict(nodes=16, rate=0.005, u_b=134.41, save=4.19, interval=10,
                 steps=953675, step_s=27.83)


def reference_inputs():
    fault = FaultModel(nodes=REFERENCE["nodes"],
                       failures_per_node_day=REFERENCE["rate"],
                       mean_repair_s=REFERENCE["u_b"])
    policy = CheckpointPolicy(REFERENCE["interval"], REFERENCE["save"],
                              REFERENCE["steps"], REFERENCE["step_s"])
    return fault, policy


def iterate_fixed_point(fault, policy, rounds=500):
    """Independent oracle: iterate the two defining equations to convergence."""
    lam = fault.failures_per_second
    u_b = mean_repair_time(fault)
    saves = math.ceil(policy.total_steps / policy.interval_steps) * policy.save_s
    f_f = 0.0
    for _ in range(rounds):
        t_in = (fault.init_s + f_f * u_b
                + f_f * policy.interval_steps * policy.step_s / 2.0 + saves)
        f_f = lam * (policy.training_s + t_in)
    return f_f


class TestRepairTime:
    def test_three_level_mixture(self):
        fault = FaultModel(nodes=1, failures_per_node_day=0.01)
        assert mean_repair_time(fault) == pytest.approx(
            0.3 * 141 + 0.6 * 262 + 0.1 * 307)
        assert mean_repair_time(fault) == pytest.approx(230.2)

    def test_degenerate_mixture(self):
        fault = FaultModel(nodes=1, failures_per_node_day=0.01,
                           mix=(1.0, 0.0, 0.0))
        assert mean_repair_time(fault) == 141.0

    def test_zero_recovery_times(self):
        fault = FaultModel(nodes=1, failures_per_node_day=0.01,
                           recovery_process_s=0, recovery_pod_s=0,
                           recovery_job_s=0)
        assert mean_repair_time(fault) == 0.0

    def test_mix_must_sum_to_one(self):
        with pytest.raises(InputError, match="sum to 1"):
            FaultModel(nodes=1, failures_per_node_day=0.01, mix=(0.3, 0.5, 0.1))

    @pytest.mark.parametrize("mix,message", [
        ((1.5, -0.6, 0.1), "mix weight value -0.6 is not a finite number >= 0"),
        ((0.5, 0.5), "list of 3 weights"),
        ((0.25,) * 4, "list of 3 weights"),
        ((float("nan"), 0.5, 0.5), "mix weight value nan"),
    ], ids=["negative", "two", "four", "nan"])
    def test_mix_is_three_weights_at_least_zero(self, mix, message):
        with pytest.raises(InputError, match=message):
            FaultModel(nodes=1, failures_per_node_day=0.01, mix=mix)

    def test_values_stored_as_floats(self):
        fault = FaultModel(nodes=2, failures_per_node_day=1, recovery_pod_s=262,
                           mix=[0, 1, 0], mean_repair_s=134)
        assert fault.mix == (0.0, 1.0, 0.0)
        assert all(type(x) is float for x in (
            fault.failures_per_node_day, fault.recovery_pod_s, fault.mean_repair_s,
            *fault.mix))

    def test_rate_unit_conversion(self):
        fault = FaultModel(nodes=10, failures_per_node_day=0.00864)
        assert fault.failures_per_second == pytest.approx(10 * 0.00864 / 86400)


class TestFixedPoint:
    def test_reference_value(self):
        fault, policy = reference_inputs()
        assert failure_fixed_point(fault, policy) == pytest.approx(24.95, abs=0.01)

    def test_matches_iterative_oracle(self):
        fault, policy = reference_inputs()
        assert failure_fixed_point(fault, policy) == pytest.approx(
            iterate_fixed_point(fault, policy), rel=1e-10)

    def test_zero_rate(self):
        fault = FaultModel(nodes=4, failures_per_node_day=0.0)
        policy = CheckpointPolicy(10, 1.0, 100, 1.0)
        assert failure_fixed_point(fault, policy) == 0.0

    def test_algebraic_reduction_without_overheads(self):
        fault = FaultModel(nodes=8, failures_per_node_day=0.01,
                           recovery_process_s=0, recovery_pod_s=0,
                           recovery_job_s=0)
        policy = CheckpointPolicy(10, 0.0, 1000, 2.0)
        lam = fault.failures_per_second
        expected = lam * policy.training_s / (1 - lam * 10 * 2.0 / 2)
        assert failure_fixed_point(fault, policy) == pytest.approx(expected)

    def test_infeasible_regime(self):
        fault = FaultModel(nodes=1000, failures_per_node_day=50.0,
                           mean_repair_s=3600.0)
        policy = CheckpointPolicy(100, 10.0, 1000, 10.0)
        with pytest.raises(InfeasibleError, match="failure rate too high"):
            failure_fixed_point(fault, policy)


class TestEttr:
    def test_reference_row(self):
        fault, policy = reference_inputs()
        report = ettr_exact(fault, policy)
        assert report.ettr == pytest.approx(0.9849, abs=2e-4)
        assert report.e2e_s == pytest.approx(26_947_191, rel=1e-3)
        assert report.ettr == report.training_s / (report.training_s
                                                   + report.interruption_s)

    def test_closed_form_reference(self):
        fault, policy = reference_inputs()
        assert ettr_closed_form(fault, policy) == pytest.approx(0.98492, abs=1e-5)

    def test_interval_figure_point(self):
        fault = FaultModel(nodes=32, failures_per_node_day=0.01,
                           mean_repair_s=60.0)
        policy = CheckpointPolicy(37, 2.0, 10000, 28.0)
        assert ettr_closed_form(fault, policy) == pytest.approx(0.9959, abs=1e-4)

    def test_no_failures_no_saves_is_unity(self):
        fault = FaultModel(nodes=8, failures_per_node_day=0.0)
        policy = CheckpointPolicy(10, 0.0, 1000, 1.0)
        assert ettr_closed_form(fault, policy) == 1.0
        assert ettr_exact(fault, policy).ettr == 1.0

    def test_no_failures_reduces_to_save_overhead(self):
        fault = FaultModel(nodes=8, failures_per_node_day=0.0)
        policy = CheckpointPolicy(7, 3.0, 1000, 2.0)
        expected = 1.0 / (1.0 + math.ceil(1000 / 7) * 3.0 / (1000 * 2.0))
        assert ettr_exact(fault, policy).ettr == pytest.approx(expected)

    def test_exact_and_closed_agree_when_aligned(self):
        # no init time and the interval divides the step count: the two
        # accounting variants coincide to well under 1e-4
        rng = np.random.default_rng(11)
        for _ in range(50):
            interval = int(rng.integers(1, 50))
            fault = FaultModel(nodes=int(rng.integers(1, 129)),
                               failures_per_node_day=float(rng.uniform(0, 0.02)))
            policy = CheckpointPolicy(interval, float(rng.uniform(0, 10)),
                                      interval * int(rng.integers(10, 5000)),
                                      float(rng.uniform(1, 60)))
            exact = ettr_exact(fault, policy).ettr
            closed = ettr_closed_form(fault, policy)
            assert abs(exact - closed) < 1e-4

    def test_strictly_decreasing_in_risk_factors(self):
        base = dict(nodes=32, rate=0.01, u_b=120.0, save=5.0)

        def ettr_at(nodes=None, rate=None, u_b=None, save=None):
            fault = FaultModel(nodes=nodes or base["nodes"],
                               failures_per_node_day=rate or base["rate"],
                               mean_repair_s=u_b or base["u_b"])
            policy = CheckpointPolicy(20, save or base["save"], 10000, 10.0)
            return ettr_closed_form(fault, policy)

        for key, values in [("nodes", [8, 16, 32, 64, 128]),
                            ("rate", [0.0025, 0.005, 0.01, 0.015]),
                            ("u_b", [18, 60, 120, 300]),
                            ("save", [2, 10, 30, 60])]:
            series = [ettr_at(**{key: value}) for value in values]
            assert all(a > b for a, b in zip(series, series[1:])), key


class TestObjectiveAndInterval:
    def test_objective_is_training_over_ettr(self):
        fault, policy = reference_inputs()
        g = e2e_objective(fault, policy)
        assert g == pytest.approx(policy.training_s / ettr_closed_form(fault, policy),
                                  rel=1e-12)

    def test_objective_reference_value(self):
        fault, policy = reference_inputs()
        assert e2e_objective(fault, policy) == pytest.approx(26_947_190.75, rel=1e-3)

    def test_objective_without_overheads(self):
        fault = FaultModel(nodes=8, failures_per_node_day=0.0)
        policy = CheckpointPolicy(10, 0.0, 1000, 2.5)
        assert e2e_objective(fault, policy) == 2500.0

    def test_optimal_interval_figure(self):
        fault = FaultModel(nodes=32, failures_per_node_day=0.01,
                           mean_repair_s=60.0)
        best, ettr = optimal_ckpt_interval(fault, 2.0, 10000, 28.0)
        assert best == 37
        assert ettr == pytest.approx(0.9959, abs=1e-4)

    def test_free_checkpoints_save_every_step(self):
        fault = FaultModel(nodes=32, failures_per_node_day=0.01)
        best, _ = optimal_ckpt_interval(fault, 0.0, 1000, 10.0)
        assert best == 1

    def test_zero_rate_single_final_checkpoint(self):
        fault = FaultModel(nodes=32, failures_per_node_day=0.0)
        best, _ = optimal_ckpt_interval(fault, 5.0, 1000, 10.0)
        assert best == 1000

    def test_negative_discriminant(self):
        fault = FaultModel(nodes=1000, failures_per_node_day=50.0,
                           mean_repair_s=1e6)
        with pytest.raises(InfeasibleError, match="cannot pay for itself"):
            optimal_ckpt_interval(fault, 1.0, 1000, 10.0)

    def test_objective_unimodal_around_optimum(self):
        fault = FaultModel(nodes=32, failures_per_node_day=0.01,
                           mean_repair_s=60.0)
        best, _ = optimal_ckpt_interval(fault, 2.0, 10000, 28.0)
        g = [e2e_objective(fault, CheckpointPolicy(i, 2.0, 10000, 28.0))
             for i in range(1, 4 * best)]
        arg = g.index(min(g)) + 1
        assert abs(arg - best) <= 1
        # strictly decreasing before, increasing after
        assert all(a > b for a, b in zip(g[:arg - 1], g[1:arg - 1]))
        assert all(a < b for a, b in zip(g[arg - 1:-1], g[arg:]))


class TestPolicy:
    def test_steps_from_tokens(self):
        assert steps_from_tokens(1e12, 256, 4096) == math.ceil(1e12 / (256 * 4096))

    def test_validation(self):
        with pytest.raises(InputError):
            CheckpointPolicy(0, 1.0, 10, 1.0)
        with pytest.raises(InputError):
            CheckpointPolicy(1, -1.0, 10, 1.0)
        with pytest.raises(InputError):
            CheckpointPolicy(1, 1.0, 10, 0.0)

    def test_from_json(self):
        fault = FaultModel.from_json_dict({
            "N_nodes": 16, "r_f_per_node_day": 0.005, "u_bc": 141,
            "u_bp": 262, "u_bj": 307, "mix": [0.3, 0.6, 0.1], "u0": 0,
        })
        assert fault.nodes == 16
        assert mean_repair_time(fault) == pytest.approx(230.2)
