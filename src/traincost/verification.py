"""Oracle-vs-closed-form verification suites behind the `verify` command.

Each suite pits an analytic result against its independent oracle on
randomized instances and reports pass/fail with a short detail string.
Everything is seeded, so a given invocation is reproducible. The acceptance
tests C3-C7 call these same checks with their own seeds and sizes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import optim
from .basecost import pipeline_time
from .errors import InfeasibleError
from .fault import CheckpointPolicy, FaultModel, ettr_closed_form, run_cost
from .oracle import (
    grid_search_interval,
    simulate_activation_ledger,
    simulate_faults,
    simulate_pipeline,
)
from .plan import ParallelPlan


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


class VerifyReport(NamedTuple):
    suites: tuple[SuiteResult, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_json_dict(self) -> dict:
        return {"pass": self.passed,
                "suites": [s.to_json_dict() for s in self.suites]}


def check_pipeline_des(instances: int = 50, seed: int = 0) -> SuiteResult:
    """Analytic pipeline total vs discrete-event makespan on single-chunk
    schedules with no hop cost, where the two must agree to 1e-12."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        p = int(rng.integers(1, 9))
        l = int(rng.integers(1, 4))
        m_b = int(rng.integers(p, 4 * p + 1))
        plan = ParallelPlan(pp=p, chunks=1, micro_batch=1,
                            global_batch=m_b, dp=1, num_layers=p * l)
        t_f = float(rng.uniform(0.05, 5.0))
        t_b = float(rng.uniform(0.05, 5.0))
        analytic = pipeline_time(t_f, t_b, plan).total
        makespan, _ = simulate_pipeline(t_f, t_b, plan)
        worst = max(worst, abs(analytic - makespan) / makespan)
    return SuiteResult("pipeline-vs-des", worst <= 1e-12,
                       f"max relative gap {worst:.3g} over {instances} instances")


def check_activation_ledger(instances: int = 20, seed: int = 1) -> SuiteResult:
    """Stage-0 ledger peak vs the model's activation bytes (no strategy)."""
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        p = int(rng.integers(1, 9))
        v = int(rng.integers(1, 5))
        m_b = p * int(rng.integers(v + 1, 2 * v + 3))   # >= vp + p, multiple of p
        plan = ParallelPlan(pp=p, chunks=v, micro_batch=1, global_batch=m_b,
                            num_layers=p * v)
        unit = float(rng.uniform(0.25, 4.0))
        peak = simulate_activation_ledger(plan, unit)[0]
        expected = optim.apply_activation_strategy(
            "none", plan, act_bytes_per_layer=unit, attention_act_bytes=0.0,
            input_act_bytes=0.0, t_fwd=0.0, t_bwd=0.0)[0]
        if peak != expected:
            return SuiteResult(
                "activation-ledger", False,
                f"stage-0 peak {peak} != {expected} at p={p} v={v} m_b={m_b}")
    return SuiteResult("activation-ledger", True,
                       f"{instances} instances matched exactly")


def check_interval_grid(instances: int = 100, seed: int = 2) -> SuiteResult:
    """T_e2e as fault.run_cost prices it at the closed-form optimal interval
    matches T_e2e at the exhaustive argmin to a relative 1e-12."""
    rng = np.random.default_rng(seed)
    checked, worst = 0, 0.0
    while checked < instances:
        fault = FaultModel(
            nodes=int(rng.integers(4, 257)),
            failures_per_node_day=float(rng.uniform(0.001, 0.05)),
            mean_repair_s=float(rng.uniform(30, 600)),
        )
        save_s = float(rng.uniform(0.5, 60))
        step_s = float(rng.uniform(1, 120))
        try:
            best, _, at_best = run_cost(fault, save_s, 10000, step_s)
        except InfeasibleError:
            continue
        exhaustive = grid_search_interval(fault, save_s, 10000, step_s,
                                          range(1, 10 * best + 2))
        at_grid = run_cost(fault, save_s, 10000, step_s, exhaustive)[2]
        gap = (at_best - at_grid) / at_grid
        if gap > 1e-12:
            return SuiteResult(
                "interval-closed-form-vs-grid", False,
                f"closed form {best} vs grid {exhaustive}: objective "
                f"{gap:.3g} relative above the grid minimum")
        worst = max(worst, gap)
        checked += 1
    return SuiteResult("interval-closed-form-vs-grid", True,
                       f"{instances} feasible configs, worst relative objective "
                       f"gap {worst:.3g}")


def check_fault_monte_carlo(configs: int = 4, trials: int = 4000,
                            seed: int = 3) -> SuiteResult:
    """Monte Carlo ETTR within 3 standard errors of the closed form."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(configs):
        rate = 0.001 + (0.02 - 0.001) * i / max(configs - 1, 1)
        fault = FaultModel(nodes=32, failures_per_node_day=rate)
        interval = int(rng.integers(5, 60))
        steps = interval * int(rng.integers(200, 2000))
        policy = CheckpointPolicy(interval, float(rng.uniform(1, 10)),
                                  steps, float(rng.uniform(5, 60)))
        expected = ettr_closed_form(fault, policy)
        mean, se = simulate_faults(fault, policy, trials=trials, seed=seed + i)
        gap = abs(mean - expected) / max(se, 1e-15)
        worst = max(worst, gap)
        if gap > 3.0:
            return SuiteResult(
                "fault-monte-carlo", False,
                f"mean {mean:.6f} vs closed form {expected:.6f} is "
                f"{gap:.2f} standard errors at rate {rate}")
    return SuiteResult("fault-monte-carlo", True,
                       f"{configs} configs x {trials} trials, worst deviation "
                       f"{worst:.2f} standard errors")


def check_overlap_bounds(samples: int = 1000, seed: int = 4) -> SuiteResult:
    """With unit coefficients every overlap lands between the max and the sum
    of its inputs (the pipeline variant between 0 and the hop cost); then
    full recompute must charge exactly one extra forward in the backward."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        a, b = float(rng.uniform(0, 100)), float(rng.uniform(0, 100))
        s_n = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        checks = [
            (optim.tp_overlap(a, b, s_n), max(a, b), a + b),
            (optim.cp_overlap(a, b, c), max(a, b), a + b),
            (optim.ep_overlap(a, b), max(a, b), a + b),
            (optim.pp_overlap(b, a), 0.0, b),
        ]
        for value, lo, hi in checks:
            if not (lo - 1e-12 <= value <= hi + 1e-12):
                return SuiteResult("overlap-bounds", False,
                                   f"value {value} outside [{lo}, {hi}]")
    plan = ParallelPlan(pp=1, chunks=3, micro_batch=1, global_batch=1,
                        num_layers=3)
    for _ in range(200):
        t_f, t_b = float(rng.uniform(0, 50)), float(rng.uniform(0, 50))
        _, fwd, bwd = optim.apply_activation_strategy(
            "full-recompute", plan, act_bytes_per_layer=1.0,
            attention_act_bytes=0.0, input_act_bytes=0.5, t_fwd=t_f, t_bwd=t_b)
        if fwd != t_f or bwd != t_b + t_f:
            return SuiteResult("overlap-bounds", False,
                               f"full recompute gave fwd {fwd}, bwd {bwd} "
                               f"from t_f {t_f}, t_b {t_b}")
    return SuiteResult("overlap-bounds", True,
                       f"{samples} bound samples and 200 recompute identities hold")


def run_all(trials: int = 4000, seed: int = 0) -> VerifyReport:
    return VerifyReport((
        check_pipeline_des(seed=seed),
        check_activation_ledger(seed=seed + 1),
        check_interval_grid(seed=seed + 2),
        check_fault_monte_carlo(trials=trials, seed=seed + 3),
        check_overlap_bounds(seed=seed + 4),
    ))
