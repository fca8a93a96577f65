"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with -s; pytest -v shows one PASSED/FAILED line
per criterion either way)."""

import json
import os
import time

import numpy as np

from helpers import (
    e2e_objective,
    exhaustive_tune_reference,
    make_db,
    make_hardware,
    tiny_dense,
)
from traincost.basecost import pipeline_time
from traincost.fault import (
    CheckpointPolicy,
    FaultModel,
    ettr_closed_form,
    optimal_ckpt_interval,
)
from traincost.oracle import grid_search_interval
from traincost.plan import ParallelPlan
from traincost.tuner import SearchSpace, tune_step
from traincost.verification import (
    check_activation_ledger,
    check_fault_monte_carlo,
    check_interval_grid,
    check_overlap_bounds,
    check_pipeline_des,
)


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# Inputs of the published evaluation table, four cluster scales of the same
# 70B dense run: (nodes, repair s, save s, step s, total steps,
#                 expected ETTR %, expected total duration s).
EVALUATION_TABLE = [
    (16, 134.41, 4.19, 27.83, 953675, 98.49, 26_947_190.75),
    (32, 147.72, 2.35, 27.99, 476838, 99.11, 13_465_926.21),
    (64, 174.34, 1.59, 28.33, 238419, 99.32, 6_800_277.57),
    (128, 227.58, 0.95, 28.83, 119210, 99.39, 3_457_670.27),
]
FAILURES_PER_NODE_DAY = 0.005
CKPT_INTERVAL = 10


def test_c01_ettr_table_reproduction():
    start = time.monotonic()
    worst_ettr = worst_e2e = 0.0
    for nodes, u_b, save_s, step_s, steps, ettr_pct, e2e_s in EVALUATION_TABLE:
        fault = FaultModel(nodes=nodes,
                           failures_per_node_day=FAILURES_PER_NODE_DAY,
                           mean_repair_s=u_b)
        policy = CheckpointPolicy(CKPT_INTERVAL, save_s, steps, step_s)
        ettr = ettr_closed_form(fault, policy)
        g = e2e_objective(fault, policy)
        worst_ettr = max(worst_ettr, abs(100 * ettr - ettr_pct))
        worst_e2e = max(worst_e2e, abs(g - e2e_s) / e2e_s)
        assert abs(100 * ettr - ettr_pct) <= 0.02
        assert abs(g - e2e_s) / e2e_s <= 1e-3
    elapsed = time.monotonic() - start
    report("C1 ETTR table reproduction", True,
           f"worst ETTR gap {worst_ettr:.4f} pp, worst duration gap "
           f"{worst_e2e:.2e} rel, {elapsed * 1e3:.1f} ms")


def test_c02_optimal_interval_figure():
    fault = FaultModel(nodes=32, failures_per_node_day=0.01, mean_repair_s=60.0)
    best, ettr = optimal_ckpt_interval(fault, save_s=2.0, total_steps=10000,
                                       step_s=28.0)
    grid = grid_search_interval(fault, 2.0, 10000, 28.0, range(1, 10 * best + 1))
    ok = best == 37 and abs(100 * ettr - 99.59) <= 0.01 and grid == best
    report("C2 optimal interval figure", ok,
           f"closed form {best} (ETTR {100 * ettr:.4f}%), grid {grid}")


def run_check(check, **kwargs):
    """One verification suite at the given size and seed, with its wall time."""
    start = time.monotonic()
    result = check(**kwargs)
    return result, time.monotonic() - start


def test_c03_closed_form_vs_grid_oracle():
    result, elapsed = run_check(check_interval_grid, instances=100, seed=202)
    report("C3 closed-form interval objective vs grid oracle",
           result.passed and elapsed < 5.0, f"{result.detail}, {elapsed:.2f} s")


def test_c04_monte_carlo_validation():
    result, elapsed = run_check(check_fault_monte_carlo, configs=10,
                                trials=10000, seed=1234)
    report("C4 Monte Carlo validation", result.passed and elapsed < 60.0,
           f"{result.detail}, {elapsed:.2f} s")


def test_c05_pipeline_des_equivalence():
    result, elapsed = run_check(check_pipeline_des, instances=50, seed=404)
    report("C5 pipeline DES equivalence", result.passed and elapsed < 5.0,
           f"{result.detail}, {elapsed:.2f} s")


def test_c06_activation_ledger():
    result = check_activation_ledger(instances=20, seed=606)
    report("C6 activation ledger", result.passed, result.detail)


def test_c07_overlap_properties():
    result = check_overlap_bounds(samples=1000, seed=707)
    report("C7 overlap properties", result.passed, result.detail)


def test_c08_tuner_soundness():
    from traincost.optim import OptimizationSet

    rng = np.random.default_rng(808)
    pools = {
        "tp": (1, 2, 4), "pp": (1, 2, 4), "dp": (1, 2, 4),
        "m_bs": (1, 2, 4), "v": (1, 2),
    }
    combo_pool = ((OptimizationSet(),),
                  (OptimizationSet(),
                   OptimizationSet(optimizer_strategy="distributed")))
    for trial in range(4):
        def pick(values):
            k = int(rng.integers(1, len(values) + 1))
            return tuple(sorted(rng.choice(values, size=k, replace=False).tolist()))

        combos = combo_pool[trial % 2]
        space = SearchSpace(
            arch=tiny_dense(l=8, s=8, h=8, a=2),
            db=make_db(make_hardware(gpu_memory=1e12)),
            total_gpus=int(rng.choice([4, 8, 16])),
            global_batch=int(rng.choice([8, 16])),
            tp_candidates=pick(pools["tp"]),
            cp_candidates=(1,),
            pp_candidates=pick(pools["pp"]),
            ep_candidates=(1,),
            dp_candidates=pick(pools["dp"]),
            micro_batch_candidates=pick(pools["m_bs"]),
            chunk_candidates=pick(pools["v"]),
            opt_combos=combos,
        )
        raw = (len(space.tp_candidates) * len(space.pp_candidates)
               * len(space.dp_candidates) * len(space.micro_batch_candidates)
               * len(space.chunk_candidates) * len(combos))
        assert raw <= 256
        mine = tune_step(space, top_k=10).candidates
        reference = exhaustive_tune_reference(space, top_k=10)
        assert json.dumps([c.to_json_dict() for c in mine]) \
            == json.dumps([c.to_json_dict() for c in reference])
    report("C8 tuner soundness", True,
           "4 random spaces: pruned top-k byte-identical to exhaustive")


def test_c09_monotonicity_sweeps():
    # directional fault sweeps
    def ettr_at(nodes=32, rate=0.01, u_b=120.0, save=5.0):
        fault = FaultModel(nodes=nodes, failures_per_node_day=rate,
                           mean_repair_s=u_b)
        return ettr_closed_form(fault, CheckpointPolicy(20, save, 10000, 10.0))

    grids = {
        "nodes": [8, 16, 32, 64, 128, 240],
        "rate": [0.0025, 0.005, 0.0075, 0.01, 0.0125, 0.015],
        "u_b": [18, 40, 60, 80, 100, 120],
        "save": [2, 10, 20, 30, 45, 60],
    }
    for key, values in grids.items():
        series = [ettr_at(**{key: value}) for value in values]
        assert all(a > b for a, b in zip(series, series[1:])), key

    # chunk-count sweep on the constructed instance: latency dips then rises
    curve = []
    for v in (1, 2, 4, 8):
        plan = ParallelPlan(pp=2, chunks=v, micro_batch=1, global_batch=8,
                            num_layers=16)
        curve.append(pipeline_time(0.1, 0.1, plan, t_pp=0.04).total)
    argmin = curve.index(min(curve))
    assert 0 < argmin < len(curve) - 1, curve
    assert curve[0] > curve[argmin] < curve[-1]
    report("C9 monotonicity sweeps", True,
           f"four strict ETTR descents; chunk curve {['%.2f' % t for t in curve]} "
           f"dips at index {argmin}")


def test_c10_documented_fixtures():
    # Absolute step-time/TFLOPS figures and measured-cluster accuracy are not
    # reproducible without the originating cluster's profiles; the repository
    # must say so and ship the fault fixtures it does reproduce.
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    readme = open(os.path.join(root, "README.md")).read()
    assert "synthetic" in readme.lower()
    assert "not included" in readme.lower() or "cannot be reproduced" in readme.lower()
    fixture = json.load(open(os.path.join(root, "configs", "fault_example.json")))
    assert fixture["u_b"] == 134.41
    assert fixture["S"] == 953675
    report("C10 documented fixtures", True,
           "README states the profile-bound limits; fault fixtures shipped")
