#!/usr/bin/env python3
"""traincost benchmark: end-to-end timings of the user paths, and a traced
run that splits one tune into its layers.

Run from the root of a checkout:

    python3 bench/run.py --workload tune-dense --seed 1 --seconds 56 --trace 0

Every workload runs rounds of the same user operations until ``--seconds``
have passed: an in-process ``traincost.cli.main`` tune call; then, twice, a
fresh interpreter that imports ``traincost.cli`` and loads a config (set-up),
a cold ``eval`` and a cold ``tune e2e`` in fresh interpreters, and a battery
of ``traincost.oracle`` calls. A workload fixes the tune input: the dense
serial tuner in ``tune-dense``, the MoE tuner with its process pool in
``tune-moe-e2e``. Every operation's output is checked; a failed or
timed-out operation is counted and the run goes on. Times are reported at
a reference host speed measured during each operation (see meter.py).

With ``--trace 1`` the run instead times one untraced and one traced tune
(serial, because wrappers in pool workers do not report back) plus one traced
battery, and reports per-layer counts and times. ``--tiny`` shrinks every
input for the smoke test.

The last line of stdout is the result object; the line before it holds the
run's details (samples, quartiles, digests, checks and machine metadata).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from meter import INTERVAL_S, REFERENCE_S, SpeedMeter, child_reading
from tracer import Tracer

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

TOP_K = 4
PROBE_REPEATS = 5
MIN_TICKS = 5           # meter ticks that scale an operation on their own
METER_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "meter.py")
SIDE_ROUNDS = 2         # set-up, cold and oracle rounds per tune call
TUNE_TIMEOUT_S = 60.0
COLD_TIMEOUT_S = 30.0
ORACLE_TIMEOUT_S = 60.0

COLD_EVAL = ("eval", "--config", "configs/run_eval_llama2.json")
COLD_TUNE = ("tune", "e2e", "--config", "configs/run_tune_llama2.json",
             "--workers", "1", "--output", "json")
EVAL_CONFIG = "configs/run_eval_llama2.json"


@dataclass(frozen=True)
class Workload:
    mode: str               # tune mode: "step" or "e2e"
    config: str             # run config of the in-process tune and set-up probe
    tiny_config: str        # its --tiny replacement
    workers: int | None     # --workers of the timed tune; None = default


WORKLOADS = {
    "tune-dense": Workload("step", "bench/configs/tune_dense.json",
                           "bench/configs/tiny_dense.json", 1),
    "tune-moe-e2e": Workload("e2e", "bench/configs/tune_moe_e2e.json",
                             "bench/configs/tiny_moe_e2e.json", None),
}

# Per-tune call counts of the traced run at the commit that defined this
# benchmark. Reported as a sanity gate, not a failure: optimisations that
# skip or memoise work are expected to lower them.
COUNT_BASELINE = {
    "tune-dense": {"arch.decompose.calls": 46368,
                   "profile.lookup.calls": 1020096,
                   "profile.effective_bandwidth.calls": 99264},
    "tune-moe-e2e": {"arch.decompose.calls": 54144,
                     "profile.lookup.calls": 1191168,
                     "profile.effective_bandwidth.calls": 125760,
                     "fault.optimal_ckpt_interval.calls": 2871},
}

OVERLAP_FUNCS = ("tp_overlap", "cp_overlap", "ep_overlap", "pp_overlap",
                 "dp_overlap")
TRACE_TARGETS = (
    [("traincost.tuner", f, f"tuner.{f}") for f in ("tune_step", "tune_e2e", "prune")]
    + [("traincost.basecost", f, f"basecost.{f}")
       for f in ("evaluate_plan", "layer_cost", "pipeline_time", "optimizer_time")]
    + [("traincost.arch", f, f"arch.{f}") for f in ("decompose", "model_flops_total")]
    + [("traincost.profile", "ComputeProfile.lookup", "profile.lookup"),
       ("traincost.profile", "CommProfile.effective_bandwidth",
        "profile.effective_bandwidth")]
    + [("traincost.optim", f, f"optim.{f}")
       for f in ("apply_activation_strategy", "apply_optimizer_strategy")
       + OVERLAP_FUNCS]
    + [("traincost.fault", "optimal_ckpt_interval", "fault.optimal_ckpt_interval")]
    + [("traincost.oracle", f, f"oracle.{f}")
       for f in ("simulate_pipeline", "simulate_activation_ledger",
                 "simulate_faults", "grid_search_interval")]
    + [("traincost.config", "load_config", "config.load_config"),
       ("traincost.report", "render_report", "report.render_report")]
)


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Output checks


def _reject_constant(name):
    raise CheckFailed(f"non-finite number {name} in JSON output")


def read_json(path: str):
    """Parse a report, rejecting NaN and infinities."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def digest(report: dict) -> str:
    """sha256 of the ranking and the counts, the bytes a speed-up must keep."""
    core = {k: report[k] for k in ("candidates", "evaluated", "rejections")}
    return hashlib.sha256(json.dumps(core, sort_keys=True).encode()).hexdigest()


class TuneContext:
    """A tune config loaded once, untimed, to check the tuner's output."""

    def __init__(self, config_path: str):
        from traincost.config import load_config
        cfg = load_config(config_path)
        self.space = cfg.space.resolved()
        self.combo_names = [c.feature_names() for c in self.space.opt_combos]

    def step_key(self, cand: dict) -> tuple:
        p = cand["plan"]
        return (cand["cost"]["T_step"], p["t"], p["c"], p["p"], p["e"], p["d"],
                p["m_bs"], p["v"], self.combo_names.index(cand["optimization"]))

    def t_step_again(self, cand: dict) -> float:
        from traincost.basecost import evaluate_plan
        from traincost.plan import ParallelPlan
        s = self.space
        plan = ParallelPlan.from_json_dict(cand["plan"], num_layers=s.arch.num_layers)
        opts = s.opt_combos[self.combo_names.index(cand["optimization"])]
        return evaluate_plan(s.arch, plan, s.db, opts, s.dtypes,
                             tflops_mode=s.tflops_mode).cost.t_step

    def check(self, report: dict, mode: str) -> str:
        cands, evaluated = report["candidates"], report["evaluated"]
        rejections = report["rejections"]
        require(len(cands) >= 1, "no candidate returned")
        require(len(cands) <= TOP_K, f"{len(cands)} candidates for top-k {TOP_K}")
        require(evaluated >= len(cands) + rejections.get("memory", 0),
                f"evaluated {evaluated} < returned + memory rejections")
        keys = [self.step_key(c) for c in cands]
        if mode == "e2e":
            keys = [(c.get("T_e2e", math.inf),) + k for c, k in zip(cands, keys)]
        require(keys == sorted(keys), "top-k not sorted by the tuner's key")
        top = cands[0]
        again = self.t_step_again(top)
        require(again == top["cost"]["T_step"],
                f"top-1 T_step {top['cost']['T_step']!r} re-evaluates to {again!r}")
        return digest(report)


# ---------------------------------------------------------------------------
# Operations


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def fresh_interpreter(code: str, *args: str):
    """Seconds from spawning an interpreter until `code` prints the
    monotonic clock (CLOCK_MONOTONIC is shared across processes)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code, *args], env=cli_env(),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise CheckFailed(f"probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[-1]) - t0, None


def probe_op(code: str, *args: str):
    """(run, check, timeout) of a fresh-interpreter probe; its exit code is
    its check."""
    return (lambda: fresh_interpreter(code, *args), lambda _: None, COLD_TIMEOUT_S)


IMPORT_CODE = "import time\nimport traincost.cli\nprint(time.monotonic())"
BARE_CODE = "import time\nprint(time.monotonic())"
SETUP_CODE = "import sys\nimport traincost.cli as cli\ncli.load_config(sys.argv[1])"


def metered_child(meter: SpeedMeter, *argv: str):
    """Run ``python bench/meter.py *argv`` while the parent's meter pauses;
    return (the child's CPU seconds, its wall seconds, its meter reading)."""
    with meter.paused():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, METER_SCRIPT, *argv], env=cli_env(),
                              capture_output=True, text=True)
        wall = time.perf_counter() - t0
    require(proc.returncode == 0,
            f"{' '.join(argv[:4])} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    reported = child_reading(proc.stderr)
    require(reported is not None, "the child printed no meter reading")
    cpu, reading = reported
    return cpu, wall, reading


def setup_probe(config: str, meter: SpeedMeter):
    """A fresh interpreter that imports traincost.cli and loads `config`;
    its exit code is its check."""
    cpu, wall, reading = metered_child(meter, "-c", SETUP_CODE, config)
    return cpu, None, reading, wall


def cold_cli(argv, out_path, meter: SpeedMeter):
    """One CLI command in a fresh interpreter: (CPU seconds, report, meter
    reading, wall seconds)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    cpu, wall, reading = metered_child(meter, "-m", "traincost.cli", *argv, "--out", out_path)
    return cpu, read_json(out_path), reading, wall


def in_process_tune(argv, out_path):
    import traincost.cli
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    t0 = time.perf_counter()
    code = traincost.cli.main([*argv, "--out", out_path])
    elapsed = time.perf_counter() - t0
    require(code == 0, f"tune exited {code}")
    return elapsed, read_json(out_path)


def tune_argv(workload: Workload, config: str, workers: int | None) -> list[str]:
    argv = ["tune", workload.mode, "--config", config, "--top-k", str(TOP_K),
            "--output", "json"]
    if workers is not None:
        argv += ["--workers", str(workers)]
    return argv


class OracleBattery:
    """Fixed oracle work; the seed sets the times, not the amount of work.

    Pipeline plans cover p 2-16 and v 1-5 with m_b cycling through p, 4p
    and 16p, with hops and embedding/head costs on. The fault cases use
    configs/fault_example.json at three fixed step times."""

    PIPELINE_SHAPES = [(p, v) for p in (2, 4, 8, 16) for v in (1, 2, 3, 4, 5)]
    STEP_TIMES = (10.0, 20.0, 40.0)
    TRIALS = 20000

    def __init__(self, seed: int, tiny: bool):
        from traincost.config import load_config
        from traincost.fault import CheckpointPolicy, ettr_closed_form, optimal_ckpt_interval
        from traincost.plan import ParallelPlan
        rng = random.Random(seed)
        shapes = self.PIPELINE_SHAPES[::7] if tiny else self.PIPELINE_SHAPES
        self.pipelines = []
        for i, (p, v) in enumerate(shapes):
            m_b = (1, 4, 16)[i % 3] * p
            plan = ParallelPlan(pp=p, chunks=v, micro_batch=1, global_batch=m_b,
                                dp=1, num_layers=2 * p * v)
            times = dict(t_pp=rng.uniform(0.05, 0.5),
                         t_embed=rng.uniform(0.1, 1.0), t_embed_bwd=rng.uniform(0.1, 1.0),
                         t_head=rng.uniform(0.1, 1.0), t_head_bwd=rng.uniform(0.1, 1.0))
            self.pipelines.append((plan, rng.uniform(0.5, 2.0), rng.uniform(1.0, 4.0),
                                   times, rng.uniform(1e8, 1e9)))
        cfg = load_config(EVAL_CONFIG)
        fault = cfg.fault
        steps = fault.resolve_steps(cfg.plan.global_batch, cfg.arch.seq_len)
        self.trials = 2000 if tiny else self.TRIALS
        self.faults = []
        for t_step in self.STEP_TIMES[:1] if tiny else self.STEP_TIMES:
            best, _ = optimal_ckpt_interval(fault.model, fault.save_s, steps, t_step)
            policy = CheckpointPolicy(best, fault.save_s, steps, t_step)
            self.faults.append((fault.model, policy, best, rng.randrange(2**31),
                                ettr_closed_form(fault.model, policy)))

    def run(self):
        from traincost import oracle
        t0 = time.perf_counter()
        pipes = [(oracle.simulate_pipeline(t_f, t_b, plan, **times),
                  oracle.simulate_activation_ledger(plan, act))
                 for plan, t_f, t_b, times, act in self.pipelines]
        faults = []
        for model, policy, best, mc_seed, _ in self.faults:
            faults.append((
                oracle.simulate_faults(model, policy, trials=self.trials, seed=mc_seed),
                oracle.grid_search_interval(model, policy.save_s, policy.total_steps,
                                            policy.step_s, range(1, 10 * best + 2)),
            ))
        return time.perf_counter() - t0, (pipes, faults)

    def check(self, output) -> None:
        pipes, faults = output
        for ((makespan, trace), peaks), (plan, t_f, t_b, times, act) in zip(
                pipes, self.pipelines):
            p, v, m_b, l = plan.pp, plan.chunks, plan.micro_batches, plan.layers_per_stage
            # device 0 runs every micro-batch of stage 0 (embedding) and of its
            # other chunks; no schedule can finish before that work is done
            busy = m_b * (v * l * (t_f + t_b) + times["t_embed"] + times["t_embed_bwd"])
            require(math.isfinite(makespan) and makespan >= busy * (1 - 1e-12),
                    f"DES makespan {makespan} below device-0 work {busy} at p={p} v={v}")
            require(len(trace.events) == 2 * m_b * v * p,
                    f"DES replayed {len(trace.events)} ops, expected {2 * m_b * v * p}")
            require(len(peaks) == p and all(act <= x < math.inf for x in peaks),
                    f"activation ledger peaks {peaks} at p={p} v={v}")
        for ((mean, se), grid_best), (_, _, best, _, closed) in zip(faults, self.faults):
            require(abs(grid_best - best) <= 1,
                    f"grid argmin {grid_best} vs closed-form interval {best}")
            require(abs(mean - closed) <= 5 * se,
                    f"Monte Carlo ETTR {mean} is {abs(mean - closed) / se:.1f} SE "
                    f"from the closed form {closed}")


class Ledger:
    """Attempts, failures and timing samples per operation kind, with the
    meter reading (tick sum, tick count) and the wall time of each timed
    operation."""

    def __init__(self, meter: SpeedMeter):
        self.meter = meter
        self.samples: dict[str, list[float]] = {}
        self.speed: dict[str, list[tuple[float, int]]] = {}
        self.wall: dict[str, list[float]] = {}
        self.failed_samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, list[str]] = {}
        self.outputs: dict[str, object] = {}

    def attempt(self, kind, run, check, timeout, tracer=None):
        """Time `run`, then `check` its output; a check may return a digest
        to record. `run` returns (wall seconds, output); when a fresh
        interpreter did the work, (its CPU seconds, output, its meter reading,
        wall seconds). Any error, including the timeout, counts as a failed
        operation; the run carries on."""
        self.attempted += 1
        gc.collect()
        tick_sum, tick_count = self.meter.reading()
        t0 = time.perf_counter()
        self.meter.arm(timeout)
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                elapsed, output, *child = run()
            now_sum, now_count = self.meter.reading()
            speed, wall = child or ((now_sum - tick_sum, now_count - tick_count), elapsed)
            result = check(output)
        except Exception as exc:  # a failing operation must not end the run
            self.failed += 1
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            self.failed_samples.setdefault(kind, []).append(time.perf_counter() - t0)
            return None
        finally:
            self.meter.disarm()
        self.samples.setdefault(kind, []).append(elapsed)
        self.speed.setdefault(kind, []).append(speed)
        self.wall.setdefault(kind, []).append(wall)
        if isinstance(result, str):
            self.digests.setdefault(kind, []).append(result)
        self.outputs[kind] = output
        return elapsed

    def median(self, kind: str) -> float:
        values = self.samples.get(kind) or self.failed_samples.get(kind) or [math.nan]
        return statistics.median(values)

    def scale(self, kind: str, i: int) -> float:
        """REFERENCE_S over the mean tick during the i-th operation of `kind`.
        An operation with fewer than MIN_TICKS ticks takes the mean over every
        operation of its kind, then over the whole run."""
        ops = self.speed[kind]
        for total, count in (ops[i], tuple(map(sum, zip(*ops))), self.meter.reading()):
            if count >= MIN_TICKS:
                return REFERENCE_S * count / total
        return 1.0

    def normalised(self, kind: str) -> float:
        """Median time of `kind` at the meter's reference speed."""
        values = self.samples.get(kind)
        if not values:
            return self.median(kind)
        return statistics.median(t * self.scale(kind, i) for i, t in enumerate(values))

    def describe(self) -> dict:
        out = {}
        for kind in sorted(set(self.samples) | set(self.failed_samples)):
            values = sorted(self.samples.get(kind, []))
            row = {"n": len(values), "failed": len(self.failed_samples.get(kind, []))}
            if values:
                row["median"] = statistics.median(values)
                row["min"], row["max"] = values[0], values[-1]
            if len(values) >= 2:
                q = statistics.quantiles(values, n=4)
                row["q1"], row["q3"] = q[0], q[2]
            if kind in self.digests:
                row["digests"] = sorted(set(self.digests[kind]))
            if values:
                row["wall_median"] = statistics.median(self.wall[kind])
            if self.meter.sample and values:
                row["normalised"] = self.normalised(kind)
                row["ops"] = [[t, w, total / count if count else None, count]
                              for t, w, (total, count) in zip(self.samples[kind],
                                                              self.wall[kind],
                                                              self.speed[kind])]
            out[kind] = row
        return out


# ---------------------------------------------------------------------------
# Runs


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def timed_run(name: str, workload: Workload, args, ledger: Ledger) -> dict:
    tune_config = workload.tiny_config if args.tiny else workload.config
    import traincost.cli  # noqa: F401  (imported before the first timed call)
    ctx = TuneContext(tune_config)
    cold_ctx = TuneContext(COLD_TUNE[3])
    from traincost.basecost import evaluate_plan
    from traincost.config import load_config
    cfg = load_config(EVAL_CONFIG)
    eval_t_step = evaluate_plan(cfg.arch, cfg.plan, cfg.db, cfg.opt_combos[0], cfg.dtypes,
                                tflops_mode=cfg.tflops_mode).cost.t_step
    battery = OracleBattery(args.seed, args.tiny)
    argv = tune_argv(workload, tune_config, workload.workers)
    out = os.path.join(OUT_DIR, f"{name}-seed{args.seed}")

    def check_eval(report):
        require(report["cost"]["T_step"] == eval_t_step,
                f"cold eval T_step {report['cost']['T_step']!r} != {eval_t_step!r}")

    ops = {
        "tune": (lambda: in_process_tune(argv, out + "-tune.json"),
                 lambda r: ctx.check(r, workload.mode), TUNE_TIMEOUT_S),
        "setup": (lambda: setup_probe(tune_config, ledger.meter), lambda _: None,
                  COLD_TIMEOUT_S),
        "cold_eval": (lambda: cold_cli(COLD_EVAL, out + "-eval.json", ledger.meter),
                      check_eval, COLD_TIMEOUT_S),
        "cold_tune": (lambda: cold_cli(COLD_TUNE, out + "-cold-tune.json", ledger.meter),
                      lambda r: cold_ctx.check(r, "e2e"), COLD_TIMEOUT_S),
        "oracle": (battery.run, battery.check, ORACLE_TIMEOUT_S),
    }
    # Interleaving spreads every operation over the whole run, so slow drift
    # in the host's speed reaches all metrics alike. After one full round, an
    # operation starts only if its median so far still fits in --seconds.
    schedule = ["tune"] + ["setup", "cold_eval", "cold_tune", "oracle"] * SIDE_ROUNDS
    start = time.perf_counter()
    for i in itertools.count():
        kind = schedule[i % len(schedule)]
        past = ledger.samples.get(kind) or ledger.failed_samples.get(kind) or [0.0]
        if (i >= len(schedule)
                and time.perf_counter() - start + statistics.median(past) > args.seconds):
            break
        ledger.attempt(kind, *ops[kind])

    metrics = {
        "setup_s": (ledger.normalised("setup"), "s"),
        "tune_s": (ledger.normalised("tune"), "s"),
        "cold_eval_s": (ledger.normalised("cold_eval"), "s"),
        "cold_tune_s": (ledger.normalised("cold_tune"), "s"),
        "oracle_s": (ledger.normalised("oracle"), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, {"operations": i, "measured_s": time.perf_counter() - start,
                     "tune_argv": argv}


def traced_run(name: str, workload: Workload, args, ledger: Ledger) -> dict:
    repeats = 2 if args.tiny else PROBE_REPEATS
    for _ in range(repeats):
        ledger.attempt("interp", *probe_op(BARE_CODE))
        ledger.attempt("import", *probe_op(IMPORT_CODE))
    import traincost.cli  # noqa: F401  (loads every module the tracer wraps)

    tune_config = workload.tiny_config if args.tiny else workload.config
    ctx = TuneContext(tune_config)
    battery = OracleBattery(args.seed, args.tiny)
    argv = tune_argv(workload, tune_config, 1)
    out = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-traced.json")

    outcomes = {"feasible": 0, "mem_rejected": 0, "raised": 0}
    pruned: dict[str, int] = {}

    def observe_eval(call_args, kwargs, result):
        db = call_args[2] if len(call_args) > 2 else kwargs["db"]
        if result is None:
            outcomes["raised"] += 1
        elif result.memory.m_peak > db.hardware.gpu_memory:
            outcomes["mem_rejected"] += 1
        else:
            outcomes["feasible"] += 1

    def observe_prune(call_args, kwargs, result):
        if result is not None:
            pruned[result] = pruned.get(result, 0) + 1

    tracer = Tracer(TRACE_TARGETS, observers={
        ("traincost.tuner", "evaluate_plan"): observe_eval,
        ("traincost.tuner", "prune"): observe_prune,
    })
    accounting: dict = {}

    def check_traced(report):
        result = ctx.check(report, workload.mode)
        # every evaluated candidate is feasible or rejected after evaluation;
        # both sides observed at the tuner's evaluate_plan and prune bindings
        if not sum(outcomes.values()):
            accounting["note"] = "unresolved: the tuner made no evaluate_plan call"
            return result
        accounting.update(
            evaluated=report["evaluated"], feasible=outcomes["feasible"],
            rejected_after_evaluation=sum(report["rejections"].values()) - sum(pruned.values()),
            memory_rejections=outcomes["mem_rejected"])
        require(accounting["evaluated"] == outcomes["feasible"]
                + accounting["rejected_after_evaluation"]
                and report["rejections"].get("memory", 0) == outcomes["mem_rejected"],
                f"tuner accounting does not add up: {accounting}")
        return result

    untraced = ledger.attempt("tune", lambda: in_process_tune(argv, out),
                              lambda r: ctx.check(r, workload.mode), TUNE_TIMEOUT_S)
    traced = ledger.attempt("tune_traced", lambda: in_process_tune(argv, out),
                            check_traced, TUNE_TIMEOUT_S * 2, tracer=tracer)
    ledger.attempt("oracle_traced", battery.run, battery.check, ORACLE_TIMEOUT_S * 2,
                   tracer=tracer)
    report = ledger.outputs.get("tune_traced") or {"evaluated": 0}
    evaluated = report["evaluated"]
    full_evals = sum(outcomes.values())

    layers = tracer.summary()

    def calls(span):
        return layers.get(span, {}).get("calls", 0)

    def secs(span):
        return layers.get(span, {}).get("s", 0.0)

    def layer_self(layer):
        return sum(r["self_s"] for n, r in layers.items() if n.startswith(layer + "."))

    metrics = {
        "tuner.evaluated": (evaluated, "count"),
        "tuner.feasible": (outcomes["feasible"], "count"),
        "tuner.mem_rejected_after_eval": (outcomes["mem_rejected"], "count"),
        "tuner.useful_ratio": (outcomes["feasible"] / full_evals if full_evals else 0.0,
                               "ratio"),
        "tuner.prune.calls": (calls("tuner.prune"), "count"),
        "tuner.self_s": (layer_self("tuner"), "s"),
        "tuner.candidates_per_s": (evaluated / untraced if untraced else 0.0, "1/s"),
        "basecost.self_s": (layer_self("basecost"), "s"),
    }
    for span in ("basecost.evaluate_plan", "basecost.layer_cost", "basecost.pipeline_time",
                 "basecost.optimizer_time", "arch.decompose", "arch.model_flops_total",
                 "profile.lookup", "profile.effective_bandwidth",
                 "fault.optimal_ckpt_interval"):
        metrics[f"{span}.calls"] = (calls(span), "count")
        metrics[f"{span}.s"] = (secs(span), "s")
    for span in ("optim.apply_activation_strategy", "optim.apply_optimizer_strategy",
                 "oracle.simulate_pipeline", "oracle.simulate_activation_ledger",
                 "oracle.simulate_faults", "oracle.grid_search_interval",
                 "config.load_config", "report.render_report"):
        metrics[f"{span}.s"] = (secs(span), "s")
    metrics["optim.overlap.calls"] = (sum(calls(f"optim.{f}") for f in OVERLAP_FUNCS), "count")
    metrics["optim.overlap.s"] = (sum(secs(f"optim.{f}") for f in OVERLAP_FUNCS), "s")
    interp = ledger.median("interp")
    metrics["cli.interp_s"] = (interp, "s")
    metrics["cli.import_s"] = (ledger.median("import") - interp, "s")
    metrics["trace.overhead_s"] = (traced - untraced if traced and untraced else 0.0, "s")

    gate = None
    if not args.tiny and name in COUNT_BASELINE:
        observed = {k: metrics[k][0] for k in COUNT_BASELINE[name]}
        gate = {"expected": COUNT_BASELINE[name], "observed": observed,
                "match": observed == COUNT_BASELINE[name]}
        if not gate["match"]:
            print(f"note: call counts differ from the baseline: {gate}", file=sys.stderr)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{args.seed}.json.gz")
    tracer.write(spans_path)
    details = {
        "tune_argv": argv,
        "note": "traced serially: wrappers in pool workers would not report back",
        "accounting": accounting, "prune_rejections": pruned,
        "count_gate": gate, "missing_trace_targets": tracer.missing,
        "binding_sites": tracer.sites, "spans_file": os.path.relpath(spans_path),
        "layers": layers,
    }
    return metrics, details


# ---------------------------------------------------------------------------
# Metadata and entry point


def metadata(seed: int) -> dict:
    import numpy
    cpu = platform.machine() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    src_lines = 0
    for dirpath, _, files in os.walk("src"):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit(), "seed": seed,
            "src_lines": src_lines}


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repo."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(FileNotFoundError):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs for the harness smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (os.path.isfile("src/traincost/cli.py") and os.path.isdir("configs")):
        print("error: run from the root of a traincost checkout "
              "(src/traincost/ and configs/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    # traced runs are not normalised: their per-layer metrics have no bound
    with SpeedMeter(sample=not args.trace) as meter:
        ledger = Ledger(meter)
        metrics, details = run(args.workload, workload, args, ledger)
    if meter.tick_count:
        details["meter"] = {"ticks": meter.tick_count, "interval_s": INTERVAL_S,
                            "reference_s": REFERENCE_S,
                            "mean_tick_s": meter.tick_sum / meter.tick_count}
    details.update(metadata=metadata(args.seed), workload=args.workload,
                   trace=bool(args.trace), samples=ledger.describe(),
                   failures=ledger.failures)
    for line in ledger.failures:
        print(f"failed: {line}", file=sys.stderr)
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": ledger.failed == 0 and finite,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        # a metric with no finite value is reported as 0 under correct=false
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
