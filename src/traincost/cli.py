"""Command-line interface.

Subcommands: eval (one plan), tune step / tune e2e, sweep, ettr, interval,
verify. All inputs come from files plus flag overrides; exit codes are
0 on success, 2 when the request is infeasible or finds no candidate, and
1 on usage, parse, or validation errors.
"""

from __future__ import annotations

import argparse
import sys

from .basecost import evaluate_plan
from .config import RunConfig, load_config
from .errors import ConfigError, InfeasibleError, TraincostError, check_count, check_number
from .fault import ettr_closed_form, ettr_exact, run_cost
from .report import render_report
from .tuner import FAULT_PARAMS, sweep, tune_e2e, tune_step

# Kept so that existing command lines still parse.
_WORKERS_HELP = "ignored: candidates are evaluated serially"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traincost",
        description="Analytical performance modeling and strategy tuning "
                    "for distributed LLM pretraining.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--output", choices=("json", "csv", "markdown"),
                       help="override the config's output format")
        p.add_argument("--out", help="write the report to this file instead of stdout")

    p_eval = sub.add_parser("eval", help="cost and memory report for one plan")
    add_common(p_eval)
    p_eval.add_argument("--echo-config", action="store_true",
                        help="include the resolved configuration in the report")

    p_tune = sub.add_parser("tune", help="search the strategy space")
    p_tune.add_argument("mode", choices=("step", "e2e"))
    add_common(p_tune)
    p_tune.add_argument("--space", help="JSON file overriding the config's "
                        "space section")
    p_tune.add_argument("--top-k", default="4")
    p_tune.add_argument("--workers", help=_WORKERS_HELP)

    p_sweep = sub.add_parser("sweep", help="re-tune or re-evaluate over one parameter")
    add_common(p_sweep)
    p_sweep.add_argument("--parameter", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 1,2,4,8")
    p_sweep.add_argument("--t-step", help="step time for fault-parameter sweeps")
    p_sweep.add_argument("--workers", help=_WORKERS_HELP)

    p_ettr = sub.add_parser("ettr", help="effective-training-time ratio for a plan")
    add_common(p_ettr)
    p_ettr.add_argument("--t-step", help="use this step time instead of evaluating the plan")

    p_int = sub.add_parser("interval", help="optimal checkpoint interval")
    add_common(p_int)
    p_int.add_argument("--t-step")

    p_verify = sub.add_parser("verify", help="run the oracle-vs-closed-form suites")
    p_verify.add_argument("--trials", default="4000")
    p_verify.add_argument("--seed", default="0")
    p_verify.add_argument("--out", help="write the report to this file")

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _step_time(cfg: RunConfig, override: float | None) -> float:
    if override is not None:
        return override
    if cfg.plan is None:
        raise ConfigError("no plan in config and no --t-step given")
    result = evaluate_plan(cfg.arch, cfg.plan, cfg.db, cfg.opt_combos[0],
                           cfg.dtypes, tflops_mode=cfg.tflops_mode)
    return result.cost.t_step


def _run_batch(cfg: RunConfig) -> int:
    """The global batch that turns a fault section's tokens into steps: the
    plan's, whose step time the fault commands use, else the space's."""
    return (cfg.plan or cfg.space).global_batch


def _require_fault(cfg: RunConfig):
    if cfg.fault is None:
        raise ConfigError("this command needs a fault section in the config")
    return cfg.fault


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the latter
        # into the generic usage/parse exit code
        return 0 if exc.code in (0, None) else 1

    try:
        return _dispatch(args)
    except InfeasibleError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return 2
    except (ConfigError, TraincostError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def _dispatch(args) -> int:
    # The numeric flags parse here, not in argparse, so that a bad value ends
    # in one error line under the same rule as the config's numbers.
    if args.command == "verify":
        from .verification import run_all  # loads numpy, which nothing else here needs
        report = run_all(trials=check_count("--trials", _parse_value(args.trials)),
                         seed=check_count("--seed", _parse_value(args.seed), low=0))
        _emit(render_report(report, "json"), args.out)
        return 0 if report.passed else 1
    if getattr(args, "t_step", None) is not None:
        args.t_step = check_number("--t-step", _parse_value(args.t_step), strict=True)
    if getattr(args, "workers", None) is not None:
        check_count("--workers", _parse_value(args.workers))
    if args.command == "tune":
        args.top_k = check_count("--top-k", _parse_value(args.top_k))
    cfg = load_config(args.config, getattr(args, "space", None))
    fmt = args.output or cfg.output_format

    if args.command == "eval":
        if cfg.plan is None:
            raise ConfigError("eval needs a plan section")
        result = evaluate_plan(cfg.arch, cfg.plan, cfg.db, cfg.opt_combos[0],
                               cfg.dtypes, tflops_mode=cfg.tflops_mode)
        if args.echo_config and fmt == "json":
            payload = {"config": cfg.describe(),
                       "cost": result.cost.to_json_dict(),
                       "memory": result.memory.to_json_dict()}
            _emit(render_report(payload, "json"), args.out)
        else:
            _emit(render_report(result, fmt), args.out)
        return 0

    if args.command == "tune":
        if cfg.space is None:
            raise ConfigError("tune needs a space section (in the config "
                              "or via --space)")
        if args.mode == "step":
            result = tune_step(cfg.space, top_k=args.top_k)
        else:
            fault = _require_fault(cfg)
            steps = fault.resolve_steps(cfg.space.global_batch, cfg.arch.seq_len)
            result = tune_e2e(cfg.space, fault.model, fault.save_s, steps,
                              top_k=args.top_k)
        _emit(render_report(result, fmt), args.out)
        if not result.candidates:   # then every candidate was rejected, and counted
            most = max(result.rejections, key=result.rejections.get)
            raise InfeasibleError(f"no feasible plan among {result.evaluated} candidates; "
                                  f"most rejected for {most} ({result.rejections[most]})")
        return 0

    if args.command == "sweep":
        if cfg.space is None:
            raise ConfigError("sweep needs a space section")
        values = [_parse_value(v) for v in args.values.split(",") if v != ""]
        fault = cfg.fault
        kwargs = {}
        if fault is not None and args.parameter in FAULT_PARAMS:
            kwargs = {
                "fault": fault.model,
                "save_s": fault.save_s,
                "total_steps": fault.resolve_steps(_run_batch(cfg), cfg.arch.seq_len),
                "step_s": args.t_step if args.t_step is not None
                          else _step_time(cfg, None) if cfg.plan else None,
            }
        result = sweep(cfg.space, args.parameter, values, **kwargs)
        _emit(render_report(result, fmt), args.out)
        return 0

    if args.command == "ettr":
        fault = _require_fault(cfg)
        t_step = _step_time(cfg, args.t_step)
        policy = fault.policy(t_step, _run_batch(cfg), cfg.arch.seq_len)
        report = ettr_exact(fault.model, policy)
        payload = report.to_json_dict()
        payload["ETTR_closed_form"] = ettr_closed_form(fault.model, policy)
        payload["T_step"] = t_step
        _emit(render_report(payload, fmt) if fmt == "json"
              else render_report(report, fmt), args.out)
        return 0

    if args.command == "interval":
        fault = _require_fault(cfg)
        t_step = _step_time(cfg, args.t_step)
        steps = fault.resolve_steps(_run_batch(cfg), cfg.arch.seq_len)
        best, ettr, t_e2e = run_cost(fault.model, fault.save_s, steps, t_step)
        payload = {"I_ckpt": best, "ETTR": ettr, "T_step": t_step, "T_e2e": t_e2e,
                   "T_save": fault.save_s, "S": steps}
        _emit(render_report(payload, fmt), args.out)
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
