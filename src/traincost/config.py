"""Run-configuration ingestion: one JSON document (with optional file
references for the model/hardware/profile sections) is validated, unit
converted, and default filled into the objects the commands consume."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import NamedTuple

from .arch import ModelArchitecture
from .basecost import TFLOPS_MODES, Dtypes
from .errors import (MAX_COUNT, ConfigError, InputError, ShapeError, check_count,
                     check_keys, check_number, record)
from .fault import DAY_SECONDS, CheckpointPolicy, FaultModel, steps_from_tokens
from .optim import NO_FEATURES, OptimizationSet
from .plan import DIMS, ParallelPlan
from .profile import HardwareSpec, ProfileDB
from .tuner import CANDIDATE_FIELDS, SearchSpace

SCHEMA_VERSION = 1

OUTPUT_FORMATS = ("json", "csv", "markdown")


@record
class FaultSection:
    def __new__(cls, model: FaultModel, save_s: float = 0.0,
                interval_steps: int | None = None, total_steps: int | None = None,
                tokens: float | None = None):
        save_s = check_number("T_save", save_s)
        if tokens is not None:
            tokens = check_number("tokens", tokens, strict=True)
        return tuple.__new__(cls, (model, save_s, interval_steps, total_steps, tokens))

    def resolve_steps(self, global_batch: int, seq_len: int) -> int:
        if self.total_steps is not None:
            return self.total_steps
        if self.tokens is not None:
            return steps_from_tokens(self.tokens, global_batch, seq_len)
        raise ConfigError("fault config needs either S or tokens")

    def policy(self, step_s: float, global_batch: int,
               seq_len: int) -> CheckpointPolicy:
        if self.interval_steps is None:
            raise ConfigError("fault config has no I_ckpt")
        return CheckpointPolicy(self.interval_steps, self.save_s,
                                self.resolve_steps(global_batch, seq_len), step_s)


class RunConfig(NamedTuple):
    arch: ModelArchitecture
    db: ProfileDB
    plan: ParallelPlan | None = None
    space: SearchSpace | None = None
    opt_combos: tuple[OptimizationSet, ...] = (NO_FEATURES,)
    fault: FaultSection | None = None
    dtypes: Dtypes = Dtypes()
    output_format: str = "json"
    tflops_mode: str = "fwd-bwd-per-device"
    schema_version: int = SCHEMA_VERSION

    def describe(self) -> dict:
        """Fully resolved configuration, defaults included, for echoing."""
        out: dict = {"schema_version": self.schema_version,
                     "output_format": self.output_format,
                     "tflops_mode": self.tflops_mode}
        out["model"] = self.arch.to_json_dict()
        out["dtypes"] = self.dtypes.to_json_dict()
        if self.plan is not None:
            out["plan"] = self.plan.to_json_dict()
        first = self.opt_combos[0]
        out["optimization"] = {
            "features": first.feature_names(),
            "compute_scaling": dict(first.compute_scaling) or {"*": 1.0},
            "comm_scaling": dict(first.comm_scaling) or {"*": 1.0},
            "overlap_coefficients": {
                name: ({"alpha": ov.alpha, "beta": ov.beta}
                       | ({"splits": ov.splits} if name == "tp" else {}))
                for name, ov in (("tp", first.tp_overlap), ("cp", first.cp_overlap),
                                 ("ep", first.ep_overlap), ("pp", first.pp_overlap))
                if ov is not None
            } or {"default_alpha": 1.0, "default_beta": 1.0},
        }
        if self.fault is not None:
            f = self.fault.model
            out["fault"] = {
                "N_nodes": f.nodes,
                "r_f_per_node_day": f.failures_per_node_day,
                "r_f_per_node_second": f.failures_per_node_day / DAY_SECONDS,
                "u0": f.init_s,
                "mix": list(f.mix),
                "T_save": self.fault.save_s,
            }
        return out


@contextmanager
def _section(name: str):
    """Report any malformed value inside the named section as one ConfigError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, InputError,
            ShapeError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{name} section invalid: {detail}") from exc


def _read_json(path: str):
    """The file's JSON value; the parser that reads it checks that it is an
    object (`check_keys`)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error in {path}: line {exc.lineno}: {exc.msg}") from exc


def _load_section(value, base_dir: str):
    """A section is either an inline object or a path to a JSON file."""
    if isinstance(value, dict):
        return value
    if isinstance(value, str):
        return _read_json(value if os.path.isabs(value) else os.path.join(base_dir, value))
    raise ConfigError(f"section must be an object or a file path, got {type(value).__name__}")


def _parse_fault(section: dict) -> FaultSection:
    check_keys(section, ("N_nodes", "r_f_per_node_day", "u0", "u_bc", "u_bp", "u_bj",
                         "mix", "u_b", "T_save", "I_ckpt", "S", "tokens"), "fault")
    interval = section.get("I_ckpt")
    return FaultSection(
        model=FaultModel.from_json_dict(section),
        save_s=section.get("T_save", 0.0),
        interval_steps=(check_count("I_ckpt", interval, high=MAX_COUNT)
                        if interval is not None else None),
        total_steps=check_count("S", section["S"], high=MAX_COUNT) if "S" in section else None,
        tokens=section.get("tokens"),
    )


def _parse_space(section: dict, arch: ModelArchitecture, db: ProfileDB,
                 combos: tuple[OptimizationSet, ...], dtypes: Dtypes,
                 tflops_mode: str) -> SearchSpace:
    check_keys(section, ("g_n", "g_bs", *DIMS), "space")
    return SearchSpace(
        arch=arch, db=db,
        total_gpus=section["g_n"],
        global_batch=section["g_bs"],
        **{name: tuple(section.get(key, ())) for key, name in CANDIDATE_FIELDS.items()},
        opt_combos=combos, dtypes=dtypes, tflops_mode=tflops_mode,
    )


def load_config(path: str, space_path: str | None = None) -> RunConfig:
    """Load and validate a run configuration; every referenced file must
    exist and parse, and cross-references (plan vs model) must resolve. A
    `space_path` (resolved relative to the working directory) replaces the
    config's space section."""
    raw = _read_json(path)
    check_keys(raw, ("schema_version", "model", "hardware", "profile", "dtypes",
                     "tflops_mode", "optimization", "plan", "space", "fault",
                     "output"), "config")
    if space_path is not None:
        raw["space"] = os.path.abspath(space_path)
    base_dir = os.path.dirname(os.path.abspath(path))
    version = check_count("schema_version", raw.get("schema_version", SCHEMA_VERSION))
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")

    for name in ("model", "hardware", "profile"):
        if name not in raw:
            raise ConfigError(f"config missing section {name!r}")
    with _section("model"):
        arch = ModelArchitecture.from_json_dict(_load_section(raw["model"], base_dir))
    with _section("hardware"):
        hardware = HardwareSpec.from_json_dict(_load_section(raw["hardware"], base_dir))
    with _section("profile"):
        db = ProfileDB.from_json_dict(_load_section(raw["profile"], base_dir), hardware)
    with _section("dtypes"):
        dtypes = Dtypes.from_json_dict(raw.get("dtypes", {}))
    tflops_mode = raw.get("tflops_mode", "fwd-bwd-per-device")
    if tflops_mode not in TFLOPS_MODES:
        raise ConfigError(f"unknown tflops mode {tflops_mode!r}")

    with _section("optimization"):
        opt_raw = raw.get("optimization")
        if opt_raw is None or opt_raw == []:
            combos = (NO_FEATURES,)
            declared_combos = ()   # a space without a declared allowlist gets
            # the default one (all features) when it resolves
        elif isinstance(opt_raw, list):
            combos = tuple(OptimizationSet.from_json_dict(o) for o in opt_raw)
            declared_combos = combos
            for i, combo in enumerate(combos):
                if combos.index(combo) < i:
                    raise InputError(f"entry {i} repeats entry {combos.index(combo)}")
        else:
            combos = (OptimizationSet.from_json_dict(opt_raw),)
            declared_combos = combos

    plan = None
    if "plan" in raw:
        with _section("plan"):
            plan = ParallelPlan.from_json_dict(_load_section(raw["plan"], base_dir),
                                               num_layers=arch.num_layers)

    space = None
    if "space" in raw:
        with _section("space"):
            space = _parse_space(_load_section(raw["space"], base_dir), arch, db,
                                 declared_combos, dtypes, tflops_mode)

    fault = None
    if "fault" in raw:
        with _section("fault"):
            fault = _parse_fault(_load_section(raw["fault"], base_dir))

    output_format = raw.get("output", "json")
    if output_format not in OUTPUT_FORMATS:
        raise ConfigError(f"unknown output format {output_format!r}")

    if plan is None and space is None:
        raise ConfigError("config needs a plan or a space section")

    return RunConfig(arch=arch, db=db, plan=plan, space=space,
                     opt_combos=combos, fault=fault, dtypes=dtypes,
                     output_format=output_format, tflops_mode=tflops_mode,
                     schema_version=version)
