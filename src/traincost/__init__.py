"""Analytical performance modeling and strategy tuning for distributed LLM
pretraining: per-step latency, TFLOPS and peak-memory prediction, fault-aware
effective-training-time estimation, and parallel-strategy search, with
brute-force and simulation oracles validating every closed form."""

from .arch import ModelArchitecture, ModuleShape, decompose
from .basecost import (
    CostReport,
    Dtypes,
    MemoryReport,
    PlanEvaluation,
    evaluate_plan,
    pipeline_time,
)
from .errors import (
    ConfigError,
    InfeasibleError,
    InputError,
    ProfileLookupError,
    ShapeError,
    TraincostError,
)
from .fault import (
    CheckpointPolicy,
    EttrReport,
    FaultModel,
    ettr_closed_form,
    ettr_exact,
    optimal_ckpt_interval,
    run_cost,
)
from .optim import OptimizationSet
from .oracle import simulate_activation_ledger, simulate_faults, simulate_pipeline
from .plan import ParallelPlan
from .profile import HardwareSpec, ProfileDB, comm_time, op_time, roofline_bound
from .tuner import SearchSpace, sweep, tune_e2e, tune_step

__version__ = "0.1.0"

__all__ = [
    "CheckpointPolicy", "ConfigError", "CostReport", "Dtypes", "EttrReport",
    "FaultModel", "HardwareSpec", "InfeasibleError", "InputError",
    "MemoryReport", "ModelArchitecture", "ModuleShape", "OptimizationSet",
    "ParallelPlan", "PlanEvaluation", "ProfileDB", "ProfileLookupError",
    "SearchSpace", "ShapeError", "TraincostError", "comm_time", "decompose",
    "ettr_closed_form", "ettr_exact", "evaluate_plan", "op_time",
    "optimal_ckpt_interval", "pipeline_time", "roofline_bound", "run_cost",
    "simulate_activation_ledger", "simulate_faults", "simulate_pipeline", "sweep",
    "tune_e2e", "tune_step",
]
