"""Fault-tolerance cost model: effective-training-time ratio (ETTR), the
failure-count fixed point, checkpoint-interval optimization, and the
end-to-end duration objective.

Unit conventions: failure rates enter as failures per node per day and are
converted to per-second internally; every duration is in seconds; checkpoint
intervals are counted in steps.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (MAX_COUNT, InfeasibleError, InputError, check_count, check_number,
                     record)

DAY_SECONDS = 86400.0

# Defaults for the three-level recovery model (process / pod / job), from
# multi-thousand-GPU cluster operations history.
DEFAULT_RECOVERY_MIX = (0.3, 0.6, 0.1)
DEFAULT_RECOVERY_SECONDS = (141.0, 262.0, 307.0)


# Config key of each optional FaultModel time.
_TIME_KEYS = {"recovery_process_s": "u_bc", "recovery_pod_s": "u_bp",
              "recovery_job_s": "u_bj", "init_s": "u0", "mean_repair_s": "u_b"}


@record
class FaultModel:
    def __new__(cls, nodes: int, failures_per_node_day: float,
                recovery_process_s: float = DEFAULT_RECOVERY_SECONDS[0],
                recovery_pod_s: float = DEFAULT_RECOVERY_SECONDS[1],
                recovery_job_s: float = DEFAULT_RECOVERY_SECONDS[2],
                mix: tuple[float, float, float] = DEFAULT_RECOVERY_MIX,
                init_s: float = 0.0, mean_repair_s: float | None = None):
        """Check each value under its config key, where only u_b may be None
        (the recovery mix then sets the repair time); store them as floats.
        init_s is the first-initialization time u_0; mean_repair_s, when
        given, overrides the mixture."""
        check_count("N_nodes", nodes, high=MAX_COUNT)
        rate, process, pod, job, init, repair = (
            None if key == "u_b" and value is None else check_number(key, value)
            for key, value in zip(("r_f_per_node_day", *_TIME_KEYS.values()),
                                  (failures_per_node_day, recovery_process_s, recovery_pod_s,
                                   recovery_job_s, init_s, mean_repair_s)))
        if not isinstance(mix, (list, tuple)) or len(mix) != 3:
            raise InputError(f"fault mix must be a list of 3 weights, got {mix!r}")
        mix = tuple(check_number("mix weight", w) for w in mix)
        if not abs(sum(mix) - 1.0) <= 1e-9:
            raise InputError(f"fault mix must sum to 1, got {sum(mix)}")
        return tuple.__new__(cls, (nodes, rate, process, pod, job, mix, init, repair))

    @property
    def failures_per_second(self) -> float:
        """Cluster-wide failure rate: nodes x per-node rate, per second."""
        return self.nodes * self.failures_per_node_day / DAY_SECONDS

    @classmethod
    def from_json_dict(cls, data: dict) -> "FaultModel":
        kwargs = {name: data[key] for name, key in _TIME_KEYS.items() if key in data}
        return cls(data["N_nodes"], data["r_f_per_node_day"],
                   mix=data.get("mix", DEFAULT_RECOVERY_MIX), **kwargs)


@record
class CheckpointPolicy:
    def __new__(cls, interval_steps: int, save_s: float, total_steps: int, step_s: float):
        """interval_steps is the number of steps between checkpoint saves,
        save_s the duration of one save; the times are stored as floats."""
        return tuple.__new__(cls, (check_count("interval_steps", interval_steps),
                                   check_number("save_s", save_s),
                                   check_count("total_steps", total_steps),
                                   check_number("step_s", step_s, strict=True)))

    @property
    def training_s(self) -> float:
        return self.total_steps * self.step_s

    @property
    def num_saves(self) -> int:
        return math.ceil(self.total_steps / self.interval_steps)


class EttrReport(NamedTuple):
    ettr: float
    training_s: float
    interruption_s: float
    e2e_s: float
    expected_failures: float

    def to_json_dict(self) -> dict:
        return {
            "ETTR": self.ettr,
            "T_tr": self.training_s,
            "T_in": self.interruption_s,
            "T_e2e": self.e2e_s,
            "F_f": self.expected_failures,
        }


def steps_from_tokens(tokens: float, global_batch: int, seq_len: int) -> int:
    """Total training steps needed to consume a token budget."""
    return math.ceil(tokens / (global_batch * seq_len))


def mean_repair_time(fault: FaultModel) -> float:
    """Expected recovery time per failure: the three-level mixture mean, or
    the direct override when the model carries one."""
    if fault.mean_repair_s is not None:
        return fault.mean_repair_s
    a, b, c = fault.mix
    return (a * fault.recovery_process_s + b * fault.recovery_pod_s
            + c * fault.recovery_job_s)


def _denominator(fault: FaultModel, policy: CheckpointPolicy) -> float:
    """1 - lambda * (u_b + rollback); raises InfeasibleError unless positive."""
    u_b = mean_repair_time(fault)
    rollback = policy.interval_steps * policy.step_s / 2.0
    den = 1.0 - fault.failures_per_second * (u_b + rollback)
    if den <= 0:
        raise InfeasibleError(
            "failure rate too high for checkpointing to converge "
            f"(denominator {den:.3g} <= 0)"
        )
    return den


def failure_fixed_point(fault: FaultModel, policy: CheckpointPolicy) -> float:
    """Expected failure count over the whole run.

    Failures arrive over total wall time, and each failure lengthens the wall
    time; the mutual recursion solves in closed form provided the per-failure
    cost stays below the failure inter-arrival time."""
    lam = fault.failures_per_second
    if lam == 0:
        return 0.0
    base = policy.training_s + fault.init_s + policy.num_saves * policy.save_s
    return lam * base / _denominator(fault, policy)


def ettr_exact(fault: FaultModel, policy: CheckpointPolicy) -> EttrReport:
    """ETTR from the full interruption-time assembly, keeping the
    first-initialization term and the ceiling on the save count."""
    f_f = failure_fixed_point(fault, policy)
    u_b = mean_repair_time(fault)
    rollback = policy.interval_steps * policy.step_s / 2.0
    t_in = (fault.init_s + f_f * u_b + f_f * rollback
            + policy.num_saves * policy.save_s)
    t_tr = policy.training_s
    return EttrReport(
        ettr=t_tr / (t_tr + t_in),
        training_s=t_tr,
        interruption_s=t_in,
        e2e_s=t_tr + t_in,
        expected_failures=f_f,
    )


def ettr_closed_form(fault: FaultModel, policy: CheckpointPolicy) -> float:
    """Closed-form expected ETTR; drops the initialization term and the
    ceiling on the save count relative to ettr_exact."""
    save_ratio = policy.save_s / (policy.interval_steps * policy.step_s)
    return _denominator(fault, policy) / (1.0 + save_ratio)


def _e2e_s(total_steps: int, step_s: float, ettr: float) -> float:
    """T_e2e: the training time over the ETTR."""
    return total_steps * step_s / ettr


def optimal_ckpt_interval(
    fault: FaultModel,
    save_s: float,
    total_steps: int,
    step_s: float,
) -> tuple[int, float]:
    """(best interval in steps, closed-form ETTR at it).

    The continuous optimum comes from the stationary point of the e2e
    objective; the returned interval is whichever of floor/ceil (clamped to
    >= 1) minimizes the objective. With a zero failure rate any interval
    works and a single final checkpoint is returned; a negative discriminant
    means checkpointing cannot pay for itself at this failure rate."""
    lam = fault.failures_per_second
    if lam == 0:
        policy = CheckpointPolicy(max(total_steps, 1), save_s, total_steps, step_s)
        return policy.interval_steps, ettr_closed_form(fault, policy)
    u_b = mean_repair_time(fault)
    disc = save_s * save_s - 2.0 * save_s * u_b + 2.0 * save_s / lam
    if disc < 0:
        raise InfeasibleError(
            "no finite optimal interval: checkpointing cannot pay for itself "
            f"(discriminant {disc:.3g} < 0)"
        )
    continuous = (-save_s + math.sqrt(disc)) / step_s
    if not continuous < math.inf:  # NaN or inf once a product overflows
        raise InfeasibleError("no finite optimal interval: the continuous optimum overflows")
    lo = max(1, math.floor(continuous))
    hi = max(1, math.ceil(continuous))
    best, best_g = None, math.inf
    for cand in sorted({lo, hi}):
        policy = CheckpointPolicy(cand, save_s, total_steps, step_s)
        try:
            ettr = ettr_closed_form(fault, policy)
        except InfeasibleError:
            continue
        g = _e2e_s(total_steps, step_s, ettr)
        if g < best_g:
            best, best_g = (cand, ettr), g
    if best is None:
        raise InfeasibleError("no feasible interval near the continuous optimum")
    return best


def run_cost(fault: FaultModel, save_s: float, total_steps: int, step_s: float,
             interval: int | None = None) -> tuple[int, float, float]:
    """(I_ckpt, closed-form ETTR, T_e2e) of a run of total_steps steps of
    step_s seconds, checkpointed every `interval` steps, or at
    optimal_ckpt_interval when interval is None. T_e2e is the training time
    over the ETTR. Raises InfeasibleError when the fault regime cannot
    sustain the run."""
    if interval is None:
        interval, ettr = optimal_ckpt_interval(fault, save_s, total_steps, step_s)
    else:
        policy = CheckpointPolicy(interval, save_s, total_steps, step_s)
        ettr = ettr_closed_form(fault, policy)
    return interval, ettr, _e2e_s(total_steps, step_s, ettr)
