"""Strategy search: pruned depth-first enumeration of parallel plans and
optimization-feature combinations minimizing step time, an end-to-end
extension that also picks the checkpoint interval, and parameter sweeps.

Pruning is sound with respect to full-candidate filtering: every rule checked
on a partial assignment is implied by the complete rule set, so the pruned
enumeration returns exactly the feasible set an exhaustive scan would. Each
level checks only the rules that read its dimension, since the others see the
inputs on which its prefix already passed.
Ranking is a total order (step time, then the plan tuple) so results are
bit-stable across runs.

Candidates are evaluated serially through one basecost.EvalMemo per tune,
whose docstring says what work they share.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter
from typing import NamedTuple

from .arch import ModelArchitecture
from .basecost import (
    TFLOPS_MODES,
    CostReport,
    Dtypes,
    EvalMemo,
    MemoryReport,
    evaluate_plan,
)
from .errors import (MAX_COUNT, InfeasibleError, InputError, ShapeError, check_count,
                     check_number, record)
from .fault import FaultModel, run_cost
from .optim import OptimizationSet, default_feature_combos
from .plan import DIMS, ParallelPlan, dim_values
from .profile import ProfileDB


def _powers_of_two(limit: int) -> tuple[int, ...]:
    return tuple(2 ** i for i in range(limit.bit_length()))


# Config key -> SearchSpace candidate field (chunks -> chunk_candidates).
CANDIDATE_FIELDS = {key: f"{name.removesuffix('s')}_candidates"
                    for key, name in DIMS.items()}


@record
class SearchSpace:
    def __new__(cls, arch: ModelArchitecture, db: ProfileDB, total_gpus: int,
                global_batch: int, tp_candidates: tuple[int, ...] = (),
                cp_candidates: tuple[int, ...] = (), pp_candidates: tuple[int, ...] = (),
                ep_candidates: tuple[int, ...] = (), dp_candidates: tuple[int, ...] = (),
                micro_batch_candidates: tuple[int, ...] = (),
                chunk_candidates: tuple[int, ...] = (),
                opt_combos: tuple[OptimizationSet, ...] = (), dtypes: Dtypes = Dtypes(),
                tflops_mode: str = "fwd-bwd-per-device"):
        candidates = dict(zip(CANDIDATE_FIELDS.values(), (
            tp_candidates, cp_candidates, pp_candidates, ep_candidates, dp_candidates,
            micro_batch_candidates, chunk_candidates)))
        counts = [("total_gpus", total_gpus), ("global_batch", global_batch)]
        counts += [(name, value) for name, values in candidates.items() for value in values]
        for name, value in counts:
            check_count(name, value, high=MAX_COUNT)
        for name, values in candidates.items():
            if len(set(values)) < len(values):
                raise InputError(f"{name} repeats a value: {list(values)}")
        if tflops_mode not in TFLOPS_MODES:
            raise InputError(f"unknown tflops mode {tflops_mode!r}")
        return tuple.__new__(cls, (arch, db, total_gpus, global_batch, *candidates.values(),
                                   opt_combos, dtypes, tflops_mode))

    def resolved(self) -> "SearchSpace":
        """Fill empty candidate sets with the power-of-two defaults bounded
        by the resources they consume; an empty feature allowlist becomes the
        default one (all features, default coefficients)."""
        arch, gpus = self.arch, self.total_gpus
        limits = {"t": min(self.db.hardware.gpus_per_node, gpus), "c": 1,
                  "p": min(arch.num_layers, gpus),
                  "e": min(arch.num_experts if arch.is_moe else 1, gpus),
                  "d": gpus, "m_bs": self.global_batch, "v": arch.num_layers}
        updates = {name: _powers_of_two(limits[key])
                   for key, name in CANDIDATE_FIELDS.items() if not getattr(self, name)}
        if not self.opt_combos:
            updates["opt_combos"] = default_feature_combos()
        return self._replace(**updates) if updates else self


class Candidate(NamedTuple):
    plan: ParallelPlan
    opts: OptimizationSet
    opts_index: int
    cost: CostReport
    memory: MemoryReport
    interval: int | None = None
    ettr: float | None = None
    t_e2e: float | None = None
    fault_note: str | None = None

    @property
    def step_key(self) -> tuple:
        return (self.cost.t_step, *dim_values(self.plan), self.opts_index)

    def to_json_dict(self) -> dict:
        out = {
            "plan": self.plan.to_json_dict(),
            "optimization": self.opts.feature_names(),
            "feasible": True,
            "cost": self.cost.to_json_dict(),
            "memory": self.memory.to_json_dict(),
        }
        if self.interval is not None:
            out["I_ckpt"] = self.interval
        if self.ettr is not None:
            out["ETTR"] = self.ettr
        if self.t_e2e is not None:
            out["T_e2e"] = self.t_e2e
        if self.fault_note:
            out["fault_note"] = self.fault_note
        return out


class TuneResult(NamedTuple):
    candidates: tuple[Candidate, ...]
    evaluated: int
    rejections: dict[str, int]

    def to_json_dict(self) -> dict:
        return {
            "candidates": [c.to_json_dict() for c in self.candidates],
            "evaluated": self.evaluated,
            "rejections": dict(sorted(self.rejections.items())),
        }


# The dimensions each rule reads, and None for the full check: prune's guards.
# The tp rule reads tp, one of the degrees, so it sits under the world rule's guard.
_WORLD_READS = {None, "tp", "cp", "pp", "ep", "dp"}
_BATCH_READS = {None, "micro_batch", "dp", "pp"}
_CHUNK_READS = {None, "pp", "chunks"}


def prune(space: SearchSpace, assigned: dict[str, int], new: str | None = None) -> str | None:
    """Apply the expert rules to a partial assignment; returns a rejection
    reason or None. Dimensions are assigned in plan.DIMS order; each rule
    fires as soon as its inputs exist.

    `new` names the dimension just added to a prefix that already passed.
    Then only the rules that read it run: every other rule sees the inputs it
    passed on, so the reason is the full check's (new=None)."""
    get = assigned.get
    if new in _WORLD_READS:
        # the five parallel degrees of plan.DIMS, spelt out: prune runs per tried value
        world = get("tp", 1) * get("cp", 1) * get("pp", 1) * get("ep", 1) * get("dp", 1)
        if world > space.total_gpus:
            return "resource: parallel product exceeds total gpus"
        if new in (None, "tp") and get("tp", 0) > space.db.hardware.gpus_per_node:
            return "tp exceeds gpus per node"
    if new in _BATCH_READS and "micro_batch" in assigned:
        m_bs, batch, dp, pp = assigned["micro_batch"], space.global_batch, get("dp"), get("pp")
        if m_bs > batch:
            return "micro batch exceeds global batch"
        if dp is not None and batch % (m_bs * dp) != 0:
            return "global batch not divisible by micro_batch*dp"
        if pp is not None and batch // m_bs < pp:
            return "too few micro batches for the pipeline depth"
    if new in _CHUNK_READS:
        chunks, pp = get("chunks"), get("pp")
        if chunks is not None and pp is not None and space.arch.num_layers % (pp * chunks):
            return "layers not divisible by pp*chunks"
    return None


def _enumerate_plans(space: SearchSpace, rejections: dict[str, int]) -> list[ParallelPlan]:
    """Depth-first walk over the candidate sets with early pruning; returns
    the plans that pass every rule, in walk order."""
    levels = [(DIMS[key], getattr(space, name)) for key, name in CANDIDATE_FIELDS.items()]
    last = len(levels) - 1
    batch, layers = space.global_batch, space.arch.num_layers
    check = prune   # read once per walk, so a replaced tuner.prune is the one called
    plans: list[ParallelPlan] = []
    assigned: dict[str, int] = {}

    def descend(level: int) -> None:
        name, values = levels[level]
        if level == last:
            # the plan fields before chunks: the other dimensions, in plan
            # order, then global_batch
            head = (*assigned.values(), batch)
        for value in values:
            assigned[name] = value
            reason = check(space, assigned, name)
            if reason is not None:
                rejections[reason] = rejections.get(reason, 0) + 1
            elif level < last:
                descend(level + 1)
            else:
                plans.append(tuple.__new__(ParallelPlan, (*head, value, layers)))
        assigned.pop(name, None)

    descend(0)
    return plans


def _rank(space: SearchSpace) -> tuple[list[tuple], int, dict[str, int]]:
    """Evaluate every enumerated candidate once; returns the feasible ones as
    (step_key, plan, opts, cost, memory), the key built once, in ascending
    step_key order, with the evaluated count and the rejection counts."""
    space = space.resolved()
    arch, db, dtypes, mode = space.arch, space.db, space.dtypes, space.tflops_mode
    combos = tuple(enumerate(space.opt_combos))
    limit = db.hardware.gpu_memory
    rejections: dict[str, int] = {}
    memo = EvalMemo(arch, db, dtypes)
    feasible: list[tuple] = []
    evaluated = 0
    for plan in _enumerate_plans(space, rejections):
        evaluated += len(combos)
        dims = dim_values(plan)
        for idx, opts in combos:
            try:
                cost, memory = evaluate_plan(arch, plan, db, opts, dtypes, mode, limit, memo)
            except (ShapeError, InputError) as exc:
                key = str(exc).split(":")[0]
            else:
                if cost is not None:
                    feasible.append(((cost.t_step, *dims, idx), plan, opts, cost, memory))
                    continue
                key = "memory"
            rejections[key] = rejections.get(key, 0) + 1
    return sorted(feasible, key=itemgetter(0)), evaluated, rejections


def tune_step(space: SearchSpace, top_k: int | None = 4) -> TuneResult:
    """Search the space for the plans with the smallest step time.

    Returns the top_k feasible candidates (all of them when top_k is None)
    ranked by ascending step time with a deterministic lexicographic
    tie-break (Candidate.step_key), plus the count of each rejection reason:
    a pruning rule, a ShapeError or InputError message up to its first ':',
    or "memory", in the order each reason first occurred. Only the returned
    candidates become Candidates."""
    ranked, evaluated, rejections = _rank(space)
    return TuneResult(tuple(Candidate(plan, opts, key[-1], cost, memory)
                            for key, plan, opts, cost, memory in ranked[:top_k]),
                      evaluated=evaluated, rejections=rejections)


def tune_e2e(space: SearchSpace, fault: FaultModel, save_s: float,
             total_steps: int, top_k: int = 4) -> TuneResult:
    """Two-phase end-to-end tuning: rank plans by step time, then give each
    its own optimal checkpoint interval and rank by total expected duration.

    The interval optimum depends on the plan only through its step time, so
    the phase split loses nothing; candidates whose fault regime is
    infeasible are annotated and ranked last rather than dropped.

    Candidates are priced in step order, and only until no later one can
    reach the top_k. That bound is exact in floats: T_e2e is
    fl(fl(S * t_step) / ETTR), and ETTR = den / (1 + save_ratio) <= 1
    because den = 1 - lambda * (u_b + rollback) <= 1 and save_ratio >= 0,
    every fault input and the save time being checked to be >= 0. So a
    candidate's key (T_e2e, step_key) is at least (fl(S * t_step), step_key),
    and both parts grow along the step order; once the k-th best key so far
    is below that bound for the next candidate, no later one can enter the
    top_k. Only the top_k become Candidates."""
    feasible, evaluated, rejections = _rank(space)
    ranked: list = []   # (key, feasible entry, annotations) of the priced ones, ascending
    for entry in feasible:
        step_key = entry[0]
        t_step = step_key[0]
        bound = (total_steps * t_step, step_key)   # no key from here on is below it
        if top_k <= len(ranked) and (top_k == 0 or ranked[top_k - 1][0] < bound):
            break
        try:
            interval, ettr, t_e2e = run_cost(fault, save_s, total_steps, t_step)
        except InfeasibleError as exc:
            insort(ranked, ((float("inf"), step_key), entry, {"fault_note": str(exc)}))
        else:
            insort(ranked, ((t_e2e, step_key), entry,
                            {"interval": interval, "ettr": ettr, "t_e2e": t_e2e}))
    return TuneResult(tuple(Candidate(plan, opts, key[-1], cost, memory, **notes)
                            for _, (key, plan, opts, cost, memory), notes in ranked[:top_k]),
                      evaluated=evaluated, rejections=rejections)


# ---------------------------------------------------------------------------
# Sweeps


class SweepResult(NamedTuple):
    parameter: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_json_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
        }


FAULT_PARAMS = ("r_f", "u_b", "T_save", "N_nodes", "I_ckpt")
_ON_OFF = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}


def sweep(
    space: SearchSpace,
    parameter: str,
    values: list,
    fault: FaultModel | None = None,
    save_s: float | None = None,
    total_steps: int | None = None,
    step_s: float | None = None,
) -> SweepResult:
    """Re-tune (or re-evaluate) per parameter value and emit plottable rows.

    Plan dimensions and cluster knobs re-run the step tuner with the swept
    value pinned; fault parameters hold the plan fixed and recompute the
    closed-form ETTR, which needs the fault config and step time."""
    if parameter in FAULT_PARAMS:
        return _sweep_fault(parameter, values, fault, save_s, total_steps, step_s)

    columns = ("value", *DIMS, "T_step", "TFLOPS", "M_peak_GB")
    if parameter == "g_n":
        columns += ("linearity",)
    rows = []
    reference = None  # (gpus, t_step) of the first feasible swept cluster
    for value in values:
        sub = _pin_parameter(space, parameter, value)
        result = tune_step(sub, top_k=1)
        if not result.candidates:
            rows.append((value,) + ("",) * (len(columns) - 1))
            continue
        best = result.candidates[0]
        row = (value, *dim_values(best.plan), best.cost.t_step, best.cost.tflops,
               best.memory.m_peak / 1e9)
        if parameter == "g_n":
            # linearity, the scaling efficiency: ideally-scaled reference
            # time over actual
            if reference is None:
                reference = (value, best.cost.t_step)
            ideal = reference[1] * reference[0] / value
            row += (ideal / best.cost.t_step,)
        rows.append(row)
    return SweepResult(parameter, columns, tuple(rows))


def _pin_parameter(space: SearchSpace, parameter: str, value) -> SearchSpace:
    if parameter in CANDIDATE_FIELDS or parameter in ("g_bs", "g_n", "N"):
        check_count(parameter, value)
    if parameter in CANDIDATE_FIELDS:
        return space.resolved()._replace(**{CANDIDATE_FIELDS[parameter]: (value,)})
    if parameter == "g_bs":
        # candidate micro-batch sets depend on the batch; re-resolve
        return space._replace(global_batch=value, micro_batch_candidates=()).resolved()
    if parameter == "g_n":
        return space._replace(total_gpus=value, dp_candidates=()).resolved()
    if parameter == "N":
        hw = space.db.hardware._replace(gpus_per_node=value)
        return space._replace(db=space.db._replace(hardware=hw),
                              tp_candidates=()).resolved()
    if parameter == "optimizer_strategy":
        combos = tuple(c._replace(optimizer_strategy=str(value))
                       for c in space.resolved().opt_combos)
        return space._replace(opt_combos=_dedupe(combos))
    if parameter == "dp_overlap":
        from .optim import DpOverlapCoeffs
        enabled = _ON_OFF.get(str(value).lower())
        if enabled is None:
            raise InputError(f"dp_overlap value {value!r} is not one of on/off, "
                             "true/false, 1/0")
        combos = tuple(
            c._replace(dp_overlap=DpOverlapCoeffs() if enabled else None)
            for c in space.resolved().opt_combos
        )
        return space._replace(opt_combos=_dedupe(combos))
    raise InputError(f"unknown sweep parameter {parameter!r}")


def _dedupe(combos: tuple[OptimizationSet, ...]) -> tuple[OptimizationSet, ...]:
    """Pinning an exclusive strategy can collapse allowlist entries into
    duplicates; keep the first of each."""
    unique: list[OptimizationSet] = []
    for combo in combos:
        if combo not in unique:
            unique.append(combo)
    return tuple(unique)


def _sweep_fault(parameter: str, values: list, fault: FaultModel | None,
                 save_s: float | None, total_steps: int | None,
                 step_s: float | None) -> SweepResult:
    if fault is None or save_s is None or total_steps is None or step_s is None:
        raise InputError(
            f"sweeping {parameter!r} needs a fault config, save time, "
            "total steps and step time"
        )
    columns = ("value", "ETTR", "T_e2e", "I_ckpt")
    rows = []
    for value in values:
        f, s, fixed = fault, save_s, None   # fixed: the swept I_ckpt, else the optimum
        if parameter == "r_f":
            f = fault._replace(failures_per_node_day=check_number(parameter, value))
        elif parameter == "u_b":
            f = fault._replace(mean_repair_s=check_number(parameter, value))
        elif parameter == "N_nodes":
            f = fault._replace(nodes=check_count(parameter, value))
        elif parameter == "T_save":
            s = check_number(parameter, value)
        elif parameter == "I_ckpt":
            fixed = check_count(parameter, value, high=MAX_COUNT)
        try:
            interval, ettr, t_e2e = run_cost(f, s, total_steps, step_s, fixed)
        except InfeasibleError:
            rows.append((value, "", "", "" if fixed is None else fixed))
        else:
            rows.append((value, ettr, t_e2e, interval))
    return SweepResult(parameter, columns, tuple(rows))
