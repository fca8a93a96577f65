"""Report rendering: JSON, RFC-4180 CSV, and markdown tables with the
column layout of the tuning result tables. Field ordering is fixed so the
same input always renders byte-identically."""

from __future__ import annotations

import csv
import io
import json
import sys

from .basecost import PlanEvaluation
from .errors import NOT_FINITE, InfeasibleError, InputError
from .plan import DIMS, dim_values
from .tuner import Candidate, SweepResult, TuneResult

CANDIDATE_COLUMNS = (
    "rank", *DIMS, "features",
    "Memory_GB", "TFLOPS", "T_step", "T_cal", "T_TP", "T_PP", "T_DP",
    "T_EP", "T_CP", "T_update", "I_ckpt", "ETTR", "T_e2e",
)


def to_payload(result) -> dict:
    """Canonical JSON-ready dict for any result object."""
    if isinstance(result, PlanEvaluation):
        return {"cost": result.cost.to_json_dict(),
                "memory": result.memory.to_json_dict()}
    if hasattr(result, "to_json_dict"):
        return result.to_json_dict()
    if isinstance(result, dict):
        return result
    raise InputError(f"cannot render object of type {type(result).__name__}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if not abs(value) <= sys.float_info.max:
            raise InfeasibleError(NOT_FINITE)
        return f"{value:.6g}"
    return str(value)


def _candidate_row(rank: int, cand: Candidate) -> list:
    cost, mem = cand.cost, cand.memory
    return [
        rank, *dim_values(cand.plan),
        "+".join(cand.opts.feature_names()) or "base",
        mem.m_peak / 1e9, cost.tflops, cost.t_step, cost.t_cal, cost.t_tp,
        cost.t_pp, cost.t_dp, cost.t_ep, cost.t_cp, cost.t_update,
        cand.interval, cand.ettr, cand.t_e2e,
    ]


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _markdown_table(columns, rows) -> str:
    lines = ["| " + " | ".join(str(c) for c in columns) + " |",
             "| " + " | ".join("---" for _ in columns) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
    return "\n".join(lines) + "\n"


def _tabular(result) -> tuple[tuple, list]:
    if isinstance(result, TuneResult):
        rows = [_candidate_row(i + 1, c) for i, c in enumerate(result.candidates)]
        return CANDIDATE_COLUMNS, rows
    if isinstance(result, SweepResult):
        return result.columns, [list(r) for r in result.rows]
    if isinstance(result, PlanEvaluation):
        payload = to_payload(result)
        merged = {**payload["cost"], **{k: v for k, v in payload["memory"].items()
                                        if k != "warnings"}}
        merged.pop("warnings", None)
        return tuple(merged.keys()), [list(merged.values())]
    payload = to_payload(result)
    flat = {k: v for k, v in payload.items() if not isinstance(v, (dict, list))}
    return tuple(flat.keys()), [list(flat.values())]


def render_report(result, fmt: str = "json") -> str:
    if fmt == "json":
        try:
            return json.dumps(to_payload(result), indent=2, allow_nan=False) + "\n"
        except ValueError:
            raise InfeasibleError(NOT_FINITE) from None
    if fmt == "csv":
        return _csv_text(*_tabular(result))
    if fmt == "markdown":
        return _markdown_table(*_tabular(result))
    raise InputError(f"unknown output format {fmt!r}")
