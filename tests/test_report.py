import json

import pytest

from helpers import make_db, make_hardware, tiny_dense
from traincost.basecost import evaluate_plan
from traincost.fault import CheckpointPolicy, FaultModel, ettr_exact
from traincost.plan import ParallelPlan
from traincost.report import CANDIDATE_COLUMNS, render_report
from traincost.tuner import SearchSpace, tune_step


@pytest.fixture
def tune_result():
    arch = tiny_dense(l=4, s=8, h=8, a=2)
    space = SearchSpace(arch=arch, db=make_db(make_hardware(gpu_memory=1e12)),
                        total_gpus=4, global_batch=8,
                        tp_candidates=(1, 2), pp_candidates=(1, 2),
                        ep_candidates=(1,), dp_candidates=(1,),
                        micro_batch_candidates=(1,), chunk_candidates=(1,))
    return tune_step(space, top_k=3)


class TestRendering:
    def test_json_round_trip(self, tune_result):
        text = render_report(tune_result, "json")
        assert json.loads(text) == tune_result.to_json_dict()

    def test_json_stable_bytes(self, tune_result):
        assert render_report(tune_result, "json") == render_report(tune_result, "json")

    def test_csv_header_and_quoting(self, tune_result):
        text = render_report(tune_result, "csv")
        lines = text.split("\r\n")
        assert lines[0] == ",".join(CANDIDATE_COLUMNS)
        assert lines[0].startswith("rank,t,c,p,e,d,m_bs,v,features,Memory_GB,")
        best = tune_result.candidates[0].plan
        assert lines[1].split(",")[1:8] == [str(x) for x in (
            best.tp, best.cp, best.pp, best.ep, best.dp, best.micro_batch, best.chunks)]
        assert len(lines) == len(tune_result.candidates) + 2  # header + trailing

    def test_empty_tune_result_is_header_only(self, tune_result):
        empty = type(tune_result)((), evaluated=0, rejections={})
        text = render_report(empty, "csv")
        assert text == ",".join(CANDIDATE_COLUMNS) + "\r\n"

    def test_markdown_table_shape(self, tune_result):
        text = render_report(tune_result, "markdown")
        lines = text.strip().split("\n")
        assert lines[0].startswith("| rank | t | c | p |")
        assert set(lines[1].replace("|", "").split()) == {"---"}
        assert len(lines) == len(tune_result.candidates) + 2

    def test_ettr_report_round_trips(self):
        fault = FaultModel(nodes=16, failures_per_node_day=0.005,
                           mean_repair_s=134.41)
        policy = CheckpointPolicy(10, 4.19, 953675, 27.83)
        report = ettr_exact(fault, policy)
        parsed = json.loads(render_report(report, "json"))
        assert parsed == report.to_json_dict()
        assert parsed["ETTR"] == report.ettr

    def test_plan_evaluation_renders_all_formats(self):
        arch = tiny_dense()
        plan = ParallelPlan(num_layers=arch.num_layers)
        result = evaluate_plan(arch, plan, make_db())
        for fmt in ("json", "csv", "markdown"):
            assert render_report(result, fmt)

    def test_csv_fields_match_json_values(self, tune_result):
        text = render_report(tune_result, "csv")
        first_row = text.split("\r\n")[1].split(",")
        best = tune_result.candidates[0]
        assert first_row[CANDIDATE_COLUMNS.index("t")] == str(best.plan.tp)
        t_step_text = first_row[CANDIDATE_COLUMNS.index("T_step")]
        assert float(t_step_text) == pytest.approx(best.cost.t_step, rel=1e-5)
