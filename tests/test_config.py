import glob
import json
import os

import pytest

from traincost.arch import ModelArchitecture
from traincost.basecost import Dtypes
from traincost.config import load_config
from traincost.errors import ConfigError


MODEL = {"L": 4, "s": 8, "h": 8, "a": 2, "g_d": 16, "V": 32}
HARDWARE = {"B_H2D": 32, "B_D2H": 32, "M_CPU": 2000, "F_CPU": 3.0,
            "P_GPU": 512, "M_GPU": 32, "N": 8}
PROFILE = {"operators": [{"module": "*", "fwd_TFLOPS": 100}],
           "collectives": [{"kind": k, "group_size": 8, "bandwidth_GBps": 100}
                           for k in ("all-gather", "reduce-scatter",
                                     "all-reduce", "all-to-all", "p2p")]}


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def write_config(tmp_path, body, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def minimal_body(**extra):
    body = {
        "schema_version": 1,
        "model": MODEL,
        "hardware": HARDWARE,
        "profile": PROFILE,
        "plan": {"t": 1, "c": 1, "p": 2, "e": 1, "d": 1,
                 "m_bs": 1, "g_bs": 4, "v": 1},
    }
    body.update(extra)
    return body


class TestLoadConfig:
    def test_minimal_with_defaults_echoed(self, tmp_path):
        cfg = load_config(write_config(tmp_path, minimal_body()))
        echo = cfg.describe()
        assert echo["optimization"]["compute_scaling"] == {"*": 1.0}
        assert echo["optimization"]["overlap_coefficients"] == {
            "default_alpha": 1.0, "default_beta": 1.0}
        assert echo["dtypes"] == {"D_para": 2.0, "D_grad": 2.0,
                                  "D_opt": 4.0, "D_act": 2.0}

    def test_fault_rate_converted_to_per_second(self, tmp_path):
        body = minimal_body(fault={"N_nodes": 16, "r_f_per_node_day": 0.005,
                                   "T_save": 4.19, "I_ckpt": 10, "S": 100})
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.fault.model.failures_per_second == pytest.approx(
            16 * 0.005 / 86400)
        assert cfg.describe()["fault"]["r_f_per_node_second"] == pytest.approx(
            0.005 / 86400)
        assert cfg.describe()["fault"]["u0"] == 0.0

    def test_bad_fault_mix_named(self, tmp_path):
        body = minimal_body(fault={"N_nodes": 4, "r_f_per_node_day": 0.01,
                                   "mix": [0.3, 0.5, 0.1], "S": 10})
        with pytest.raises(ConfigError, match="sum to 1"):
            load_config(write_config(tmp_path, body))

    def test_file_references_resolve_relative(self, tmp_path):
        (tmp_path / "model.json").write_text(json.dumps(MODEL))
        body = minimal_body(model="model.json")
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.arch.num_layers == 4

    def test_missing_reference_reported(self, tmp_path):
        body = minimal_body(model="nowhere.json")
        with pytest.raises(ConfigError, match="nowhere.json"):
            load_config(write_config(tmp_path, body))

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": \n!}')
        with pytest.raises(ConfigError, match="line"):
            load_config(str(path))

    def test_unknown_schema_version(self, tmp_path):
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(write_config(tmp_path, minimal_body(schema_version=99)))

    def test_plan_or_space_required(self, tmp_path):
        body = minimal_body()
        del body["plan"]
        with pytest.raises(ConfigError, match="plan or a space"):
            load_config(write_config(tmp_path, body))

    def test_plan_cross_reference_validated(self, tmp_path):
        body = minimal_body(plan={"t": 1, "p": 3, "m_bs": 1, "g_bs": 4, "v": 1})
        with pytest.raises(ConfigError, match="divisible"):
            load_config(write_config(tmp_path, body))

    def test_space_section(self, tmp_path):
        body = minimal_body(space={"g_n": 8, "g_bs": 8, "t": [1, 2],
                                   "p": [1, 2], "d": [1, 2], "m_bs": [1],
                                   "v": [1]})
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.space is not None
        assert cfg.space.total_gpus == 8
        assert cfg.space.tp_candidates == (1, 2)

    def test_optimization_list_becomes_combos(self, tmp_path):
        body = minimal_body(optimization=[
            {}, {"optimizer_strategy": "distributed"}])
        cfg = load_config(write_config(tmp_path, body))
        assert len(cfg.opt_combos) == 2

    def test_unknown_output_format(self, tmp_path):
        with pytest.raises(ConfigError, match="output"):
            load_config(write_config(tmp_path, minimal_body(output="yaml")))


class TestShippedConfigs:
    @pytest.mark.parametrize("model", ["llama2_70b", "llama3_405b", "deepseek_v3"])
    @pytest.mark.parametrize("hardware", ["hardware_a", "hardware_b"])
    def test_model_and_hardware_files_load(self, tmp_path, configs_dir, model,
                                           hardware):
        body = {"schema_version": 1, "space": {"g_n": 8, "g_bs": 8}}
        for key, name in (("model", model), ("hardware", hardware),
                          ("profile", "profile_example"), ("fault", "fault_example")):
            body[key] = os.path.abspath(os.path.join(configs_dir, f"{name}.json"))
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.arch.num_layers > 0 and cfg.fault is not None

    @pytest.mark.parametrize("model", ["llama2_70b", "llama3_405b", "deepseek_v3"])
    def test_echoed_model_and_dtypes_parse_back_equal(self, tmp_path, configs_dir, model):
        body = minimal_body(model=os.path.abspath(os.path.join(configs_dir, f"{model}.json")),
                            dtypes={"D_para": 4.0, "D_act": 1.0},
                            space={"g_n": 8, "g_bs": 8})
        del body["plan"]
        cfg = load_config(write_config(tmp_path, body))
        echo = json.loads(json.dumps(cfg.describe()))
        assert ModelArchitecture.from_json_dict(echo["model"]) == cfg.arch
        assert Dtypes.from_json_dict(echo["dtypes"]) == cfg.dtypes
        assert cfg.dtypes == Dtypes(param_bytes=4.0, act_bytes=1.0)

    @pytest.mark.parametrize("path", sorted(
        glob.glob(os.path.join(ROOT, "configs", "run_*.json"))
        + glob.glob(os.path.join(ROOT, "bench", "configs", "*.json"))),
        ids=os.path.basename)
    def test_run_configs_load(self, path):
        cfg = load_config(path)
        assert cfg.plan is not None or cfg.space is not None
