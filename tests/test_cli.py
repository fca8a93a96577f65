import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traincost.cli import main

MODEL = {"L": 4, "s": 8, "h": 8, "a": 2, "g_d": 16, "V": 32}
HARDWARE = {"B_H2D": 32, "B_D2H": 32, "M_CPU": 2000, "F_CPU": 3.0,
            "P_GPU": 512, "M_GPU": 32, "N": 8}
PROFILE = {"operators": [{"module": "*", "fwd_TFLOPS": 100}],
           "collectives": [{"kind": k, "group_size": 8, "bandwidth_GBps": 100}
                           for k in ("all-gather", "reduce-scatter",
                                     "all-reduce", "all-to-all", "p2p")]}
FAULT = {"N_nodes": 32, "r_f_per_node_day": 0.01, "u_b": 60.0,
         "T_save": 2.0, "I_ckpt": 10, "S": 10000}


def write_run_config(tmp_path, name="run.json", **extra):
    body = {
        "schema_version": 1,
        "model": MODEL,
        "hardware": HARDWARE,
        "profile": PROFILE,
        "plan": {"t": 1, "c": 1, "p": 2, "e": 1, "d": 2,
                 "m_bs": 1, "g_bs": 8, "v": 1},
        "fault": FAULT,
    }
    body.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


class TestEval:
    def test_json_report(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path)
        code, captured = run(capsys, "eval", "--config", cfg)
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["cost"]["T_step"] > 0
        assert payload["memory"]["M_peak"] > 0

    def test_echo_config_includes_defaults(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path)
        code, captured = run(capsys, "eval", "--config", cfg, "--echo-config")
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["config"]["optimization"]["compute_scaling"] == {"*": 1.0}

    def test_output_to_file(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path)
        out = tmp_path / "report.json"
        code, _ = run(capsys, "eval", "--config", cfg, "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["cost"]["T_step"] > 0

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path)
        _, first = run(capsys, "eval", "--config", cfg)
        _, second = run(capsys, "eval", "--config", cfg)
        assert first.out == second.out

    @pytest.mark.parametrize("argv", [
        ("eval",), ("eval", "--echo-config"), ("ettr",), ("interval",),
        ("tune", "step"), ("tune", "e2e")], ids=" ".join)
    def test_empty_optimization_list_is_an_absent_section(self, tmp_path, capsys, argv):
        space = {"g_n": 4, "g_bs": 8, "t": [1], "c": [1], "p": [1, 2], "e": [1],
                 "d": [1, 2], "m_bs": [1], "v": [1]}
        outputs = []
        for name, extra in (("absent.json", {}), ("empty.json", {"optimization": []})):
            code, captured = run(capsys, *argv, "--config",
                                 write_run_config(tmp_path, name, space=space, **extra))
            assert code == 0, captured.err
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, captured = run(capsys, "eval", "--config", str(bad))
        assert code == 1
        assert "error" in captured.err


class TestTune:
    def space_config(self, tmp_path):
        return write_run_config(tmp_path, space={
            "g_n": 8, "g_bs": 8, "t": [1, 2], "c": [1], "p": [1, 2],
            "e": [1], "d": [1, 2], "m_bs": [1, 2], "v": [1, 2],
        })

    def test_step_markdown(self, tmp_path, capsys):
        cfg = self.space_config(tmp_path)
        code, captured = run(capsys, "tune", "step", "--config", cfg,
                             "--output", "markdown", "--top-k", "2",
                             "--workers", "1")
        assert code == 0
        assert captured.out.startswith("| rank |")

    @pytest.mark.parametrize("parameter,value", [
        ("v", "2.5"), ("t", "0"), ("g_bs", "8.0"), ("g_n", "true"), ("N", "-8")])
    def test_sweep_rejects_non_integer_value(self, tmp_path, capsys, parameter, value):
        code, captured = run(capsys, "sweep", "--config", self.space_config(tmp_path),
                             "--parameter", parameter, "--values", value)
        assert code == 1
        assert captured.err.startswith(f"error: {parameter} value ")
        assert captured.err.endswith(" is not an integer >= 1\n")
        assert captured.err.count("\n") == 1

    def test_e2e_annotates_interval(self, tmp_path, capsys):
        cfg = self.space_config(tmp_path)
        code, captured = run(capsys, "tune", "e2e", "--config", cfg,
                             "--workers", "1")
        assert code == 0
        payload = json.loads(captured.out)
        assert all("I_ckpt" in c for c in payload["candidates"])

    def test_no_candidates_exit_code(self, tmp_path, capsys):
        cfg = write_run_config(
            tmp_path,
            hardware={**HARDWARE, "M_GPU": 1e-9},
            space={"g_n": 8, "g_bs": 8, "t": [1], "c": [1], "p": [1],
                   "e": [1], "d": [1], "m_bs": [1], "v": [1]},
        )
        code, _ = run(capsys, "tune", "step", "--config", cfg, "--workers", "1")
        assert code == 2

    def test_deterministic_for_any_worker_count(self, tmp_path, capsys):
        cfg = self.space_config(tmp_path)
        _, one = run(capsys, "tune", "step", "--config", cfg, "--workers", "1")
        _, two = run(capsys, "tune", "step", "--config", cfg, "--workers", "2")
        assert one.out == two.out

    def test_sweep_accepts_and_ignores_workers(self, tmp_path, capsys):
        cfg = self.space_config(tmp_path)
        argv = ("sweep", "--config", cfg, "--parameter", "v", "--values", "1,2")
        _, plain = run(capsys, *argv)
        code, ignored = run(capsys, *argv, "--workers", "4")
        assert code == 0 and ignored.out == plain.out

    def test_space_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path)  # no space section
        space = tmp_path / "space.json"
        space.write_text(json.dumps({
            "g_n": 4, "g_bs": 8, "t": [1], "c": [1], "p": [1, 2], "e": [1],
            "d": [1, 2], "m_bs": [1], "v": [1],
        }))
        code, captured = run(capsys, "tune", "step", "--config", cfg,
                             "--space", str(space), "--workers", "1",
                             "--output", "json")
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["candidates"]
        assert all(c["plan"]["t"] == 1 for c in payload["candidates"])


class TestProfileInput:
    # a space where no plan fits in memory: every candidate is rejected
    # before its latency is computed
    NOTHING_FITS = dict(
        hardware={**HARDWARE, "M_GPU": 1e-6},
        space={"g_n": 8, "g_bs": 8, "t": [1, 2], "c": [1], "p": [1, 2],
               "e": [1], "d": [1, 2], "m_bs": [1], "v": [1]},
    )

    def test_missing_compute_entry_exits_1_when_nothing_fits(self, tmp_path, capsys):
        profile = {**PROFILE, "operators": [{"module": "qkv", "fwd_TFLOPS": 100}]}
        cfg = write_run_config(tmp_path, profile=profile, **self.NOTHING_FITS)
        code, captured = run(capsys, "tune", "step", "--config", cfg)
        assert code == 1
        assert "error: no compute profile entry for module='norm'" in captured.err

    def test_missing_collective_kind_exits_1_when_nothing_fits(self, tmp_path, capsys):
        profile = {**PROFILE, "collectives": [
            c for c in PROFILE["collectives"] if c["kind"] != "all-reduce"]}
        cfg = write_run_config(tmp_path, profile=profile, **self.NOTHING_FITS)
        code, captured = run(capsys, "tune", "step", "--config", cfg)
        assert code == 1
        assert "error: no bandwidth entry for collective kind='all-reduce'" \
            in captured.err

    def test_zero_volume_collective_needs_no_entry(self, tmp_path, capsys):
        # no gradient bytes: the dp all-reduce has zero volume and is never
        # looked up, so the tune finds no candidate rather than failing
        profile = {**PROFILE, "collectives": [
            c for c in PROFILE["collectives"] if c["kind"] != "all-reduce"]}
        cfg = write_run_config(tmp_path, profile=profile, dtypes={"D_grad": 0},
                               **self.NOTHING_FITS)
        code, captured = run(capsys, "tune", "step", "--config", cfg)
        assert code == 2
        payload = json.loads(captured.out)
        assert payload["candidates"] == []
        assert payload["rejections"] == {"memory": payload["evaluated"]}

    @pytest.mark.parametrize("extra,message", [
        ({"tflops_mode": "bogus"}, "unknown tflops mode 'bogus'"),
        ({"profile": {**PROFILE, "comm_scaling": {"p2p": 0}}},
         "unknown profile key 'comm_scaling'"),
        ({"optimization": {"comm_scaling": {"p2p": 0}}},
         "comm_scaling 'p2p' value 0 is not a finite number > 0"),
    ], ids=["tflops-mode", "profile-scaling", "optimization-scaling"])
    def test_invalid_latency_input_exits_1_when_nothing_fits(self, tmp_path, capsys,
                                                             extra, message):
        cfg = write_run_config(tmp_path, **extra, **self.NOTHING_FITS)
        code, captured = run(capsys, "tune", "step", "--config", cfg)
        assert code == 1
        assert captured.err.startswith("error:") and message in captured.err

    @pytest.mark.parametrize("collective,message", [
        ({"group_size": 0, "bandwidth_GBps": 100}, "group_size"),
        ({"group_size": 8, "buckets": [{"size_bytes": 0, "bandwidth_GBps": 100}]},
         "bucket size"),
        ({"group_size": 8, "buckets": [{"size_bytes": 5, "bandwidth_GBps": 100},
                                       {"size_bytes": 5, "bandwidth_GBps": 200}]},
         "duplicate bucket size"),
    ], ids=["group-size-0", "bucket-size-0", "duplicate-bucket"])
    def test_invalid_collective_exits_1(self, tmp_path, capsys, collective, message):
        profile = {**PROFILE, "collectives": PROFILE["collectives"]
                   + [{"kind": "all-reduce", **collective}]}
        cfg = write_run_config(tmp_path, profile=profile)
        code, captured = run(capsys, "eval", "--config", cfg)
        assert code == 1
        assert captured.err.startswith("error:") and message in captured.err


class TestConfigInput:
    """Malformed config values end in exit 1 with one line on stderr."""

    def check_one_line_error(self, capsys, cfg, message):
        code, captured = run(capsys, "eval", "--config", cfg)
        assert code == 1
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error:") and message in captured.err

    def test_top_level_array(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps([{"model": MODEL}]))
        self.check_one_line_error(capsys, str(path), "must be a JSON object, got list")

    @pytest.mark.parametrize("extra,message", [
        ({"hardware": {**HARDWARE, "M_GPU": "80"}}, "hardware section invalid"),
        ({"optimization": {"pp_overlap": {"alpha": "x"}}},
         "optimization section invalid"),
        ({"optimization": [1]}, "optimization must be a JSON object, got int"),
        ({"dtypes": []}, "dtypes must be a JSON object"),
        ({"model": {**MODEL, "r": 1536}}, "model section invalid"),
        *[({"dtypes": dtypes}, "dtypes section invalid") for dtypes in (
            {"D_act": "2"}, {"D_para": None}, {"D_grad": True}, {"D_opt": -1},
            {"D_act": float("nan")}, {"D_para": float("inf")})],
        *[({"fault": {**FAULT, key: value}}, "fault section invalid")
          for key, value in (
            ("r_f_per_node_day", float("nan")), ("r_f_per_node_day", float("inf")),
            ("u_b", -1.0), ("u_b", float("inf")), ("u0", float("nan")),
            ("T_save", float("nan")), ("N_nodes", float("inf")),
            ("mix", [float("nan"), 0.5, 0.5]))],
        *[({"hardware": {**HARDWARE, key: value}}, "hardware section invalid")
          for key in ("M_GPU", "P_opt", "B_HBM")
          for value in (float("nan"), float("inf"))],
        ({"profile": {**PROFILE, "compute_scaling": {"*": 2.0}}},
         "unknown profile key 'compute_scaling'"),
        ({"profile": {**PROFILE, "comm_scaling": {"*": 2.0}}},
         "unknown profile key 'comm_scaling'"),
        ({"profile": {**PROFILE, "operators": PROFILE["operators"] + [
            {"module": "qkv", "fwd_TFLOPS": 50, "shape": "b1"}]}},
         "unknown operator key 'shape'"),
        ({"profile": {**PROFILE, "operators": [
            {"module": "*", "fwd_TFLOPS": 100, "bwd_flops_ratio": 2.0}]}},
         "unknown operator key 'bwd_flops_ratio'"),
        ({"optimization": {"roofline_cap": False}},
         "unknown optimization key 'roofline_cap'"),
        ({"profile": {**PROFILE, "collectives": PROFILE["collectives"] + [
            {"kind": "all-reduce", "group_sise": 8, "bandwidth_GBps": 1}]}},
         "unknown collective key 'group_sise'"),
        ({"profile": {**PROFILE, "collectives": PROFILE["collectives"] + [
            {"kind": "all-reduce", "group_size": 2, "buckets": [
                {"size_bytes": 1, "bandwidth_GBps": 1, "bata": 0.5}]}]}},
         "unknown bucket key 'bata'"),
        ({"hardware": {**HARDWARE, "M_GPUS": 80}}, "unknown hardware key 'M_GPUS'"),
        ({"profile": {**PROFILE, "collectives": PROFILE["collectives"] + ["p2p"]}},
         "collective must be a JSON object, got str"),
        ({"profile": {**PROFILE, "collectives": PROFILE["collectives"] + [
            {"kind": "p2p", "buckets": [1]}]}}, "bucket must be a JSON object, got int"),
        *[({"space": {"g_n": 8, "g_bs": 8, key: value}}, "space section invalid")
          for key, value in (("m_bs", [0]), ("d", [0]), ("v", [0]), ("p", [0]),
                             ("t", [2.5]), ("t", [True]), ("t", [-2]),
                             ("g_n", 8.0), ("g_bs", False))],
        *[({"plan": {"t": 1, "c": 1, "p": 2, "e": 1, "d": 2, "m_bs": 1, "g_bs": 8,
                     "v": 1, key: value}}, f"plan section invalid: {key} value")
          for key, value in (("t", 1.5), ("t", True), ("g_bs", 8.0), ("d", "2"),
                             ("m_bs", 0))],
        ({"fault": {**FAULT, "u_bb": 1e6}}, "unknown fault key 'u_bb'"),
        ({"space": {"g_n": 8, "g_bs": 8, "tp": [4]}}, "unknown space key 'tp'"),
        ({"dtypes": {"D_params": 2}}, "unknown dtypes key 'D_params'"),
        ({"optimisation": {}}, "unknown config key 'optimisation'"),
        *[({"fault": {**FAULT, key: value}}, f"fault section invalid: {key} value")
          for key, value in (("I_ckpt", 10.9), ("N_nodes", 16.7), ("S", True))],
        ({"hardware": {**HARDWARE, "N": 8.5}}, "hardware section invalid: N value"),
        ({"profile": {**PROFILE, "collectives": PROFILE["collectives"] + [
            {"kind": "all-reduce", "group_size": 2.5, "bandwidth_GBps": 1}]}},
         "profile section invalid: group_size value"),
        ({"optimization": {"tp_overlap": False}},
         "optimization section invalid: tp_overlap must be a JSON object, got bool"),
        ({"optimization": {"dp_overlap": "off"}},
         "optimization section invalid: dp_overlap must be a JSON object, got str"),
        ({"schema_version": True}, "schema_version value True is not an integer >= 1"),
        ({"schema_version": 1.0}, "schema_version value 1.0 is not an integer >= 1"),
        *[({"plan": {"t": 1, "c": 1, "p": 2, "e": 1, "d": 2, "m_bs": 1, "g_bs": 8,
                     "v": 1} | extra}, f"plan section invalid: unknown plan key {key!r}")
          for key, extra in (("tp", {"tp": 4}), ("tp", {"t": 1, "tp": 1}),
                             ("num_layers", {"num_layers": 4}))],
        ({"model": MODEL | {"num_layers": 4}},
         "model section invalid: unknown model key 'num_layers'"),
        ({"model": MODEL | {"s": None}},
         "model section invalid: seq_len value None is not an integer >= 1"),
        ({"model": MODEL | {"module_overrides": [1]}},
         "model section invalid: module_overrides must be a JSON object, got list"),
        ({"model": MODEL | {"module_overrides": {"qkv": 3}}},
         "model section invalid: module override must be a JSON object, got int"),
        ({"model": MODEL | {"module_overrides": {"qkv": {"bogus": 1}}}},
         "model section invalid: unknown module override key 'bogus'"),
        *[({"optimization": {table: value}},
           f"optimization section invalid: {table} must be a JSON object, got list")
          for table, value in (("compute_scaling", []), ("compute_scaling", [["qkv", 2]]),
                               ("comm_scaling", [["p2p", 2]]))],
        *[({"optimization": {key: {"splits": 4}}},
           f"optimization section invalid: unknown {key} key 'splits'")
          for key in ("cp_overlap", "ep_overlap", "pp_overlap")],
    ], ids=["string-hardware-number", "string-overlap-alpha",
            "non-object-optimization", "non-object-dtypes", "model-key-r",
            "dtype-string", "dtype-null", "dtype-bool", "dtype-negative",
            "dtype-nan", "dtype-inf", "fault-rate-nan", "fault-rate-inf",
            "fault-repair-negative", "fault-repair-inf", "fault-init-nan",
            "fault-save-nan", "fault-nodes-inf", "fault-mix-nan",
            "hardware-M_GPU-nan", "hardware-M_GPU-inf", "hardware-P_opt-nan",
            "hardware-P_opt-inf", "hardware-B_HBM-nan", "hardware-B_HBM-inf",
            "profile-key-compute_scaling", "profile-key-comm_scaling",
            "operator-key-shape", "operator-key-bwd_flops_ratio",
            "optimization-key-roofline_cap", "collective-key-group_sise",
            "bucket-key-bata", "hardware-key-M_GPUS", "collective-not-object",
            "bucket-not-object", "space-m_bs-zero", "space-d-zero", "space-v-zero",
            "space-p-zero", "space-t-float", "space-t-bool", "space-t-negative",
            "space-g_n-float", "space-g_bs-bool", "plan-t-float", "plan-t-bool",
            "plan-g_bs-float", "plan-d-string", "plan-m_bs-zero", "fault-key-u_bb",
            "space-key-tp",
            "dtypes-key-D_params", "config-key-optimisation", "fault-I_ckpt-float",
            "fault-N_nodes-float", "fault-S-bool", "hardware-N-float",
            "collective-group_size-float", "tp-overlap-false", "dp-overlap-string",
            "schema-version-bool", "schema-version-float", "plan-key-tp",
            "plan-key-tp-beside-t", "plan-key-num_layers", "model-key-num_layers", "model-s-null",
            "module-overrides-list", "module-override-int", "module-override-key-bogus",
            "compute-scaling-empty-list", "compute-scaling-pairs", "comm-scaling-pairs",
            "cp-overlap-splits", "ep-overlap-splits", "pp-overlap-splits"])
    def test_malformed_value(self, tmp_path, capsys, extra, message):
        self.check_one_line_error(capsys, write_run_config(tmp_path, **extra),
                                  message)

    @pytest.mark.parametrize("key", ["L", "s", "h", "a", "V", "g_d"])
    def test_missing_model_key_is_named(self, tmp_path, capsys, key):
        model = {k: v for k, v in MODEL.items() if k != key}
        code, captured = run(capsys, "eval", "--config",
                             write_run_config(tmp_path, model=model))
        assert (code, captured.err) == (
            1, f"error: model section invalid: missing field {key!r}\n")


CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")
DROP = object()  # an edit that deletes the key


def shipped_body(name):
    """A shipped run config with its file-referenced sections inlined."""
    with open(os.path.join(CONFIGS, name)) as fh:
        body = json.load(fh)
    for key, value in body.items():
        if isinstance(value, str) and value.endswith(".json"):
            with open(os.path.join(CONFIGS, value)) as fh:
                body[key] = json.load(fh)
    return body


def write_shipped(directory, config, edits):
    """Write a shipped run config, with each (key path, value) edit applied,
    into `directory`; a DROP value deletes the key."""
    body = shipped_body(config)
    for path, value in edits:
        *parents, last = path
        node = body
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    path = directory / config
    path.write_text(json.dumps(body))
    return str(path)


def numeric_paths(node, path=()):
    """Every number in a JSON tree (bools excluded), as a key path."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) \
            else []
    return [p for key, child in items for p in numeric_paths(child, (*path, key))]


def run_quiet(*argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


EVAL, TUNE = "run_eval_llama2.json", "run_tune_llama2.json"
NAN = float("nan")
ETTR = ("ettr", "--t-step", "27.83")


class TestInputBoundary:
    """Every number read from a config or the command line passes one rule, so
    a bad value exits 1 with one error line, never a traceback or a NaN."""

    @pytest.mark.parametrize("config,edits,argv", [
        (EVAL, [(("profile", "operators", 0, "fwd_TFLOPS"), NAN)], ("eval",)),
        (EVAL, [(("optimization", "pp_overlap", "alpha"), NAN)], ("eval",)),
        (EVAL, [(("hardware", "B_H2D"), True)], ("eval",)),
        (EVAL, [(("model", "L"), 80.0)], ("eval",)),
        (EVAL, [(("fault", "r_f_per_node_day"), "0.005")], ETTR),
        (EVAL, [(("fault", "T_save"), True)], ETTR),
        (EVAL, [(("fault", "tokens"), True)], ETTR),
        (EVAL, [(("optimization", "tp_overlap"), {"splits": 2.5})], ("eval",)),
        (EVAL, [(("profile", "operators", 0, "intensity"), NAN)], ("eval",)),
        (EVAL, [(("fault", "mix"), [1.5, -0.6, 0.1]), (("fault", "u_b"), DROP)], ETTR),
        (EVAL, [(("fault", "mix"), [0.5, 0.5]), (("fault", "u_b"), DROP)], ETTR),
        (EVAL, [(("fault", "mix"), [0.25] * 4), (("fault", "u_b"), DROP)], ETTR),
        (EVAL, [], ("ettr", "--t-step", "nan")),
        (EVAL, [], ("interval", "--t-step", "nan")),
        (EVAL, [], ("interval", "--t-step", "0")),
        (TUNE, [], ("sweep", "--parameter", "r_f", "--values", "0.01",
                    "--t-step", "nan")),
        (TUNE, [], ("tune", "step", "--top-k", "-1")),
        (TUNE, [], ("tune", "step", "--top-k", "0")),
        (TUNE, [], ("tune", "step", "--workers", "abc")),
        (TUNE, [], ("tune", "e2e", "--workers", "0")),
        (TUNE, [], ("sweep", "--parameter", "v", "--values", "1", "--workers", "-3")),
        *[(EVAL, [(("model", key), None)], ("eval",)) for key in ("s", "h", "g_d", "V")],
        (TUNE, [(("model", "s"), None)], ("tune", "step")),
        (EVAL, [(("fault", "r_f_per_node_day"), None)], ETTR),
        (EVAL, [(("fault", "r_f_per_node_day"), None)], ("interval",)),
        (EVAL, [(("fault", "u0"), None)], ETTR),
        *[(EVAL, [(("fault", key), None), (("fault", "u_b"), DROP)], ETTR)
          for key in ("u_bc", "u_bp", "u_bj")],
    ], ids=["profile-fwd-nan", "overlap-alpha-nan", "hardware-B_H2D-true",
            "model-L-float", "fault-rate-string", "fault-T_save-true",
            "fault-tokens-true", "overlap-splits-float", "profile-intensity-nan",
            "fault-mix-negative", "fault-mix-two", "fault-mix-four",
            "ettr-t-step-nan", "interval-t-step-nan", "interval-t-step-0",
            "sweep-t-step-nan", "tune-top-k-negative", "tune-top-k-0",
            "tune-workers-string", "tune-e2e-workers-0", "sweep-workers-negative",
            "model-s-null", "model-h-null", "model-g_d-null", "model-V-null",
            "tune-model-s-null", "fault-rate-null", "interval-fault-rate-null",
            "fault-u0-null", "fault-u_bc-null", "fault-u_bp-null", "fault-u_bj-null"])
    def test_bad_input_exits_1_with_one_line(self, tmp_path, config, edits, argv):
        code, out, err = run_quiet(*argv, "--config",
                                   write_shipped(tmp_path, config, edits))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("edits,message", [
        ([(("space", "t"), [8, 8])],
         "space section invalid: tp_candidates repeats a value: [8, 8]"),
        ([(("space", "v"), [1, 2, 5, 2])],
         "space section invalid: chunk_candidates repeats a value: [1, 2, 5, 2]"),
        ([(("optimization",), [{"pp_overlap": {}}, {}, {"pp_overlap": {}}])],
         "optimization section invalid: entry 2 repeats entry 0"),
        # equal once parsed: the default strategy spelt out
        ([(("optimization",), [{}, {"optimizer_strategy": "none"}])],
         "optimization section invalid: entry 1 repeats entry 0"),
    ], ids=["t-repeated", "v-repeated", "optimization-repeated",
            "optimization-repeated-default"])
    def test_repeated_search_entry_exits_1(self, tmp_path, edits, message):
        config = write_shipped(tmp_path, TUNE, edits)
        for mode in ("step", "e2e"):
            assert run_quiet("tune", mode, "--config", config) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("config,argv", [
        (EVAL, ("eval",)), (EVAL, ETTR), (EVAL, ("interval", "--t-step", "27.83")),
        (TUNE, ("tune", "step")), (TUNE, ("tune", "e2e")),
        (TUNE, ("sweep", "--parameter", "v", "--values", "1")),
    ], ids=["eval", "ettr", "interval", "tune-step", "tune-e2e", "sweep"])
    def test_unknown_tflops_mode_is_one_error_for_every_command(self, tmp_path, config, argv):
        path = write_shipped(tmp_path, config, [(("tflops_mode",), "bogus")])
        assert run_quiet(*argv, "--config", path) == (
            1, "", "error: unknown tflops mode 'bogus'\n")

    @pytest.mark.parametrize("config,section,key,argv,named", [
        *[(EVAL, "model", key, ("eval",), name) for key, name in (
            ("s", "seq_len"), ("h", "hidden_size"), ("V", "vocab_size"),
            ("g_d", "dense_ffn_size"), ("L", "num_layers"))],
        (EVAL, "plan", "g_bs", ("eval",), "g_bs"),
        (TUNE, "space", "g_bs", ("tune", "step"), "global_batch"),
        *[(EVAL, "fault", key, ETTR, key) for key in ("S", "N_nodes", "I_ckpt")],
    ], ids=["model-s", "model-h", "model-V", "model-g_d", "model-L", "plan-g_bs",
            "space-g_bs", "fault-S", "fault-N_nodes", "fault-I_ckpt"])
    def test_count_beyond_float_range_is_one_error(self, tmp_path, config, section, key,
                                                   argv, named):
        """Every int up to 2**53 converts to a float exactly. A larger count
        is refused, under its name, where its section is parsed rather than
        by an OverflowError in a formula; 2**53 itself is a count."""
        huge = 10**400
        path = write_shipped(tmp_path, config, [((section, key), huge)])
        assert run_quiet(*argv, "--config", path) == (
            1, "", f"error: {section} section invalid: {named} value {huge} "
                   f"is not an integer <= {2**53}\n")
        path = write_shipped(tmp_path, config, [((section, key), 2**53)])
        code, _, err = run_quiet(*argv, "--config", path)
        assert code in (0, 1, 2) and err.count("\n") == int(code > 0)
        assert "is not an integer" not in err

    @pytest.mark.parametrize("edit,message", [
        (("t", 0), "t value 0 is not an integer >= 1"),
        (("p", 3), "num_layers=80 not divisible by pp*chunks=15"),
        (("g_bs", 255), "global_batch=255 not divisible by micro_batch*dp=4"),
    ], ids=["field-0", "layers-not-divisible", "batch-not-divisible"])
    def test_invalid_plan_is_one_error(self, tmp_path, edit, message):
        """The plan section is checked where it is parsed: its counts, then
        the plan constructor's two divisibility rules."""
        key, value = edit
        path = write_shipped(tmp_path, EVAL, [(("plan", key), value)])
        assert run_quiet("eval", "--config", path) == (
            1, "", f"error: plan section invalid: {message}\n")

    def test_interval_with_no_feasible_neighbour_is_infeasible(self, tmp_path):
        """The continuous optimum exists, but at 1000 s a step neither
        interval next to it converges."""
        config = write_shipped(tmp_path, EVAL, [
            (("fault", "r_f_per_node_day"), 5), (("fault", "u_b"), 1000),
            (("fault", "T_save"), 1), (("fault", "N_nodes"), 16)])
        assert run_quiet("interval", "--config", config, "--t-step", "1000") == (
            2, "", "infeasible: no feasible interval near the continuous optimum\n")

    @pytest.mark.parametrize("command", ["ettr", "interval"])
    def test_overflowing_result_is_infeasible(self, tmp_path, command):
        config = write_shipped(tmp_path, EVAL, [(("fault", "T_save"), 1e308)])
        code, out, err = run_quiet(command, "--config", config)
        assert (code, out) == (2, "")
        assert err.startswith("infeasible: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval", "ettr", "interval"])
    def test_overflowing_step_time_is_named(self, tmp_path, command):
        """Finite inputs whose step time overflows stop where it is computed,
        not later in a fault formula under another cause."""
        config = write_shipped(tmp_path, EVAL,
                               [(("optimization", "compute_scaling"), {"*": 1e-308})])
        assert run_quiet(command, "--config", config) == (
            2, "", "infeasible: the result is not finite: an input is too large for the model\n")

    @pytest.mark.parametrize("mode", ["step", "e2e"])
    def test_empty_tune_names_its_largest_rejection(self, tmp_path, mode):
        """A tune that finds no plan still prints its empty report and exits 2,
        and says why on stderr: 1.5 GB per GPU holds none of the sample's
        plans."""
        config = write_shipped(tmp_path, TUNE, [(("hardware", "M_GPU"), 1.5)])
        code, out, err = run_quiet("tune", mode, "--config", config, "--output", "json")
        report = json.loads(out)
        assert (code, report["candidates"], report["evaluated"]) == (2, [], 132)
        assert report["rejections"] == {
            "resource: parallel product exceeds total gpus": 1, "memory": 132}
        assert err == ("infeasible: no feasible plan among 132 candidates; "
                       "most rejected for memory (132)\n")

    def test_tune_space_flag_needs_no_plan_or_space(self, tmp_path):
        tune = shipped_body(TUNE)
        space, body = tmp_path / "space.json", tmp_path / "run.json"
        space.write_text(json.dumps(tune.pop("space")))
        body.write_text(json.dumps(tune))
        code, out, err = run_quiet("tune", "step", "--config", str(body),
                                   "--space", str(space), "--output", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["candidates"]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(path=st.sampled_from(numeric_paths(shipped_body(EVAL))),
           value=st.sampled_from([NAN, float("inf"), -float("inf"), -1, 0, 0.5, 2.5,
                                  1e308, True, "1", []]))
    def test_any_numeric_field_ends_cleanly(self, tmp_path_factory, path, value):
        config = write_shipped(tmp_path_factory.mktemp("fuzz"), EVAL, [(path, value)])
        for command in ("eval", "ettr"):
            code, out, err = run_quiet(command, "--config", config)
            assert code in (0, 1, 2)
            if code:
                assert err.count("\n") == 1 and "Traceback" not in err
            else:
                assert "NaN" not in out and "Infinity" not in out


class TestFaultCommands:
    def test_ettr_report(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path)
        code, captured = run(capsys, "ettr", "--config", cfg, "--t-step", "28")
        assert code == 0
        payload = json.loads(captured.out)
        assert 0.9 < payload["ETTR"] <= 1.0
        assert payload["ETTR_closed_form"] == pytest.approx(payload["ETTR"],
                                                            abs=1e-3)

    def test_interval_reference_point(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path)
        code, captured = run(capsys, "interval", "--config", cfg,
                             "--t-step", "28")
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["I_ckpt"] == 37
        assert payload["ETTR"] == pytest.approx(0.9959, abs=1e-4)

    @pytest.mark.parametrize("fmt,lines", [
        ("csv", ["I_ckpt,ETTR,T_step,T_e2e,T_save,S", "37,"]),
        ("markdown", ["| I_ckpt | ETTR | T_step | T_e2e | T_save | S |",
                      "| --- | --- | --- | --- | --- | --- |", "| 37 | "]),
    ])
    def test_interval_renders_requested_format(self, tmp_path, fmt, lines):
        """The flat interval payload, one header and one row, in the asked
        format rather than JSON."""
        cfg = write_run_config(tmp_path)
        code, out, err = run_quiet("interval", "--config", cfg, "--t-step", "28",
                                   "--output", fmt)
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert len(rows) == len(lines)
        assert rows[:-1] == lines[:-1] and rows[-1].startswith(lines[-1])

    def test_infeasible_exit_code(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path, fault={
            "N_nodes": 1000, "r_f_per_node_day": 50.0, "u_b": 1e6,
            "T_save": 1.0, "I_ckpt": 10, "S": 100,
        })
        code, captured = run(capsys, "interval", "--config", cfg,
                             "--t-step", "10")
        assert code == 2
        assert "infeasible" in captured.err

    def test_ettr_without_interval_is_config_error(self, tmp_path, capsys):
        fault = {k: v for k, v in FAULT.items() if k != "I_ckpt"}
        cfg = write_run_config(tmp_path, fault=fault)
        code, captured = run(capsys, "ettr", "--config", cfg, "--t-step", "28")
        assert code == 1
        assert "I_ckpt" in captured.err

    def test_sweep_fault_parameter(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path, space={
            "g_n": 4, "g_bs": 4, "t": [1], "c": [1], "p": [1], "e": [1],
            "d": [1], "m_bs": [1], "v": [1],
        })
        code, captured = run(capsys, "sweep", "--config", cfg,
                             "--parameter", "r_f", "--values",
                             "0.0025,0.005,0.01", "--t-step", "28",
                             "--output", "csv")
        assert code == 0
        lines = captured.out.strip().split("\r\n")
        assert lines[0].split(",")[0] == "value"
        assert len(lines) == 4

    def test_sweep_and_interval_agree_on_run_length(self, tmp_path):
        """With a plan and a space of different batches, a token-count run
        length is taken from the plan's batch by every fault command."""
        fault = {k: v for k, v in FAULT.items() if k != "S"} | {"tokens": 1e7}
        cfg = write_run_config(tmp_path, fault=fault, space={"g_n": 4, "g_bs": 16})
        code, out, _ = run_quiet("interval", "--config", cfg)
        assert code == 0
        interval = json.loads(out)
        code, out, _ = run_quiet("sweep", "--config", cfg, "--parameter", "r_f",
                                 "--values", str(FAULT["r_f_per_node_day"]))
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row[1:] == [interval["ETTR"], interval["T_e2e"], interval["I_ckpt"]]

    def test_plan_sweep_needs_no_run_length_or_step_time(self, tmp_path, capsys,
                                                         monkeypatch):
        """A fault section without S or tokens, and a plan, play no part in
        a sweep over a plan dimension; only a fault-parameter sweep needs
        the run length."""
        monkeypatch.setattr("traincost.cli.evaluate_plan", None)  # calling it fails
        fault = {k: v for k, v in FAULT.items() if k != "S"}
        cfg = write_run_config(tmp_path, fault=fault, space={"g_n": 4, "g_bs": 4})
        code, captured = run(capsys, "sweep", "--config", cfg, "--parameter", "v",
                             "--values", "1")
        assert (code, captured.err) == (0, "")
        assert len(json.loads(captured.out)["rows"]) == 1
        code, captured = run(capsys, "sweep", "--config", cfg, "--parameter", "r_f",
                             "--values", "0.01", "--t-step", "28")
        assert (code, captured.err) == (1, "error: fault config needs either S or tokens\n")

    @pytest.mark.parametrize("parameter,value", [("N_nodes", "16.7"), ("I_ckpt", "10.9")])
    def test_sweep_fault_count_rejects_non_integer(self, tmp_path, capsys,
                                                   parameter, value):
        cfg = write_run_config(tmp_path, space={"g_n": 4, "g_bs": 4})
        code, captured = run(capsys, "sweep", "--config", cfg, "--parameter", parameter,
                             "--values", value, "--t-step", "28")
        assert code == 1
        assert captured.err == f"error: {parameter} value {value} is not an integer >= 1\n"

    @pytest.mark.parametrize("parameter", ["r_f", "u_b", "T_save"])
    @pytest.mark.parametrize("value,shown", [("abc", "'abc'"), ("nan", "nan"),
                                             ("inf", "inf"), ("-1", "-1")],
                             ids=["text", "nan", "inf", "negative"])
    def test_sweep_fault_value_rejects_non_finite_or_negative(
            self, tmp_path, capsys, parameter, value, shown):
        cfg = write_run_config(tmp_path, space={"g_n": 4, "g_bs": 4})
        code, captured = run(capsys, "sweep", "--config", cfg, "--parameter", parameter,
                             "--values", value, "--t-step", "28")
        assert code == 1
        assert captured.err == (f"error: {parameter} value {shown} "
                                "is not a finite number >= 0\n")


class TestVerify:
    def test_suites_pass(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code, _ = run(capsys, "verify", "--trials", "2000", "--seed", "0",
                      "--out", str(out))
        payload = json.loads(out.read_text())
        assert code == 0
        assert payload["pass"] is True
        names = {s["name"] for s in payload["suites"]}
        assert {"pipeline-vs-des", "activation-ledger",
                "interval-closed-form-vs-grid", "fault-monte-carlo",
                "overlap-bounds"} <= names


    @pytest.mark.parametrize("argv,message", [
        (("verify", "--seed", "-1"), "--seed value -1 is not an integer >= 0"),
        (("verify", "--seed", "1.5"), "--seed value 1.5 is not an integer >= 0"),
        (("verify", "--trials", "abc"), "--trials value 'abc' is not an integer >= 1"),
        (("verify", "--trials", "0"), "--trials value 0 is not an integer >= 1"),
        # the ignored --workers flag parses like --top-k, not with argparse's usage block
        (("tune", "step", "--config", os.path.join(CONFIGS, TUNE), "--workers", "abc"),
         "--workers value 'abc' is not an integer >= 1"),
    ], ids=["seed-negative", "seed-float", "trials-string", "trials-0", "tune-workers-string"])
    def test_bad_flag_exits_1_with_one_line(self, argv, message):
        assert run_quiet(*argv) == (1, "", f"error: {message}\n")


class TestSampleConfigs:
    def test_shipped_eval_config_runs(self, configs_dir, capsys):
        cfg = os.path.join(configs_dir, "run_eval_llama2.json")
        code, captured = run(capsys, "eval", "--config", cfg)
        assert code == 0
        assert json.loads(captured.out)["cost"]["T_step"] > 0

    def test_shipped_tune_config_runs(self, configs_dir, capsys):
        cfg = os.path.join(configs_dir, "run_tune_llama2.json")
        code, captured = run(capsys, "tune", "step", "--config", cfg,
                             "--top-k", "4", "--workers", "1",
                             "--output", "markdown")
        assert code == 0
        assert captured.out.count("\n") >= 3

    def test_dp_overlap_sweep_rejects_unknown_value(self, configs_dir, capsys):
        cfg = os.path.join(configs_dir, "run_tune_llama2.json")
        code, captured = run(capsys, "sweep", "--config", cfg, "--parameter",
                             "dp_overlap", "--values", "yes,off,on")
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: dp_overlap value 'yes' is not one of on/off, "
                                "true/false, 1/0\n")

    def test_optimizer_strategy_sweep_rejects_unknown_value(self, configs_dir, capsys):
        # the pinned combos are built by _replace, which runs the record's checks
        cfg = os.path.join(configs_dir, "run_tune_llama2.json")
        code, captured = run(capsys, "sweep", "--config", cfg, "--parameter",
                             "optimizer_strategy", "--values", "cpu,bogus")
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: unknown optimizer strategy 'bogus'\n"
