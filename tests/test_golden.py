"""Golden outputs of the shipped sample configs.

tests/golden/tune_llama2.json projects the full `tune step` result of
configs/run_tune_llama2.json (every feasible candidate, top_k=None) onto
plan, optimization, T_step and M_peak, plus `evaluated` and `rejections`.
tests/golden/eval_llama2.json is the `eval` report of
configs/run_eval_llama2.json, written by
`traincost eval --config configs/run_eval_llama2.json --out ...`.

Order, counts, keys and strings must match exactly; floats to a relative
1e-12, so a refactor that reorders floating-point sums still passes while a
change of model or ranking does not."""

import json
import math
import os

import pytest

from traincost.cli import main
from traincost.config import load_config
from traincost.tuner import tune_step

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
REL = 1e-12


def assert_matches(actual, expected, path="$"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), path
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), path
        assert math.isclose(actual, expected, rel_tol=REL, abs_tol=0.0), \
            f"{path}: {actual!r} != {expected!r}"
    else:
        assert type(actual) is type(expected) and actual == expected, path


def load_golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


def test_tune_step_matches_golden(configs_dir):
    cfg = load_config(os.path.join(configs_dir, "run_tune_llama2.json"))
    result = tune_step(cfg.space, top_k=None).to_json_dict()
    projected = {
        "evaluated": result["evaluated"],
        "rejections": result["rejections"],
        "candidates": [{"plan": c["plan"], "optimization": c["optimization"],
                        "T_step": c["cost"]["T_step"],
                        "M_peak": c["memory"]["M_peak"]}
                       for c in result["candidates"]],
    }
    assert_matches(projected, load_golden("tune_llama2.json"))


def test_eval_report_matches_golden(configs_dir, capsys):
    code = main(["eval", "--config",
                 os.path.join(configs_dir, "run_eval_llama2.json")])
    assert code == 0
    assert_matches(json.loads(capsys.readouterr().out),
                   load_golden("eval_llama2.json"))


def test_comparison_rejects_a_changed_float():
    expected = {"T_step": 1.0, "plan": [1, 2]}
    assert_matches({"T_step": 1.0 + 1e-13, "plan": [1, 2]}, expected)
    with pytest.raises(AssertionError):
        assert_matches({"T_step": 1.0 + 1e-11, "plan": [1, 2]}, expected)
    with pytest.raises(AssertionError):
        assert_matches({"T_step": 1.0, "plan": [2, 1]}, expected)
