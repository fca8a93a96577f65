"""Golden outputs of the shipped sample configs, compared to a relative 1e-12.

tests/golden/tune_llama2.json projects the full `tune step` result of
configs/run_tune_llama2.json (every feasible candidate, top_k=None) onto
plan, optimization, T_step and M_peak, plus `evaluated` and `rejections`.
tests/golden/eval_llama2.json is the `eval` report of
configs/run_eval_llama2.json, written by
`traincost eval --config configs/run_eval_llama2.json --out ...`.

Two goldens cover the default search spaces at scale, read from the bench
configs: tests/golden/tune_step_llama2_128.json (`tune step` on
bench/configs/tune_dense.json, llama2-70b on hardware_a, 128 GPUs, global
batch 256) and tests/golden/tune_e2e_deepseek_2048.json (`tune e2e` on
bench/configs/tune_moe_e2e.json, deepseek-v3 on hardware_b with
fault_example, 2048 GPUs, global batch 4096). Each holds `evaluated`,
`rejections` and the top 20 candidates, projected as above plus I_ckpt,
ETTR and T_e2e for the e2e case. Regenerate one by writing
`scaled_projection(load_config(path), mode)` of its SCALED_CASES entry to
its file.

Order, counts, keys and strings must match exactly; floats to a relative
1e-12, so a refactor that reorders floating-point sums still passes while a
change of model or ranking does not. The bytes of every command-line output,
these tunes' top-k and full lists included, are pinned once, in
tests/golden/capture.json; `python tests/capture.py --update` is their one
update path. The *_is_byte_identical tests below render the library's own
lists as `--output json` does and compare them to those same pins."""

import json
import math
import os

import pytest

from capture import digest_of, load_manifest
from traincost.cli import main
from traincost.config import load_config
from traincost.report import render_report
from traincost.tuner import tune_e2e, tune_step

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


SCALED_TOP_K = 20


def tune(cfg, mode, top_k):
    """What `tune <mode>` computes for `cfg` at `top_k`."""
    if mode == "step":
        return tune_step(cfg.space, top_k=top_k)
    fault = cfg.fault
    steps = fault.resolve_steps(cfg.space.global_batch, cfg.arch.seq_len)
    return tune_e2e(cfg.space, fault.model, fault.save_s, steps, top_k=top_k)


def scaled_projection(cfg, mode):
    result = tune(cfg, mode, SCALED_TOP_K).to_json_dict()
    extra = ("I_ckpt", "ETTR", "T_e2e") if mode == "e2e" else ()
    return {
        "evaluated": result["evaluated"],
        "rejections": result["rejections"],
        "candidates": [{"plan": c["plan"], "optimization": c["optimization"],
                        "T_step": c["cost"]["T_step"],
                        "M_peak": c["memory"]["M_peak"],
                        **{key: c[key] for key in extra}}
                       for c in result["candidates"]],
    }


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCALED_CASES = {
    "tune_step_llama2_128.json": ("bench/configs/tune_dense.json", "step"),
    "tune_e2e_deepseek_2048.json": ("bench/configs/tune_moe_e2e.json", "e2e"),
}


@pytest.mark.parametrize("golden", sorted(SCALED_CASES))
def test_default_space_at_scale_matches_golden(golden):
    path, mode = SCALED_CASES[golden]
    cfg = load_config(os.path.join(ROOT, path))
    assert_matches(scaled_projection(cfg, mode), load_golden(golden))


# The first-seen order of the rejection reasons, which the `rejections` of
# to_json_dict, and so every command-line output, sorts away.
REJECTION_ORDER = {
    "bench/configs/tune_dense.json": [
        "layers not divisible by pp*chunks", "global batch not divisible by micro_batch*dp",
        "too few micro batches for the pipeline depth",
        "resource: parallel product exceeds total gpus", "memory"],
    "configs/run_tune_llama2.json": ["resource: parallel product exceeds total gpus", "memory"],
}


@pytest.mark.parametrize("path", sorted(REJECTION_ORDER))
def test_top_0_keeps_the_counts_and_the_rejection_order(path):
    space = load_config(os.path.join(ROOT, path)).space
    none, zero = tune_step(space, top_k=None), tune_step(space, top_k=0)
    assert zero.candidates == ()
    assert zero.evaluated == none.evaluated and zero.rejections == none.rejections
    assert list(zero.rejections) == list(none.rejections) == REJECTION_ORDER[path]


# The configs behind the golden names; each config's file name is its name
# in the capture's cases.
CONFIGS = {"run_tune_llama2.json": "configs/run_tune_llama2.json",
           **{golden: path for golden, (path, _) in SCALED_CASES.items()}}
PINS = load_manifest()


def assert_pinned(result, mode, name, case):
    """`result`, rendered as `tune <mode> --output json` renders it, has the
    bytes that the manifest pins for capture case tune-<mode>/<config>/<case>."""
    config = os.path.splitext(os.path.basename(CONFIGS[name]))[0]
    assert digest_of(0, render_report(result, "json"), "") == \
        PINS[f"tune-{mode}/{config}/{case}"]


def top_k_case(top_k):
    """The capture case of `--top-k top_k`; the default, 4, is the plain json case."""
    return "json" if top_k == 4 else f"top-{top_k}"


# Every feasible candidate, `evaluated` and `rejections`, byte for byte: the
# 1e-12 goldens above let a reordered floating-point sum pass, these pin a
# speed-up that must not move a single bit. The sample's 102 candidates all
# fit in its top 200.
FULL_LIST_CASES = {"run_tune_llama2.json": "top-200",
                   "tune_step_llama2_128.json": "top-all",
                   "tune_e2e_deepseek_2048.json": "top-all"}


@pytest.mark.parametrize("name", sorted(FULL_LIST_CASES))
def test_full_feasible_list_is_byte_identical(name):
    space = load_config(os.path.join(ROOT, CONFIGS[name])).space
    assert_pinned(tune_step(space, top_k=None), "step", name, FULL_LIST_CASES[name])


# The same for tune_e2e at top_k=10**9, which adds each candidate's I_ckpt,
# ETTR and T_e2e. deepseek-v3 is the only shipped model with experts, so only
# its lists hold plans with ep > 1.
@pytest.mark.parametrize("name", ["tune_e2e_deepseek_2048.json"])
def test_full_e2e_list_is_byte_identical(name):
    cfg = load_config(os.path.join(ROOT, CONFIGS[name]))
    assert_pinned(tune(cfg, "e2e", 10**9), "e2e", name, "top-all")


# The same at small k, where the e2e ranking stops pricing candidates once no
# later one can reach the top k; top_k=10**9 above never stops early.
@pytest.mark.parametrize("name,top_k", [
    (name, top_k) for name in ("run_tune_llama2.json", "tune_e2e_deepseek_2048.json")
    for top_k in (1, 4, 10)])
def test_top_k_e2e_list_is_byte_identical(name, top_k):
    cfg = load_config(os.path.join(ROOT, CONFIGS[name]))
    assert_pinned(tune(cfg, "e2e", top_k), "e2e", name, top_k_case(top_k))


# The same for tune_step, and the first-seen order of its rejection reasons.
@pytest.mark.parametrize("name,top_k", [
    (name, top_k) for name in ("run_tune_llama2.json", "tune_step_llama2_128.json")
    for top_k in (1, 4, 10)])
def test_top_k_step_list_is_byte_identical(name, top_k):
    result = tune_step(load_config(os.path.join(ROOT, CONFIGS[name])).space, top_k=top_k)
    assert_pinned(result, "step", name, top_k_case(top_k))
    assert list(result.rejections) == REJECTION_ORDER[CONFIGS[name]]


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
