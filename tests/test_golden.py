"""Golden outputs of the shipped sample configs.

tests/golden/tune_llama2.json projects the full `tune step` result of
configs/run_tune_llama2.json (every feasible candidate, top_k=None) onto
plan, optimization, T_step and M_peak, plus `evaluated` and `rejections`.
tests/golden/eval_llama2.json is the `eval` report of
configs/run_eval_llama2.json, written by
`traincost eval --config configs/run_eval_llama2.json --out ...`.

Two goldens cover the default search spaces at scale, built from the
configs/ files: tests/golden/tune_step_llama2_128.json (`tune step`,
llama2-70b on hardware_a, 128 GPUs, global batch 256) and
tests/golden/tune_e2e_deepseek_2048.json (`tune e2e`, deepseek-v3 on
hardware_b with fault_example, 2048 GPUs, global batch 4096). Each holds
`evaluated`, `rejections` and the top 20 candidates, projected as above
plus I_ckpt, ETTR and T_e2e for the e2e case. Regenerate one by writing
`scaled_projection(...)` of the same arguments to its file.

Order, counts, keys and strings must match exactly; floats to a relative
1e-12, so a refactor that reorders floating-point sums still passes while a
change of model or ranking does not."""

import hashlib
import json
import math
import os

import pytest

from traincost.cli import main
from traincost.config import load_config
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


def scaled_config(configs_dir, tmp_path, model, hardware, g_n, g_bs, fault=None):
    """A run config over configs/ files with the default search space."""
    body = {"schema_version": 1, "space": {"g_n": g_n, "g_bs": g_bs}}
    for key, name in (("model", model), ("hardware", hardware),
                      ("profile", "profile_example.json"), ("fault", fault)):
        if name is not None:
            body[key] = os.path.abspath(os.path.join(configs_dir, name))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(body))
    return load_config(str(path))


def scaled_projection(cfg, mode):
    if mode == "step":
        result = tune_step(cfg.space, top_k=SCALED_TOP_K)
    else:
        fault = cfg.fault
        steps = fault.resolve_steps(cfg.space.global_batch, cfg.arch.seq_len)
        result = tune_e2e(cfg.space, fault.model, fault.save_s, steps,
                          top_k=SCALED_TOP_K)
    result = result.to_json_dict()
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


SCALED_CASES = {
    "tune_step_llama2_128.json": (
        ("llama2_70b.json", "hardware_a.json", 128, 256), "step"),
    "tune_e2e_deepseek_2048.json": (
        ("deepseek_v3.json", "hardware_b.json", 2048, 4096, "fault_example.json"),
        "e2e"),
}


@pytest.mark.parametrize("golden", sorted(SCALED_CASES))
def test_default_space_at_scale_matches_golden(configs_dir, tmp_path, golden):
    args, mode = SCALED_CASES[golden]
    cfg = scaled_config(configs_dir, tmp_path, *args)
    assert_matches(scaled_projection(cfg, mode), load_golden(golden))


# sha256 of json.dumps(tune_step(space, top_k=None).to_json_dict(),
# sort_keys=True): every feasible candidate, `evaluated` and `rejections`,
# byte for byte. The goldens above compare floats to 1e-12; these pin a
# speed-up that must not move a single bit. A change of model or ranking
# updates them together with the goldens.
FULL_LIST_SHA256 = {
    "run_tune_llama2.json":
        "674f12ba1fd7ad85241e42668da9847e7d5210f7fd5ca2038c75e21f28f50c31",
    "tune_step_llama2_128.json":
        "068b41e6704c2eb0bdf87427dc9eb8c810d8602cac68fdfabf92ef4ee927e4fd",
    "tune_e2e_deepseek_2048.json":
        "9735986677be5d4fb2033365abba293b562b266dcf8f00ba2d995497c7553a4e",
}
# The same for tune_e2e(space, ..., top_k=10**9), which adds each candidate's
# I_ckpt, ETTR and T_e2e. deepseek-v3 is the only shipped model with experts,
# so only its lists hold plans with ep > 1.
FULL_E2E_SHA256 = {
    "tune_e2e_deepseek_2048.json":
        "6bfa7f679dbf3efd81e3dfc04b1c1afdacd03166e67fab995ab84b0d602a1a4c",
}


@pytest.mark.parametrize("name", sorted(FULL_LIST_SHA256))
def test_full_feasible_list_is_byte_identical(configs_dir, tmp_path, name):
    if name in SCALED_CASES:
        cfg = scaled_config(configs_dir, tmp_path, *SCALED_CASES[name][0])
    else:
        cfg = load_config(os.path.join(configs_dir, name))
    payload = json.dumps(tune_step(cfg.space, top_k=None).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == FULL_LIST_SHA256[name]


@pytest.mark.parametrize("name", sorted(FULL_E2E_SHA256))
def test_full_e2e_list_is_byte_identical(configs_dir, tmp_path, name):
    cfg = scaled_config(configs_dir, tmp_path, *SCALED_CASES[name][0])
    fault = cfg.fault
    steps = fault.resolve_steps(cfg.space.global_batch, cfg.arch.seq_len)
    result = tune_e2e(cfg.space, fault.model, fault.save_s, steps, top_k=10**9)
    payload = json.dumps(result.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == FULL_E2E_SHA256[name]


# The same for tune_e2e(space, ..., top_k=k) at small k, where the ranking
# stops pricing candidates once no later one can reach the top k; top_k=10**9
# above never stops early.
TOP_K_E2E_SHA256 = {
    ("tune_e2e_deepseek_2048.json", 1):
        "27098cb5be6d99e652670bea7fad175454f744f9ff68a531125468b00d26d3a3",
    ("tune_e2e_deepseek_2048.json", 4):
        "b5e11b292fe8870dd25fd91ba14c5bb18dc755c0f3e0930f9b16c564bb845554",
    ("tune_e2e_deepseek_2048.json", 10):
        "12ece59f7f1043c4815a93cb06a9c29ed2825e97290fbc7469b602302fb5c6de",
    ("run_tune_llama2.json", 1):
        "c3b6ec85b5b8449758382f751445f342eb41f504a6913ace7c52ecd35c4e7a41",
    ("run_tune_llama2.json", 4):
        "ffaf233a6bf0c6cf4a33e66b3003dbd483282a5f2ca6844979a2077b42660896",
    ("run_tune_llama2.json", 10):
        "dd2b4cde896b2f8b58a22a8113144af2d3cf81167f6fc363ef7f4f7a0409d45e",
}


@pytest.mark.parametrize("name,top_k", sorted(TOP_K_E2E_SHA256))
def test_top_k_e2e_list_is_byte_identical(configs_dir, tmp_path, name, top_k):
    if name in SCALED_CASES:
        cfg = scaled_config(configs_dir, tmp_path, *SCALED_CASES[name][0])
    else:
        cfg = load_config(os.path.join(configs_dir, name))
    fault = cfg.fault
    steps = fault.resolve_steps(cfg.space.global_batch, cfg.arch.seq_len)
    result = tune_e2e(cfg.space, fault.model, fault.save_s, steps, top_k=top_k)
    payload = json.dumps(result.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == TOP_K_E2E_SHA256[name, top_k]


# The same for tune_step(space, top_k=k), and the first-seen order of the rejection reasons, which the
# `rejections` of to_json_dict sorts away. tune_step_llama2_128.json is the
# default space that bench/configs/tune_dense.json tunes.
TOP_K_STEP_SHA256 = {
    ("tune_step_llama2_128.json", 0):
        "0509594e2644299857598ec150f0bbe69286df16e2b184836d1d378fe539f039",
    ("tune_step_llama2_128.json", 1):
        "7d863841ab5925c8057aa5beb40aaace57a94b2bd8b7fc315912f19c85377a3b",
    ("tune_step_llama2_128.json", 4):
        "c6e66bfe4fe3951b3162985aee10e174a4b691fe49f860e7fbbfdb6c2417cb27",
    ("tune_step_llama2_128.json", 10):
        "cdbcd6a6ed5806f3f7a641d4f8904a9fb5a17a0c30804886ddb3cd576229b4af",
    ("run_tune_llama2.json", 0):
        "a795b84f6e69185415e80598429d5a294ddff5c0b2c95321a1a1fa38db6b1b86",
    ("run_tune_llama2.json", 1):
        "993b5192aaf2ee61956a99514df4630161eb5d8fc1031e578b02d63e2f31c45f",
    ("run_tune_llama2.json", 4):
        "bdd371bf2997ec544c7d79b4bf1ed9ca019998e97563a899c69433f9ebddfcb0",
    ("run_tune_llama2.json", 10):
        "dfa580e1399f170d20512d7da5684a7b891e4f298fc0d8fe2fa5dc35289e471e",
}
REJECTION_ORDER = {
    "tune_step_llama2_128.json": [
        "layers not divisible by pp*chunks", "global batch not divisible by micro_batch*dp",
        "too few micro batches for the pipeline depth",
        "resource: parallel product exceeds total gpus", "memory"],
    "run_tune_llama2.json": ["resource: parallel product exceeds total gpus", "memory"],
}


@pytest.mark.parametrize("name,top_k", sorted(TOP_K_STEP_SHA256))
def test_top_k_step_list_is_byte_identical(configs_dir, tmp_path, name, top_k):
    if name in SCALED_CASES:
        cfg = scaled_config(configs_dir, tmp_path, *SCALED_CASES[name][0])
    else:
        cfg = load_config(os.path.join(configs_dir, name))
    result = tune_step(cfg.space, top_k=top_k)
    payload = json.dumps(result.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == TOP_K_STEP_SHA256[name, top_k]
    assert list(result.rejections) == REJECTION_ORDER[name]


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
