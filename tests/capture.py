"""Byte-identity capture of the command line.

Each case of CASES runs `traincost.cli.main` in this process, from the
repository root, on the shipped configs/ and bench/configs/ files and on
tests/golden/space_every_rule.json, a `--space` file on which every pruning
rule rejects (the parallel-product rule at two levels), and keeps its exit
code, stdout and stderr. tests/golden/capture.json maps each case
name to the sha256 of those three; tests/test_capture.py compares against it.
The manifest is the one home of the repository's byte pins, the tunes'
top-k and full candidate lists included, and `--update` is their one update
path; behaviour, and floats to a relative 1e-12, stay in the pytest tables.

    PYTHONPATH=src python tests/capture.py           # exit 1 naming each moved case
    PYTHONPATH=src python tests/capture.py --update  # rewrite the manifest, name the moved cases

verify's numbers come from numpy's random streams, which carry no guarantee
across numpy versions (NEP 19), so its digest covers only the exit code and
the suite names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

from traincost.cli import main as cli_main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "golden", "capture.json")

FORMATS = ("json", "csv", "markdown")
EVAL = "configs/run_eval_llama2.json"
TUNE = "configs/run_tune_llama2.json"
SPACE = "tests/golden/space_every_rule.json"
BENCH = {name: f"bench/configs/{name}.json"
         for name in ("tiny_dense", "tiny_moe_e2e", "tune_dense", "tune_moe_e2e")}


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}

    def add(name: str, *argv: str) -> None:
        for fmt in FORMATS:
            cases[f"{name}/{fmt}"] = [*argv, "--output", fmt]

    add("eval/run_eval_llama2", "eval", "--config", EVAL)
    cases["eval/run_eval_llama2/echo-config"] = ["eval", "--config", EVAL, "--echo-config"]
    for mode in ("step", "e2e"):
        add(f"tune-{mode}/run_tune_llama2", "tune", mode, "--config", TUNE)
    cases["tune-step/run_tune_llama2/top-200"] = ["tune", "step", "--config", TUNE,
                                                  "--top-k", "200", "--output", "json"]
    # the default top 4 above, the top 1 and 10, and every feasible candidate (top-all)
    paths = {"run_tune_llama2": TUNE, **BENCH}
    for mode, name, ks in (("step", "run_tune_llama2", ("1", "10")),
                           ("e2e", "run_tune_llama2", ("1", "10")),
                           ("step", "tune_dense", ("1", "10", "all")),
                           ("step", "tune_moe_e2e", ("all",)),
                           ("e2e", "tune_moe_e2e", ("1", "10", "all"))):
        for k in ks:
            cases[f"tune-{mode}/{name}/top-{k}"] = [
                "tune", mode, "--config", paths[name],
                "--top-k", "1000000000" if k == "all" else k, "--output", "json"]
    for mode in ("step", "e2e"):
        cases[f"tune-{mode}/space_every_rule/json"] = [
            "tune", mode, "--config", TUNE, "--space", SPACE, "--output", "json"]
    for name, path in BENCH.items():
        add(f"tune-step/{name}", "tune", "step", "--config", path)
        if "e2e" in name:
            add(f"tune-e2e/{name}", "tune", "e2e", "--config", path)
    add("sweep/run_tune_llama2/v", "sweep", "--config", TUNE, "--parameter", "v",
        "--values", "1,2,4,8")
    add("sweep/run_tune_llama2/I_ckpt", "sweep", "--config", TUNE, "--parameter", "I_ckpt",
        "--values", "10,37", "--t-step", "28")
    add("sweep/run_tune_llama2/r_f", "sweep", "--config", TUNE, "--parameter", "r_f",
        "--values", "0.001,0.01", "--t-step", "28")
    add("sweep/tiny_dense/v", "sweep", "--config", BENCH["tiny_dense"], "--parameter", "v",
        "--values", "1,8")
    for command in ("ettr", "interval"):
        add(f"{command}/run_eval_llama2", command, "--config", EVAL)
        add(f"{command}/run_tune_llama2", command, "--config", TUNE, "--t-step", "28")
    cases["verify"] = ["verify", "--trials", "4000"]

    # input errors: each ends in exit 1 with one stderr line
    errors = {
        "eval-without-plan": ["eval", "--config", TUNE],
        "e2e-without-fault": ["tune", "e2e", "--config", BENCH["tiny_dense"]],
        "top-k-negative": ["tune", "step", "--config", TUNE, "--top-k", "-1"],
        "sweep-v-float": ["sweep", "--config", TUNE, "--parameter", "v", "--values", "2.5"],
        "sweep-dp-overlap-yes": ["sweep", "--config", TUNE, "--parameter", "dp_overlap",
                                 "--values", "yes"],
        "sweep-r_f-text": ["sweep", "--config", TUNE, "--parameter", "r_f", "--values", "abc",
                           "--t-step", "28"],
        "ettr-t-step-nan": ["ettr", "--config", EVAL, "--t-step", "nan"],
        "verify-seed-negative": ["verify", "--seed", "-1"],
        "missing-config": ["eval", "--config", "configs/missing.json"],
    }
    cases.update({f"error/{name}": argv for name, argv in errors.items()})
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command line, run from ROOT."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        os.chdir(cwd)
    stdout = out.getvalue()
    if argv[0] == "verify" and stdout:
        stdout = "\n".join(suite["name"] for suite in json.loads(stdout)["suites"])
    return code, stdout, err.getvalue()


def digest_of(code: int, stdout: str, stderr: str) -> str:
    """The manifest's digest of one run's exit code, stdout and stderr."""
    payload = json.dumps([code, stdout, stderr])
    return hashlib.sha256(payload.encode()).hexdigest()


def digest(argv: list[str]) -> str:
    return digest_of(*run_case(argv))


def capture() -> dict[str, str]:
    return {name: digest(argv) for name, argv in CASES.items()}


def load_manifest() -> dict[str, str]:
    with open(MANIFEST) as fh:
        return json.load(fh)


def moved(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """The names of the cases whose digest differs, or that only one side has."""
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def main(argv: list[str]) -> int:
    if argv not in ([], ["--update"]):
        sys.stderr.write("usage: capture.py [--update]\n")
        return 1
    new = capture()
    old = load_manifest() if os.path.exists(MANIFEST) else {}
    names = moved(old, new)
    for name in names:
        print(name)
    if argv:
        with open(MANIFEST, "w") as fh:
            json.dump(new, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
