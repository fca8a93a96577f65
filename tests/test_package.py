import os
import subprocess
import sys

import pytest

import traincost

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter with the package on its path."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_every_exported_name_resolves():
    missing = [name for name in traincost.__all__ if not hasattr(traincost, name)]
    assert missing == []


@pytest.mark.parametrize("module", ["traincost", "traincost.cli"])
def test_import_leaves_numpy_unloaded(module):
    # numpy serves only verify and the oracles; the rest starts without it.
    # The records are NamedTuples, so dataclasses and the inspect module it
    # imports stay out of the cold start too.
    proc = run_python(f"import sys, {module}\n"
                      "print([m for m in ('numpy', 'dataclasses', 'inspect') "
                      "if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["eval", "--config", "configs/run_eval_llama2.json"],
    ["tune", "step", "--config", "configs/run_tune_llama2.json"],
], ids=["eval", "tune-step"])
def test_cli_runs_without_numpy(argv):
    proc = run_python("import sys\nsys.modules['numpy'] = None\n"
                      "from traincost.cli import main\n"
                      f"sys.exit(main({argv!r}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
