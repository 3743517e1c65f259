"""Every demo runs to the end, on a host without a C compiler and on one
with it, where the native strategies run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import requires_compiler

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
IDS = [d.name for d in DEMOS]


def run_demo(demo, cwd, env):
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    # In tmp_path, because demo 04 writes its CSV to the working directory.
    proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=IDS)
def test_demo_runs_without_a_compiler(demo, tmp_path):
    env = dict(os.environ, PATH="")
    env.pop("TREESCORE_CC", None)
    run_demo(demo, tmp_path, env)


@requires_compiler
@pytest.mark.parametrize("demo", DEMOS, ids=IDS)
def test_demo_runs_with_a_compiler(demo, tmp_path):
    stdout = run_demo(demo, tmp_path, dict(os.environ))
    assert "bit-exact: False" not in stdout
