"""Short runs of the benchmark script: ``online_requests`` untraced and
traced, and ``ensemble_f136`` untraced.

``perfbench/run.py`` checks every score against its oracle and every
in-process ``stored_node_count`` against the model, and its traced mode
reads names of the package that nothing else here calls.  Each run below
must end with a result line that says it was correct and that no
operation failed.

The script writes its inputs under ``.work/`` and its traces under
``traces/`` next to itself, and reads the package from ``src`` beside
its own directory.  So it runs from a copy in a temporary directory, with
``src`` a link to the package sources, and leaves nothing in the tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import requires_compiler

ROOT = Path(__file__).resolve().parents[1]


def assert_run_is_correct(tmp_path, workload, trace):
    """A one-second run of ``workload`` exits 0, and its result line says
    it was correct and that no operation failed."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for script in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(script, bench)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0, result


@requires_compiler
@pytest.mark.parametrize("trace", [0, 1])
def test_online_requests_run_is_correct(tmp_path, trace):
    assert_run_is_correct(tmp_path, "online_requests", trace)


@requires_compiler
def test_ensemble_f136_run_is_correct(tmp_path):
    # 300 trees at f=136: the predicated pair's cold 16-row calls, whose
    # full vpredicated blocks prefetch the next tree, checked against the
    # oracle end to end.
    assert_run_is_correct(tmp_path, "ensemble_f136", 0)
