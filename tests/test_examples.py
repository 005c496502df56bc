"""Every example script runs to completion.

The examples drive the public API end to end, so an API change that
breaks one must fail here rather than in a reader's terminal.  Each runs
in a fresh interpreter with a timeout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    completed = subprocess.run([sys.executable, str(script)],
                               capture_output=True, text=True, env=env,
                               cwd=REPO_ROOT, timeout=120)
    assert completed.returncode == 0, completed.stdout + completed.stderr
