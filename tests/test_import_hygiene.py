"""Start-up hygiene: the runtime import path stays free of heavy modules.

Every process that runs the simulator pays for what ``import repro``
drags in.  The runtime needs only numpy: scipy is not a dependency, and
the runtime modules' ``repro.analysis.contracts`` imports must not load
the linter (its AST rules, runner and whole-program flow pass).  The
import checks run in a fresh interpreter, so modules this test session
already imported cannot mask a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro.analysis
from repro.analysis import contracts

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

RUNTIME_PACKAGES = ("repro", "repro.serving", "repro.evalharness", "repro.cli")
FORBIDDEN = ("scipy", "repro.analysis.flow", "repro.analysis.rules",
             "repro.analysis.runner")


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=REPO_ROOT, timeout=120)


def test_runtime_imports_load_neither_scipy_nor_the_linter():
    script = (
        "import importlib, json, sys\n"
        f"for name in {RUNTIME_PACKAGES!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(json.dumps([m for m in {FORBIDDEN!r} if m in sys.modules]))\n"
    )
    completed = _python("-c", script)
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == []


def test_package_reexports_only_contracts():
    assert set(repro.analysis.__all__) <= set(dir(contracts))
    assert repro.analysis.checked is contracts.checked


def test_linter_cli_still_runs():
    lint = _python("-m", "repro.analysis", "src/repro")
    assert lint.returncode == 0, lint.stdout + lint.stderr
    flow = _python("-m", "repro.analysis", "--flow", "src/repro")
    assert flow.returncode == 0, flow.stdout + flow.stderr


def test_environment_alone_builds_the_fault_injector():
    """An interpreter that imports only the environment module still
    gets a real fault ledger and the fault-free plan: the environment
    builds its injector itself."""
    script = (
        "import json\n"
        "from repro.env.environment import EdgeCloudEnvironment\n"
        "from repro.hardware.devices import build_device\n"
        "env = EdgeCloudEnvironment(build_device('mi8pro'))\n"
        "from repro.faults import FaultPlan, FaultStats\n"
        "print(json.dumps([isinstance(env.fault_stats, FaultStats),\n"
        "                  env.faults == FaultPlan.none()]))\n"
    )
    completed = _python("-c", script)
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == [True, True]
