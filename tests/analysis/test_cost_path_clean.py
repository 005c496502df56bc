"""CI gate: the per-request records and cost path hold a zero bar.

The modules every inference's cost and records pass through — the
record types and their ``slot_init``, the executors and cost engine,
observations, co-runner and thermal models, state encoding and the
MOSAIC planner — are linted with the allowlist and the flow baseline
*disabled*, matching the ``flow-lint`` CI steps of the same name: a new
finding in any of them fails at once instead of joining the
grandfathered debt.
"""

from pathlib import Path

from repro.analysis.flow import analyze_paths
from repro.analysis.runner import lint_paths

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
COST_PATH = [
    SRC / "env" / "result.py",
    SRC / "env" / "costcache.py",
    SRC / "env" / "observation.py",
    SRC / "interference",
    SRC / "hardware" / "thermal.py",
    SRC / "common.py",
    SRC / "core" / "state.py",
    SRC / "baselines" / "mosaic.py",
]


def test_cost_path_passes_reprolint_without_allowlist():
    report = lint_paths(COST_PATH, allowlist=False)
    assert report.files_checked == 10
    assert report.ok, "\n" + report.format()
    assert not report.suppressed


def test_cost_path_carries_no_flow_debt():
    report = analyze_paths([SRC / "env" / "executor.py", *COST_PATH],
                           baseline=False)
    assert not report.violations, "\n" + report.format()
