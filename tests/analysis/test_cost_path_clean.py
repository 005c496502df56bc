"""CI gate: the per-request records and cost path hold a zero bar.

The modules every inference's cost and records pass through — the
record types and their ``slot_init``, the executors and cost engine,
observations, co-runner and thermal models, state encoding and the
MOSAIC planner — are linted on their own, so a finding in any of them
is reported against this list as well as the whole-tree gate. Neither
linter has an allowlist or a baseline, so every finding fails.
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
    report = lint_paths(COST_PATH)
    assert report.files_checked == 10
    assert report.ok, "\n" + report.format()


def test_cost_path_carries_no_flow_debt():
    report = analyze_paths([SRC / "env" / "executor.py", *COST_PATH])
    assert not report.violations, "\n" + report.format()
