"""CI gate: the serving decision plane holds a zero bar.

The serving package and the core modules the serving drain runs
through (engine, service, Q-table, environment, action space) are
linted on their own, so a finding in any of them is reported against
this list as well as the whole-tree gate. Neither linter has an
allowlist or a baseline, so every finding fails.
"""

from pathlib import Path

from repro.analysis.flow import analyze_paths
from repro.analysis.runner import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
SERVING = SRC / "serving"
ENGINE = SRC / "core" / "engine.py"
SERVICE = SRC / "core" / "service.py"
QLEARNING = SRC / "core" / "qlearning.py"
ENVIRONMENT = SRC / "env" / "environment.py"
TARGET = SRC / "env" / "target.py"


class TestReprolintZeroAllowlist:
    def test_serving_and_core_hot_path_are_spotless(self):
        report = lint_paths([SERVING, ENGINE, SERVICE, ENVIRONMENT, TARGET])
        assert not report.violations, "\n" + report.format()


class TestFlowZeroBaseline:
    def test_serving_and_state_plane_carry_no_flow_debt(self):
        report = analyze_paths([SERVING, QLEARNING, ENVIRONMENT])
        assert not report.violations, "\n" + report.format()
