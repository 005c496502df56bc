"""CI gate: the serving decision plane holds a zero-allowlist bar.

The serving package and the core modules the serving drain runs
through (engine, service, Q-table, environment, action space) are
linted here with the
allowlist and flow baseline *disabled*: a new finding in any of them
fails immediately instead of ratcheting into the grandfathered debt.
The two modules with committed debt are pinned to exactly that debt —
``qlearning.py``'s lone RL001 (``learning_rate`` is the paper's
dimensionless alpha) and ``engine.py``'s RL102 overhead timers (the
paper's Table-V instrumentation) — so any *additional* finding there
still fails.
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
        report = lint_paths([SERVING, ENGINE, SERVICE, ENVIRONMENT, TARGET],
                            allowlist=False)
        assert not report.violations, "\n" + report.format()

    def test_qlearning_debt_is_exactly_the_paper_alpha(self):
        report = lint_paths([QLEARNING], allowlist=False)
        found = [(violation.rule, violation.name)
                 for violation in report.violations]
        assert found == [("RL001", "learning_rate")], \
            "\n" + report.format()


class TestFlowZeroBaseline:
    def test_serving_and_state_plane_carry_no_flow_debt(self):
        report = analyze_paths([SERVING, QLEARNING, ENVIRONMENT],
                               baseline=False)
        assert not report.violations, "\n" + report.format()

    def test_engine_debt_is_exactly_the_overhead_timers(self):
        report = analyze_paths([ENGINE], baseline=False)
        found = sorted((violation.rule, violation.name)
                       for violation in report.violations)
        assert found == [
            ("RL102", "AutoScale._cycle:time.perf_counter"),
            ("RL102", "AutoScale.select_action:time.perf_counter"),
        ], "\n" + report.format()
