"""CI gate: the shipped source tree is reprolint-clean.

There is no allowlist: every finding anywhere under ``src/repro`` fails
the run, and this test is what keeps the discipline from regressing.
"""

from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.runner import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_source_tree_is_clean():
    report = lint_paths([SRC])
    assert report.ok, "\n" + report.format()


def test_lint_actually_covered_the_tree():
    report = lint_paths([SRC])
    # Guard against a silently-empty walk reporting a vacuous pass.
    assert report.files_checked >= 70


def test_any_finding_fails_the_gate(tmp_path):
    planted = tmp_path / "repro" / "wireless" / "planted.py"
    planted.parent.mkdir(parents=True)
    planted.write_text(
        "class Link:\n"
        "    def __init__(self):\n"
        "        self._energy_model = None\n"
    )
    report = lint_paths([tmp_path])
    assert not report.ok
    assert [violation.name for violation in report.violations] == [
        "_energy_model"
    ]
    assert main([str(tmp_path)]) == 1


@pytest.mark.parametrize("flag", [
    ["--allowlist", "entries.txt"], ["--no-allowlist"], ["--allow-stale"],
    ["--flow", "--baseline", "entries.txt"], ["--flow", "--no-baseline"],
    ["--flow", "--write-baseline"],
])
def test_cli_has_no_suppression_flags(flag):
    with pytest.raises(SystemExit) as exit_info:
        main([*flag, str(SRC)])
    assert exit_info.value.code == 2

