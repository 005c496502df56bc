"""CI gate: the shipped tree is flow-clean.

There is no baseline: any finding anywhere under ``src/repro`` fails
the run.  These tests pin that, and exercise the CLI surface and the
report formats CI calls.
"""

import json
from pathlib import Path

from repro.analysis.cli import main
from repro.analysis.flow import Project, analyze_paths, analyze_project
from repro.analysis.flow.report import to_json, to_sarif

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def _report_with_one_finding():
    project = Project.from_sources({"repro.env.fake": (
        "def bad(latency_ms, energy_mj):\n"
        "    return latency_ms + energy_mj\n"
    )})
    return analyze_project(project)


def test_source_tree_is_flow_clean():
    report = analyze_paths([SRC])
    assert report.ok, "\n" + report.format()


def test_flow_actually_covered_the_tree():
    report = analyze_paths([SRC])
    assert report.modules_checked >= 90


def test_any_finding_fails_the_gate():
    report = _report_with_one_finding()
    assert not report.ok
    assert [violation.name for violation in report.violations] == [
        "bad:ms+mj"
    ]


def test_cli_flow_gate_passes_on_head():
    assert main(["--flow", str(SRC)]) == 0


def test_cli_rejects_format_without_flow():
    assert main(["--format", "sarif", str(SRC)]) == 2


def test_cli_rejects_unknown_flow_rule():
    assert main(["--flow", "--select", "RL999", str(SRC)]) == 2


def test_json_report_shape():
    payload = json.loads(to_json(analyze_paths([SRC])))
    assert set(payload) == {"ok", "modules_checked", "counts",
                            "violations"}
    assert payload["ok"] is True
    assert set(payload["counts"]) == {"RL101", "RL102", "RL103", "RL104"}
    assert payload["violations"] == []

    failing = json.loads(to_json(_report_with_one_finding()))
    assert failing["ok"] is False
    assert failing["counts"]["RL101"] == 1
    assert [entry["name"] for entry in failing["violations"]] == [
        "bad:ms+mj"
    ]


def test_sarif_report_shape():
    sarif = json.loads(to_sarif(analyze_paths([SRC])))
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "reprolint-flow"
    assert {rule["id"] for rule in run["tool"]["driver"]["rules"]} == {
        "RL101", "RL102", "RL103", "RL104",
    }
    assert run["results"] == []

    # Each finding uploads as one unsuppressed result with a stable
    # fingerprint for the code-scanning dedup.
    failing = json.loads(to_sarif(_report_with_one_finding()))
    (result,) = failing["runs"][0]["results"]
    assert result["ruleId"] == "RL101"
    assert "suppressions" not in result
    assert "reproFlow/v1" in result["partialFingerprints"]
