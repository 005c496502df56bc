"""CI gate: the shipped tree is flow-clean against the committed baseline.

The ratchet only means something if the committed baseline is *exactly*
the set of current findings: a missing entry would hide a regression, a
stale one would hide paid-down debt.  These tests pin both directions
and exercise the CLI surface CI calls.
"""

import json
from pathlib import Path

from repro.analysis.flow import FlowBaseline, analyze_paths, load_baseline
from repro.analysis.cli import main
from repro.analysis.flow.report import to_json, to_sarif

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_source_tree_is_flow_clean():
    report = analyze_paths([SRC])
    assert report.ok, "\n" + report.format()


def test_flow_actually_covered_the_tree():
    report = analyze_paths([SRC])
    assert report.modules_checked >= 90


def test_committed_baseline_matches_a_fresh_run_exactly():
    """Every baseline entry corresponds to a live finding and every
    baseline-eligible finding has an entry — the file is neither stale
    nor hiding new debt."""
    fresh = analyze_paths([SRC], baseline=False)
    fingerprints = {
        FlowBaseline.fingerprint_of(violation)
        for violation in fresh.violations
    }
    assert fingerprints == load_baseline().entries


def test_baseline_is_small_and_justified():
    """The baseline is tracked debt, not a dumping ground."""
    entries = load_baseline().entries
    assert len(entries) <= 6
    assert all(rule in ("RL102", "RL104") for rule, _, _ in entries)


def test_cli_flow_gate_passes_on_head():
    assert main(["--flow", str(SRC)]) == 0


def test_cli_rejects_format_without_flow():
    assert main(["--format", "sarif", str(SRC)]) == 2


def test_cli_rejects_unknown_flow_rule():
    assert main(["--flow", "--select", "RL999", str(SRC)]) == 2


def test_json_report_shape():
    report = analyze_paths([SRC])
    payload = json.loads(to_json(report))
    assert payload["ok"] is True
    assert set(payload["counts"]) == {"RL101", "RL102", "RL103", "RL104"}
    assert payload["violations"] == []
    assert len(payload["suppressed"]) == len(report.suppressed)


def test_sarif_report_shape():
    report = analyze_paths([SRC])
    sarif = json.loads(to_sarif(report))
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "reprolint-flow"
    assert {rule["id"] for rule in run["tool"]["driver"]["rules"]} == {
        "RL101", "RL102", "RL103", "RL104",
    }
    # Baselined findings upload as suppressed results, with stable
    # fingerprints for the code-scanning dedup.
    assert len(run["results"]) == len(report.suppressed)
    for result in run["results"]:
        assert result["suppressions"]
        assert "reproFlow/v1" in result["partialFingerprints"]
