"""Tests for the flow ratchet baseline (fingerprints, stale detection)."""

import pytest

from repro.analysis.flow import FlowBaseline, Project, analyze_project
from repro.analysis.flow.baseline import format_baseline, load_baseline
from repro.analysis.flow.units import check_units
from repro.common import ConfigError


def _one_violation():
    project = Project.from_sources({"repro.env.fake": (
        "def bad(latency_ms, energy_mj):\n"
        "    return latency_ms + energy_mj\n"
    )})
    violations = check_units(project)
    assert len(violations) == 1
    return project, violations[0]


class TestFingerprints:
    def test_fingerprint_is_line_free(self):
        _, violation = _one_violation()
        assert FlowBaseline.fingerprint_of(violation) == (
            "RL101", "repro.env.fake", "bad:ms+mj"
        )

    def test_disk_paths_anchor_at_repro(self):
        class Fake:
            rule = "RL102"
            path = "src/repro/core/engine.py"
            name = "step:time.time"

        assert FlowBaseline.fingerprint_of(Fake()) == (
            "RL102", "repro.core.engine", "step:time.time"
        )


class TestRatchet:
    def test_baselined_violation_is_suppressed(self):
        project, violation = _one_violation()
        baseline = FlowBaseline(entries=frozenset({
            FlowBaseline.fingerprint_of(violation)
        }), source="<test>")
        report = analyze_project(project, baseline=baseline)
        assert report.ok
        assert len(report.suppressed) == 1
        assert report.violations == ()

    def test_new_violation_fails(self):
        project, _ = _one_violation()
        report = analyze_project(project, baseline=FlowBaseline())
        assert not report.ok
        assert len(report.violations) == 1

    def test_stale_entry_fails_even_when_tree_is_clean(self):
        project = Project.from_sources({"repro.env.fake": "x = 1\n"})
        baseline = FlowBaseline(entries=frozenset({
            ("RL101", "repro.env.gone", "bad:ms+mj")
        }), source="<test>")
        report = analyze_project(project, baseline=baseline)
        assert not report.ok
        assert report.violations == ()
        assert report.stale_entries == (
            ("RL101", "repro.env.gone", "bad:ms+mj"),
        )

    def test_rule_subset_does_not_stale_other_rules(self):
        project = Project.from_sources({"repro.env.fake": "x = 1\n"})
        baseline = FlowBaseline(entries=frozenset({
            ("RL102", "repro.core.engine", "step:time.time")
        }), source="<test>")
        report = analyze_project(project, baseline=baseline,
                                 rule_ids=("RL101",))
        assert report.ok  # no RL102 evidence was gathered


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        _, violation = _one_violation()
        path = tmp_path / "baseline.txt"
        path.write_text(format_baseline([violation]))
        loaded = load_baseline(path)
        assert loaded.entries == frozenset({
            FlowBaseline.fingerprint_of(violation)
        })

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text(
            "# header\n\n"
            "RL101 repro.env.fake bad:ms+mj  # justified\n"
        )
        assert load_baseline(path).entries == frozenset({
            ("RL101", "repro.env.fake", "bad:ms+mj")
        })

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("RL101 too many parts here\n")
        with pytest.raises(ConfigError):
            load_baseline(path)

    def test_missing_explicit_path_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_baseline(tmp_path / "absent.txt")
