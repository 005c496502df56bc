"""CI gate: the shipped source tree is reprolint-clean.

Every violation must either be fixed or carry an explicit allowlist
entry; this test is what keeps the discipline from regressing.
"""

from pathlib import Path

from repro.analysis.allowlist import Allowlist, load_allowlist
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


def test_every_allowlist_entry_is_still_needed():
    """Stale allowlist entries must be pruned, not accumulated — the
    runner itself now tracks this in ``unused_entries`` and fails the
    gate on them."""
    report = lint_paths([SRC])
    assert report.unused_entries == ()


def test_stale_allowlist_entry_fails_the_run():
    """An entry matching no finding flips ``ok`` and is reported with a
    delete instruction — the allowlist can only shrink."""
    allowlist = Allowlist(
        entries=frozenset({("RL001", "no_such_identifier_anywhere")}),
        source="<test>",
    )
    report = lint_paths([SRC / "common.py"], allowlist=allowlist)
    assert not report.violations
    assert report.unused_entries == (
        ("RL001", "no_such_identifier_anywhere"),
    )
    assert not report.ok
    assert "stale allowlist entry" in report.format()


def test_rule_subset_run_does_not_stale_other_rules():
    """Linting with ``--select`` gathers no evidence about other rules'
    entries, so they are not reported stale."""
    report = lint_paths([SRC / "common.py"], rule_ids=["RL003"])
    assert report.unused_entries == ()


def test_allowlist_is_small_and_justified():
    """The allowlist exists for genuinely dimensionless names, not as a
    dumping ground — keep it an order of magnitude below the fix count."""
    entries = load_allowlist().entries
    assert len(entries) <= 15
    assert all(rule == "RL001" for rule, _ in entries)


def test_costcache_enters_with_zero_allowlist_entries():
    """New modules are born clean: the batched nominal-cost engine must
    pass every rule with the allowlist disabled — no grandfathering."""
    report = lint_paths([SRC / "env" / "costcache.py"], allowlist=False)
    assert report.files_checked == 1
    assert report.ok, "\n" + report.format()
    assert not report.suppressed


def test_faults_package_enters_with_zero_allowlist_entries():
    """The fault-injection/resilience subsystem is likewise born clean:
    every module passes every rule with the allowlist disabled."""
    report = lint_paths([SRC / "faults"], allowlist=False)
    assert report.files_checked == 5
    assert report.ok, "\n" + report.format()
    assert not report.suppressed


def test_sim_package_enters_with_zero_allowlist_entries():
    """The event kernel is born clean: every module passes every rule
    with the allowlist disabled."""
    report = lint_paths([SRC / "sim"], allowlist=False)
    assert report.files_checked == 3
    assert report.ok, "\n" + report.format()
    assert not report.suppressed


def test_serving_package_enters_with_zero_allowlist_entries():
    """The overload-robust serving pipeline is likewise born clean:
    every module passes every rule with the allowlist disabled."""
    report = lint_paths([SRC / "serving"], allowlist=False)
    assert report.files_checked == 6
    assert report.ok, "\n" + report.format()
    assert not report.suppressed


def test_flow_package_enters_with_zero_allowlist_entries():
    """The flow analyzer holds itself to its own bar: every module of
    repro.analysis.flow passes every per-file rule with the allowlist
    disabled — no grandfathering."""
    report = lint_paths([SRC / "analysis" / "flow"], allowlist=False)
    assert report.files_checked == 9
    assert report.ok, "\n" + report.format()
    assert not report.suppressed
