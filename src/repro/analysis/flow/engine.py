"""The flow-analysis orchestrator.

``analyze_paths`` is the CLI's entry point: load the tree into a
:class:`~repro.analysis.flow.project.Project` and run the four rule
families over it.  The CI gate condition is :attr:`FlowReport.ok` — no
findings at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.flow.clockrule import check_clock_writes
from repro.analysis.flow.determinism import check_determinism
from repro.analysis.flow.layers import check_layers
from repro.analysis.flow.project import Project
from repro.analysis.flow.units import check_units
from repro.analysis.violations import Violation

__all__ = ["FlowReport", "analyze_paths", "analyze_project"]

_FAMILIES = (
    ("RL101", check_units),
    ("RL102", check_determinism),
    ("RL103", check_clock_writes),
    ("RL104", check_layers),
)


@dataclass(frozen=True)
class FlowReport:
    """The outcome of one flow-analysis run.

    ``violations`` are every finding; the gate passes only when there
    are none.
    """

    violations: Tuple[Violation, ...] = ()
    modules_checked: int = 0
    rule_ids: Tuple[str, ...] = field(
        default_factory=lambda: tuple(rule for rule, _ in _FAMILIES)
    )

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts(self) -> Dict[str, int]:
        """Violation count per rule family (zeros included)."""
        tally = {rule: 0 for rule in self.rule_ids}
        for violation in self.violations:
            tally[violation.rule] = tally.get(violation.rule, 0) + 1
        return tally

    def format(self) -> str:
        lines = [violation.format() for violation in self.violations]
        per_rule = ", ".join(
            f"{rule}={count}" for rule, count in sorted(
                self.counts().items())
        )
        lines.append(
            f"reprolint-flow: {len(self.violations)} violation(s) "
            f"[{per_rule}], {self.modules_checked} module(s) analyzed"
        )
        return "\n".join(lines)


def analyze_project(project: Project, rule_ids=None) -> FlowReport:
    """Run the selected rule families (default: all) over a project."""
    selected = tuple(
        (rule, check) for rule, check in _FAMILIES
        if rule_ids is None or rule in rule_ids
    )
    violations: List[Violation] = []
    for _, check in selected:
        violations.extend(check(project))
    return FlowReport(
        violations=tuple(sorted(violations)),
        modules_checked=len(project.modules),
        rule_ids=tuple(rule for rule, _ in selected),
    )


def analyze_paths(paths, rule_ids=None) -> FlowReport:
    """Load a source tree and analyze it.

    Args:
        paths: files or directories (the CLI default is ``src/repro``).
        rule_ids: optional subset of ``RL101``..``RL104``.
    """
    return analyze_project(Project.load(paths), rule_ids=rule_ids)
