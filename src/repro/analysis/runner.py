"""File discovery and aggregation for reprolint."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from repro.analysis.rules import run_rules
from repro.analysis.violations import Violation
from repro.common import ConfigError

__all__ = ["LintReport", "iter_python_files", "lint_source", "lint_file",
           "lint_paths"]

#: Directory names that never contain linted sources.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", "build", "dist"})


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run: every finding, and the file count.

    ``ok`` is the CI gate condition — no findings at all.
    """

    violations: Tuple[Violation, ...] = ()
    files_checked: int = 0

    @property
    def ok(self):
        return not self.violations

    def format(self):
        lines = [violation.format() for violation in self.violations]
        lines.append(
            f"reprolint: {len(self.violations)} violation(s), "
            f"{self.files_checked} file(s) checked"
        )
        return "\n".join(lines)


def iter_python_files(paths):
    """Yield every ``.py`` file under ``paths`` in sorted order.

    Build artifacts (``*.egg-info``, ``__pycache__``, ``build``/``dist``)
    are skipped; a path that does not exist is a :class:`ConfigError`.
    """
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ConfigError(f"lint path does not exist: {path}")
        if path.is_file():
            yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & _SKIPPED_DIRS:
                continue
            if any(part.endswith(".egg-info") for part in candidate.parts):
                continue
            yield candidate


def lint_source(text, path="<string>", rule_ids=None):
    """Lint one source string; the workhorse behind the rule self-tests."""
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as error:
        return [Violation(
            path=str(path), line=error.lineno or 0, col=error.offset or 0,
            rule="RL000", name="",
            message=f"file does not parse: {error.msg}",
        )]
    return run_rules(tree, str(path), rule_ids=rule_ids)


def lint_file(path, rule_ids=None):
    """Lint one file from disk."""
    return lint_source(Path(path).read_text(), path=str(path),
                       rule_ids=rule_ids)


def lint_paths(paths, rule_ids=None):
    """Lint a tree.

    Args:
        paths: files or directories to walk.
        rule_ids: optional subset of rule ids to run.
    """
    violations: List[Violation] = []
    files_checked = 0
    for path in iter_python_files(paths):
        files_checked += 1
        violations.extend(lint_file(path, rule_ids=rule_ids))
    return LintReport(violations=tuple(sorted(violations)),
                      files_checked=files_checked)
