"""The violation record emitted by every reprolint rule."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Violation"]


@dataclass(frozen=True, order=True)
class Violation:
    """One finding at a specific source location.

    Attributes:
        path: file the finding is in (as given to the runner).
        line / col: 1-based line and 0-based column of the offending node.
        rule: rule identifier (``RL001`` .. ``RL006``, ``RL000`` for
            files that fail to parse).
        name: the offending identifier, when the rule is about a name;
            empty otherwise.
        message: human-readable explanation with the fix direction.
    """

    path: str
    line: int
    col: int
    rule: str
    name: str
    message: str

    def format(self):
        """GCC-style one-liner, so editors can jump to the location."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
