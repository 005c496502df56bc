"""RL103 — virtual-clock write funnels.

Every component of the simulator shares one virtual timeline: the
environment's :class:`~repro.common.Stopwatch`.  As arrivals, retries,
outage windows, and (soon) fleet replicas all advance slices of it, a
stray ``env.clock.advance(...)`` deep inside a helper silently corrupts
every timestamp downstream.  This rule inverts the burden: clock
*writes* are legal only inside the approved funnel methods below, and
every other mutation site — ``.clock.advance()``, ``.clock.reset()``,
an assignment or augmented assignment to a ``now_ms`` attribute, or the
same through a local alias of a ``.clock`` chain or a ``Stopwatch()``
constructed locally — is a violation.  So is taking a bound-method
alias (``clock_advance = env.clock.advance``): whoever calls it later
writes the clock, so the reference itself is the finding.

Reading the clock (``env.clock.now_ms``) is unrestricted; time is
observable everywhere, writable almost nowhere.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.flow.project import ModuleInfo, Project
from repro.analysis.violations import Violation

__all__ = ["APPROVED_CLOCK_FUNNELS", "check_clock_writes"]

#: module -> qualnames allowed to advance/rewind/assign the clock.
#: The table is intentionally short: the Stopwatch primitive itself,
#: and the event kernel's three dispatchers — the *single* writer
#: behind every environment funnel.  Everything else (including the
#: environment's own ``execute*`` paths) goes through
#: :meth:`EdgeCloudEnvironment.advance_clock`, :meth:`advance_clock_to`,
#: or :meth:`rewind_clock`, which delegate to the kernel.
APPROVED_CLOCK_FUNNELS: Dict[str, frozenset] = {
    "repro.common": frozenset({
        "Stopwatch.advance", "Stopwatch.reset",
    }),
    "repro.sim.kernel": frozenset({
        "EventKernel.advance_by",
        "EventKernel.advance_to",
        "EventKernel.rewind",
    }),
}

_WRITE_METHODS = frozenset({"advance", "reset"})


def _attr_chain(node: ast.AST) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        # ``something(...).clock`` — keep the tail, mark the head opaque
        parts.append("()")
    else:
        return []
    return list(reversed(parts))


def _is_clock_chain(chain: List[str]) -> bool:
    """Whether a dotted chain denotes a clock object (``*.clock``)."""
    return bool(chain) and chain[-1] == "clock"


def _walk_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Yield the nodes of one lexical scope.

    Descends the statement tree but not into nested function/class
    definitions — those are separate scopes yielded (and checked) by
    :func:`_function_bodies` under their own qualname.
    """
    if isinstance(root, (ast.FunctionDef, ast.AsyncFunctionDef)):
        children = root.body
    elif isinstance(root, ast.Module):
        children = [statement for statement in root.body
                    if not isinstance(statement,
                                      (ast.FunctionDef,
                                       ast.AsyncFunctionDef,
                                       ast.ClassDef))]
    else:
        children = [root]
    stack = list(children)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
                continue
            stack.append(child)


def _clock_aliases(body: Iterator[ast.AST]) -> Set[str]:
    """Local names bound to a clock: ``clock = env.clock`` or
    ``stopwatch = Stopwatch(...)``."""
    aliases: Set[str] = set()
    for node in body:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        is_clock = False
        if isinstance(value, ast.Attribute):
            is_clock = _is_clock_chain(_attr_chain(value))
        elif isinstance(value, ast.Call):
            func = value.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else "")
            is_clock = name == "Stopwatch"
        if not is_clock:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                aliases.add(target.id)
    return aliases


def _function_bodies(info: ModuleInfo) -> Iterator[Tuple[str, ast.AST]]:
    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}" if prefix else child.name
                yield qualname, child
                yield from walk(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")

    yield ("", info.tree)  # module-level statements
    yield from walk(info.tree, "")


def _is_clock_owner(owner: ast.AST, aliases: Set[str]) -> bool:
    return (_is_clock_chain(_attr_chain(owner))
            or (isinstance(owner, ast.Name) and owner.id in aliases))


def _writes_in(scope: ast.AST, aliases: Set[str]
               ) -> Iterator[Tuple[ast.AST, str]]:
    """Yield ``(node, kind)`` for every clock write in one scope."""
    nodes = list(_walk_scope(scope))
    called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            method = node.func.attr
            if method in _WRITE_METHODS \
                    and _is_clock_owner(node.func.value, aliases):
                yield node, f"clock.{method}"
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)
              and node.attr in _WRITE_METHODS
              and id(node) not in called
              and _is_clock_owner(node.value, aliases)):
            # A bound-method alias: ``advance = env.clock.advance``.
            yield node, f"clock.{node.attr}"
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Attribute) \
                        and target.attr == "now_ms":
                    chain = _attr_chain(target.value)
                    if (_is_clock_chain(chain)
                            or chain == ["self"]
                            or (len(chain) == 1
                                and chain[0] in aliases)):
                        yield node, "now_ms"


def check_clock_writes(project: Project) -> List[Violation]:
    """Run RL103 over every module of the project."""
    violations: List[Violation] = []
    for info in project.modules.values():
        approved = APPROVED_CLOCK_FUNNELS.get(info.name, frozenset())
        for qualname, scope in _function_bodies(info):
            if qualname in approved:
                continue
            aliases = _clock_aliases(_walk_scope(scope))
            for node, kind in _writes_in(scope, aliases):
                violations.append(_violation(info, qualname, node, kind))
    return sorted(violations)


def _violation(info: ModuleInfo, qualname: str, node: ast.AST,
               kind: str) -> Violation:
    where = qualname or "<module>"
    return Violation(
        path=info.path, line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0), rule="RL103",
        name=f"{where}:{kind}",
        message=(
            f"virtual-clock write outside the approved funnels: "
            f"{where} performs '{kind}'; route it through "
            f"EdgeCloudEnvironment.advance_clock / advance_clock_to / "
            f"rewind_clock (or extend APPROVED_CLOCK_FUNNELS with a "
            f"review)"
        ),
    )
