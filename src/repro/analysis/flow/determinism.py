"""RL102 — determinism taint into the simulation core.

The training-loop parity contract and every seeded regression in
this repo assume the simulation core is a pure function of its seed.
This rule machine-checks that: it marks every function whose body
touches a **nondeterminism source** — wall clocks, un-funneled RNGs,
entropy, set iteration, threading — as *tainted*, propagates taint
backwards over the project call graph, and flags tainted functions
defined inside the protected packages (``repro.env``, ``repro.core``,
``repro.serving``, ``repro.faults``).

To keep findings stable and readable, a protected function is reported
only when it is a taint *entry point*: its own body contains a source,
or it calls a tainted function defined outside the protected zone.
Taint that merely flows between two protected functions is covered by
the callee's own finding.

``repro.common.make_rng`` is the sanctioned RNG funnel; ``np.random``
references inside ``repro/common.py`` are therefore not sources (same
carve-out as RL002), and neither are ``Generator`` type references.

The one wall-clock exemption is :data:`APPROVED_WALL_CLOCK_READS`: the
engine's decision-overhead timers (the paper's Section VI-C measurement)
read ``time.perf_counter`` and never feed simulation state.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.flow.project import FunctionInfo, Project
from repro.analysis.violations import Violation

__all__ = ["APPROVED_WALL_CLOCK_READS", "PROTECTED_PACKAGES",
           "check_determinism"]

#: Packages whose functions must stay deterministic under a fixed seed.
PROTECTED_PACKAGES = (
    "repro.env", "repro.core", "repro.serving", "repro.faults",
)

#: module -> qualnames whose ``time.perf_counter`` read is exempt (the
#: same shape as RL103's ``APPROVED_CLOCK_FUNNELS``).  These time the
#: scheduler's own decision latency; any other source in the same
#: function still fires.  The table only shrinks.
APPROVED_WALL_CLOCK_READS: Dict[str, frozenset] = {
    "repro.core.engine": frozenset({
        "AutoScale.select_action",
        "AutoScale._cycle",
    }),
}

#: The one source an approved function may read.
_APPROVED_READ = "time.perf_counter"

#: Exact dotted chains that read wall-clock time or entropy.
_EXACT_SOURCES = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
})

#: Any reference under these roots is a source (scheduling and entropy
#: are nondeterministic wholesale).
_PREFIX_SOURCES = ("secrets.", "threading.", "concurrent.futures.")

#: RNG chains (mirrors RL002): banned outside the make_rng funnel.
_RNG_TYPE_REFS = frozenset({"numpy.random.Generator"})
_RNG_FUNNELS = frozenset({"numpy.random.default_rng"})


def _dotted(node: ast.AST) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_protected(module: str) -> bool:
    return any(module == package or module.startswith(package + ".")
               for package in PROTECTED_PACKAGES)


def _normalize(chain: str) -> str:
    # ``np.random`` and ``numpy.random`` are one vocabulary entry.
    if chain.startswith("np."):
        return "numpy." + chain[len("np."):]
    return chain


def _sources_in(project: Project, function: FunctionInfo,
                in_common: bool) -> Iterator[Tuple[str, int]]:
    """Yield ``(source_label, lineno)`` for direct sources in the body."""
    module = function.module
    for node in ast.walk(function.node):
        if isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if not chain:
                continue
            expanded = _normalize(project.expand_alias(module, chain))
            if expanded in _RNG_TYPE_REFS:
                continue
            if expanded in _RNG_FUNNELS:
                if not in_common:
                    yield expanded, node.lineno
                continue
            if expanded in _EXACT_SOURCES:
                yield expanded, node.lineno
                continue
            if any(expanded.startswith(prefix)
                   for prefix in _PREFIX_SOURCES):
                yield expanded, node.lineno
                continue
            if (expanded.startswith("numpy.random.")
                    or expanded.startswith("random.")):
                yield expanded, node.lineno
        elif isinstance(node, ast.Name):
            # ``from time import perf_counter`` style bare names.
            expanded = _normalize(
                project.expand_alias(module, node.id)
            )
            if expanded == node.id:
                continue
            if expanded in _EXACT_SOURCES or any(
                    expanded.startswith(prefix)
                    for prefix in _PREFIX_SOURCES):
                yield expanded, node.lineno
            elif expanded in _RNG_FUNNELS and not in_common:
                yield expanded, node.lineno
            elif expanded.startswith(("numpy.random.", "random.")) \
                    and expanded not in _RNG_TYPE_REFS:
                yield expanded, node.lineno
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            iterable = node.iter
            if isinstance(iterable, ast.Set) or (
                    isinstance(iterable, ast.Call)
                    and isinstance(iterable.func, ast.Name)
                    and iterable.func.id in ("set", "frozenset")):
                yield "set-iteration", iterable.lineno


def _call_edges(project: Project,
                function: FunctionInfo) -> Iterator[Tuple[str, str]]:
    owner = (function.qualname.rsplit(".", 1)[0]
             if "." in function.qualname else None)
    for node in ast.walk(function.node):
        if isinstance(node, ast.Call):
            callee = project.resolve_call(function.module, owner, node)
            if callee is not None and callee.key != function.key:
                yield callee.key


def check_determinism(project: Project) -> List[Violation]:
    """Run RL102 over the project call graph."""
    direct: Dict[Tuple[str, str], Tuple[str, int]] = {}
    calls: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
    callers: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
    for function in project.functions.values():
        in_common = function.module in ("repro.common", "common")
        approved = function.qualname in APPROVED_WALL_CLOCK_READS.get(
            function.module, ())
        found = next((source for source in
                      _sources_in(project, function, in_common)
                      if not (approved and source[0] == _APPROVED_READ)),
                     None)
        if found is not None:
            direct[function.key] = found
        edges = set(_call_edges(project, function))
        calls[function.key] = edges
        for callee in edges:
            callers.setdefault(callee, set()).add(function.key)

    # Backward taint propagation to a fixpoint.
    tainted: Set[Tuple[str, str]] = set(direct)
    frontier = list(direct)
    while frontier:
        current = frontier.pop()
        for caller in callers.get(current, ()):
            if caller not in tainted:
                tainted.add(caller)
                frontier.append(caller)

    def _chain_to_source(key: Tuple[str, str]) -> List[Tuple[str, str]]:
        """A shortest call path from ``key`` to a direct source."""
        seen = {key}
        queue: List[Tuple[Tuple[str, str], List[Tuple[str, str]]]] = [
            (key, [key])
        ]
        while queue:
            node, path = queue.pop(0)
            if node in direct:
                return path
            for callee in calls.get(node, ()):
                if callee in tainted and callee not in seen:
                    seen.add(callee)
                    queue.append((callee, path + [callee]))
        return [key]

    violations: List[Violation] = []
    for key in sorted(tainted):
        module, qualname = key
        if not _is_protected(module):
            continue
        function = project.functions[key]
        if key in direct:
            source, lineno = direct[key]
            detail = source
            via = ""
        else:
            outside = [callee for callee in calls.get(key, ())
                       if callee in tainted
                       and not _is_protected(callee[0])]
            if not outside:
                continue  # covered by the protected callee's finding
            path = _chain_to_source(key)
            terminal = path[-1]
            detail = direct.get(terminal, ("?", 0))[0]
            via = " via " + " -> ".join(
                f"{m}.{q}" for m, q in path[1:]
            )
            lineno = function.node.lineno
        violations.append(Violation(
            path=project.modules[module].path, line=lineno, col=0,
            rule="RL102", name=f"{qualname}:{detail}",
            message=(
                f"determinism taint: {module}.{qualname} reaches "
                f"nondeterminism source '{detail}'{via}; the simulation "
                f"core must be a pure function of its seed — thread a "
                f"Generator from common.make_rng or move the "
                f"instrumentation out of the protected packages"
            ),
        ))
    return sorted(violations)
