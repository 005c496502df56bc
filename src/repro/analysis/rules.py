"""The reprolint rule set (RL001-RL006).

Each rule is a function ``(tree, path) -> iterator of Violation`` over a
parsed module.  The rules encode *this repository's* conventions — the
unit contract of ``repro.common``, the ``make_rng`` seeding funnel, and
the ``ReproError`` exception taxonomy — not general Python style (ruff
covers that part; see ``docs/static_analysis.md``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

from repro.analysis.violations import Violation

__all__ = ["RULES", "Rule", "run_rules"]

# ---------------------------------------------------------------------------
# Shared vocabulary
# ---------------------------------------------------------------------------

#: Physical-quantity words -> the unit token their names must carry.
#: This mirrors the unit contract documented in ``repro.common``:
#: latency in ms, energy in mJ, power in mW, frequency in MHz, signal
#: strength in dBm, data rate in Mbit/s.
QUANTITY_UNITS: Dict[str, str] = {
    "latency": "ms",
    "energy": "mj",
    "power": "mw",
    "freq": "mhz",
    "frequency": "mhz",
    "rssi": "dbm",
    "rate": "mbps",
}

#: Every unit token the convention documents (used by RL006 to decide
#: whether a dataclass holds physical quantities).
UNIT_TOKENS = frozenset(
    {"ms", "mj", "mw", "mhz", "dbm", "mbps", "pct", "bytes"}
)

#: Builtin exceptions that must not be raised inside ``src/repro`` —
#: callers are promised every library error is a ``ReproError`` subclass
#: (``KeyError``-shaped misses use ``common.UnknownKeyError``, which is
#: both).  ``NotImplementedError`` stays legal for abstract methods.
BANNED_RAISES = frozenset({
    "ArithmeticError",
    "AssertionError",
    "AttributeError",
    "BaseException",
    "Exception",
    "IOError",
    "IndexError",
    "KeyError",
    "LookupError",
    "OSError",
    "RuntimeError",
    "TypeError",
    "ValueError",
    "ZeroDivisionError",
})


#: Tokens that mark a name as dimensionless: a ratio of two like
#: quantities (``min_freq_ratio``) or a relative spread
#: (``latency_sigma`` is a multiplicative noise std).  RL001 passes any
#: name carrying one.
DIMENSIONLESS_TOKENS = frozenset({"ratio", "sigma"})

#: Exact names that are dimensionless despite a quantity word: the
#: Q-learning step size is persisted under this name in snapshots.
DIMENSIONLESS_NAMES = frozenset({"learning_rate"})


def _tokens(name: str) -> List[str]:
    return [token for token in name.lower().split("_") if token]


def _quantity_gaps(name: str) -> List[Tuple[str, str]]:
    """Return ``(quantity, expected_unit)`` pairs the name fails to carry."""
    token_set = set(_tokens(name))
    if name in DIMENSIONLESS_NAMES or token_set & DIMENSIONLESS_TOKENS:
        return []
    gaps = []
    for quantity, unit in QUANTITY_UNITS.items():
        if quantity in token_set and unit not in token_set:
            gaps.append((quantity, unit))
    return gaps


def _is_quantity_name(name: str) -> bool:
    token_set = set(_tokens(name))
    return bool(token_set & UNIT_TOKENS or token_set & set(QUANTITY_UNITS))


def _dotted(node: ast.AST) -> str:
    """Render an ``Attribute`` chain as ``a.b.c`` ('' if not a pure chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


# ---------------------------------------------------------------------------
# RL001 — unit-suffix discipline
# ---------------------------------------------------------------------------

def _iter_bound_names(tree: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """Yield every identifier the module binds a value to.

    Covers function/lambda parameters, assignment targets (including
    ``self.attr`` writes and annotated dataclass fields), loop and
    comprehension variables, and ``with ... as`` names.
    """

    def unpack(target: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
        if isinstance(target, ast.Name):
            yield target.id, target
        elif isinstance(target, ast.Attribute):
            yield target.attr, target
        elif isinstance(target, ast.Starred):
            yield from unpack(target.value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from unpack(element)

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            arguments = node.args
            for arg in (*arguments.posonlyargs, *arguments.args,
                        *arguments.kwonlyargs):
                yield arg.arg, arg
            for arg in (arguments.vararg, arguments.kwarg):
                if arg is not None:
                    yield arg.arg, arg
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                yield from unpack(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For,
                               ast.AsyncFor)):
            yield from unpack(node.target)
        elif isinstance(node, ast.NamedExpr):
            yield from unpack(node.target)
        elif isinstance(node, ast.comprehension):
            yield from unpack(node.target)
        elif isinstance(node, ast.withitem):
            if node.optional_vars is not None:
                yield from unpack(node.optional_vars)


def check_unit_suffixes(tree, path):
    """RL001: names containing a quantity word must carry its unit token."""
    seen = set()
    for name, node in _iter_bound_names(tree):
        gaps = _quantity_gaps(name)
        if not gaps:
            continue
        line = getattr(node, "lineno", 0)
        if (name, line) in seen:
            continue
        seen.add((name, line))
        wanted = ", ".join(
            f"'{quantity}' needs a '_{unit}' token" for quantity, unit in gaps
        )
        yield Violation(
            path=path, line=line, col=getattr(node, "col_offset", 0),
            rule="RL001", name=name,
            message=(
                f"unit-suffix discipline: {name!r} names a physical "
                f"quantity but carries no unit ({wanted}); add the "
                f"unit, or a '_ratio'/'_sigma' token if it is "
                f"dimensionless"
            ),
        )


# ---------------------------------------------------------------------------
# RL002 — RNG discipline
# ---------------------------------------------------------------------------

#: Attribute chains that are type references, not entropy sources.
_RNG_TYPE_REFS = frozenset({"np.random.Generator", "numpy.random.Generator"})

#: The one sanctioned constructor, legal only inside ``repro/common.py``.
_RNG_FUNNELS = frozenset(
    {"np.random.default_rng", "numpy.random.default_rng"}
)


def check_rng_discipline(tree, path):
    """RL002: all randomness flows through ``common.make_rng``.

    Direct ``random.*`` / ``np.random.*`` use creates module-level hidden
    state that breaks seed-for-seed reproducibility; every stochastic
    component must instead *accept* a ``numpy.random.Generator`` built by
    ``make_rng`` and thread it through.
    """
    in_common = path.replace("\\", "/").endswith("repro/common.py")
    reported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name == "numpy.random":
                    yield Violation(
                        path=path, line=node.lineno, col=node.col_offset,
                        rule="RL002", name=alias.name,
                        message=(
                            f"RNG discipline: do not import {alias.name!r}; "
                            f"thread a Generator from common.make_rng instead"
                        ),
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "random" or module == "numpy.random":
                names = ", ".join(alias.name for alias in node.names)
                yield Violation(
                    path=path, line=node.lineno, col=node.col_offset,
                    rule="RL002", name=module,
                    message=(
                        f"RNG discipline: 'from {module} import {names}' "
                        f"bypasses the make_rng funnel"
                    ),
                )
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if not dotted or (dotted, node.lineno) in reported:
                continue
            parts = dotted.split(".")
            np_random = parts[0] in ("np", "numpy") and parts[1:2] == ["random"]
            plain_random = parts[0] == "random" and len(parts) > 1
            if not (np_random and len(parts) > 2) and not plain_random:
                continue
            if dotted in _RNG_TYPE_REFS:
                continue
            if dotted in _RNG_FUNNELS and in_common:
                continue
            reported.add((dotted, node.lineno))
            yield Violation(
                path=path, line=node.lineno, col=node.col_offset,
                rule="RL002", name=dotted,
                message=(
                    f"RNG discipline: {dotted!r} outside common.make_rng; "
                    f"accept an rng parameter instead of sampling ad hoc"
                ),
            )


# ---------------------------------------------------------------------------
# RL003 — float-literal equality
# ---------------------------------------------------------------------------

def _is_nonzero_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and node.value != 0.0
    )


def check_float_equality(tree, path):
    """RL003: no ``==`` / ``!=`` against non-zero float literals.

    Exact comparison against a rounded constant silently stops matching
    after any arithmetic reordering; use ``math.isclose`` or an explicit
    tolerance.  Comparing against literal ``0.0`` stays legal — it is the
    guarded sentinel check for values that were *assigned* zero, and the
    idiomatic numpy mask (``array[array == 0.0] = ...``).
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                for side in (left, right):
                    if _is_nonzero_float_literal(side):
                        literal = ast.unparse(side)
                        yield Violation(
                            path=path, line=node.lineno,
                            col=node.col_offset, rule="RL003", name=literal,
                            message=(
                                f"float equality against {literal}; use "
                                f"math.isclose or an explicit tolerance"
                            ),
                        )
                        break
            left = right


# ---------------------------------------------------------------------------
# RL004 — exception discipline
# ---------------------------------------------------------------------------

def check_exception_discipline(tree, path):
    """RL004: library raises must be ``ReproError`` subclasses.

    ``repro``'s public contract is that every library-originated failure
    is catchable as ``ReproError``; a bare ``ValueError`` deep inside the
    simulator escapes that net.  Use ``ConfigError`` for bad parameters,
    ``SimulationError`` for unexecutable requests, and
    ``UnknownKeyError`` for lookup misses (it subclasses both
    ``ConfigError`` and ``KeyError``).
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id in BANNED_RAISES:
            yield Violation(
                path=path, line=node.lineno, col=node.col_offset,
                rule="RL004", name=exc.id,
                message=(
                    f"raise of builtin {exc.id}; raise a ReproError "
                    f"subclass (ConfigError / SimulationError / "
                    f"UnknownKeyError) instead"
                ),
            )


# ---------------------------------------------------------------------------
# RL005 — mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
    )


def check_mutable_defaults(tree, path):
    """RL005: no mutable default parameter values."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        arguments = node.args
        positional = (*arguments.posonlyargs, *arguments.args)
        pos_defaults = arguments.defaults
        named = positional[len(positional) - len(pos_defaults):]
        pairs = list(zip(named, pos_defaults))
        pairs.extend(
            (arg, default)
            for arg, default in zip(arguments.kwonlyargs,
                                    arguments.kw_defaults)
            if default is not None
        )
        for arg, default in pairs:
            if _is_mutable_default(default):
                yield Violation(
                    path=path, line=default.lineno, col=default.col_offset,
                    rule="RL005", name=arg.arg,
                    message=(
                        f"mutable default for parameter {arg.arg!r}; "
                        f"default to None and construct inside the body"
                    ),
                )


# ---------------------------------------------------------------------------
# RL006 — dataclass validation
# ---------------------------------------------------------------------------

def _is_dataclass_decorator(decorator: ast.AST) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return _dotted(decorator) in ("dataclass", "dataclasses.dataclass") or (
        isinstance(decorator, ast.Name) and decorator.id == "dataclass"
    )


def check_dataclass_validation(tree, path):
    """RL006: quantity-carrying dataclasses must validate in __post_init__.

    A dataclass whose fields are physical quantities (any field name with
    a unit token or quantity word) is a unit boundary: constructing one
    with a negative energy or NaN latency must fail loudly at the
    boundary, not surface later as a corrupted benchmark figure.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(_is_dataclass_decorator(d) for d in node.decorator_list):
            continue
        quantity_fields = [
            statement.target.id
            for statement in node.body
            if isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and _is_quantity_name(statement.target.id)
        ]
        if not quantity_fields:
            continue
        has_post_init = any(
            isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
            and statement.name == "__post_init__"
            for statement in node.body
        )
        if not has_post_init:
            listed = ", ".join(quantity_fields)
            yield Violation(
                path=path, line=node.lineno, col=node.col_offset,
                rule="RL006", name=node.name,
                message=(
                    f"dataclass {node.name} holds physical quantities "
                    f"({listed}) but defines no __post_init__ validation"
                ),
            )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """A registered reprolint rule."""

    rule_id: str
    title: str
    check: Callable[[ast.AST, str], Iterator[Violation]]


RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule("RL001", "unit-suffix discipline", check_unit_suffixes),
        Rule("RL002", "RNG discipline (make_rng funnel)",
             check_rng_discipline),
        Rule("RL003", "float-literal equality ban", check_float_equality),
        Rule("RL004", "ReproError exception discipline",
             check_exception_discipline),
        Rule("RL005", "mutable default arguments", check_mutable_defaults),
        Rule("RL006", "dataclass quantity validation",
             check_dataclass_validation),
    )
}


def run_rules(tree, path, rule_ids=None):
    """Run the selected rules (default: all) over one parsed module."""
    selected = RULES if rule_ids is None else {
        rule_id: RULES[rule_id] for rule_id in rule_ids
    }
    violations: List[Violation] = []
    for rule in selected.values():
        violations.extend(rule.check(tree, path))
    return sorted(violations)
