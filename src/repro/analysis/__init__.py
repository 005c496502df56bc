"""repro.analysis — repo-specific static analysis and runtime contracts.

Two halves, one purpose: keep the unit/seeding/exception conventions the
simulator's fidelity rests on from silently rotting.

- **reprolint** (:mod:`~repro.analysis.rules`, :mod:`~repro.analysis.runner`,
  the ``repro-lint`` CLI): an AST pass over ``src/repro`` enforcing
  RL001 unit-suffix discipline, RL002 ``make_rng``-only seeding, RL003
  float-equality bans, RL004 the ``ReproError`` exception taxonomy,
  RL005 mutable defaults, and RL006 dataclass validation.  Run it with
  ``python -m repro.analysis src/repro``.
- **flow** (:mod:`~repro.analysis.flow`, ``repro-lint --flow``): a
  whole-program pass over the project import/call graph enforcing RL101
  cross-module unit propagation, RL102 determinism taint into the
  simulation core, RL103 virtual-clock write funnels, and RL104 the
  architecture layer contracts, reportable as text, JSON, or SARIF.
- **contracts** (:mod:`~repro.analysis.contracts`): runtime validators for
  the physical invariants behind equations (1)-(4) — non-negative power,
  positive latency, bounded utilization and RSSI, finite Q-values —
  active by default under pytest.

reprolint and flow are each one gate over the whole tree: there is no
allowlist or baseline, so any finding fails the run.

Only the contracts are re-exported here: runtime modules import them, so
``import repro.analysis`` must not load the linter.  Import the linter's
API from its submodules.  See ``docs/static_analysis.md`` for the rule
catalogue with examples.
"""

from repro.analysis.contracts import (
    checked,
    contracts_enabled,
    ensure_duration_ms,
    ensure_energy_mj,
    ensure_finite,
    ensure_latency_ms,
    ensure_power_mw,
    ensure_q_value,
    ensure_rssi_dbm,
    ensure_utilization,
)

__all__ = [
    "checked",
    "contracts_enabled",
    "ensure_duration_ms",
    "ensure_energy_mj",
    "ensure_finite",
    "ensure_latency_ms",
    "ensure_power_mw",
    "ensure_q_value",
    "ensure_rssi_dbm",
    "ensure_utilization",
]
