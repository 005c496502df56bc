"""repro.analysis.flow — whole-program, cross-module dataflow analysis.

Where :mod:`repro.analysis.rules` checks one file at a time, this
package parses the *whole* ``src/repro`` tree into a :class:`Project`
(modules, import edges, a symbol table, and a best-effort call graph)
and runs four flow-sensitive rule families over it:

- **RL101 unit propagation** — infer ``_ms``/``_mj``/``_mw``/``_dbm``/
  ``_pct``/… unit tags through assignments, arithmetic, keyword
  arguments, and returns; flag incompatible additions (``ms + mj``),
  ``ms x mw`` products assigned to ``_mj`` names without the ``/ 1000``
  of eq. 5, and functions whose returns contradict their own name.
- **RL102 determinism taint** — call-graph reachability from
  nondeterminism sources (``time.time``, ``datetime.now``, un-funneled
  ``random``/``np.random``, ``os.urandom``, set iteration, threading)
  into the simulation core (``env``/``core``/``serving``/``faults``),
  machine-checking the training-loop bit-parity contract.  The
  ``perf_counter`` reads named in ``APPROVED_WALL_CLOCK_READS`` are the
  one exemption.
- **RL103 clock-write funnels** — only the approved funnel methods may
  advance, rewind, or assign the virtual clock; every other mutation
  site is flagged.
- **RL104 layer contracts** — enforce the package DAG documented in
  ``docs/architecture.md``; reject upward module-scope imports,
  same-layer sibling imports, and new import cycles.

There is nothing to suppress a finding with: any finding fails the run.
Run it with ``python -m repro.analysis --flow`` (``--format json|sarif``
for machine-readable reports).
"""

from repro.analysis.flow.clockrule import APPROVED_CLOCK_FUNNELS
from repro.analysis.flow.determinism import APPROVED_WALL_CLOCK_READS
from repro.analysis.flow.engine import FlowReport, analyze_paths, analyze_project
from repro.analysis.flow.layers import PACKAGE_LAYERS
from repro.analysis.flow.project import Project
from repro.analysis.flow.report import to_json, to_sarif

__all__ = [
    "APPROVED_CLOCK_FUNNELS",
    "APPROVED_WALL_CLOCK_READS",
    "FlowReport",
    "PACKAGE_LAYERS",
    "Project",
    "analyze_paths",
    "analyze_project",
    "to_json",
    "to_sarif",
]
