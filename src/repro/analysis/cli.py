"""Command-line front end for reprolint.

Run as ``python -m repro.analysis src/repro`` or via the ``repro-lint``
console script.  ``--flow`` switches from the per-file rules
(RL001-RL006) to the whole-program flow analysis (RL101-RL104), which
reports in text, JSON, or SARIF.  Nothing suppresses a finding.  Exit
status 0 means the tree is clean; 1 means violations; 2 means the run
itself was misconfigured (bad path, unknown rule id, unknown flag).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.rules import RULES
from repro.analysis.runner import lint_paths
from repro.common import ConfigError, ReproError

__all__ = ["main"]

_FLOW_RULE_IDS = ("RL101", "RL102", "RL103", "RL104")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Repo-specific static analysis for the AutoScale reproduction: "
            "per-file rules (unit-suffix discipline, make_rng-only seeding, "
            "float-equality bans, ReproError exception taxonomy, mutable "
            "defaults, dataclass validation) and, with --flow, whole-program "
            "rules (unit propagation, determinism taint, clock-write "
            "funnels, layer contracts)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (e.g. RL001,RL004)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    flow = parser.add_argument_group(
        "flow analysis",
        "cross-module analysis over the project import/call graph",
    )
    flow.add_argument(
        "--flow", action="store_true",
        help="run the flow rules RL101-RL104 instead of the per-file rules",
    )
    flow.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        dest="fmt", help="flow report format (default: text)",
    )
    flow.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the flow report to FILE instead of stdout",
    )
    return parser


def _list_rules():
    for rule in RULES.values():
        print(f"{rule.rule_id}  {rule.title}")
        doc = (rule.check.__doc__ or "").strip().splitlines()[0]
        print(f"       {doc}")
    from repro.analysis.flow.report import _RULE_DESCRIPTIONS
    for rule_id in _FLOW_RULE_IDS:
        print(f"{rule_id}  {_RULE_DESCRIPTIONS[rule_id]} (--flow)")
    return 0


def _parse_select(select, known, label):
    if not select:
        return None
    rule_ids = [token.strip() for token in select.split(",")
                if token.strip()]
    unknown = [rule_id for rule_id in rule_ids if rule_id not in known]
    if unknown:
        raise ConfigError(
            f"unknown {label} rule id(s): {', '.join(unknown)}"
        )
    return rule_ids


def _emit(text, output):
    if output is None:
        sys.stdout.write(text)
        return
    Path(output).write_text(text)
    print(f"repro-lint: report written to {output}")


def _flow_main(options):
    from repro.analysis.flow import analyze_paths
    from repro.analysis.flow.report import to_json, to_sarif

    try:
        rule_ids = _parse_select(options.select, _FLOW_RULE_IDS, "flow")
        report = analyze_paths(options.paths, rule_ids=rule_ids)
    except ReproError as error:
        print(f"repro-lint: {error}", file=sys.stderr)
        return 2
    if options.fmt == "json":
        _emit(to_json(report), options.output)
    elif options.fmt == "sarif":
        _emit(to_sarif(report), options.output)
    else:
        _emit(report.format() + "\n", options.output)
    return 0 if report.ok else 1


def main(argv=None):
    parser = _build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        return _list_rules()
    if not options.flow and (options.fmt != "text" or options.output):
        print("repro-lint: --format/--output require --flow",
              file=sys.stderr)
        return 2
    if options.flow:
        return _flow_main(options)
    try:
        rule_ids = _parse_select(options.select, RULES, "per-file")
        report = lint_paths(options.paths, rule_ids=rule_ids)
    except ReproError as error:
        print(f"repro-lint: {error}", file=sys.stderr)
        return 2
    print(report.format())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
