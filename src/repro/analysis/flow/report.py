"""Serialization of flow reports: JSON and SARIF 2.1.0.

The SARIF output targets code-scanning UIs (one ``result`` per
finding, rule metadata in the driver block); the JSON output is the
engine's own shape for scripting.
"""

from __future__ import annotations

import json
from typing import Dict

__all__ = ["to_json", "to_sarif"]

_RULE_DESCRIPTIONS: Dict[str, str] = {
    "RL101": "cross-module unit propagation (ms/mj/mw algebra of eq. 5)",
    "RL102": "determinism taint into the simulation core",
    "RL103": "virtual-clock write funnels",
    "RL104": "architecture layer contracts",
}


def _violation_dict(violation) -> Dict:
    return {
        "rule": violation.rule,
        "path": violation.path,
        "line": violation.line,
        "col": violation.col,
        "name": violation.name,
        "message": violation.message,
    }


def to_json(report) -> str:
    """The engine's own report shape, one JSON document."""
    payload = {
        "ok": report.ok,
        "modules_checked": report.modules_checked,
        "counts": report.counts(),
        "violations": [_violation_dict(v) for v in report.violations],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def to_sarif(report) -> str:
    """SARIF 2.1.0 for code-scanning upload."""
    rules = [
        {
            "id": rule_id,
            "name": rule_id,
            "shortDescription": {"text": description},
            "defaultConfiguration": {"level": "error"},
        }
        for rule_id, description in sorted(_RULE_DESCRIPTIONS.items())
    ]

    def result(violation) -> Dict:
        return {
            "ruleId": violation.rule,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": violation.path.replace("\\", "/"),
                    },
                    "region": {
                        "startLine": max(1, violation.line),
                        "startColumn": max(1, violation.col + 1),
                    },
                },
            }],
            "partialFingerprints": {
                "reproFlow/v1": "/".join((
                    violation.rule,
                    violation.path.replace("\\", "/"),
                    violation.name,
                )),
            },
        }

    results = [result(v) for v in report.violations]
    sarif = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "reprolint-flow",
                    "informationUri": (
                        "https://example.invalid/docs/static_analysis"
                    ),
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }
    return json.dumps(sarif, indent=2, sort_keys=True) + "\n"
