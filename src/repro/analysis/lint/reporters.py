"""Finding reporters: human text and machine JSON.

The JSON document is a stable contract (``JSON_SCHEMA_VERSION``): CI and
editor integrations may parse it.  Text output is one ``path:line:col``
line per finding — clickable in most terminals — plus a one-line summary.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.analysis.lint.engine import Finding

JSON_SCHEMA_VERSION = 1

#: Keys every finding object in the JSON report carries, in order.
FINDING_FIELDS = ("path", "line", "column", "rule", "severity", "message")


def render_text(findings: Sequence[Finding], files_checked: int) -> str:
    lines = [finding.render() for finding in findings]
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    if findings:
        lines.append(
            f"{errors} error(s), {warnings} warning(s) "
            f"in {files_checked} file(s) checked"
        )
    else:
        lines.append(f"clean: {files_checked} file(s) checked, no findings")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_checked: int) -> str:
    return json.dumps(_document(findings, files_checked), indent=2)


def _document(findings: Sequence[Finding], files_checked: int) -> dict:
    """The JSON report every ``repro-lint`` tool emits; ``repro-lint
    flow`` renames the tool and appends its own sections."""
    return {
        "version": JSON_SCHEMA_VERSION,
        "tool": "repro-lint",
        "files_checked": files_checked,
        "counts": {
            "error": sum(1 for f in findings if f.severity == "error"),
            "warning": sum(1 for f in findings if f.severity == "warning"),
        },
        "findings": [
            {field: getattr(finding, field) for field in FINDING_FIELDS}
            for finding in findings
        ],
    }
