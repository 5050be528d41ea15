"""The ``repro-lint flow`` driver: build the program, run the three
interprocedural analyses, reconcile suppressions, render.

Suppressions go through the same ledger as the line engine's
(:func:`repro.analysis.lint.suppressions.reconcile`): a finding on a line
carrying a reasoned ``# repro-lint: disable=<flow-rule>`` is silenced,
and a suppression whose flow-rule names silence nothing is itself a
finding (``suppression-unused``).  The reports are the line engine's too,
with call-graph stats appended to the JSON document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.flow.callgraph import build_program
from repro.analysis.flow.coverage import (
    checkpointable_classes,
    coverage_findings,
)
from repro.analysis.flow.escape import escape_findings
from repro.analysis.flow.names import FLOW_RULES
from repro.analysis.flow.taint import (
    exactness_findings,
    nondeterminism_findings,
)
from repro.analysis.lint.engine import Finding, known_rule_names
from repro.analysis.lint.reporters import _document
from repro.analysis.lint.suppressions import reconcile


@dataclass
class FlowResult:
    """Everything one analysis run produced."""

    findings: List[Finding]
    files_checked: int
    stats: Dict[str, int] = field(default_factory=dict)


class FlowAnalyzer:
    """Whole-program analysis over a set of paths (plus in-memory
    sources, which tests use to inject mutated modules)."""

    def check_paths(
        self,
        paths: Sequence[str | Path],
        *,
        sources: Optional[Dict[str, str]] = None,
    ) -> FlowResult:
        program = build_program(paths, sources=sources)
        raw: List[Finding] = []
        for path, (line, message) in sorted(program.parse_errors.items()):
            raw.append(
                Finding(
                    path=path, line=line, column=1,
                    rule="parse-error", message=message,
                )
            )
        raw.extend(nondeterminism_findings(program))
        raw.extend(exactness_findings(program))
        raw.extend(coverage_findings(program))
        raw.extend(escape_findings(program))
        ran = set(FLOW_RULES) | {"parse-error"}
        kept = reconcile(raw, program.suppressions, ran, known_rule_names())
        files_checked = len(program.files) + len(program.parse_errors)
        return FlowResult(
            findings=kept,
            files_checked=files_checked,
            stats={
                "functions": len(program.functions),
                "classes": len(program.classes),
                "call_edges": sum(
                    len(fn.calls) for fn in program.functions.values()
                ),
                "checkpointable_classes": len(
                    checkpointable_classes(program)
                ),
            },
        )


def render_flow_json(result: FlowResult) -> str:
    document = _document(result.findings, result.files_checked)
    document["tool"] = "repro-lint flow"
    document["stats"] = result.stats
    return json.dumps(document, indent=2)
