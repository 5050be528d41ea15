"""``repro.analysis.lint`` — static analysis for the ROTA reproduction.

ROTA decides *ahead of time* whether a deadline-constrained computation
can be accommodated; this package gives the repository the same
ahead-of-time guarantees about its own code and inputs.  Two rule
families plug into one engine:

* **code rules** (:mod:`.rules_code`, :mod:`.layering`) protect the
  replay-verify and exact-arithmetic contracts — no hash-order
  iteration or ``id()`` ordering in deterministic modules, no float
  equality in the exact Theorem-1..4 paths, imports pointing strictly
  down the declared layering map (the clock, randomness, environment
  and float-literal *sources* belong to ``repro-lint flow``, see
  :mod:`repro.analysis.flow.taint`);
* **spec rules** (:mod:`.spec`) validate workload scenarios, event
  traces, fault plans, ROTA formulas, and admission requests before any
  simulation touches them, including Allen path-consistency of temporal
  constraint networks.

Run it as ``repro-lint`` (console script) or
``python -m repro.analysis.lint``; see docs/static-analysis.md for the
rule catalogue and the suppression policy.
"""

from repro.analysis.lint.engine import (
    Analyzer,
    Finding,
    Rule,
    SourceFile,
    all_rules,
    exit_code,
    get_rules,
    known_rule_names,
    module_of,
    package_of,
    register,
)
from repro.analysis.lint.layering import (
    LAYERS,
    PACKAGE_OVERRIDES,
    SAME_LAYER_IMPORTS_OK,
    allowed_imports,
    import_violation,
)
from repro.analysis.lint.reporters import (
    FINDING_FIELDS,
    JSON_SCHEMA_VERSION,
    render_json,
    render_text,
)
from repro.analysis.lint.spec import (
    SPEC_RULES,
    check_request_document,
    check_spec_document,
    check_spec_path,
    check_temporal_constraints,
    check_trace_text,
)
from repro.analysis.lint.suppressions import (
    META_RULES,
    Suppression,
    parse_suppressions,
)

__all__ = [
    "Analyzer",
    "Finding",
    "Rule",
    "SourceFile",
    "all_rules",
    "exit_code",
    "get_rules",
    "known_rule_names",
    "module_of",
    "package_of",
    "register",
    "LAYERS",
    "PACKAGE_OVERRIDES",
    "SAME_LAYER_IMPORTS_OK",
    "allowed_imports",
    "import_violation",
    "FINDING_FIELDS",
    "JSON_SCHEMA_VERSION",
    "render_json",
    "render_text",
    "SPEC_RULES",
    "check_request_document",
    "check_spec_document",
    "check_spec_path",
    "check_temporal_constraints",
    "check_trace_text",
    "META_RULES",
    "Suppression",
    "parse_suppressions",
]
