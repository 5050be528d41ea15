"""The flow-analysis rule namespace.

Kept in a leaf module so :func:`repro.analysis.lint.engine.known_rule_names`
can pull the names in without importing the (heavier) call-graph
machinery — a suppression naming ``flow-shared-state`` must parse as a
known rule under ``repro-lint code`` too, even though only
``repro-lint flow`` can produce or discharge the finding.
"""

from __future__ import annotations

from typing import Dict

#: Interprocedural rules run by ``repro-lint flow``.
FLOW_RULES: Dict[str, str] = {
    "flow-nondeterminism": (
        "a deterministic module reads the host clock, ambient or unseeded "
        "randomness, or the environment, directly (a zero-hop finding at "
        "the source line) or through its call chain (reported at the "
        "boundary call with the full witness chain)"
    ),
    "flow-exactness": (
        "an exact-arithmetic module holds a bare float literal (zero-hop) "
        "or reaches one through its call chain (witness chain); Theorems "
        "1-4 stay proofs only while every reachable operand is "
        "int/Fraction"
    ),
    "flow-snapshot-coverage": (
        "a checkpointable class assigns a self attribute no snapshot "
        "method captures — state that would silently vanish across a "
        "resume unless a reasoned suppression says a restore does "
        "without it"
    ),
    "flow-shared-state": (
        "module-level mutable state, an ambient singleton instance, a "
        "class-level mutable default, or a 'global' statement inside the "
        "packages that decide a run (system/encapsulation/decision) — "
        "state that makes a run depend on what else ran in the process"
    ),
}
