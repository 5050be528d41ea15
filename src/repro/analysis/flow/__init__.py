"""Whole-program flow analyses over the ``repro`` tree.

Where :mod:`repro.analysis.lint` sees one line at a time, this package
sees one *call chain* at a time: an AST-derived interprocedural call
graph (:mod:`.callgraph`) feeding three analyses —

* :mod:`.taint` — nondeterminism/exactness taint of the deterministic
  and exact-arithmetic module families: a source written in one is a
  zero-hop finding, one reached through calls carries its full witness
  chain;
* :mod:`.coverage` — the checkpoint-coverage proof for
  ``@checkpointable`` classes (every ``self`` attribute captured, or its
  finding suppressed with the reason a restore does without it);
* :mod:`.escape` — shared-state escape detection: module-level mutable
  state a run would share with everything else in the process.

Exposed as ``repro-lint flow`` with the engine's 0/1/2 exit contract.
"""

from repro.analysis.flow.analyzer import (
    FlowAnalyzer,
    FlowResult,
    render_flow_json,
)
from repro.analysis.flow.callgraph import Program, build_program
from repro.analysis.flow.names import FLOW_RULES

__all__ = [
    "FLOW_RULES",
    "FlowAnalyzer",
    "FlowResult",
    "Program",
    "build_program",
    "render_flow_json",
]
