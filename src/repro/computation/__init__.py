"""Computation representation (paper Section IV).

Actors, actions, the cost function ``Phi`` (pluggable cost models), demand
maps, and the three requirement levels ``rho(gamma/Gamma/Lambda, s, d)``.
"""

from repro.computation.actions import (
    ACTION_KINDS,
    Action,
    Create,
    Evaluate,
    Migrate,
    Ready,
    Send,
)
from repro.computation.actor import (
    ActionRequirement,
    Actor,
    ActorComputation,
    Phase,
    derive_requirements,
)
from repro.computation.computation import (
    Computation,
    concurrent,
    sequential,
)
from repro.computation.cost_model import (
    CostModel,
    DEFAULT_COST_MODEL,
    Placement,
    StandardCostModel,
)
from repro.computation.demands import NO_DEMAND, Demands

__all__ = [
    "ACTION_KINDS",
    "Action",
    "Create",
    "Evaluate",
    "Migrate",
    "Ready",
    "Send",
    "ActionRequirement",
    "Actor",
    "ActorComputation",
    "Phase",
    "derive_requirements",
    "Computation",
    "concurrent",
    "sequential",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Placement",
    "StandardCostModel",
    "NO_DEMAND",
    "Demands",
]

from repro.computation.requirements import (  # noqa: E402  (re-export)
    ComplexRequirement,
    ConcurrentRequirement,
    SimpleRequirement,
)

__all__ += ["ComplexRequirement", "ConcurrentRequirement", "SimpleRequirement"]

from repro.computation.interaction import (  # noqa: E402  (re-export)
    SegmentedRequirement,
    Wait,
    request_reply,
)

__all__ += ["SegmentedRequirement", "Wait", "request_reply"]
