"""The cost function ``Phi`` (paper Section IV-A).

``Phi(a, action)`` maps an actor's action to the set of resource amounts
required to complete it.  The paper treats ``Phi`` as given ("any-time
algorithms, approximate algorithms ... estimates could be used and revised
as necessary"); here it is a pluggable strategy object.

:class:`StandardCostModel` reproduces the paper's illustrative amounts:

===========  =======================================================
``send``     4 units of ``<network, l(sender) -> l(receiver)>``
``evaluate`` 8 units of ``<cpu, l(actor)>``
``create``   5 units of ``<cpu, l(actor)>``
``ready``    1 unit  of ``<cpu, l(actor)>``
``migrate``  3 cpu at the source + 6 network + 3 cpu at the target
===========  =======================================================

(The paper leaves migrate's network amount as ``[.]``; we use 6 and record
the choice in EXPERIMENTS.md.)  Amounts scale linearly with the action's
``work``/``size`` where it has one.

Location resolution: an action's located types depend on where the actor
(and, for ``send``, the receiver) is at the moment the action runs.  Cost
models therefore receive the sender's current location and a
:class:`Placement` for resolving other actors.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.computation.actions import Action, Create, Evaluate, Migrate, Ready, Send
from repro.computation.demands import Demands
from repro.errors import InvalidComputationError
from repro.intervals.interval import Time
from repro.resources.located_type import Node, cpu, network


class Placement:
    """Where each actor lives: the paper's location function ``l``.

    Mutable by design — the simulator updates it when actors migrate.
    """

    def __init__(self, locations: Mapping[str, Node] | None = None) -> None:
        self._locations: Dict[str, Node] = dict(locations or {})

    def locate(self, actor_name: str) -> Node:
        """``l(a)`` — the location of the named actor."""
        try:
            return self._locations[actor_name]
        except KeyError:
            raise InvalidComputationError(
                f"no known location for actor {actor_name!r}"
            ) from None

    def place(self, actor_name: str, location: Node) -> None:
        self._locations[actor_name] = location

    def copy(self) -> "Placement":
        return Placement(self._locations)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}@{n}" for a, n in self._locations.items())
        return f"Placement({inner})"


class CostModel(abc.ABC):
    """Strategy interface for the paper's ``Phi`` function."""

    @abc.abstractmethod
    def requirements(
        self, action: Action, location: Node, placement: Placement
    ) -> Demands:
        """Resource amounts for ``action`` executed by an actor currently
        at ``location``, with other actors resolved through ``placement``.
        """

    def phi(self, actor_location: Node, action: Action, placement: Placement) -> Demands:
        """Alias matching the paper's ``Phi(a, action)`` reading order."""
        return self.requirements(action, actor_location, placement)


@dataclass(frozen=True)
class StandardCostModel(CostModel):
    """The paper's illustrative amounts, linearly scaled by action size.

    All amounts are per-unit-of-work; override any field to recalibrate.
    """

    evaluate_cpu: Time = 8
    send_network: Time = 4
    create_cpu: Time = 5
    ready_cpu: Time = 1
    migrate_cpu_out: Time = 3
    migrate_network: Time = 6
    migrate_cpu_in: Time = 3

    def requirements(
        self, action: Action, location: Node, placement: Placement
    ) -> Demands:
        if isinstance(action, Evaluate):
            return Demands({cpu(location): self.evaluate_cpu * action.work})
        if isinstance(action, Send):
            destination = placement.locate(action.target)
            if destination == location:
                # Local delivery costs CPU rather than network bandwidth.
                return Demands({cpu(location): self.ready_cpu * action.size})
            link = network(location, destination)
            return Demands({link: self.send_network * action.size})
        if isinstance(action, Create):
            return Demands({cpu(location): self.create_cpu})
        if isinstance(action, Ready):
            return Demands({cpu(location): self.ready_cpu})
        if isinstance(action, Migrate):
            if action.destination == location:
                # Migrating to the current location degenerates to a no-op
                # state commit.
                return Demands({cpu(location): self.ready_cpu})
            return Demands(
                {
                    cpu(location): self.migrate_cpu_out * action.size,
                    network(location, action.destination): self.migrate_network
                    * action.size,
                    cpu(action.destination): self.migrate_cpu_in * action.size,
                }
            )
        raise InvalidComputationError(f"unknown action {action!r}")


#: Default model used across examples and tests.
DEFAULT_COST_MODEL = StandardCostModel()
