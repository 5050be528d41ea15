"""One-call front-door runs: a merged join/arrival stream, served.

:func:`serve` is the standalone entry point (the CLI's ``serve``
command and the overload benchmark sit on it): build a controller, put
the front door in front of it, feed it a time-ordered stream, resolve
every brownout deferral, and summarise.  The simulator-integrated path
lives in :class:`repro.service.policy.FrontDoorPolicy` instead.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Tuple

from repro.decision.admission import AdmissionController
from repro.intervals.interval import Time
from repro.resources.resource_set import ResourceSet
from repro.service.config import ServiceConfig
from repro.service.frontdoor import AdmissionFrontDoor, ServiceRequest
from repro.service.report import ServiceReport


def serve(
    requests: Iterable[ServiceRequest],
    *,
    resources: Optional[ResourceSet] = None,
    joins: Sequence[Tuple[Time, ResourceSet]] = (),
    config: Optional[ServiceConfig] = None,
    stalls: Optional[Mapping[str, Sequence[Tuple[Time, Time]]]] = None,
    horizon: Optional[Time] = None,
    align: Time | None = 1,
    verify_brownout: bool = True,
) -> ServiceReport:
    """Serve ``requests`` (plus later ``joins``) through the front door.

    ``resources`` seeds the controller before any arrival; each
    ``(time, resource_set)`` join lands mid-stream.  At equal times,
    joins precede arrivals (an arrival may use capacity that joined "at"
    its own instant — the open-system convention the simulator uses).
    ``verify_brownout`` cross-checks every brownout screen rejection
    against the read-only exact check (soundness self-test; cheap
    because brownout rejections are rare by design).
    """
    controller = AdmissionController(resources, align=align)
    door = AdmissionFrontDoor.for_controller(
        controller,
        config,
        stalls=stalls,
        verify_brownout=verify_brownout,
    )
    arrivals = list(requests)
    events: list[tuple[Time, int, int, object]] = []
    for seq, (at, joining) in enumerate(joins):
        events.append((at, 0, seq, joining))
    for seq, request in enumerate(arrivals):
        events.append((request.arrival, 1, seq, request))
    events.sort(key=lambda event: (event[0], event[1], event[2]))

    end: Time = horizon if horizon is not None else 0
    if horizon is None:
        for request in arrivals:
            deadline = request.requirement.deadline
            if deadline > end:
                end = deadline
    for at, kind, _, payload in events:
        if kind == 0:
            door.add_resources(payload, at)
        else:
            door.offer(payload)
        # Resolve deferrals as soon as pressure allows — reconciliation
        # is part of serving, not an afterthought.
        door.reconcile(at)
    door.finish(end)
    return ServiceReport.from_door(door, end)
