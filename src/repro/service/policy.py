"""Simulator adapter: the front door as an :class:`AdmissionPolicy`.

Wrapping any inner policy (ROTA by default) puts the service layer's
overload protection between the simulator's event stream and the exact
check, which makes overload an *injectable condition*: flash crowds and
stalled enclaves become fault plans, and the chaos harness can assert
the front door's guarantees the same way it asserts crash consistency.

Two integration points beyond the plain policy interface:

* :meth:`FrontDoorPolicy.admit_resources` — joins for an enclave whose
  breaker is open are refused at the door; the simulator records the
  walled-off capacity as ``"shed"`` losses, extending the conservation
  identity to ``offered = consumed + expired + lost + shed``.
* brownout deferrals surface as rejections that re-enter through
  :meth:`retry_candidates` once pressure drops — the simulator's retry
  loop *is* the reconciliation queue.

Everything here must stay picklable (checkpoints snapshot policies), so
the door's hooks are small callable classes, never closures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.baselines.base import AdmissionPolicy, PolicyDecision, arrival_label
from repro.baselines.rota_policy import RotaAdmission
from repro.computation.requirements import ConcurrentRequirement
from repro.intervals.interval import Time
from repro.observability import get_registry
from repro.resources.located_type import Link
from repro.resources.resource_set import ResourceSet
from repro.service.config import ServiceConfig
from repro.service.frontdoor import (
    ADMITTED,
    REJECTED,
    AdmissionFrontDoor,
    ServiceRequest,
)

#: the deferral marker FrontDoorPolicy turns into a retryable rejection
DEFER_REASON = "brownout: deferred to reconciliation"


class _InnerChecker:
    """Picklable ``checker(requirement, now)`` over an inner policy."""

    def __init__(self, inner: AdmissionPolicy) -> None:
        self._inner = inner

    def __call__(self, requirement: ConcurrentRequirement, now: Time):
        return self._inner.decide(requirement, now)


class _ControllerSlackView:
    """The expiring slack of an inner policy that exposes a controller."""

    def __init__(self, inner: AdmissionPolicy) -> None:
        self._inner = inner

    def __call__(self) -> ResourceSet:
        return self._inner.controller.expiring_slack


class _ControllerProber:
    """Read-only exact check (brownout soundness cross-validation)."""

    def __init__(self, inner: AdmissionPolicy) -> None:
        self._inner = inner

    def __call__(self, requirement: ConcurrentRequirement, now: Time):
        controller = self._inner.controller
        if now > controller.now:
            controller.advance_to(now)
        return controller.can_admit(requirement)

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return True


class _ObservedSlackView:
    """Fallback screen view for inner policies without a controller:
    everything ever observed.  Coarser than the true slack, but a
    supply shortfall against *all* observed capacity still proves one
    against any slack subset — the screen stays reject-sound."""

    def __init__(self) -> None:
        self._seen = ResourceSet.empty()

    def add(self, resources: ResourceSet) -> None:
        self._seen = self._seen | resources

    def __call__(self) -> ResourceSet:
        return self._seen


def _enclave_of(ltype) -> str:
    location = ltype.location
    if isinstance(location, Link):
        return location.source.name
    return location.name


class FrontDoorPolicy(AdmissionPolicy):
    """Any admission policy, behind the overload-protecting front door."""

    def __init__(
        self,
        inner: Optional[AdmissionPolicy] = None,
        config: Optional[ServiceConfig] = None,
        *,
        stalls=None,
        verify_brownout: bool = False,
    ) -> None:
        inner = RotaAdmission() if inner is None else inner
        self._inner = inner
        has_controller = hasattr(inner, "controller")
        self._observed = None if has_controller else _ObservedSlackView()
        self._door = AdmissionFrontDoor(
            _InnerChecker(inner),
            _ControllerSlackView(inner) if has_controller else self._observed,
            config,
            prober=_ControllerProber(inner) if has_controller else None,
            stalls=stalls,
            defer_low_criticality=False,
            verify_brownout=verify_brownout and has_controller,
        )
        self.name = f"{inner.name}+door"
        #: brownout-deferred arrivals awaiting reconciliation via retry
        self._pending: Dict[str, ConcurrentRequirement] = {}
        #: capacity refused at the door by open breakers, per enclave
        self.shed_join_events: List[Tuple[Time, str]] = []

    # ------------------------------------------------------------------
    @property
    def inner(self) -> AdmissionPolicy:
        return self._inner

    @property
    def door(self) -> AdmissionFrontDoor:
        return self._door

    # ------------------------------------------------------------------
    def observe_resources(self, resources: ResourceSet, now: Time) -> None:
        if self._observed is not None:
            self._observed.add(resources)
        self._inner.observe_resources(resources, now)
        self._door.reconcile(now)

    def admit_resources(self, resources: ResourceSet, now: Time) -> ResourceSet:
        """Wall off joins for breaker-open enclaves (the shed leg).

        A stalled enclave's own capacity is exactly what the breaker
        distrusts: admitting its joins would let the exact check promise
        deadlines against resources the service cannot currently vouch
        for.  Refused profiles are returned to the simulator as shed
        capacity, not silently dropped.
        """
        kept = {}
        shed = False
        registry = get_registry()
        for ltype, profile in resources.profiles().items():
            enclave = _enclave_of(ltype)
            if self._door.accepting(enclave, now):
                kept[ltype] = profile
                continue
            shed = True
            self.shed_join_events.append((now, enclave))
            if registry.enabled:
                registry.counter(
                    "door_shed_capacity_total",
                    "resource joins refused by open breakers",
                    labels=("enclave",),
                ).inc(enclave=enclave)
        if not shed:
            return resources
        return ResourceSet.from_profiles(kept)

    def decide(self, requirement: ConcurrentRequirement, now: Time) -> PolicyDecision:
        label = arrival_label(requirement)
        outcome = self._door.offer(
            ServiceRequest(label, requirement, arrival=now)
        )
        if outcome.outcome == ADMITTED:
            self._pending.pop(label, None)
            return PolicyDecision(True, schedule=outcome.schedule)
        if (
            outcome.outcome == REJECTED
            and outcome.reason == DEFER_REASON
            and requirement.deadline > now
        ):
            self._pending[label] = requirement
        else:
            self._pending.pop(label, None)
        return PolicyDecision(False, reason=f"{outcome.outcome}: {outcome.reason}")

    def on_leave(self, label: str, now: Time) -> None:
        self._inner.on_leave(label, now)

    def on_settle(self, label: str) -> None:
        self._inner.on_settle(label)

    def observe_loss(self, lost: ResourceSet, now: Time) -> None:
        self._inner.observe_loss(lost, now)

    def forfeit(self, label: str, now: Time) -> None:
        self._inner.forfeit(label, now)

    def fingerprint_fields(self) -> Dict[str, str]:
        """The door's decision log as ``"door"``: a replayed run must
        shed, defer and admit exactly as the original did."""
        return {"door": self._door.fingerprint()}

    def retry_candidates(
        self, now: Time
    ) -> list[Tuple[str, ConcurrentRequirement]]:
        """Inner retries, plus brownout deferrals once pressure drops."""
        candidates = list(self._inner.retry_candidates(now))
        expired = [
            label
            for label, requirement in self._pending.items()
            if requirement.deadline <= now
        ]
        for label in expired:
            del self._pending[label]
        if not self._door.brownout.active:
            candidates.extend(self._pending.items())
        return candidates
