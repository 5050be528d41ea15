"""Unreliable networks: partitions, message loss, and lease-based
promise renegotiation across the enclave hierarchy.

Everything before this module assumed the control plane was free:
admission verdicts, capacity joins, and migration offers moved between
enclaves instantly and reliably.  Here they become wire messages on a
:class:`~repro.system.channel.MessageChannel` — delayed, lost,
reordered, and severed by scheduled partitions — and the
temporal-reasoning story extends to the network itself:

* **Network time is deadline time.**  A cross-enclave admission is a
  request/verdict RPC with timeout and seeded-backoff retries; the whole
  exchange's elapsed time is charged against the arrival's deadline via
  :func:`~repro.decision.admission.clip_start` *before* the Theorem-4
  check runs, so a verdict that crawled through a lossy link admits
  strictly less than a prompt one.
* **Cross-enclave capacity is leased, not owned.**  A mid-run join
  destined for a child enclave crosses the wire and arrives as a
  :class:`~repro.encapsulation.lease.Lease`-backed grant that must be
  renewed over the channel.  A partitioned child cannot renew: at expiry
  it *conservatively renounces* the leased remainder — a measured
  ``"lease-expired"`` capacity loss that flows through the ordinary
  promise-violation pipeline (evict, Theorem-4 re-admission against the
  local allotment, salvage on abandonment).  Degraded autonomy is
  literal: while cut off, the enclave re-decides victims against what it
  owns outright, no round trip.
* **Heal means reconcile.**  When a partition heals, the policy settles
  the partitioned sides' accounts: every lease that lapsed during the
  window is reported with its renounced quantity and dependents, and the
  extended conservation identity
  ``offered = consumed + expired + lost + shed + lease-expired``
  keeps holding at every slice throughout.

A mesh run's fingerprint is
:func:`~repro.faults.chaos.report_fingerprint` over the report and the
policy, whose :meth:`MeshPolicy.fingerprint_fields` add the wire state
as ``"network"`` (:func:`network_digest`).  Both matrices below compare
runs under it.

:func:`chaos_partition_matrix` sweeps partition start/duration x loss x
delay and asserts the two properties that make the model trustworthy:
**zero admitted-promise violations** (no admitted computation silently
misses — every one completes, recovers, or is honestly abandoned with
salvage) and **replay identity**: every cell goes through
:func:`repro.faults.chaos.replay_identity`, run twice, and both the
report and the wire must come back field-identical (fates are stateless
SHA-256 draws, so an unreliable network is still a deterministic one).

:func:`chaos_partition_crash_matrix` is not a second crash harness.  It
runs :func:`repro.faults.chaos.kill_and_resume`, the one kill-and-resume
loop, once per partition cell over ``partial(run_mesh, cell)``, tagging
each journal kill with the torn record's partition phase and mid-RPC
status.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.backoff import Backoff
from repro.baselines.base import AdmissionPolicy, PolicyDecision, arrival_label
from repro.computation.requirements import ConcurrentRequirement
from repro.decision.admission import clip_start, deadline_passed
from repro.encapsulation.enclave import Enclave
from repro.encapsulation.lease import Lease, LeaseTable
from repro.errors import (
    ChannelError,
    FaultInjectionError,
    TransitionError,
    require_count,
)
from repro.faults.chaos import (
    ChaosResult,
    MatrixResult,
    kill_and_resume,
    replay_identity,
    replay_verdict,
    report_fingerprint,
)
from repro.faults.plan import require_finite, require_seed
from repro.faults.recovery import RecoveryPolicy
from repro.intervals.interval import Interval, Time
from repro.markers import checkpointable
from repro.resources.located_type import Node
from repro.resources.resource_set import ResourceSet
from repro.serialization import time_from_wire, time_to_wire
from repro.system.channel import (
    LinkConfig,
    MessageChannel,
    NetworkModel,
    PartitionSpan,
    RpcOutcome,
)
from repro.system.checkpoint import CheckpointStore, Journal
from repro.system.events import (
    Event,
    arrival,
    partition_heal,
    partition_start,
    resource_join,
)
from repro.system.simulator import OpenSystemSimulator, SimulationReport
from repro.workloads.partition import mesh_names, partitioned_mesh_stream


#: The name of the plan's one partition window (events and spans).
PARTITION_NAME = "p0"
#: Virtual ticks an RPC attempt waits for its verdict before retrying.
RPC_TIMEOUT: Time = 2
#: Attempts per cross-enclave admission RPC (migration offers get one).
RPC_ATTEMPTS = 3


@dataclass(frozen=True)
class PartitionPlan:
    """Deterministic description of one unreliable-network experiment.

    Same shape discipline as :class:`~repro.faults.plan.FaultPlan` and
    :class:`~repro.faults.overload.OverloadPlan`: a frozen value object
    validated on construction, so a plan can be logged, replayed, and
    swept by :func:`dataclasses.replace` without surprises.
    """

    seed: int = 0
    #: child enclaves behind the door node ``n0``
    children: int = 2
    #: partition window start; ``partition_duration == 0`` disables it
    partition_start: Time = 18
    partition_duration: Time = 10
    #: child nodes the partition cuts off from the door
    severed: Tuple[str, ...] = ("n1",)
    #: default link behaviour (applies to every door<->child link)
    link_delay: int = 0
    link_jitter: int = 0
    link_loss: float = 0.0
    #: lease discipline for cross-enclave grants
    lease_ttl: Time = 6
    renew_every: Time = 2
    #: workload shape (see :func:`repro.workloads.partition`)
    horizon: Time = 48
    deadline_slack: Time = 12

    def __post_init__(self) -> None:
        require_seed(self.seed)
        require_count(FaultInjectionError, "children", self.children)
        require_count(FaultInjectionError, "horizon", self.horizon)
        for name in (
            "partition_start", "partition_duration", "lease_ttl",
            "renew_every", "deadline_slack",
        ):
            require_finite(name, getattr(self, name))
        if self.deadline_slack <= 0:
            raise FaultInjectionError(
                f"deadline_slack must be > 0, got {self.deadline_slack!r}"
            )
        if self.partition_start < 0 or self.partition_duration < 0:
            raise FaultInjectionError(
                f"partition window must be non-negative, got "
                f"start={self.partition_start!r} "
                f"duration={self.partition_duration!r}"
            )
        if not isinstance(self.severed, (tuple, list)) or not all(
            isinstance(node, str) for node in self.severed
        ):
            raise FaultInjectionError(
                f"severed must be a tuple or list of node names, "
                f"got {self.severed!r}"
            )
        names = mesh_names(self.children)
        if self.partition_duration > 0:
            if not self.severed:
                raise FaultInjectionError(
                    "a partition must sever at least one child"
                )
            for node in self.severed:
                if node not in names[1:]:
                    raise FaultInjectionError(
                        f"severed node {node!r} is not a child of the mesh "
                        f"(children: {', '.join(names[1:])})"
                    )
            if self.partition_start >= self.horizon:
                raise FaultInjectionError(
                    f"partition_start {self.partition_start!r} must precede "
                    f"the horizon {self.horizon!r}"
                )
        try:
            self.link()
        except ChannelError as exc:
            raise FaultInjectionError(str(exc)) from None
        if self.lease_ttl <= 0:
            raise FaultInjectionError(
                f"lease_ttl must be > 0, got {self.lease_ttl!r}"
            )
        if not 0 < self.renew_every < self.lease_ttl:
            raise FaultInjectionError(
                f"renew_every must lie in (0, lease_ttl), got "
                f"{self.renew_every!r} against ttl {self.lease_ttl!r} "
                "(a lease renewed less often than it expires is dead "
                "on a perfect network too)"
            )

    # ------------------------------------------------------------------
    @property
    def door(self) -> str:
        return mesh_names(self.children)[0]

    @property
    def node_names(self) -> Tuple[str, ...]:
        return mesh_names(self.children)

    @property
    def partition_end(self) -> Time:
        return self.partition_start + self.partition_duration

    @property
    def severed_links(self) -> Tuple[Tuple[str, str], ...]:
        return tuple((self.door, node) for node in self.severed)

    @property
    def is_benign(self) -> bool:
        """No partition and a perfect link: the perfect-network baseline."""
        return self.partition_duration == 0 and self.link().is_perfect

    # ------------------------------------------------------------------
    def link(self) -> LinkConfig:
        return LinkConfig(
            delay=self.link_delay,
            jitter=self.link_jitter,
            loss=self.link_loss,
        )

    def network(self) -> NetworkModel:
        partitions: Tuple[PartitionSpan, ...] = ()
        if self.partition_duration > 0:
            partitions = (
                PartitionSpan(
                    start=self.partition_start,
                    end=self.partition_end,
                    severed=self.severed_links,
                    name=PARTITION_NAME,
                ),
            )
        return NetworkModel(
            seed=self.seed, default=self.link(), partitions=partitions
        )

    def backoff(self) -> Backoff:
        """Retry spacing for RPC retransmissions: short and jittered, so
        retries from different arrivals never synchronise."""
        return Backoff(base=1, factor=2.0, cap=4, jitter=0.25, seed=self.seed)


@checkpointable
class MeshPolicy(AdmissionPolicy):
    """Admission over an enclave mesh whose control plane is a network.

    The door enclave (``n0``) fronts the system; each child node is its
    own enclave carved from the initial allotment.  Every cross-enclave
    interaction is a wire message:

    * arrivals targeting a child are decided by an ``admit`` RPC whose
      elapsed time (delays, timeouts, retries) is charged against the
      deadline before the child's Theorem-4 check;
    * mid-run joins destined for a child are *sent* — a lost or severed
      join is shed at the boundary (the ``+ shed`` conservation leg), a
      delivered one becomes a lease-backed grant on the child's
      controller;
    * leases are renewed holder -> grantor with acks back; a partition
      blocks both legs, so the lease lapses and the child conservatively
      renounces the remainder (the ``+ lease-expired`` leg), evicting
      dependents into the recovery pipeline;
    * a victim's re-admission is decided *locally* by its own enclave
      (degraded autonomy — no round trip); only if the local allotment
      cannot re-assure the deadline are migration offers sent to other
      enclaves over the wire.

    The policy is picklable (plans, network model, channel, enclave tree,
    lease table — all plain data), so checkpoint/resume keeps working.
    """

    name = "netmesh"

    def __init__(self, plan: PartitionPlan) -> None:
        self._plan = plan
        self._network = plan.network()
        self._channel = MessageChannel(self._network, name="mesh")
        self._backoff = plan.backoff()
        self._door = plan.door
        self._node_names = plan.node_names
        # The enclave tree is built lazily from the first
        # observe_resources call (the simulator's initial-resources
        # priming), so the same policy object works with any base set.
        self._root: Optional[Enclave] = None
        self._enclaves: Dict[str, Enclave] = {}
        self._leases = LeaseTable()
        self._placements: Dict[str, str] = {}
        #: wire msg_ids already applied
        self._applied: Dict[str, bool] = {}
        #: leases lapsed since the last reconciliation, with expiry time
        self._unreconciled: List[Tuple[Lease, Time]] = []
        #: renounced quantity per lease id, measured at expiry
        self._renounced: Dict[str, Time] = {}
        self._rpc_seq = 0
        #: wire WAL entries accumulated this slice; the simulator drains
        #: them into the journal via :meth:`drain_wire_records`.  A
        #: slice-local buffer: recovery replays it from the journal, so
        #: checkpoints deliberately exclude it (_WIRE_STATE)
        self._wire_wal: List[Dict[str, object]] = []  # repro-lint: disable=flow-snapshot-coverage -- slice-local journal buffer, replayed from the journal
        # Observational tallies (reported by benchmarks, never traced).
        self.network_delay_charged: Time = 0
        self.rpc_failures = 0
        self.stray_verdicts = 0
        self.late_acks = 0
        self.joins_shed = 0
        self.migrations = 0

    # ------------------------------------------------------------------
    @property
    def plan(self) -> PartitionPlan:
        return self._plan

    @property
    def channel(self) -> MessageChannel:
        return self._channel

    @property
    def leases(self) -> LeaseTable:
        return self._leases

    @property
    def root(self) -> Optional[Enclave]:
        return self._root

    # ------------------------------------------------------------------
    # Durability: the wire is derivable state
    # ------------------------------------------------------------------
    #: Attributes excluded from the policy's own pickle: the checkpoint
    #: carries them in its dedicated ``network`` section instead (see
    #: :meth:`network_snapshot`), the single authority on wire state.
    _WIRE_STATE = (
        "_channel",
        "_leases",
        "_applied",
        "_unreconciled",
        "_renounced",
        "_wire_wal",
    )

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        for name in self._WIRE_STATE:
            state.pop(name, None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        # A bare unpickle yields a structurally valid policy with an
        # *empty* wire; resume() immediately follows up with
        # restore_network() from the checkpoint's network section.
        self.__dict__.update(state)
        self._channel = MessageChannel(self._network, name="mesh")
        self._leases = LeaseTable()
        self._applied = {}
        self._unreconciled = []
        self._renounced = {}
        self._wire_wal = []

    def network_snapshot(self) -> Dict[str, object]:
        """The policy's entire wire state as one checkpoint section.

        Fates are stateless draws over ``(seed, link, msg_id)``, so this
        — the in-flight queue and its send-order counter, the channel
        stats/log, the lease table's grant/renewal clocks, the
        applied-message dedup map, and the RPC attempt counter — is all
        a resume needs to rebuild a byte-identical channel without
        replaying a single draw."""
        return {
            "channel": self._channel.state_snapshot(),
            "leases": self._leases.state_snapshot(),
            "applied": dict(self._applied),
            "unreconciled": [
                (lease.lease_id, at) for lease, at in self._unreconciled
            ],
            "renounced": dict(self._renounced),
            "rpc_seq": self._rpc_seq,
            "tallies": {
                "network_delay_charged": self.network_delay_charged,
                "rpc_failures": self.rpc_failures,
                "stray_verdicts": self.stray_verdicts,
                "late_acks": self.late_acks,
                "joins_shed": self.joins_shed,
                "migrations": self.migrations,
            },
        }

    def fingerprint_fields(self) -> Dict[str, str]:
        """Two mesh runs are the same run only if their wires were
        byte-identical too: the wire state as ``"network"``."""
        return {"network": network_digest(self)}

    def restore_network(self, snapshot: Dict[str, object]) -> None:
        """Reinstate a :meth:`network_snapshot` (the dedup map included,
        so a resumed run neither double-applies a retransmitted message
        nor double-renounces an already-expired lease)."""
        self._channel.restore_state(snapshot["channel"])
        self._leases.restore_state(snapshot["leases"])
        self._applied = dict(snapshot["applied"])
        self._unreconciled = [
            (self._leases.get(lease_id), at)
            for lease_id, at in snapshot["unreconciled"]
        ]
        self._renounced = dict(snapshot["renounced"])
        self._rpc_seq = snapshot["rpc_seq"]
        for name, value in snapshot["tallies"].items():
            setattr(self, name, value)
        self._wire_wal = []

    def drain_wire_records(self) -> List[Dict[str, object]]:
        """Hand the slice's wire WAL entries to the simulator's journal
        (lease grants/renewals/expiries and RPC verdicts, each
        re-verified, never re-decided, on replay)."""
        drained, self._wire_wal = self._wire_wal, []
        return drained

    def _wal_rpc(
        self, op: str, key: str, outcome: RpcOutcome, now: Time
    ) -> None:
        end = outcome.completed_at if outcome.ok else outcome.gave_up_at
        self._wire_wal.append(
            {
                "type": "wire",
                "kind": "rpc",
                "op": op,
                "key": key,
                "ok": bool(outcome.ok),
                "attempts": outcome.attempts,
                "strays": outcome.stray_replies,
                "time": time_to_wire(now),
                "end": time_to_wire(end),
            }
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _advance(self, now: Time) -> None:
        if self._root is None:
            return
        for enclave in self._root.walk():
            enclave.controller.advance_to(now)

    @staticmethod
    def _location_name(ltype) -> str:
        where = ltype.location
        if isinstance(where, Node):
            return where.name
        return where.source.name

    def _split_by_node(
        self, resources: ResourceSet
    ) -> List[Tuple[str, ResourceSet]]:
        groups: Dict[str, Dict] = {}
        for ltype in resources.located_types:
            groups.setdefault(self._location_name(ltype), {})[ltype] = (
                resources.profile(ltype)
            )
        return [
            (node, ResourceSet.from_profiles(profiles))
            for node, profiles in groups.items()
        ]

    def _target_node(self, requirement: ConcurrentRequirement) -> str:
        for component in requirement.components:
            for phase in component.phases:
                for ltype in phase:
                    return self._location_name(ltype)
        return self._door

    def _attach(self, node: str, label: str) -> None:
        """Admissions at a child ride every lease active there: their
        promise is only as durable as the pledges backing the slack."""
        for lease in self._leases.active(self._enclaves[node].controller.now):
            if lease.holder == node:
                lease.attach(label)

    # ------------------------------------------------------------------
    # AdmissionPolicy interface
    # ------------------------------------------------------------------
    def observe_resources(self, resources: ResourceSet, now: Time) -> None:
        if self._root is None:
            # Priming call: the base allotments, owned outright (the only
            # capacity that is *not* leased).  Children are carved from
            # the root per node.
            self._root = Enclave.root(
                resources, name=self._door, now=now, align=1
            )
            self._enclaves = {self._door: self._root}
            portions = dict(self._split_by_node(resources))
            for node in self._node_names[1:]:
                allotment = portions.get(node, ResourceSet.empty())
                self._enclaves[node] = self._root.spawn(node, allotment)
            return
        # A later join: admit_resources already put the child-bound
        # portions on the wire (they join their enclaves at delivery,
        # via poll); only the door's own portion lands here directly.
        self._advance(now)
        for node, portion in self._split_by_node(resources):
            if node == self._door:
                self._root.controller.add_resources(portion)

    def admit_resources(self, resources: ResourceSet, now: Time) -> ResourceSet:
        """Send child-bound join portions over the wire; a lost or
        severed join never enters the system — it is shed at the
        boundary, the simulator measures it, conservation extends."""
        if self._root is None:
            return resources
        kept: Dict = {}
        dropped = False
        for node, portion in self._split_by_node(resources):
            if node == self._door:
                for ltype in portion.located_types:
                    kept[ltype] = portion.profile(ltype)
                continue
            record = self._channel.send(
                "join",
                self._door,
                node,
                now,
                msg_id=f"join:{node}@{now}",
                payload=portion,
            )
            if record.delivered:
                for ltype in portion.located_types:
                    kept[ltype] = portion.profile(ltype)
            else:
                dropped = True
                self.joins_shed += 1
        if not dropped:
            return resources
        return ResourceSet.from_profiles(kept)

    def decide(
        self, requirement: ConcurrentRequirement, now: Time
    ) -> PolicyDecision:
        if self._root is None:
            return PolicyDecision(False, reason="mesh has no resources yet")
        self._advance(now)
        label = arrival_label(requirement)
        placed = self._placements.get(label)
        if placed is not None:
            return self._redecide(label, placed, requirement, now)
        target = self._target_node(requirement)
        enclave = self._enclaves.get(target)
        if enclave is None:
            return PolicyDecision(
                False, reason=f"no enclave at node {target!r}"
            )
        if target == self._door:
            decision = enclave.admit(requirement)
        else:
            # Cross-enclave admission: request/verdict over the wire.
            outcome, checked = self._priced_rpc(
                "admit", self._door, target, label, requirement, now,
                RPC_ATTEMPTS,
            )
            if checked is None:
                if not outcome.ok:
                    return PolicyDecision(
                        False,
                        reason=(
                            f"enclave {target!r} unreachable: no admission "
                            f"verdict after {outcome.attempts} attempt(s)"
                        ),
                    )
                # A late admission verdict counts as a failed RPC too.
                self.rpc_failures += 1
                return PolicyDecision(
                    False,
                    reason=(
                        f"verdict from {target!r} landed at "
                        f"t={outcome.completed_at} — after the deadline"
                    ),
                )
            decision = enclave.admit(checked)
        if decision.admitted:
            self._placements[label] = target
            self._attach(target, label)
            return PolicyDecision(True, schedule=decision.schedule)
        return PolicyDecision(
            False,
            reason=decision.reason
            or f"enclave {target!r} cannot assure the deadline",
        )

    def _priced_rpc(
        self, op: str, src: str, dst: str, label: str,
        requirement: ConcurrentRequirement, now: Time, max_attempts: int,
    ) -> Tuple[RpcOutcome, Optional[ConcurrentRequirement]]:
        """One request/verdict exchange whose elapsed network time is
        charged against the deadline.

        Keys read ``label:a<seq>`` for ``admit`` and ``label:m<seq>`` for
        ``migrate``; the outcome is write-ahead-logged either way.
        Returns the outcome and the requirement clipped to the verdict's
        landing instant, or ``None`` in its place when no verdict came
        back (a failed RPC, tallied here) or it landed at or after the
        deadline."""
        self._rpc_seq += 1
        key = f"{label}:{op[0]}{self._rpc_seq}"
        outcome = self._channel.rpc(
            op,
            src,
            dst,
            now,
            key=key,
            deadline=requirement.deadline,
            timeout=RPC_TIMEOUT,
            backoff=self._backoff,
            max_attempts=max_attempts,
        )
        self.stray_verdicts += outcome.stray_replies
        self._wal_rpc(op, key, outcome, now)
        if not outcome.ok:
            self.rpc_failures += 1
            return outcome, None
        if deadline_passed(requirement, outcome.completed_at):
            return outcome, None
        self.network_delay_charged = (
            self.network_delay_charged + outcome.elapsed(now)
        )
        if outcome.completed_at > now:
            return outcome, clip_start(requirement, outcome.completed_at)
        return outcome, requirement

    def _redecide(
        self,
        label: str,
        placed: str,
        requirement: ConcurrentRequirement,
        now: Time,
    ) -> PolicyDecision:
        """Recovery re-admission: degraded autonomy first, offers second.

        The victim's own enclave decides on its *local* allotment — no
        round trip, so a partitioned enclave keeps re-admitting on what
        it owns outright.  Only when the local check fails are migration
        offers sent to the other enclaves over the (possibly severed)
        wire, each one's latency charged against the deadline.
        """
        local = self._enclaves[placed]
        decision = local.admit(requirement)
        if decision.admitted:
            self._attach(placed, label)
            return PolicyDecision(True, schedule=decision.schedule)
        for node in self._node_names:
            if node == placed:
                continue
            _, offered = self._priced_rpc(
                "migrate", placed, node, label, requirement, now, 1
            )
            if offered is None:
                continue
            accepted = self._enclaves[node].admit(offered)
            if accepted.admitted:
                self._placements[label] = node
                self._attach(node, label)
                self.migrations += 1
                return PolicyDecision(True, schedule=accepted.schedule)
        return PolicyDecision(
            False,
            reason=(
                f"degraded autonomy: enclave {placed!r} cannot re-assure "
                f"{label!r} locally and no reachable enclave accepted "
                "the migration offer"
            ),
        )

    def observe_loss(self, lost: ResourceSet, now: Time) -> None:
        """Route a measured loss to the enclaves owning the capacity."""
        if self._root is None:
            return
        self._advance(now)
        for node, portion in self._split_by_node(lost):
            enclave = self._enclaves.get(node)
            if enclave is not None:
                enclave.controller.revoke_resources(portion)

    def forfeit(self, label: str, now: Time) -> None:
        placed = self._placements.get(label)
        if placed is None:
            return
        controller = self._enclaves[placed].controller
        controller.advance_to(now)
        try:
            controller.forfeit(label)
        except TransitionError:
            # Eviction is best-effort by design (see RotaAdmission).
            pass

    def on_settle(self, label: str) -> None:
        """A settled label is never decided, forfeited or withdrawn
        again: its placement goes, so the table (and every checkpoint's
        ``admission`` part) holds open work only."""
        self._placements.pop(label, None)

    def on_leave(self, label: str, now: Time) -> None:
        placed = self._placements.pop(label, None)
        if placed is None:
            return
        controller = self._enclaves[placed].controller
        controller.advance_to(now)
        try:
            controller.withdraw(label)
        except TransitionError:
            pass

    # ------------------------------------------------------------------
    # Channel hooks (driven by the simulator each slice)
    # ------------------------------------------------------------------
    def poll(
        self, now: Time
    ) -> Iterator[Tuple[Optional[ResourceSet], str, str]]:
        """One slice of network housekeeping.

        Delivers due wire messages (joins become lease-backed grants,
        renewals are acked, acks extend expiries), sends due renewal
        requests, then conservatively expires unrenewable leases — acks
        are processed *before* the expiry check, so a renewal that beat
        the lapse always wins.  Yields ``(lost, cause, message)``
        incidents; a lease expiry's renounced remainder flows through
        the simulator's ordinary fault path.
        """
        if self._root is None:
            return
        self._advance(now)
        plan = self._plan
        for record in self._channel.deliver_due(now):
            self._applied[record.msg_id] = True
            if record.kind == "join":
                node = record.dst
                grant: ResourceSet = record.payload
                usable = grant.truncate_before(now)
                self._enclaves[node].controller.add_resources(usable)
                lease = self._leases.grant(
                    Lease(
                        lease_id=record.msg_id,
                        grantor=self._door,
                        holder=node,
                        resources=grant,
                        granted_at=now,
                        expires_at=now + plan.lease_ttl,
                        ttl=plan.lease_ttl,
                        renew_every=plan.renew_every,
                    )
                )
                self._wire_wal.append(
                    {
                        "type": "wire",
                        "kind": "lease-grant",
                        "id": lease.lease_id,
                        "holder": node,
                        "time": time_to_wire(now),
                        "expires": time_to_wire(lease.expires_at),
                    }
                )
                yield (
                    None,
                    "",
                    f"lease {lease.lease_id!r} granted to {node!r} "
                    f"(ttl {plan.lease_ttl})",
                )
            elif record.kind == "lease-renew":
                # Landed at the grantor: ack back over the wire.
                self._channel.send(
                    "lease-ack",
                    record.dst,
                    record.src,
                    now,
                    msg_id=f"{record.msg_id}:ack",
                    payload=record.payload,
                )
            elif record.kind == "lease-ack":
                lease = self._leases.get(record.payload)
                if lease.expired:
                    self.late_acks += 1
                    self._wire_wal.append(
                        {
                            "type": "wire",
                            "kind": "lease-ack",
                            "id": lease.lease_id,
                            "time": time_to_wire(now),
                            "late": True,
                        }
                    )
                    yield (
                        None,
                        "",
                        f"late renewal ack for expired lease "
                        f"{lease.lease_id!r} ignored",
                    )
                else:
                    lease.renew(now)
                    self._wire_wal.append(
                        {
                            "type": "wire",
                            "kind": "lease-ack",
                            "id": lease.lease_id,
                            "time": time_to_wire(now),
                            "late": False,
                            "expires": time_to_wire(lease.expires_at),
                        }
                    )
        for lease in self._leases.due_renewals(now):
            lease.mark_renewal_sent(now)
            sent = self._channel.send(
                "lease-renew",
                lease.holder,
                lease.grantor,
                now,
                msg_id=f"{lease.lease_id}:renew@{now}",
                payload=lease.lease_id,
            )
            if not sent.delivered:
                lease.failed_renewals += 1
            self._wire_wal.append(
                {
                    "type": "wire",
                    "kind": "lease-renew",
                    "id": lease.lease_id,
                    "time": time_to_wire(now),
                    "delivered": sent.delivered,
                }
            )
        for lease in self._leases.expire_due(now):
            remaining = lease.remaining(now)
            quantity: Time = 0
            measure = Interval(now, plan.horizon)
            for ltype in remaining.located_types:
                quantity = quantity + remaining.quantity(ltype, measure)
            self._renounced[lease.lease_id] = quantity
            self._unreconciled.append((lease, now))
            self._wire_wal.append(
                {
                    "type": "wire",
                    "kind": "lease-expired",
                    "id": lease.lease_id,
                    "time": time_to_wire(now),
                    "renounced": time_to_wire(quantity),
                    "failed_renewals": lease.failed_renewals,
                }
            )
            yield (
                None if remaining.is_empty else remaining,
                "lease-expired",
                f"lease {lease.lease_id!r} expired unrenewable at t={now} "
                f"after {lease.failed_renewals} failed renewal(s): "
                f"{lease.holder!r} conservatively renounces the remainder",
            )

    def on_partition(
        self, name: str, links, now: Time, *, healed: bool = False
    ) -> Iterator[str]:
        """Partition boundaries: degraded autonomy on start, account
        reconciliation on heal (returned lines become trace notes)."""
        self._advance(now)
        cut: List[str] = []
        for pair in links:
            for endpoint in pair:
                if endpoint != self._door and endpoint not in cut:
                    cut.append(endpoint)
        if not healed:
            for node in cut:
                yield (
                    f"enclave {node!r} enters degraded autonomy "
                    f"(link to {self._door!r} severed)"
                )
            return
        settled = list(self._unreconciled)
        self._unreconciled = []
        stats = self._channel.stats
        yield (
            f"partition {name!r} reconciled: {len(settled)} lease(s) "
            f"settled expired, {stats.severed} message(s) severed, "
            f"{self.rpc_failures} rpc failure(s) so far"
        )
        for lease, at in settled:
            quantity = self._renounced.get(lease.lease_id, 0)
            yield (
                f"reconcile lease {lease.lease_id!r}: expired t={at}, "
                f"renounced quantity {float(quantity):g}, "
                f"dependents {list(lease.dependents)!r}"
            )


# ----------------------------------------------------------------------
# Scenario plumbing
# ----------------------------------------------------------------------
def mesh_events(plan: PartitionPlan) -> Tuple[ResourceSet, List[Event]]:
    """The plan's full event list: arrivals, lease-backed joins, and —
    when a partition is scheduled — its start/heal boundary events."""
    resources, stream, joins = partitioned_mesh_stream(
        plan.seed,
        children=plan.children,
        horizon=plan.horizon,
        deadline_slack=plan.deadline_slack,
    )
    events: List[Event] = [
        arrival(at, requirement, label=label)
        for at, label, requirement in stream
    ]
    events.extend(resource_join(at, joining) for at, joining in joins)
    if plan.partition_duration > 0:
        events.append(
            partition_start(
                plan.partition_start, PARTITION_NAME, plan.severed_links
            )
        )
        events.append(
            partition_heal(
                plan.partition_end, PARTITION_NAME, plan.severed_links
            )
        )
    return resources, events


def run_mesh(
    plan: PartitionPlan,
    *,
    invariant_interval: int = 1,
    recovery: Optional[RecoveryPolicy] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Union[str, Path, CheckpointStore, None] = None,
    journal: Union[str, Path, Journal, None] = None,
) -> Tuple[SimulationReport, MeshPolicy]:
    """One full mesh run under the plan's network, with recovery on and
    (by default) the extended conservation identity asserted per slice.

    Durability is opt-in exactly as for any other policy: ``journal``
    write-ahead-logs events, decisions, *and* wire outcomes;
    ``checkpoint_dir`` snapshots the simulator plus the policy's network
    section, so a killed mesh run resumes through
    :meth:`OpenSystemSimulator.resume` like any other run, with the
    restored policy as the simulator's ``admission_policy``."""
    resources, events = mesh_events(plan)
    policy = MeshPolicy(plan)
    simulator = OpenSystemSimulator(
        policy,
        initial_resources=resources,
        recovery=recovery or RecoveryPolicy(),
        invariant_interval=invariant_interval,
    )
    simulator.schedule(*events)
    report = simulator.run(
        plan.horizon,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        journal=journal,
    )
    return report, policy


def network_digest(policy: MeshPolicy) -> str:
    """A canonical SHA-256 over the policy's entire wire state.

    Covers the channel log (message identities, fates, and timing — the
    full history of every draw's outcome), the in-flight queue, the
    aggregate stats, the lease table's clocks, the applied-message dedup
    map, and the RPC attempt counter.  Two runs with equal digests took
    byte-identical wires; the crash matrix demands resumed == fresh."""
    snapshot = policy.network_snapshot()
    channel = snapshot["channel"]

    def wire(value) -> Optional[str]:
        return None if value is None else str(time_to_wire(value))

    payload = {
        "log": [
            [r.msg_id, r.kind, r.src, r.dst, wire(r.sent_at), r.fate,
             wire(r.deliver_at)]
            for r in channel["log"]
        ],
        "pending": sorted(
            [wire(at), seq, record.msg_id]
            for at, seq, record in channel["pending"]
        ),
        "pending_seq": channel["pending_seq"],
        "stats": {
            "sent": channel["stats"].sent,
            "delivered": channel["stats"].delivered,
            "lost": channel["stats"].lost,
            "severed": channel["stats"].severed,
            # Always 0: the wire never duplicates a message.  The key
            # stays because perfbench/gold.json pins the digest with it.
            "duplicated": 0,
            "total_delay": wire(channel["stats"].total_delay),
            "by_kind": sorted(channel["stats"].by_kind.items()),
        },
        "leases": [
            [l.lease_id, l.grantor, l.holder, wire(l.granted_at),
             wire(l.expires_at), wire(l.next_renew_at), l.renewals,
             l.failed_renewals, list(l.dependents), wire(l.expired_at)]
            for l in snapshot["leases"]
        ],
        "applied": sorted(snapshot["applied"]),
        "unreconciled": [
            [lease_id, wire(at)]
            for lease_id, at in snapshot["unreconciled"]
        ],
        "renounced": sorted(
            (lease_id, wire(quantity))
            for lease_id, quantity in snapshot["renounced"].items()
        ),
        "rpc_seq": snapshot["rpc_seq"],
        "tallies": {
            name: wire(value)
            for name, value in snapshot["tallies"].items()
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def admitted_promise_violations(report: SimulationReport) -> List[str]:
    """Labels of admitted computations whose promise silently broke.

    ``missed`` is the violation the model must rule out; ``running`` at
    the horizon means a promise was neither kept nor honestly settled.
    Recovered and abandoned-with-salvage records are *not* violations —
    they went through the renegotiation pipeline."""
    return [
        r.label for r in report.records if r.outcome in ("missed", "running")
    ]


# ----------------------------------------------------------------------
# The partition matrix
# ----------------------------------------------------------------------
@dataclass
class NetfaultPoint:
    """One cell of the partition matrix and what it proved."""

    start: Time
    duration: Time
    loss: float
    delay: int
    arrivals: int = 0
    admitted: int = 0
    completed: int = 0
    recovered: int = 0
    abandoned: int = 0
    lease_expirations: int = 0
    rpc_failures: int = 0
    #: admitted promises that silently broke (must stay empty)
    violations: List[str] = field(default_factory=list)
    #: the two runs' mesh fingerprints agree field for field
    identical: bool = False
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.identical and not self.violations and not self.detail


def _mesh_point(plan: PartitionPlan) -> NetfaultPoint:
    (report, policy), diverged = replay_identity(
        lambda: run_mesh(plan), lambda run: report_fingerprint(*run)
    )
    expirations = len(policy.leases.expired())
    gentle = (
        plan.partition_duration > plan.lease_ttl
        and plan.severed
        and not expirations
    )
    return NetfaultPoint(
        start=plan.partition_start,
        duration=plan.partition_duration,
        loss=plan.link_loss,
        delay=plan.link_delay,
        arrivals=report.arrivals,
        admitted=report.admitted,
        completed=report.completed,
        recovered=report.recovered,
        abandoned=report.abandoned,
        lease_expirations=expirations,
        rpc_failures=policy.rpc_failures,
        violations=admitted_promise_violations(report),
        identical=not diverged,
        # The per-slice identity already ran inside the simulator
        # (invariant_interval=1); this is the whole-run one.
        detail=replay_verdict(
            diverged,
            "partition outlasted the ttl but no lease expired "
            "(plan too gentle)" if gentle else "",
            report.trace.conservation_gaps(report.offered),
        ),
    )


def chaos_partition_matrix(
    plan: PartitionPlan = PartitionPlan(),
    *,
    starts: Optional[Sequence[Time]] = None,
    durations: Optional[Sequence[Time]] = None,
    losses: Optional[Sequence[float]] = None,
    delays: Optional[Sequence[int]] = None,
) -> MatrixResult:
    """Sweep partition start/duration x loss x delay; callers assert
    ``result.ok``.

    Every cell runs the same seeded mesh twice and demands (1) zero
    admitted-promise violations, (2) field-identical fingerprints
    (:func:`report_fingerprint` over report *and* policy, so the wire
    state too), and (3) the
    extended conservation identity — per slice inside the runs,
    whole-run here.  Defaults include the
    benign cell (no partition, perfect link) as the baseline the
    benchmark compares degraded goodput against.
    """
    if starts is None:
        starts = (plan.partition_start,)
    if durations is None:
        durations = (0, plan.partition_duration)
    if losses is None:
        losses = (0.0, plan.link_loss if plan.link_loss else 0.15)
    if delays is None:
        delays = (0, plan.link_delay if plan.link_delay else 1)
    result = MatrixResult("partition")
    for duration in durations:
        for start in starts:
            for loss in losses:
                for delay in delays:
                    cell = dataclasses.replace(
                        plan,
                        partition_start=start,
                        partition_duration=duration,
                        link_loss=loss,
                        link_delay=delay,
                    )
                    result.points.append(_mesh_point(cell))
    return result


# ----------------------------------------------------------------------
# The partition x crash matrix
# ----------------------------------------------------------------------
def _crash_phase(cell: PartitionPlan, record: dict) -> str:
    """Classify the journal record a crash tears by partition phase."""
    if cell.partition_duration <= 0:
        return "benign"
    if "time" not in record:
        return "pre-partition"  # the header
    at = time_from_wire(record["time"])
    if at < cell.partition_start:
        return "pre-partition"
    if at < cell.partition_end:
        return "mid-partition"
    return "post-partition"


def _is_mid_rpc(record: dict) -> bool:
    return (
        record.get("type") == "wire"
        and record.get("kind") == "rpc"
        and record.get("attempts", 1) > 1
    )


def _tag(cell: PartitionPlan, record: dict) -> Dict[str, Any]:
    """The :class:`~repro.faults.chaos.CrashPoint` fields of a kill that
    tears ``record``: its partition phase and mid-RPC status."""
    return {"phase": _crash_phase(cell, record), "mid_rpc": _is_mid_rpc(record)}


def chaos_partition_crash_matrix(
    workdir: Union[str, Path],
    plan: PartitionPlan = PartitionPlan(),
    *,
    durations: Optional[Sequence[Time]] = None,
    checkpoint_every: int = 4,
    boundary_stride: int = 1,
    mid_write: bool = True,
) -> ChaosResult:
    """Kill journaled mesh runs at journal-record boundaries, torn
    mid-write, and during checkpoint saves, across partition cells;
    callers assert ``result.ok``.

    Each cell (one per partition duration) goes through
    :func:`~repro.faults.chaos.kill_and_resume` over
    ``partial(run_mesh, cell)``: the default stride 1 covers *every* boundary,
    including mid-partition instants and mid-RPC-backoff records, and
    each resume must reproduce a field-identical report *and* network
    digest.  In-flight messages, lease clocks, and retry ladders all
    cross the crash boundary through the checkpoint's network section +
    wire WAL, never through a re-drawn fate."""
    if durations is None:
        durations = (0, plan.partition_duration)
    result = ChaosResult()
    for duration in durations:
        cell = dataclasses.replace(plan, partition_duration=duration)
        killed = kill_and_resume(
            functools.partial(run_mesh, cell),
            Path(workdir) / f"cell-d{duration}",
            checkpoint_every=checkpoint_every,
            tag=functools.partial(_tag, cell),
            mid_write=mid_write,
            boundary_stride=boundary_stride,
        )
        result.points += killed.points
        result.cells += killed.cells
        result.journal_records += killed.journal_records
    return result
