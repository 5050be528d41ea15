"""Open-system simulation substrate.

Event-driven execution of the ROTA transition rules with pluggable
admission and allocation policies; topologies; traces; fault events.
"""

from repro.system.events import (
    ComputationArrivalEvent,
    ComputationLeaveEvent,
    Event,
    NodeCrashEvent,
    RateDegradationEvent,
    PartitionHealEvent,
    PartitionStartEvent,
    RecoveryOfferEvent,
    ResourceJoinEvent,
    ResourceRevocationEvent,
    arrival,
    node_crash,
    partition_heal,
    partition_start,
    rate_degradation,
    resource_join,
)
from repro.system.channel import (
    ChannelStats,
    LinkConfig,
    MessageChannel,
    NetworkModel,
    PartitionSpan,
    RpcOutcome,
    WireRecord,
)
from repro.system.checkpoint import (
    CheckpointStore,
    DeltaSnapshotter,
    Journal,
    SimulatorCheckpoint,
    atomic_writer,
)
from repro.system.node import Topology
from repro.system.scheduler import (
    AllocationPolicy,
    EdfPolicy,
    ReservationPolicy,
)
from repro.system.simulator import (
    ComputationRecord,
    OpenSystemSimulator,
    SimulationReport,
)
from repro.system.tracing import (
    PromiseViolation,
    ResourceLoss,
    SimulationTrace,
    TraceNote,
)

__all__ = [
    "ComputationArrivalEvent",
    "ComputationLeaveEvent",
    "Event",
    "NodeCrashEvent",
    "PartitionHealEvent",
    "PartitionStartEvent",
    "RateDegradationEvent",
    "RecoveryOfferEvent",
    "ResourceJoinEvent",
    "ResourceRevocationEvent",
    "arrival",
    "node_crash",
    "partition_heal",
    "partition_start",
    "rate_degradation",
    "resource_join",
    "ChannelStats",
    "LinkConfig",
    "MessageChannel",
    "NetworkModel",
    "PartitionSpan",
    "RpcOutcome",
    "WireRecord",
    "Topology",
    "AllocationPolicy",
    "EdfPolicy",
    "ReservationPolicy",
    "CheckpointStore",
    "DeltaSnapshotter",
    "Journal",
    "SimulatorCheckpoint",
    "atomic_writer",
    "ComputationRecord",
    "OpenSystemSimulator",
    "SimulationReport",
    "PromiseViolation",
    "ResourceLoss",
    "SimulationTrace",
    "TraceNote",
]
