"""Exception hierarchy for the ROTA reproduction.

All library-specific exceptions derive from :class:`RotaError`, so callers
can catch a single base class at API boundaries.  Each subclass corresponds
to one family of misuse or model violation; none of them is raised for
ordinary "the answer is infeasible" outcomes, which are reported as values.
"""

from __future__ import annotations


class RotaError(Exception):
    """Base class for every error raised by this library."""


class InvalidIntervalError(RotaError, ValueError):
    """An interval was constructed or used with inconsistent endpoints."""


class InvalidTermError(RotaError, ValueError):
    """A resource term violates its invariants (e.g. negative rate)."""


class UndefinedOperationError(RotaError, ValueError):
    """A partial operation was applied outside its domain.

    The paper defines several *partial* operations — most notably the
    relative complement of resource sets, which is defined only when every
    term of the subtrahend is dominated by a term of the minuend.  Applying
    such an operation outside its domain raises this error rather than
    silently producing negative resources (the paper: "resource terms
    cannot be negative").
    """


class LocatedTypeMismatchError(RotaError, ValueError):
    """An operation mixed resource terms of different located types."""


class InvalidComputationError(RotaError, ValueError):
    """A computation's structure violates the model (e.g. empty phase,
    deadline before start, or actions out of sequence)."""


class TransitionError(RotaError, ValueError):
    """A labeled transition rule was applied to a state outside its
    precondition (e.g. accommodating a computation past its deadline)."""


class AdmissionConfigError(RotaError, ValueError):
    """An admission controller was built with an unusable clock or
    witness grid: a non-finite ``now``, or an ``align`` that is not a
    positive finite number."""


class FormulaError(RotaError, ValueError):
    """A ROTA formula is malformed or evaluated against an unsuitable
    model/path combination."""


class SimulationError(RotaError, RuntimeError):
    """The discrete-event simulator reached an inconsistent configuration."""


class WorkloadError(RotaError, ValueError):
    """A workload generator received inconsistent parameters."""


class FaultInjectionError(RotaError, ValueError):
    """A fault plan or fault event is inconsistent (negative rates,
    unknown locations, degradation factors outside [0, 1), ...).

    Faults deliberately violate the paper's model, but the *injection*
    machinery itself must stay well-formed — a malformed plan is a bug in
    the experiment, not an injected fault."""


class CheckpointError(RotaError, RuntimeError):
    """A durability artifact is unusable: a checkpoint failed its checksum
    or carries an unknown future format version, a write-ahead journal is
    corrupt before its tail, or a resumed run diverged from the decisions
    the journal pinned.

    A *torn tail* (the last journal record cut short by a crash) is not an
    error — recovery discards it by design — but corruption anywhere in
    the already-acknowledged prefix is."""


class RecoveryError(RotaError, RuntimeError):
    """The promise-violation recovery pipeline reached an inconsistent
    configuration (e.g. a recovery offer for a computation that was never
    made a victim)."""


class ServiceConfigError(RotaError, ValueError):
    """An admission front-door configuration is inconsistent (negative
    queue bounds, unordered brownout thresholds, unknown shed policy,
    ...).  Overload protection deliberately refuses work; the knobs that
    decide *which* work must themselves be well-formed."""


class ServiceError(RotaError, RuntimeError):
    """The admission front door reached an inconsistent state (arrivals
    offered out of order, a brownout screen contradicting the exact
    check, ...)."""


class ChannelError(RotaError, ValueError):
    """The message channel or its network model is misconfigured or
    misused (loss probabilities outside [0, 1], negative delays, a
    delivery pulled before its due time, an unknown endpoint, ...).

    Injected message loss, duplication, reordering, and partitions are
    *not* errors — they are the modelled environment; this error marks
    bugs in the modelling machinery itself."""


class LeaseError(RotaError, ValueError):
    """The promise-lease discipline was violated (granting a duplicate
    lease id, renewing or expiring a lease that was never granted, a
    non-positive ttl, ...).  A lease *expiring* because renewals could
    not cross a partition is the modelled behaviour, never this error."""
