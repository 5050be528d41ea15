"""Interacting actors: computations segmented by waits (Section VI).

The paper's first future-work item: ROTA "does not address the wider
range of actor computations where actors can interact", and proposes "to
break down an actor's computation into sequences of independent
computations separated by states in which it is waiting to hear back from
a blocking operation".

This module implements exactly that decomposition:

* a :class:`Wait` separates two segments: the actor blocks on a reply
  (message receive, blocking ``create``), with a *bounded* delay
  ``[min_delay, max_delay]`` — the bound is what keeps deadline assurance
  possible despite "unpredictable delays";
* a :class:`SegmentedRequirement` is an alternating sequence
  ``segment (wait segment)*`` inside one ``(s, d)`` window.

The decision procedure (:mod:`repro.decision.segmented`) reasons with the
*worst-case* delay of every wait: if the requirement is feasible under
maximal delays, it is feasible under any admissible delays — executing a
segment later than its earliest readiness is always allowed, so the
claimed (worst-case-positioned) resources remain usable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from repro.computation.demands import Demands
from repro.computation.requirements import ComplexRequirement
from repro.errors import InvalidComputationError
from repro.intervals.interval import Interval, Time


@dataclass(frozen=True)
class Wait:
    """A blocking pause between segments with bounded reply delay."""

    min_delay: Time = 0
    max_delay: Time = 0
    reason: str = "reply"

    def __post_init__(self) -> None:
        if self.min_delay < 0:
            raise InvalidComputationError("wait min_delay must be >= 0")
        if self.max_delay < self.min_delay:
            raise InvalidComputationError(
                f"wait max_delay {self.max_delay!r} must be >= min_delay "
                f"{self.min_delay!r}"
            )


class SegmentedRequirement:
    """``segment (wait segment)*`` within one window.

    Each segment is an ordered phase list (the same shape as a
    :class:`ComplexRequirement`); each wait bounds the pause before the
    next segment may begin.
    """

    __slots__ = ("_segments", "_waits", "_window", "_label")

    def __init__(
        self,
        segments: Sequence[Sequence[Demands]],
        waits: Sequence[Wait],
        window: Interval,
        label: str = "",
    ) -> None:
        if window.is_empty:
            raise InvalidComputationError("window must be non-empty")
        cleaned: list[Tuple[Demands, ...]] = []
        for segment in segments:
            phases = tuple(Demands(p) for p in segment)
            phases = tuple(p for p in phases if not p.is_empty)
            if not phases:
                raise InvalidComputationError(
                    "every segment needs at least one non-empty phase"
                )
            cleaned.append(phases)
        if not cleaned:
            raise InvalidComputationError("need at least one segment")
        if len(waits) != len(cleaned) - 1:
            raise InvalidComputationError(
                f"expected {len(cleaned) - 1} waits between {len(cleaned)} "
                f"segments, got {len(waits)}"
            )
        self._segments = tuple(cleaned)
        self._waits = tuple(waits)
        self._window = window
        self._label = label

    # ------------------------------------------------------------------
    @property
    def segments(self) -> tuple[Tuple[Demands, ...], ...]:
        return self._segments

    @property
    def waits(self) -> tuple[Wait, ...]:
        return self._waits

    @property
    def window(self) -> Interval:
        return self._window

    @property
    def start(self) -> Time:
        return self._window.start

    @property
    def deadline(self) -> Time:
        return self._window.end

    @property
    def label(self) -> str:
        return self._label

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def total_demands(self) -> Demands:
        total = Demands()
        for segment in self._segments:
            for phase in segment:
                total = total.merge(phase)
        return total

    def segment_requirement(self, index: int, start: Time) -> ComplexRequirement:
        """Segment ``index`` as a plain complex requirement released at
        ``start`` (used by the decision procedure)."""
        return ComplexRequirement(
            self._segments[index],
            Interval(start, self.deadline),
            label=f"{self._label or 'seg'}[{index}]",
        )

    def flattened(self) -> ComplexRequirement:
        """The wait-free flattening: the same phases with no pauses.  The
        optimistic bound — useful as a baseline and for lower-bounding the
        finish time."""
        phases: list[Demands] = []
        for segment in self._segments:
            phases.extend(segment)
        return ComplexRequirement(phases, self._window, label=self._label)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SegmentedRequirement):
            return NotImplemented
        return (
            self._segments == other._segments
            and self._waits == other._waits
            and self._window == other._window
            and self._label == other._label
        )

    def __hash__(self) -> int:
        return hash((self._segments, self._waits, self._window, self._label))

    def __repr__(self) -> str:
        return (
            f"SegmentedRequirement({self._label or '?'}: "
            f"{len(self._segments)} segments, {self._window})"
        )


def request_reply(
    request: Iterable[Demands],
    reply_handling: Iterable[Demands],
    *,
    window: Interval,
    max_delay: Time,
    label: str = "",
) -> SegmentedRequirement:
    """The common two-segment shape: do work, await a reply (within
    ``max_delay``, possibly at once), handle it."""
    return SegmentedRequirement(
        [list(request), list(reply_handling)],
        [Wait(0, max_delay)],
        window,
        label=label,
    )
