"""Unit tests for Theorem 4 admission control."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.computation import ComplexRequirement, ConcurrentRequirement, Demands
from repro.decision import AdmissionController
from repro.errors import (
    AdmissionConfigError,
    TransitionError,
    UndefinedOperationError,
)
from repro.intervals import Interval
from repro.resources import ResourceSet, cpu, term
from repro.resources.profile import float_key


def creq(phases, s, d, label):
    return ComplexRequirement(phases, Interval(s, d), label=label)


@pytest.fixture
def controller(cpu1):
    return AdmissionController(ResourceSet.of(term(5, cpu1, 0, 10)))


class TestBasicAdmission:
    def test_admit_within_capacity(self, controller, cpu1):
        decision = controller.admit(creq([Demands({cpu1: 30})], 0, 10, "a"))
        assert decision.admitted
        assert decision.schedule is not None

    def test_reject_beyond_capacity(self, controller, cpu1):
        decision = controller.admit(creq([Demands({cpu1: 51})], 0, 10, "a"))
        assert not decision.admitted
        assert "slack" in decision.reason

    def test_reject_past_deadline(self, cpu1):
        controller = AdmissionController(
            ResourceSet.of(term(5, cpu1, 0, 10)), now=6
        )
        decision = controller.can_admit(creq([Demands({cpu1: 1})], 0, 5, "late"))
        assert not decision.admitted
        assert "deadline" in decision.reason

    @pytest.mark.parametrize("now", [5, 3])
    @pytest.mark.parametrize("method", ["can_admit", "admit"])
    def test_reject_when_a_component_deadline_passed(self, now, method):
        """A component window may close before the requirement's own
        deadline; once it has, the requirement is refused as late, not
        clipped to an empty window."""
        controller = AdmissionController(
            ResourceSet.of(term(2, cpu("n0"), 0, 40), term(2, cpu("n1"), 0, 40))
        )
        controller.advance_to(now)
        requirement = ConcurrentRequirement(
            (
                creq([Demands({cpu("n0"): 4})], 0, 3, "a"),
                creq([Demands({cpu("n1"): 10})], 0, 20, "b"),
            ),
            Interval(0, 20),
        )
        decision = getattr(controller, method)(requirement)
        assert not decision.admitted
        assert decision.reason == "deadline has already passed (t >= d)"
        assert controller.admitted_labels == ()

    def test_can_admit_does_not_commit(self, controller, cpu1):
        req = creq([Demands({cpu1: 30})], 0, 10, "a")
        assert controller.can_admit(req).admitted
        assert controller.can_admit(req).admitted  # still free
        controller.admit(req)
        assert not controller.can_admit(creq([Demands({cpu1: 21})], 0, 10, "b"))


class TestTheoremFourSemantics:
    def test_commitments_never_disturbed(self, controller, cpu1):
        """Admitting more computations must not invalidate earlier ones:
        committed consumption only grows within what was available."""
        first = controller.admit(creq([Demands({cpu1: 30})], 0, 10, "a"))
        second = controller.admit(creq([Demands({cpu1: 20})], 0, 10, "b"))
        assert first.admitted and second.admitted
        total = controller.committed
        assert controller.available.dominates(total)
        # slack is now empty of cpu within (0,10)
        assert controller.expiring_slack.quantity(cpu1, Interval(0, 10)) == 0

    def test_expiring_slack_is_opportunity(self, controller, cpu1):
        """Theorem 4: what the committed path will not consume is exactly
        what newcomers may claim."""
        controller.admit(creq([Demands({cpu1: 30})], 0, 10, "a"))
        slack = controller.expiring_slack
        assert slack.quantity(cpu1, Interval(0, 10)) == 20

    def test_windows_create_partial_contention(self, cpu1):
        controller = AdmissionController(ResourceSet.of(term(5, cpu1, 0, 10)))
        controller.admit(creq([Demands({cpu1: 25})], 0, 5, "early"))
        # (0,5) fully claimed; (5,10) untouched
        assert controller.admit(creq([Demands({cpu1: 25})], 5, 10, "late")).admitted
        assert not controller.can_admit(creq([Demands({cpu1: 1})], 0, 5, "more"))

    def test_resources_joining_reopen_admission(self, controller, cpu1):
        controller.admit(creq([Demands({cpu1: 50})], 0, 10, "a"))
        assert not controller.can_admit(creq([Demands({cpu1: 10})], 0, 10, "b"))
        controller.add_resources(ResourceSet.of(term(2, cpu1, 0, 10)))
        assert controller.can_admit(creq([Demands({cpu1: 10})], 0, 10, "b")).admitted

    def test_arrival_after_start_clips_window(self, cpu1):
        """A computation admitted at t > s can only use (t, d)."""
        controller = AdmissionController(
            ResourceSet.of(term(5, cpu1, 0, 10)), now=8
        )
        # only 10 units remain in (8,10)
        assert controller.can_admit(creq([Demands({cpu1: 10})], 0, 10, "a")).admitted
        assert not controller.can_admit(creq([Demands({cpu1: 11})], 0, 10, "b")).admitted


class TestClockAndWithdraw:
    def test_clock_cannot_go_backwards(self, controller):
        controller.advance_to(5)
        with pytest.raises(TransitionError):
            controller.advance_to(3)

    def test_withdraw_before_start(self, controller, cpu1):
        assert controller.admit(creq([Demands({cpu1: 20})], 5, 10, "a")).admitted
        controller.withdraw("a")
        assert controller.expiring_slack.quantity(cpu1, Interval(0, 10)) == 50
        assert "a" not in controller.admitted_labels

    def test_withdraw_after_start_rejected(self, controller, cpu1):
        """The paper's leave rule requires t < s."""
        controller.admit(creq([Demands({cpu1: 30})], 0, 10, "a"))
        controller.advance_to(1)
        with pytest.raises(TransitionError):
            controller.withdraw("a")

    def test_withdraw_unknown_label(self, controller):
        with pytest.raises(TransitionError):
            controller.withdraw("ghost")

    def test_a_finished_schedule_retires(self, controller, cpu1):
        """Once ``now`` reaches a schedule's finish, its label is as
        unknown as one never admitted, and the past leaves all three
        sets."""
        early = controller.admit(creq([Demands({cpu1: 10})], 0, 4, "early"))
        controller.admit(creq([Demands({cpu1: 10})], 0, 10, "late"))
        controller.advance_to(early.schedule.finish_time - 1)
        assert controller.admitted_labels == ("early", "late")
        controller.advance_to(early.schedule.finish_time)
        assert controller.admitted_labels == ("late",)
        with pytest.raises(KeyError):
            controller.schedule_of("early")
        for leave in (controller.forfeit, controller.withdraw):
            with pytest.raises(TransitionError):
                leave("early")
        now = controller.now
        for view in (
            controller.available, controller.committed,
            controller.expiring_slack,
        ):
            assert view.quantity(cpu1, Interval(0, now)) == 0
        assert controller.verify_slack()

    def test_finish_times_on_one_double_retire_in_exact_order(self, cpu1):
        """The finish heap orders by each finish time's float key first;
        two finish times ``10**-30`` apart share that key, and the exact
        times decide which retires first, not the labels (``"a"``, which
        finishes second, sorts first) or the admission order."""
        cpu2 = cpu("n2")
        controller = AdmissionController(ResourceSet.of(
            term(1, cpu1, 0, 10), term(1, cpu2, 0, 10)
        ))
        first = Fraction(1, 3)
        second = first + Fraction(1, 10 ** 30)
        assert float_key(first) == float_key(second)
        controller.admit(creq([Demands({cpu2: second})], 0, 10, "a"))
        controller.admit(creq([Demands({cpu1: first})], 0, 10, "b"))
        assert controller.schedule_of("a").finish_time == second
        assert controller.schedule_of("b").finish_time == first
        controller.advance_to(first)
        assert controller.admitted_labels == ("a",)
        controller.advance_to(second)
        assert controller.admitted_labels == ()
        assert controller.verify_slack()

    def test_forfeit_frees_only_what_lies_ahead(self, controller, cpu1):
        controller.admit(creq([Demands({cpu1: 30})], 0, 10, "a"))
        controller.admit(creq([Demands({cpu1: 1})], 0, 2, "b"))
        controller.advance_to(4)
        controller.forfeit("a")
        assert controller.committed.quantity(cpu1, Interval(4, 10)) == 0
        assert controller.expiring_slack.quantity(cpu1, Interval(4, 10)) == 30
        assert controller.verify_slack()

    def test_duplicate_labels_disambiguated(self, controller, cpu1):
        controller.admit(creq([Demands({cpu1: 10})], 0, 10, "same"))
        controller.admit(creq([Demands({cpu1: 10})], 0, 10, "same"))
        assert len(controller.admitted_labels) == 2


class TestAlignedAdmission:
    def test_aligned_controller_rounds_breakpoints(self, cpu1):
        controller = AdmissionController(
            ResourceSet.of(term(3, cpu1, 0, 10)), align=1
        )
        decision = controller.admit(
            creq([Demands({cpu1: 10}), Demands({cpu1: 3})], 0, 10, "a")
        )
        assert decision.admitted
        for schedule in decision.schedule.schedules:
            for b in schedule.breakpoints:
                assert float(b).is_integer()

    def test_aligned_phases_past_2_to_the_53_do_not_overlap(self, cpu1):
        """A boundary past float range's exact integers aligns exactly, so
        the commit can subtract the claim (the float route rounded phase
        0's end down into its own claim, and the commit raised
        ``UndefinedOperationError: relative complement undefined``)."""
        base = 2**53
        controller = AdmissionController(
            ResourceSet.of(term(1, cpu1, base, base + 20)), align=1
        )
        decision = controller.admit(
            ComplexRequirement(
                [Demands({cpu1: 4}), Demands({cpu1: 4})],
                Interval(base + 1, base + 20),
            )
        )
        assert decision.admitted
        (schedule,) = decision.schedule.schedules
        assert schedule.breakpoints == (base + 5,)
        assert schedule.finish_time == base + 9
        assert type(schedule.finish_time) is int
        assert controller.verify_slack()

    @pytest.mark.parametrize("kwargs", [
        {"align": 0},
        {"align": -1},
        {"align": float("nan")},
        {"align": float("inf")},
        {"align": "1"},
        {"align": True},
        {"now": float("nan")},
        {"now": float("inf")},
        {"now": True},
    ], ids=repr)
    def test_bad_clock_or_grid_rejected_at_construction(self, kwargs):
        with pytest.raises(AdmissionConfigError) as excinfo:
            AdmissionController(ResourceSet.empty(), **kwargs)
        assert excinfo.traceback[-1].name == "__init__"


class TestSlackCacheInvariant:
    def test_cache_tracks_recomputation(self, cpu1, net12):
        """The incrementally maintained slack always equals
        available - committed, across every mutation kind."""
        from repro.resources import ResourceSet, term

        controller = AdmissionController(
            ResourceSet.of(term(5, cpu1, 0, 20), term(3, net12, 0, 20))
        )

        def check():
            assert controller.expiring_slack == (
                controller.available - controller.committed
            )

        check()
        controller.admit(creq([Demands({cpu1: 30})], 0, 20, "a"))
        check()
        controller.add_resources(ResourceSet.of(term(2, cpu1, 5, 15)))
        check()
        controller.admit(creq([Demands({net12: 10})], 5, 18, "b"))
        check()
        controller.reserve(ResourceSet.of(term(1, cpu1, 10, 20)))
        check()
        controller.release(ResourceSet.of(term(1, cpu1, 10, 20)))
        check()
        controller.admit(creq([Demands({cpu1: 5})], 10, 20, "c"))
        check()
        controller.advance_to(5)
        controller.withdraw("c")
        check()


class TestCommittedView:
    """The committed path is a view summed from the live schedules and
    the reservations; admissions write the slack only."""

    KINDS = (
        "admit", "reserve", "release", "withdraw", "forfeit",
        "add_resources", "revoke_resources", "advance_to",
    )

    @staticmethod
    def _fold(sets):
        total = ResourceSet.empty()
        for part in sets:
            total = total | part
        return total

    def _trial(self, rng, exact):
        """One random mutation sequence, checked after every call against
        the pairwise ``|`` fold of the reservations and the live claims,
        cut at the last retirement, and against the commit path the view
        replaced (a second set every commit spliced into), both kept
        here as oracles."""
        num = (lambda v: v) if exact else float
        types = (cpu("n0"), cpu("n1"))
        controller = AdmissionController(ResourceSet.of(
            term(num(6), types[0], 0, num(40)), term(num(4), types[1], 0, num(40))
        ))
        old = ResourceSet.empty()  # the replaced commit path
        reserved = ResourceSet.empty()
        cut = None  # the time of the last retirement
        reservations = []
        ran = dict.fromkeys(self.KINDS, 0)
        for step in range(60):
            now = controller.now
            kind = rng.choice(self.KINDS)
            labels = controller.admitted_labels
            if kind == "admit":
                start = max(0, now + rng.choice([-2, 0, 1, 3]))
                phases = [
                    Demands({rng.choice(types): num(rng.choice([1, 4, 9, 16]))})
                    for _ in range(rng.choice([1, 1, 2]))
                ]
                window = num(rng.choice([4, 6, 9, 14]))
                requirement = creq(phases, start, start + window, f"j{step}")
                decision = controller.admit(requirement)
                if not decision.admitted:
                    continue
                old = old | decision.schedule.consumption()
            elif kind == "reserve":
                start = now + rng.choice([0, 1, 2])
                wanted = ResourceSet.of(term(
                    num(1), rng.choice(types), start, start + num(rng.choice([2, 5]))
                ))
                try:
                    controller.reserve(wanted)
                except TransitionError:
                    continue
                reservations.append(wanted)
                reserved = reserved | wanted.truncate_before(now)
                old = old | wanted.truncate_before(now)
            elif kind == "release":
                if not reservations:
                    continue
                given = reservations.pop(rng.randrange(len(reservations)))
                controller.release(given)
                reserved = reserved - given.truncate_before(now)
                old = old - given.truncate_before(now)
            elif kind in ("withdraw", "forfeit"):
                if not labels:
                    continue
                label = rng.choice(labels)
                claim = controller.schedule_of(label).consumption()
                try:
                    getattr(controller, kind)(label)
                except TransitionError:
                    assert kind == "withdraw"
                    continue
                claim = claim.truncate_before(now)
                try:
                    old = old - claim
                except UndefinedOperationError:
                    old = old.saturating_minus(claim)
            elif kind in ("add_resources", "revoke_resources"):
                view = controller.committed
                start = now + rng.choice([0, 2, 5])
                change = ResourceSet.of(term(
                    num(rng.choice([1, 2])), rng.choice(types),
                    start, start + num(rng.choice([3, 8])),
                ))
                getattr(controller, kind)(change)
                assert controller.committed is view  # the cache holds
            else:
                controller.advance_to(now + num(rng.choice([0, 1, 2, 3])))
                if set(controller.admitted_labels) != set(labels):
                    cut = controller.now
                    reserved = reserved.truncate_before(cut)
                    old = old.truncate_before(cut)
            ran[kind] += 1
            live = [
                controller.schedule_of(label).consumption()
                for label in controller.admitted_labels
            ]
            fold = self._fold([reserved] + live)
            if cut is not None:
                fold = fold.truncate_before(cut)
            assert controller.committed == fold, (step, kind)
            now = controller.now
            assert controller.committed.truncate_before(now) == (
                old.truncate_before(now)
            ), (step, kind)
            assert controller.verify_slack(), (step, kind)
        return ran

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_view_is_the_fold_of_the_live_claims_after_every_mutation(
        self, exact
    ):
        import random

        rng = random.Random(20261019)
        ran = dict.fromkeys(self.KINDS, 0)
        for _ in range(40):
            for kind, count in self._trial(rng, exact).items():
                ran[kind] += count
        assert min(ran.values()) >= 20, ran

    def test_pickled_controller_carries_no_committed_profile(
        self, controller, cpu1
    ):
        import pickle

        controller.admit(creq([Demands({cpu1: 30})], 0, 10, "a"))
        controller.reserve(ResourceSet.of(term(1, cpu1, 6, 10)))
        committed = controller.committed  # cached, and still not pickled
        state = controller.__getstate__()
        assert "_committed" not in state
        assert state["_view"] is None and state["_slack"] is None
        carried = [
            name for name, value in state.items()
            if isinstance(value, ResourceSet)
        ]
        assert sorted(carried) == ["_available", "_reserved"]
        clone = pickle.loads(pickle.dumps(controller))
        assert clone.committed == committed
        assert clone.expiring_slack == controller.expiring_slack
        assert clone.verify_slack()

    def test_release_is_strict_on_the_reservations(self, controller, cpu1):
        """A release frees reserved resources only, never a schedule's
        claim, even where the committed path covers it."""
        controller.admit(creq([Demands({cpu1: 30})], 0, 10, "a"))
        with pytest.raises(UndefinedOperationError):
            controller.release(ResourceSet.of(term(1, cpu1, 0, 5)))
