"""Unit tests for resource sets, including the paper's worked examples."""

from __future__ import annotations

import pytest

from repro.errors import UndefinedOperationError
from repro.intervals import Interval
from repro.resources import ResourceSet, resources, term


def shape(resource_set):
    """Sorted (rate, start, end, ltype-str) tuples for easy assertions."""
    return sorted(
        (t.rate, t.window.start, t.window.end, str(t.ltype))
        for t in resource_set.terms()
    )


class TestConstruction:
    def test_empty(self):
        assert ResourceSet.empty().is_empty
        assert len(ResourceSet.empty()) == 0

    def test_null_terms_dropped(self, cpu1):
        assert ResourceSet.of(term(0, cpu1, 0, 5), term(5, cpu1, 3, 3)).is_empty

    def test_of_variadic(self, cpu1, net12):
        s = ResourceSet.of(term(5, cpu1, 0, 3), term(2, net12, 0, 5))
        assert len(s.terms()) == 2

    def test_resources_factory(self, cpu1):
        assert resources(term(5, cpu1, 0, 3)) == ResourceSet.of(term(5, cpu1, 0, 3))

    def test_value_semantics(self, cpu1):
        a = ResourceSet.of(term(5, cpu1, 0, 3))
        b = ResourceSet.of(term(5, cpu1, 0, 3))
        assert a == b
        assert hash(a) == hash(b)


class TestSimplification:
    """Section III: overlapping same-type terms aggregate."""

    def test_paper_example_distinct_types_stay_separate(self, cpu1, net12):
        """{5}cpu(0,3) U {5}net(0,5) keeps two terms."""
        s = ResourceSet.of(term(5, cpu1, 0, 3)) | ResourceSet.of(term(5, net12, 0, 5))
        assert shape(s) == [
            (2 + 3, 0, 3, "<cpu, l1>"),
            (5, 0, 5, "<network, l1 -> l2>"),
        ]

    def test_paper_example_same_type_aggregates(self, cpu1):
        """{5}cpu(0,3) U {5}cpu(0,5) = {10}cpu(0,3), {5}cpu(3,5)."""
        s = ResourceSet.of(term(5, cpu1, 0, 3)) | ResourceSet.of(term(5, cpu1, 0, 5))
        assert shape(s) == [(5, 3, 5, "<cpu, l1>"), (10, 0, 3, "<cpu, l1>")]

    def test_meeting_equal_rate_terms_merge(self, cpu1):
        """Terms with identical rates whose intervals meet reduce to one."""
        s = ResourceSet.of(term(5, cpu1, 0, 3), term(5, cpu1, 3, 7))
        assert shape(s) == [(5, 0, 7, "<cpu, l1>")]

    def test_construction_simplifies_eagerly(self, cpu1):
        s = ResourceSet.of(term(2, cpu1, 0, 4), term(3, cpu1, 2, 6))
        assert shape(s) == [
            (2, 0, 2, "<cpu, l1>"),
            (3, 4, 6, "<cpu, l1>"),
            (5, 2, 4, "<cpu, l1>"),
        ]


class TestRelativeComplement:
    def test_paper_example(self, cpu1):
        """{5}cpu(0,3) \\ {3}cpu(1,2) = {5}(0,1), {2}(1,2), {5}(2,3)."""
        s = ResourceSet.of(term(5, cpu1, 0, 3)) - ResourceSet.of(term(3, cpu1, 1, 2))
        assert shape(s) == [
            (2, 1, 2, "<cpu, l1>"),
            (5, 0, 1, "<cpu, l1>"),
            (5, 2, 3, "<cpu, l1>"),
        ]

    def test_undefined_when_not_dominated(self, cpu1):
        """The complement is partial: terms cannot go negative."""
        with pytest.raises(UndefinedOperationError):
            ResourceSet.of(term(2, cpu1, 0, 3)) - ResourceSet.of(term(3, cpu1, 1, 2))

    def test_undefined_for_missing_type(self, cpu1, net12):
        with pytest.raises(UndefinedOperationError):
            ResourceSet.of(term(5, cpu1, 0, 3)) - ResourceSet.of(term(1, net12, 1, 2))

    def test_full_cancellation(self, cpu1):
        s = ResourceSet.of(term(5, cpu1, 0, 3)) - ResourceSet.of(term(5, cpu1, 0, 3))
        assert s.is_empty

    def test_dominates_predicate(self, cpu1):
        big = ResourceSet.of(term(5, cpu1, 0, 10))
        small = ResourceSet.of(term(3, cpu1, 2, 6))
        assert big.dominates(small)
        assert not small.dominates(big)


class TestQueries:
    def test_quantity(self, small_pool, cpu1, net12):
        assert small_pool.quantity(cpu1, Interval(0, 10)) == 50
        assert small_pool.quantity(net12, Interval(0, 10)) == 12
        assert small_pool.quantity(net12, Interval(0, 4)) == 4

    def test_rate_at(self, small_pool, cpu1, net12):
        assert small_pool.rate_at(cpu1, 5) == 5
        assert small_pool.rate_at(net12, 1) == 0
        assert small_pool.rate_at(net12, 5) == 2

    def test_can_supply(self, small_pool, cpu1, net12):
        assert small_pool.can_supply({cpu1: 50, net12: 12}, Interval(0, 10))
        assert not small_pool.can_supply({cpu1: 51}, Interval(0, 10))
        assert not small_pool.can_supply({net12: 5}, Interval(0, 4))

    def test_restrict_is_union_over_window(self, small_pool, cpu1):
        """restrict == the paper's U_s^d Theta."""
        clipped = small_pool.restrict(Interval(2, 5))
        assert clipped.quantity(cpu1, Interval(0, 10)) == 15

    def test_truncate_before(self, small_pool, cpu1):
        later = small_pool.truncate_before(6)
        assert later.quantity(cpu1, Interval(0, 10)) == 20
        assert later.rate_at(cpu1, 5) == 0

    def test_horizon(self, small_pool):
        assert small_pool.horizon == 10

    def test_located_types(self, small_pool, cpu1, net12):
        assert set(small_pool.located_types) == {cpu1, net12}

    def test_iteration_yields_terms(self, small_pool):
        assert len(list(small_pool)) == len(small_pool.terms())


class TestOpenSystemUse:
    def test_join_then_leave_roundtrip(self, cpu1):
        """Union models joining; complement models claims leaving."""
        base = ResourceSet.of(term(5, cpu1, 0, 10))
        joined = base | ResourceSet.of(term(3, cpu1, 2, 6))
        claimed = ResourceSet.of(term(3, cpu1, 2, 6))
        assert (joined - claimed) == base

    def test_add_term(self, cpu1):
        s = ResourceSet.empty() | ResourceSet.of(term(5, cpu1, 0, 3))
        assert not s.is_empty
