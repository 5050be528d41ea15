"""Unit tests for immutable demand maps."""

from __future__ import annotations

import pickle

import pytest

from repro.computation import Demands, NO_DEMAND
from repro.errors import InvalidComputationError


class TestConstruction:
    def test_from_mapping(self, cpu1):
        d = Demands({cpu1: 5})
        assert d[cpu1] == 5
        assert len(d) == 1

    def test_from_pairs(self, cpu1, net12):
        d = Demands([(cpu1, 5), (net12, 2)])
        assert d[net12] == 2

    def test_duplicate_pairs_merge(self, cpu1):
        assert Demands([(cpu1, 5), (cpu1, 2)])[cpu1] == 7

    def test_zero_entries_dropped(self, cpu1, net12):
        d = Demands({cpu1: 0, net12: 2})
        assert cpu1 not in d
        assert len(d) == 1

    def test_negative_rejected(self, cpu1):
        with pytest.raises(InvalidComputationError):
            Demands({cpu1: -1})

    def test_non_located_type_key_rejected(self):
        with pytest.raises(InvalidComputationError):
            Demands({"cpu": 5})

    def test_copy_constructor(self, cpu1):
        d = Demands({cpu1: 5})
        assert Demands(d) == d

    def test_empty(self):
        assert NO_DEMAND.is_empty
        assert Demands().is_empty


class TestQueries:
    def test_get_default(self, cpu1, net12):
        d = Demands({cpu1: 5})
        assert d.get(net12) == 0
        assert d.get(net12, 9) == 9

    def test_is_single_type(self, cpu1, net12):
        assert Demands({cpu1: 5}).is_single_type
        assert not Demands({cpu1: 5, net12: 1}).is_single_type
        assert not Demands().is_single_type

    def test_total(self, cpu1, net12):
        assert Demands({cpu1: 5, net12: 3}).total == 8

    def test_located_types(self, cpu1):
        assert Demands({cpu1: 5}).located_types() == (cpu1,)


class TestArithmetic:
    def test_merge(self, cpu1, net12):
        d = Demands({cpu1: 5}).merge({net12: 2})
        assert d == Demands({cpu1: 5, net12: 2})

    def test_merge_adds_same_type(self, cpu1):
        assert Demands({cpu1: 5}).merge({cpu1: 2})[cpu1] == 7

    def test_add_operator(self, cpu1):
        assert (Demands({cpu1: 5}) + Demands({cpu1: 1}))[cpu1] == 6

    def test_scale(self, cpu1):
        assert Demands({cpu1: 5}).scale(3)[cpu1] == 15

    def test_scale_zero_empties(self, cpu1):
        assert Demands({cpu1: 5}).scale(0).is_empty

    def test_scale_negative_rejected(self, cpu1):
        with pytest.raises(InvalidComputationError):
            Demands({cpu1: 5}).scale(-1)

    def test_saturating_sub(self, cpu1, net12):
        d = Demands({cpu1: 5, net12: 2}).saturating_sub({cpu1: 3, net12: 9})
        assert d == Demands({cpu1: 2})

    def test_saturating_sub_no_credit(self, cpu1, net12):
        """Over-supplying one type never offsets another."""
        d = Demands({cpu1: 5}).saturating_sub({net12: 100})
        assert d == Demands({cpu1: 5})


class TestValueSemantics:
    def test_equality_vs_plain_mapping(self, cpu1):
        assert Demands({cpu1: 5}) == {cpu1: 5}
        assert Demands() == {}

    def test_hash_consistency(self, cpu1, net12):
        a = Demands({cpu1: 5, net12: 2})
        b = Demands([(net12, 2), (cpu1, 5)])
        assert a == b
        assert hash(a) == hash(b)

    def test_repr_mentions_quantities(self, cpu1):
        assert "{5}" in repr(Demands({cpu1: 5}))

    def test_a_copy_pickles_as_a_fresh_demand(self, cpu1, net12):
        """Copying skips validation but not the map: a copy pickled
        beside its original is written in full, as a validated one."""
        original = Demands({cpu1: 5, net12: 2})
        hash(original)
        copied = Demands(original)
        assert copied._items is not original._items
        assert copied._hash is None  # computed on its own first hash
        rebuilt = Demands(dict(original))
        assert pickle.dumps((original, copied)) == pickle.dumps(
            (original, rebuilt)
        )
        assert copied == original and hash(copied) == hash(original)
