"""Unit tests for the ROTA formula AST."""

from __future__ import annotations

import pytest

from repro.computation import ComplexRequirement, Demands, SimpleRequirement
from repro.errors import FormulaError
from repro.intervals import Interval
from repro.logic import (
    FALSE,
    TRUE,
    Always,
    And,
    Eventually,
    Not,
    Or,
    Satisfy,
    always,
    eventually,
    satisfy,
)


@pytest.fixture
def atom(cpu1):
    return satisfy(SimpleRequirement(Demands({cpu1: 5}), Interval(0, 10)))


class TestConstruction:
    def test_constants(self):
        assert str(TRUE) == "true"
        assert str(FALSE) == "false"

    def test_satisfy_levels(self, cpu1):
        simple = SimpleRequirement(Demands({cpu1: 5}), Interval(0, 10))
        complex_ = ComplexRequirement([Demands({cpu1: 5})], Interval(0, 10))
        assert isinstance(satisfy(simple), Satisfy)
        assert isinstance(satisfy(complex_), Satisfy)

    def test_satisfy_rejects_non_requirement(self):
        with pytest.raises(FormulaError):
            satisfy("not a requirement")

    def test_temporal_factories(self, atom):
        assert isinstance(eventually(atom), Eventually)
        assert isinstance(always(atom), Always)

    def test_nesting(self, atom):
        nested = always(eventually(Not(atom)))
        assert isinstance(nested.operand, Eventually)
        assert isinstance(nested.operand.operand, Not)


class TestOperatorSugar:
    def test_invert(self, atom):
        assert isinstance(~atom, Not)
        assert (~atom).operand is atom

    def test_and_or(self, atom):
        both = atom & TRUE
        either = atom | FALSE
        assert isinstance(both, And)
        assert isinstance(either, Or)

    def test_value_semantics(self, atom, cpu1):
        other = satisfy(SimpleRequirement(Demands({cpu1: 5}), Interval(0, 10)))
        assert atom == other
        assert eventually(atom) == eventually(other)
        assert always(atom) != eventually(atom)

    def test_str_rendering(self, atom):
        assert "eventually" in str(eventually(atom))
        assert "always" in str(always(atom))
        assert "not" in str(~atom)
