"""Well-formed formulas of ROTA (paper Section V-B).

The grammar::

    psi ::= true | false
          | satisfy(rho(gamma, s, d))      -- simple requirement
          | satisfy(rho(Gamma, s, d))      -- complex requirement
          | satisfy(rho(Lambda, s, d))     -- concurrent requirement
          | not psi | eventually psi | always psi

Formulas are a plain immutable AST; evaluation lives in
:mod:`repro.logic.semantics`.  ``And``/``Or``/``Implies`` are provided as
*derived* conveniences (the paper's grammar stops at negation and the two
temporal operators; the extension is conservative and clearly flagged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.computation.requirements import (
    ComplexRequirement,
    ConcurrentRequirement,
    SimpleRequirement,
)
from repro.errors import FormulaError

Requirement = Union[SimpleRequirement, ComplexRequirement, ConcurrentRequirement]


class Formula:
    """Base class for ROTA well-formed formulas."""

    __slots__ = ()

    # Operator sugar -----------------------------------------------------
    def __invert__(self) -> "Not":
        return Not(self)

    def __and__(self, other: "Formula") -> "And":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Or":
        return Or(self, other)


@dataclass(frozen=True)
class TrueFormula(Formula):
    """``true`` — satisfied everywhere."""

    __slots__ = ()

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseFormula(Formula):
    """``false`` — satisfied nowhere."""

    __slots__ = ()

    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Satisfy(Formula):
    """``satisfy(rho(..., s, d))`` — the expiring resources along the
    current path can accommodate the requirement."""

    requirement: Requirement

    __slots__ = ("requirement",)

    def __post_init__(self) -> None:
        if not isinstance(
            self.requirement,
            (SimpleRequirement, ComplexRequirement, ConcurrentRequirement),
        ):
            raise FormulaError(
                f"satisfy() takes a requirement, got {self.requirement!r}"
            )

    def __str__(self) -> str:
        return f"satisfy({self.requirement!r})"


@dataclass(frozen=True)
class Not(Formula):
    """``not psi``."""

    operand: Formula

    __slots__ = ("operand",)

    def __str__(self) -> str:
        return f"(not {self.operand})"


@dataclass(frozen=True)
class Eventually(Formula):
    """``<> psi`` — at some later time on the path."""

    operand: Formula

    __slots__ = ("operand",)

    def __str__(self) -> str:
        return f"(eventually {self.operand})"


@dataclass(frozen=True)
class Always(Formula):
    """``[] psi`` — at every later time on the path."""

    operand: Formula

    __slots__ = ("operand",)

    def __str__(self) -> str:
        return f"(always {self.operand})"


@dataclass(frozen=True)
class And(Formula):
    """Derived conjunction (extension beyond the paper's minimal grammar)."""

    left: Formula
    right: Formula

    __slots__ = ("left", "right")

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class Or(Formula):
    """Derived disjunction (extension beyond the paper's minimal grammar)."""

    left: Formula
    right: Formula

    __slots__ = ("left", "right")

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


#: Singletons for the atomic constants.
TRUE = TrueFormula()
FALSE = FalseFormula()


def satisfy(requirement: Requirement) -> Satisfy:
    """Factory matching the paper's ``satisfy`` atom."""
    return Satisfy(requirement)


def eventually(operand: Formula) -> Eventually:
    return Eventually(operand)


def always(operand: Formula) -> Always:
    return Always(operand)
