"""AST for the imperative staged-query language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..frontend import (  # noqa: F401  (expressions)
    NO_SPAN, And, Lit, Mux, Not, Or, Span, Term, Var,
)


# -- expressions: the shared Boolean terms and a membership test ------------------

@dataclass
class EIs(Term):
    """Categorical membership test ``x is a`` (sugar)."""

    name: str = ""
    outcome: str = ""


# -- statements ----------------------------------------------------------------

@dataclass
class Stmt:
    span: Span = field(default=NO_SPAN, repr=False, compare=False)


@dataclass
class SFlip(Stmt):
    name: str = ""
    theta: float = 0.5


@dataclass
class SAssign(Stmt):
    name: str = ""
    value: Term = None


@dataclass
class SIf(Stmt):
    guard: Term = None
    then: list = field(default_factory=list)
    els: list = field(default_factory=list)


@dataclass
class SMmap(Stmt):
    outputs: tuple = ()
    queried: tuple = ()
    evidence: Optional[Term] = None


@dataclass
class SLoop(Stmt):
    count: int = 0
    body: list = field(default_factory=list)


@dataclass
class SDisc(Stmt):
    name: str = ""
    pairs: tuple = ()  # ((outcome, prob), ...)


# -- queries and programs ----------------------------------------------------------

@dataclass
class QPr:
    span: Span = field(default=NO_SPAN, repr=False, compare=False)
    expr: Term = None
    evidence: Optional[Term] = None
    text: str = ""  # source rendering for reports


@dataclass
class QMmap:
    span: Span = field(default=NO_SPAN, repr=False, compare=False)
    queried: tuple = ()
    evidence: Optional[Term] = None
    text: str = ""


@dataclass
class Program:
    statements: list = field(default_factory=list)
    queries: list = field(default_factory=list)
