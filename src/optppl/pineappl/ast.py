"""AST for the imperative staged-query language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..frontend import NO_SPAN, Span


# -- expressions -------------------------------------------------------------

@dataclass
class Expr:
    span: Span = field(default=NO_SPAN, repr=False, compare=False)


@dataclass
class EVar(Expr):
    name: str = ""


@dataclass
class ELit(Expr):
    value: bool = False


@dataclass
class EAnd(Expr):
    left: Expr = None
    right: Expr = None


@dataclass
class EOr(Expr):
    left: Expr = None
    right: Expr = None


@dataclass
class ENot(Expr):
    operand: Expr = None


@dataclass
class EIs(Expr):
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
    value: Expr = None


@dataclass
class SIf(Stmt):
    guard: Expr = None
    then: list = field(default_factory=list)
    els: list = field(default_factory=list)


@dataclass
class SMmap(Stmt):
    outputs: tuple = ()
    queried: tuple = ()
    evidence: Optional[Expr] = None


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
    expr: Expr = None
    evidence: Optional[Expr] = None
    text: str = ""  # source rendering for reports


@dataclass
class QMmap:
    queried: tuple = ()
    evidence: Optional[Expr] = None
    text: str = ""


@dataclass
class Program:
    statements: list = field(default_factory=list)
    queries: list = field(default_factory=list)


def expr_vars(e: Expr) -> set:
    if isinstance(e, EVar):
        return {e.name}
    if isinstance(e, (EAnd, EOr)):
        return expr_vars(e.left) | expr_vars(e.right)
    if isinstance(e, ENot):
        return expr_vars(e.operand)
    if isinstance(e, EIs):
        return {e.name}
    return set()


def render_expr(e: Expr) -> str:
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, ELit):
        return "tt" if e.value else "ff"
    if isinstance(e, EAnd):
        return f"({render_expr(e.left)} && {render_expr(e.right)})"
    if isinstance(e, EOr):
        return f"({render_expr(e.left)} || {render_expr(e.right)})"
    if isinstance(e, ENot):
        return f"!{render_expr(e.operand)}"
    if isinstance(e, EIs):
        return f"{e.name} is {e.outcome}"
    raise TypeError(f"not an expression: {e!r}")
