"""AST for the decision-theoretic language: effectful terms and sugar.

Pure terms are the shared Boolean terms of :mod:`optppl.frontend`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..frontend import NO_SPAN, And, Lit, Not, Or, Span, Term, Var  # noqa: F401  (pure terms)


# -- effectful terms ---------------------------------------------------------

@dataclass
class Expr:
    span: Span = field(default=NO_SPAN, repr=False, compare=False)


@dataclass
class Return(Expr):
    pure: Term = None


@dataclass
class Flip(Expr):
    theta: float = 0.5


@dataclass
class Reward(Expr):
    amount: float = 0.0
    body: Optional[Expr] = None  # None = trailing-reward sugar


@dataclass
class Ite(Expr):
    guard: Term = None
    then: Expr = None
    els: Expr = None


@dataclass
class Bind(Expr):
    name: str = ""
    value: Expr = None
    body: Expr = None


@dataclass
class Observe(Expr):
    guard: Term = None
    body: Expr = None


@dataclass
class ChoiceIntro(Expr):
    names: tuple = ()
    site: int = -1  # numbered by the variable planner, or by number_sites


@dataclass
class Choose(Expr):
    scrutinee: Expr = None  # a ScrutVar, a ChoiceIntro, or a Disc
    arms: tuple = ()  # ((name, Expr), ...)


@dataclass
class ScrutVar(Expr):
    """Choose scrutinee that is a bound variable."""

    name: str = ""


# -- sugar-only forms ----------------------------------------------------------

@dataclass
class Disc(Expr):
    pairs: tuple = ()  # ((name, prob), ...)


@dataclass
class Loop(Expr):
    count: int = 0
    body: Expr = None


@dataclass
class Unit(Expr):
    pass


def number_sites(expr: Expr) -> list:
    """Assign site ids to choice introductions in traversal order.

    Returns ``[(site_id, names)]``; ids are also written into the nodes so a
    policy over sites is meaningful to both the reducer and the compiler.
    """
    sites = []

    def walk(e):
        if isinstance(e, ChoiceIntro):
            e.site = len(sites)
            sites.append((e.site, e.names))
        for child in _children(e):
            walk(child)

    walk(expr)
    return sites


def _children(e):
    if isinstance(e, Reward) and e.body is not None:
        return [e.body]
    if isinstance(e, Ite):
        return [e.then, e.els]
    if isinstance(e, Bind):
        return [e.value, e.body]
    if isinstance(e, Observe):
        return [e.body]
    if isinstance(e, Choose):
        out = [] if isinstance(e.scrutinee, ScrutVar) else [e.scrutinee]
        out.extend(body for _, body in e.arms)
        return out
    if isinstance(e, Loop):
        return [e.body]
    return []
