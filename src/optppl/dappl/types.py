"""Types of the decision language, and the check of pure terms.

Types: ``Bool`` for pure terms, ``Dist`` for probabilistic computations,
``Choice{names}`` for decisions and ``Cat{names}`` for categorical sugar.
Choice and categorical types compare by name-set equality.  Programs must
be closed and of type ``Dist``; expressions are checked by the walk in
:mod:`optppl.dappl.desugar`, which desugars them as it types them.
"""

from __future__ import annotations

from ..frontend import PositionedError
from . import ast as A


class DapplTypeError(PositionedError):
    pass


class _Type:
    """A type equals another of its class with the same name set."""

    names = frozenset()

    def __repr__(self):
        return self.label

    def __eq__(self, other):
        return type(other) is type(self) and other.names == self.names

    def __hash__(self):
        return hash((self.label, self.names))


class TBool(_Type):
    label = "Bool"


class TDist(_Type):
    label = "Dist[Bool]"


class TChoice(_Type):
    label = "Choice"

    def __init__(self, names):
        self.names = frozenset(names)

    def __repr__(self):
        return "Choice{%s}" % ", ".join(sorted(self.names))


class TCat(_Type):
    """A categorical; a bound one carries its chain flips, one ``(name, bias)``
    per outcome but the last (see :func:`optppl.frontend.chain_biases`)."""

    label = "Cat"

    def __init__(self, names, flips=()):
        self.outcomes = tuple(names)
        self.names = frozenset(self.outcomes)
        self.flips = flips

    def __repr__(self):
        return "Cat{%s}" % ", ".join(sorted(self.names))


BOOL = TBool()
DIST = TDist()


def check_pure(p: A.Term, env: dict):
    if isinstance(p, A.Var):
        if p.name not in env:
            raise DapplTypeError(f"unbound variable {p.name!r}", p.span)
        t = env[p.name]
        if t != BOOL:
            raise DapplTypeError(f"{p.name!r} has type {t}, expected Bool", p.span)
        return BOOL
    if isinstance(p, A.Lit):
        return BOOL
    if isinstance(p, (A.And, A.Or)):
        check_pure(p.left, env)
        check_pure(p.right, env)
        return BOOL
    if isinstance(p, A.Not):
        check_pure(p.operand, env)
        return BOOL
    raise DapplTypeError(f"not a Boolean term: {p!r}")
