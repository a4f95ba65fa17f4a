"""Type checking for the decision language.

Types: ``Bool`` for pure terms, ``Dist`` for probabilistic computations,
``Choice{names}`` for decisions and ``Cat{names}`` for categorical sugar.
Choice and categorical types compare by name-set equality.  Programs must
be closed and of type ``Dist``.
"""

from __future__ import annotations

from . import ast as A


class DapplTypeError(Exception):
    def __init__(self, message, span=None):
        if span is not None and span.line:
            message = f"{message} ({span})"
        super().__init__(message)


class TBool:
    def __repr__(self):
        return "Bool"

    def __eq__(self, other):
        return isinstance(other, TBool)

    def __hash__(self):
        return hash("Bool")


class TDist:
    def __repr__(self):
        return "Dist[Bool]"

    def __eq__(self, other):
        return isinstance(other, TDist)

    def __hash__(self):
        return hash("Dist")


class TChoice:
    def __init__(self, names):
        self.names = frozenset(names)

    def __repr__(self):
        return "Choice{%s}" % ", ".join(sorted(self.names))

    def __eq__(self, other):
        return isinstance(other, TChoice) and self.names == other.names

    def __hash__(self):
        return hash(("Choice", self.names))


class TCat:
    def __init__(self, names):
        self.names = frozenset(names)

    def __repr__(self):
        return "Cat{%s}" % ", ".join(sorted(self.names))

    def __eq__(self, other):
        return isinstance(other, TCat) and self.names == other.names

    def __hash__(self):
        return hash(("Cat", self.names))


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


def check(e: A.Expr, env: dict | None = None):
    """Infer the type of an expression (sugar forms included)."""
    env = {} if env is None else env
    if isinstance(e, A.Return):
        check_pure(e.pure, env)
        return DIST
    if isinstance(e, A.Unit):
        return DIST
    if isinstance(e, A.Flip):
        return DIST
    if isinstance(e, A.Reward):
        if e.body is None:
            return DIST
        return check(e.body, env)
    if isinstance(e, A.Ite):
        if isinstance(e.guard, A.ChoiceIntro):
            if len(e.guard.names) != 1:
                raise DapplTypeError("a decision guard must have one alternative", e.span)
        else:
            check_pure(e.guard, env)
        t1 = check(e.then, env)
        t2 = check(e.els, env)
        if t1 != t2:
            raise DapplTypeError(f"branch types differ: {t1} vs {t2}", e.span)
        return t1
    if isinstance(e, A.Observe):
        check_pure(e.guard, env)
        return check(e.body, env)
    if isinstance(e, A.Bind):
        tv = check(e.value, env)
        inner = dict(env)
        if tv == DIST:
            inner[e.name] = BOOL
        elif isinstance(tv, (TChoice, TCat)):
            inner[e.name] = tv
        else:
            raise DapplTypeError(f"cannot bind a value of type {tv}", e.span)
        return check(e.body, inner)
    if isinstance(e, A.ChoiceIntro):
        return TChoice(e.names)
    if isinstance(e, A.Disc):
        return TCat(n for n, _ in e.pairs)
    if isinstance(e, A.Choose):
        scrut = e.scrutinee
        if isinstance(scrut, A.ScrutVar):
            if scrut.name not in env:
                raise DapplTypeError(f"unbound variable {scrut.name!r}", scrut.span)
            ts = env[scrut.name]
        else:
            ts = check(scrut, env)
        if not isinstance(ts, (TChoice, TCat)):
            raise DapplTypeError(
                f"choose expects a choice or categorical scrutinee, got {ts}", e.span
            )
        arm_names = frozenset(name for name, _ in e.arms)
        if arm_names != ts.names:
            raise DapplTypeError(
                f"choose patterns {sorted(arm_names)} do not match {ts}", e.span
            )
        if len(e.arms) != len(arm_names):
            raise DapplTypeError("duplicate choose patterns", e.span)
        types = [check(body, env) for _, body in e.arms]
        first = types[0]
        for t in types[1:]:
            if t != first:
                raise DapplTypeError(f"choose arms differ in type: {first} vs {t}", e.span)
        if isinstance(first, (TChoice, TCat)):
            raise DapplTypeError("choice-valued choose arms are not supported", e.span)
        return first
    if isinstance(e, A.Loop):
        if check(e.body, env) != DIST:
            raise DapplTypeError("loop body must be a probabilistic computation", e.span)
        return DIST
    raise DapplTypeError(f"cannot type {e!r}")


def check_program(e: A.Expr):
    t = check(e, {})
    if t != DIST:
        raise DapplTypeError(f"a program must have distribution type, got {t}")
    return t
