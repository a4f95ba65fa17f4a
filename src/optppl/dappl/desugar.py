"""Type checking and sugar elimination in one walk.

One recursion returns each expression's core form and its type (see
:mod:`optppl.dappl.types`) under one scope, which maps a name to ``Bool``,
a choice, or a categorical with the chain flips that encode it; every
binding shadows what its name was before.  Errors are raised in walk order.

After desugaring only the core forms remain: return/flip/reward-with-body,
if on a plain variable, bind, observe on a plain variable, choice intro and
choose on a bound choice variable.  A choice or categorical is bound only
as its ``[...]`` or ``disc[...]`` itself, so every choose finds its site.
The walk's one scope is bound and restored in place by :func:`rebind`.
"""

from __future__ import annotations

from ..frontend import chain_biases
from . import ast as A
from .types import BOOL, DIST, DapplTypeError, TCat, TChoice, check_pure


class DapplDesugarError(Exception):
    pass


def rebind(scope: dict, name: str, value):
    """Set ``name`` to ``value`` (None unbinds it); return the value to restore it with."""
    saved = scope.get(name)
    if value is None:
        del scope[name]
    else:
        scope[name] = value
    return saved


class _Walk:
    def __init__(self):
        self.counter = 0

    def fresh(self, stem: str) -> str:
        """A new name; it holds ``#``, which no dappl identifier can, so it captures none."""
        self.counter += 1
        return f"{stem}#{self.counter}"

    # -- helpers ---------------------------------------------------------------

    def categorical(self, pairs) -> TCat:
        """A categorical's type, with fresh names for its chain flips."""
        try:
            biases = chain_biases([p for _, p in pairs])
        except ValueError as exc:
            raise DapplDesugarError(str(exc)) from None
        return TCat((n for n, _ in pairs), tuple((self.fresh("_cat"), b) for b in biases))

    def guard_var(self, guard: A.Term) -> A.Var:
        """A plain-variable guard, or a fresh name for a compound one."""
        return guard if isinstance(guard, A.Var) else A.Var(name=self.fresh("_g"))

    def arms(self, e: A.Choose, t, scope: dict) -> dict:
        """Check a choose's patterns against ``t`` and walk its arms in order."""
        if not isinstance(t, (TChoice, TCat)):
            raise DapplTypeError(
                f"choose expects a choice or categorical scrutinee, got {t}", e.span
            )
        arm_names = frozenset(name for name, _ in e.arms)
        if arm_names != t.names:
            raise DapplTypeError(f"choose patterns {sorted(arm_names)} do not match {t}", e.span)
        if len(e.arms) != len(arm_names):
            raise DapplTypeError("duplicate choose patterns", e.span)
        out, first = {}, None
        for name, body in e.arms:
            out[name], ta = self.walk(body, scope)
            if first is None:
                first = ta
            elif ta != first:
                raise DapplTypeError(f"choose arms differ in type: {first} vs {ta}", e.span)
        if isinstance(first, (TChoice, TCat)):
            raise DapplTypeError("choice-valued choose arms are not supported", e.span)
        return out

    # -- main walk: one rule per node type (see _RULES) ------------------------

    def walk(self, e: A.Expr, scope: dict):
        """Return ``e``'s core form and its type."""
        rule = _RULES.get(type(e))
        if rule is None:
            raise DapplTypeError(f"cannot type {e!r}")
        return rule(self, e, scope)

    def ret(self, e: A.Return, scope: dict):
        check_pure(e.pure, scope)
        return e, DIST

    def flip(self, e: A.Flip, scope: dict):
        return e, DIST

    def unit(self, e: A.Unit, scope: dict):
        return A.Return(span=e.span, pure=A.Lit(value=True)), DIST

    def reward(self, e: A.Reward, scope: dict):
        if e.body is None:
            body, t = A.Return(pure=A.Lit(value=True)), DIST
        else:
            body, t = self.walk(e.body, scope)
        return A.Reward(span=e.span, amount=e.amount, body=body), t

    def observe(self, e: A.Observe, scope: dict):
        check_pure(e.guard, scope)
        g = self.guard_var(e.guard)
        body, t = self.walk(e.body, scope)
        return _let_guard(e.guard, g, A.Observe(span=e.span, guard=g, body=body)), t

    def intro(self, e: A.ChoiceIntro, scope: dict):
        # a new node per walk, so loop copies get distinct sites
        return A.ChoiceIntro(span=e.span, names=e.names), TChoice(e.names)

    def disc(self, e: A.Disc, scope: dict):
        # typed only; a categorical's core is the chain its binding makes
        return e, TCat(n for n, _ in e.pairs)

    def loop(self, e: A.Loop, scope: dict):
        if e.count < 1:
            raise DapplDesugarError(f"loop bound must be at least 1, got {e.count}")
        copies = [self.walk(e.body, scope) for _ in range(e.count)]
        if copies[0][1] is not DIST:
            raise DapplTypeError("loop body must be a probabilistic computation", e.span)
        out = copies[-1][0]
        for body, _ in reversed(copies[:-1]):
            out = A.Bind(name=self.fresh("_loop"), value=body, body=out)
        return out, DIST

    def ite(self, e: A.Ite, scope: dict):
        if isinstance(e.guard, A.ChoiceIntro):
            # a one-alternative decision guard becomes a binary choice
            if len(e.guard.names) != 1:
                raise DapplTypeError("a decision guard must have one alternative", e.span)
            name = e.guard.names[0]
            var = self.fresh("_dec")
        else:
            check_pure(e.guard, scope)
            g = self.guard_var(e.guard)
        then, t1 = self.walk(e.then, scope)
        els, t2 = self.walk(e.els, scope)
        if t1 != t2:
            raise DapplTypeError(f"branch types differ: {t1} vs {t2}", e.span)
        if isinstance(e.guard, A.ChoiceIntro):
            return A.Bind(
                span=e.span,
                name=var,
                value=A.ChoiceIntro(names=(name, f"{name}_not")),
                body=A.Choose(
                    scrutinee=A.ScrutVar(name=var),
                    arms=((name, then), (f"{name}_not", els)),
                ),
            ), t1
        return _let_guard(e.guard, g, A.Ite(span=e.span, guard=g, then=then, els=els)), t1

    def bind(self, e: A.Bind, scope: dict):
        value = e.value
        if isinstance(value, A.Disc):
            bound = self.categorical(value.pairs)
        elif isinstance(value, A.ChoiceIntro):
            core, bound = A.ChoiceIntro(span=value.span, names=value.names), TChoice(value.names)
        else:
            core, tv = self.walk(value, scope)
            if tv is not DIST:
                # the compiler finds a choose's site through its binding
                raise DapplTypeError(
                    f"cannot bind a computed value of type {tv}; "
                    "bind the [...] or disc[...] itself",
                    e.span,
                )
            bound = BOOL
        saved = rebind(scope, e.name, bound)
        body, t = self.walk(e.body, scope)
        rebind(scope, e.name, saved)
        if isinstance(value, A.Disc):
            return _bind_flips(bound.flips, body), t
        return A.Bind(span=e.span, name=e.name, value=core, body=body), t

    def choose(self, e: A.Choose, scope: dict):
        scrut = e.scrutinee
        if isinstance(scrut, A.ScrutVar):
            t = scope.get(scrut.name)
            if t is None:
                raise DapplTypeError(f"unbound variable {scrut.name!r}", scrut.span)
        else:
            t = self.walk(scrut, scope)[1]
        arms = self.arms(e, t, scope)
        if isinstance(scrut, A.Disc):
            cat = self.categorical(scrut.pairs)
            return _bind_flips(cat.flips, _select(cat, arms)), DIST
        if isinstance(t, TCat):
            return _select(t, arms), DIST
        ordered = tuple(arms.items())  # in the written order
        if isinstance(scrut, A.ChoiceIntro):
            var = self.fresh("_ch")
            return A.Bind(
                span=e.span,
                name=var,
                value=A.ChoiceIntro(span=scrut.span, names=scrut.names),
                body=A.Choose(scrutinee=A.ScrutVar(name=var), arms=ordered),
            ), DIST
        return A.Choose(span=e.span, scrutinee=scrut, arms=ordered), DIST


_RULES = {
    A.Return: _Walk.ret, A.Flip: _Walk.flip, A.Unit: _Walk.unit, A.Reward: _Walk.reward,
    A.Observe: _Walk.observe, A.Ite: _Walk.ite, A.Bind: _Walk.bind, A.Choose: _Walk.choose,
    A.ChoiceIntro: _Walk.intro, A.Disc: _Walk.disc, A.Loop: _Walk.loop,
}


def _let_guard(guard: A.Term, g: A.Var, core: A.Expr) -> A.Expr:
    """Bind a compound guard's fresh name ``g`` around the expression testing it."""
    if g is guard:
        return core
    return A.Bind(name=g.name, value=A.Return(pure=guard), body=core)


def _bind_flips(flips, body: A.Expr) -> A.Expr:
    for name, bias in reversed(flips):
        body = A.Bind(name=name, value=A.Flip(theta=bias), body=body)
    return body


def _select(cat: TCat, arms: dict) -> A.Expr:
    """Nested conditionals over the chain flips selecting each outcome's arm."""
    out = arms[cat.outcomes[-1]]
    for (flip, _), name in zip(reversed(cat.flips), reversed(cat.outcomes[:-1])):
        out = A.Ite(guard=A.Var(name=flip), then=arms[name], els=out)
    return out


def desugar(e: A.Expr) -> A.Expr:
    """Type-check a program and rewrite it into the core sublanguage.

    Raises the first :class:`DapplTypeError` or :class:`DapplDesugarError`
    in walk order; a program must have type ``Dist``.
    """
    core, t = _Walk().walk(e, {})
    if t is not DIST:
        raise DapplTypeError(f"a program must have distribution type, got {t}")
    return core


def check(e: A.Expr, env: dict | None = None):
    """Infer the type of an expression, sugar forms included."""
    return _Walk().walk(e, dict(env or {}))[1]


def check_program(e: A.Expr):
    """Type-check a program; it must have type ``Dist``."""
    desugar(e)
    return DIST
