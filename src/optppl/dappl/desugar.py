"""Sugar elimination: loops, categoricals, trailing rewards, guard normalization.

After desugaring only the core forms remain: return/flip/reward-with-body,
if on a plain variable, bind, observe on a plain variable, choice intro and
choose on a bound choice variable.
"""

from __future__ import annotations

from ..frontend import chain_biases
from . import ast as A


class DapplDesugarError(Exception):
    pass


class _Desugarer:
    def __init__(self):
        self.counter = 0
        self.cat_env = {}  # name -> flip-chain variable names, in outcome order

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"_{stem}{self.counter}"

    # -- helpers ---------------------------------------------------------------

    def expand_cat_choose(self, flips, names, arms_by_name):
        """Nested conditionals over chain flips selecting the matching arm."""
        if len(names) == 1:
            return arms_by_name[names[0]]
        return A.Ite(
            guard=A.Var(name=flips[0]),
            then=arms_by_name[names[0]],
            els=self.expand_cat_choose(flips[1:], names[1:], arms_by_name),
        )

    def bind_chain_flips(self, pairs, body_fn):
        """Bind len(pairs)-1 chain flips, then build the body from their names."""
        try:
            biases = chain_biases([p for _, p in pairs])
        except ValueError as exc:
            raise DapplDesugarError(str(exc)) from None
        flip_names = [self.fresh("cat") for _ in biases]

        def nest(i):
            if i == len(flip_names):
                return body_fn(flip_names)
            return A.Bind(
                name=flip_names[i],
                value=A.Flip(theta=biases[i]),
                body=nest(i + 1),
            )

        return nest(0)

    # -- main walk -------------------------------------------------------------

    def walk(self, e: A.Expr) -> A.Expr:
        if isinstance(e, (A.Return, A.Flip)):
            return e
        if isinstance(e, A.Unit):
            return A.Return(span=e.span, pure=A.Lit(value=True))
        if isinstance(e, A.Reward):
            body = A.Return(pure=A.Lit(value=True)) if e.body is None else self.walk(e.body)
            return A.Reward(span=e.span, amount=e.amount, body=body)
        if isinstance(e, A.Observe):
            return self.normalize_guard(
                e.guard, lambda g: A.Observe(span=e.span, guard=g, body=self.walk(e.body))
            )
        if isinstance(e, A.Ite):
            if isinstance(e.guard, A.ChoiceIntro):
                # one-alternative decision guard becomes a binary choice
                name = e.guard.names[0]
                var = self.fresh("dec")
                return A.Bind(
                    span=e.span,
                    name=var,
                    value=A.ChoiceIntro(names=(name, f"{name}_not")),
                    body=A.Choose(
                        scrutinee=A.ScrutVar(name=var),
                        arms=((name, self.walk(e.then)), (f"{name}_not", self.walk(e.els))),
                    ),
                )
            return self.normalize_guard(
                e.guard,
                lambda g: A.Ite(span=e.span, guard=g, then=self.walk(e.then), els=self.walk(e.els)),
            )
        if isinstance(e, A.Bind):
            if isinstance(e.value, A.Disc):
                pairs = e.value.pairs
                saved = self.cat_env.get(e.name)

                def body_fn(flips):
                    self.cat_env[e.name] = (flips, tuple(n for n, _ in pairs))
                    out = self.walk(e.body)
                    if saved is None:
                        self.cat_env.pop(e.name, None)
                    else:
                        self.cat_env[e.name] = saved
                    return out

                return self.bind_chain_flips(pairs, body_fn)
            return A.Bind(
                span=e.span, name=e.name, value=self.walk(e.value), body=self.walk(e.body)
            )
        if isinstance(e, A.ChoiceIntro):
            return e
        if isinstance(e, A.Choose):
            scrut = e.scrutinee
            arms_by_name = {name: self.walk(body) for name, body in e.arms}
            if isinstance(scrut, A.Disc):
                names = tuple(n for n, _ in scrut.pairs)
                return self.bind_chain_flips(
                    scrut.pairs,
                    lambda flips: self.expand_cat_choose(flips, names, arms_by_name),
                )
            if isinstance(scrut, A.ScrutVar) and scrut.name in self.cat_env:
                flips, names = self.cat_env[scrut.name]
                return self.expand_cat_choose(list(flips), list(names), arms_by_name)
            if isinstance(scrut, A.ChoiceIntro):
                var = self.fresh("ch")
                return A.Bind(
                    span=e.span,
                    name=var,
                    value=scrut,
                    body=A.Choose(
                        scrutinee=A.ScrutVar(name=var),
                        arms=tuple((n, arms_by_name[n]) for n, _ in e.arms),
                    ),
                )
            return A.Choose(
                span=e.span,
                scrutinee=scrut,
                arms=tuple((n, arms_by_name[n]) for n, _ in e.arms),
            )
        if isinstance(e, A.Loop):
            if e.count < 1:
                raise DapplDesugarError(f"loop bound must be at least 1, got {e.count}")
            copies = [self.walk(_copy(e.body)) for _ in range(e.count)]
            out = copies[-1]
            for body in reversed(copies[:-1]):
                out = A.Bind(name=self.fresh("loop"), value=body, body=out)
            return out
        if isinstance(e, A.Disc):
            raise DapplDesugarError("a categorical must be bound or matched with choose")
        raise DapplDesugarError(f"cannot desugar {e!r}")

    def normalize_guard(self, guard: A.Term, rebuild):
        if isinstance(guard, A.Var):
            return rebuild(guard)
        name = self.fresh("g")
        return A.Bind(
            name=name,
            value=A.Return(pure=guard),
            body=rebuild(A.Var(name=name)),
        )


def _copy(e: A.Expr) -> A.Expr:
    """Structural copy so loop iterations get distinct nodes (fresh sites)."""
    import copy

    return copy.deepcopy(e)


def desugar(e: A.Expr) -> A.Expr:
    """Rewrite a typed AST into the core sublanguage."""
    return _Desugarer().walk(e)
