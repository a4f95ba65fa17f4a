"""Reduction of a core program under a policy to the decision-free subset.

A policy maps each choice-introduction site to one of its alternative
names.  Introductions become ``return tt`` and each ``choose`` collapses to
the arm the policy selects for the site its scrutinee was bound at.
"""

from __future__ import annotations

from . import ast as A


class DapplReduceError(Exception):
    pass


def reduce(e: A.Expr, policy: dict) -> A.Expr:
    """Apply ``policy`` (site id -> alternative name) to a site-numbered core AST."""
    return _reduce(e, policy, {})


def _reduce(e, policy, site_env):
    if isinstance(e, (A.Return, A.Flip)):
        return e
    if isinstance(e, A.Reward):
        return A.Reward(span=e.span, amount=e.amount, body=_reduce(e.body, policy, site_env))
    if isinstance(e, A.Ite):
        return A.Ite(
            span=e.span,
            guard=e.guard,
            then=_reduce(e.then, policy, site_env),
            els=_reduce(e.els, policy, site_env),
        )
    if isinstance(e, A.Observe):
        return A.Observe(span=e.span, guard=e.guard, body=_reduce(e.body, policy, site_env))
    if isinstance(e, A.ChoiceIntro):
        return A.Return(span=e.span, pure=A.Lit(value=True))
    if isinstance(e, A.Bind):
        inner = dict(site_env)
        if isinstance(e.value, A.ChoiceIntro):
            inner[e.name] = e.value.site
        return A.Bind(
            span=e.span,
            name=e.name,
            value=_reduce(e.value, policy, site_env),
            body=_reduce(e.body, policy, inner),
        )
    if isinstance(e, A.Choose):
        if not isinstance(e.scrutinee, A.ScrutVar):
            raise DapplReduceError("choose scrutinee not a variable; desugar first")
        site = site_env.get(e.scrutinee.name)
        if site is None:
            raise DapplReduceError(f"{e.scrutinee.name!r} is not a bound choice")
        if site not in policy:
            raise DapplReduceError(f"policy does not select an alternative for site {site}")
        selected = policy[site]
        for name, body in e.arms:
            if name == selected:
                return _reduce(body, policy, site_env)
        raise DapplReduceError(f"policy name {selected!r} is not an arm of site {site}")
    raise DapplReduceError(f"cannot reduce {e!r}")
