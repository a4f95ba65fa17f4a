"""Shared builders: random tuple formulas mirrored into BDDs, random search problems,
BDD literals and model enumeration, a textbook weighted count, a quadratic
least-squares fit for scaling-shape checks, and a Boolean term printer."""

from __future__ import annotations

import random

from optppl import EV, EXPECTATION, FALSE, REAL, TRUE, Bbir, BddError, BddManager
from optppl.frontend import And, Lit, Mux, Not, Or, Var
from optppl.pineappl.ast import EIs


def random_formula(rng: random.Random, names, depth=3):
    """Random nested-tuple formula over the given variable names."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.85:
            return ("var", rng.choice(names))
        return ("lit", rng.random() < 0.5)
    op = rng.choice(["and", "or", "not", "xor", "iff"])
    if op == "not":
        return ("not", random_formula(rng, names, depth - 1))
    return (
        op,
        random_formula(rng, names, depth - 1),
        random_formula(rng, names, depth - 1),
    )


def build_bdd(mgr: BddManager, formula, var_of: dict) -> int:
    tag = formula[0]
    if tag == "lit":
        return mgr.mk_true() if formula[1] else mgr.mk_false()
    if tag == "var":
        return mgr.mk_var(var_of[formula[1]])
    if tag == "not":
        return mgr.negate(build_bdd(mgr, formula[1], var_of))
    return mgr.apply(
        tag, build_bdd(mgr, formula[1], var_of), build_bdd(mgr, formula[2], var_of)
    )


def fresh_vars(mgr: BddManager, count, stem="v"):
    return [mgr.new_var(f"{stem}{i}") for i in range(count)]


def mk_lit(mgr: BddManager, var: int, positive: bool) -> int:
    node = mgr.mk_var(var)
    return node if positive else mgr.negate(node)


def ite(mgr: BddManager, g: int, t: int, e: int) -> int:
    return mgr.apply("or", mgr.apply("and", g, t), mgr.apply("and", mgr.negate(g), e))


def enumerate_models(mgr: BddManager, root: int, universe):
    """Yield every satisfying total assignment over ``universe``."""
    universe = sorted(universe)
    missing = mgr.support(root) - set(universe)
    if missing:
        raise BddError("universe does not cover the formula's variables")

    def rec(node, i, partial):
        if node == FALSE:
            return
        if i == len(universe):
            yield dict(partial)
            return
        v = universe[i]
        for value in (False, True):
            # v is at or above the node's top variable, so this allocates nothing
            partial[v] = value
            yield from rec(mgr.condition(node, v, value), i + 1, partial)
        del partial[v]

    yield from rec(root, 0, {})


def model_count(mgr: BddManager, root: int, universe) -> int:
    return sum(1 for _ in enumerate_models(mgr, root, universe))


def random_ev_weights(rng: random.Random, variables, util_lo=0.0, util_hi=10.0):
    """Expectation-semiring weights; utilities default to nonnegative."""
    wm = {}
    for v in variables:
        wm[v] = (
            EV(rng.uniform(0.0, 1.5), rng.uniform(util_lo, util_hi)),
            EV(rng.uniform(0.0, 1.5), rng.uniform(util_lo, util_hi)),
        )
    return wm


def random_real_weights(rng: random.Random, variables, unit_vars=()):
    wm = {}
    for v in variables:
        if v in unit_vars:
            wm[v] = (1.0, 1.0)
        else:
            wm[v] = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
    return wm


def random_bbir(rng: random.Random, n_vars=None, n_branch=None, semiring=EXPECTATION):
    """Random single-formula search problem with nonnegative utilities."""
    if n_vars is None:
        n_vars = rng.randint(3, 8)
    if n_branch is None:
        n_branch = rng.randint(1, min(6, n_vars))
    mgr = BddManager()
    names = [f"v{i}" for i in range(n_vars)]
    variables = fresh_vars(mgr, n_vars)
    var_of = dict(zip(names, variables))
    formula = random_formula(rng, names, depth=4)
    root = build_bdd(mgr, formula, var_of)
    support = sorted(mgr.support(root))
    k = min(n_branch, len(support))
    branch = sorted(rng.sample(support, k=k)) if k else []
    if semiring is EXPECTATION:
        wm = random_ev_weights(rng, variables)
    else:
        wm = random_real_weights(rng, variables)
    bbir = Bbir(
        mgr=mgr,
        formulas=[root],
        branch_vars=branch,
        weights=wm,
        semiring=semiring,
        validity=mgr.mk_true(),
    )
    return bbir, formula, var_of


def random_meu_instance(rng: random.Random, util_lo=0.0, util_hi=10.0):
    """Two-formula expectation problem with unit weights on decisions."""
    mgr = BddManager()
    n = rng.randint(4, 8)
    names = [f"v{i}" for i in range(n)]
    ids = fresh_vars(mgr, n)
    var_of = dict(zip(names, ids))
    phi = build_bdd(mgr, random_formula(rng, names, 4), var_of)
    gamma = (
        build_bdd(mgr, random_formula(rng, names, 2), var_of)
        if rng.random() < 0.6
        else mgr.mk_true()
    )
    support = sorted(mgr.support(phi) | mgr.support(gamma))
    if not support:
        return None
    branch = sorted(rng.sample(support, k=rng.randint(1, min(4, len(support)))))
    wm = {}
    for v in ids:
        if v in branch:
            wm[v] = (EV(1.0, 0.0), EV(1.0, 0.0))
        else:
            wm[v] = (
                EV(rng.uniform(0, 1.2), rng.uniform(util_lo, util_hi)),
                EV(rng.uniform(0, 1.2), rng.uniform(util_lo, util_hi)),
            )
    return Bbir(
        mgr=mgr, formulas=[phi, gamma], branch_vars=branch, weights=wm,
        semiring=EXPECTATION,
    )


def random_mmap_instance(rng: random.Random):
    """Real-semiring model/evidence pair; returns (bbir, joint formula, names)."""
    mgr = BddManager()
    n = rng.randint(4, 8)
    names = [f"v{i}" for i in range(n)]
    ids = fresh_vars(mgr, n)
    var_of = dict(zip(names, ids))
    f_phi = random_formula(rng, names, 4)
    f_gam = random_formula(rng, names, 2) if rng.random() < 0.5 else ("lit", True)
    phi = build_bdd(mgr, f_phi, var_of)
    gamma = build_bdd(mgr, f_gam, var_of)
    support = sorted(mgr.support(phi) | mgr.support(gamma))
    if not support:
        return None
    map_vars = sorted(rng.sample(support, k=rng.randint(1, min(4, len(support)))))
    wm = random_real_weights(rng, ids, unit_vars=set(map_vars))
    bbir = Bbir(
        mgr=mgr, formulas=[phi, gamma], branch_vars=map_vars, weights=wm,
        semiring=REAL,
    )
    return bbir, ("and", f_phi, f_gam), var_of


def textbook_count(mgr: BddManager, root: int, validity: int, universe, weights: dict,
                   semiring, branch=frozenset(), combine=None, fixed=frozenset()):
    """The weighted count of ``BddManager.count``, with no operation skipped.

    Every literal weight is multiplied in and every pair of literal values
    is added (or combined at ``branch`` variables), even when one side is
    the semiring's one or zero.  The gaps of the positions skipped above a
    node are multiplied together from ``one`` and then into the node's
    value; below the last tested position they are multiplied from the
    bottom.  ``fixed`` variables have the unit gap.  These are the
    associations ``count`` uses, so its values must match bit for bit.
    """
    universe = sorted(universe)
    n = len(universe)
    one, zero, add, mul = semiring.one, semiring.zero, semiring.add, semiring.mul
    pos_of = {var: i for i, var in enumerate(universe)}

    def gap(i):
        var = universe[i]
        if var in fixed:
            return one
        return (combine if var in branch else add)(*weights[var])

    def split(h, var):
        if h > TRUE and mgr._var[h] == var:
            return mgr._lo[h], mgr._hi[h]
        return h, h

    memo = {}

    def rec(f, v, i):
        key = (f, v, i)
        if key in memo:
            return memo[key]
        top = min([pos_of[mgr._var[h]] for h in (f, v) if h > TRUE], default=n)
        if top == n:
            out = one
            for k in range(n - 1, i - 1, -1):
                out = mul(gap(k), out)
        else:
            var = universe[top]
            wpos, wneg = weights[var]
            (flo, fhi), (vlo, vhi) = split(f, var), split(v, var)
            hi = zero if FALSE in (fhi, vhi) else mul(wpos, rec(fhi, vhi, top + 1))
            lo = zero if FALSE in (flo, vlo) else mul(wneg, rec(flo, vlo, top + 1))
            if var not in branch:
                out = add(hi, lo)
            elif vhi == FALSE:
                out = lo
            elif vlo == FALSE:
                out = hi
            else:
                out = combine(hi, lo)
            if top > i:
                acc = one
                for k in range(i, top):
                    acc = mul(acc, gap(k))
                out = mul(acc, out)
        memo[key] = out
        return out

    if root == FALSE or validity == FALSE:
        return zero
    return rec(root, validity, 0)


def float_hex(value):
    """A count value with every float in ``float.hex`` form."""
    if isinstance(value, tuple):
        return tuple(x.hex() for x in value)
    return value.hex()


def all_assignments(variables):
    import itertools

    variables = sorted(variables)
    for bits in itertools.product((False, True), repeat=len(variables)):
        yield dict(zip(variables, bits))


def substitute(formula, name_values: dict):
    """Pin named variables in a tuple formula."""
    tag = formula[0]
    if tag == "lit":
        return formula
    if tag == "var":
        if formula[1] in name_values:
            return ("lit", name_values[formula[1]])
        return formula
    if tag == "not":
        return ("not", substitute(formula[1], name_values))
    return (tag, substitute(formula[1], name_values), substitute(formula[2], name_values))


def rename_formula(formula, mapping: dict):
    """Relabel the variables of a tuple formula (e.g. names -> ids)."""
    tag = formula[0]
    if tag == "lit":
        return formula
    if tag == "var":
        return ("var", mapping[formula[1]])
    if tag == "not":
        return ("not", rename_formula(formula[1], mapping))
    return (tag, rename_formula(formula[1], mapping), rename_formula(formula[2], mapping))


def fit_quadratic(xs, ys):
    """Least-squares degree-2 fit; returns (coefficients, r_squared)."""
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    coeffs = np.polyfit(xs, ys, deg=2)
    pred = np.polyval(coeffs, xs)
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return coeffs.tolist(), r2


def render_term(t) -> str:
    """A Boolean term as source text, every binary operation parenthesized."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lit):
        return "tt" if t.value else "ff"
    if isinstance(t, And):
        return f"({render_term(t.left)} && {render_term(t.right)})"
    if isinstance(t, Or):
        return f"({render_term(t.left)} || {render_term(t.right)})"
    if isinstance(t, Not):
        return f"!{render_term(t.operand)}"
    if isinstance(t, Mux):
        g = render_term(t.guard)
        return f"(({g} && {render_term(t.then)}) || (!{g} && {render_term(t.els)}))"
    if isinstance(t, EIs):
        return f"{t.name} is {t.outcome}"
    raise TypeError(f"not a Boolean term: {t!r}")
