"""Brute-force reference implementations used for differential testing.

Nothing here touches the BDD engine: formulas are nested tuples evaluated
against explicit assignments, and program semantics are computed with
explicit finite distributions.  These oracles may be exponential; they
exist to check the compiled pipeline, not to be fast.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .dappl import ast as D
from .frontend import And, Lit, Mux, Not, Or, Term, Var, term_vars
from .semiring import NEG_INF

BOT = "bot"


class OracleError(Exception):
    pass


# ---------------------------------------------------------------------------
# Tuple formulas and exhaustive algebraic model counting
# ---------------------------------------------------------------------------

def feval(formula, assignment) -> bool:
    """Evaluate a nested-tuple formula under a total assignment."""
    tag = formula[0]
    if tag == "lit":
        return formula[1]
    if tag == "var":
        return assignment[formula[1]]
    if tag == "not":
        return not feval(formula[1], assignment)
    if tag == "and":
        return feval(formula[1], assignment) and feval(formula[2], assignment)
    if tag == "or":
        return feval(formula[1], assignment) or feval(formula[2], assignment)
    if tag == "xor":
        return feval(formula[1], assignment) != feval(formula[2], assignment)
    if tag == "iff":
        return feval(formula[1], assignment) == feval(formula[2], assignment)
    raise OracleError(f"bad formula tag {tag!r}")


def formula_vars(formula) -> set:
    tag = formula[0]
    if tag == "lit":
        return set()
    if tag == "var":
        return {formula[1]}
    if tag == "not":
        return formula_vars(formula[1])
    return formula_vars(formula[1]) | formula_vars(formula[2])


def assignments(universe: Iterable):
    universe = sorted(universe)
    for bits in itertools.product((False, True), repeat=len(universe)):
        yield dict(zip(universe, bits))


def brute_amc(formula, weights: dict, universe, semiring):
    """Sum of literal-weight products over all models in ``universe``.

    ``weights`` maps variable -> (positive weight, negative weight); the sum
    runs in a fixed (sorted) assignment order for reproducibility.
    """
    universe = sorted(universe)
    if len(universe) > 20:
        raise OracleError(f"universe of {len(universe)} variables is too large")
    total = semiring.zero
    for sigma in assignments(universe):
        if not feval(formula, sigma):
            continue
        w = semiring.one
        for v in universe:
            pos, neg = weights[v]
            w = semiring.mul(w, pos if sigma[v] else neg)
        total = semiring.add(total, w)
    return total


# ---------------------------------------------------------------------------
# Boolean terms, shared by both languages
# ---------------------------------------------------------------------------

def eval_term(t: Term, env: dict) -> bool:
    """The value of a Boolean term under an assignment of its names."""
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise OracleError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, And):
        return eval_term(t.left, env) and eval_term(t.right, env)
    if isinstance(t, Or):
        return eval_term(t.left, env) or eval_term(t.right, env)
    if isinstance(t, Not):
        return not eval_term(t.operand, env)
    if isinstance(t, Mux):
        return eval_term(t.then if eval_term(t.guard, env) else t.els, env)
    raise OracleError(f"not a Boolean term: {t!r}")


# ---------------------------------------------------------------------------
# Denotational interpreter for the decision-free core
# ---------------------------------------------------------------------------

def util_eval(e: D.Expr, env: dict | None = None) -> dict:
    """Exact outcome distribution: {(bool, reward): mass} plus possibly {BOT: mass}.

    Rewards accumulate additively across sequencing; a failed observation
    maps the trace to the bottom outcome.
    """
    env = {} if env is None else env
    if isinstance(e, D.Return):
        return {(eval_term(e.pure, env), 0.0): 1.0}
    if isinstance(e, D.Flip):
        return {(True, 0.0): e.theta, (False, 0.0): 1.0 - e.theta}
    if isinstance(e, D.Reward):
        out = {}
        for key, mass in util_eval(e.body, env).items():
            shifted = key if key == BOT else (key[0], key[1] + e.amount)
            out[shifted] = out.get(shifted, 0.0) + mass
        return out
    if isinstance(e, D.Ite):
        branch = e.then if eval_term(e.guard, env) else e.els
        return util_eval(branch, env)
    if isinstance(e, D.Observe):
        if eval_term(e.guard, env):
            return util_eval(e.body, env)
        return {BOT: 1.0}
    if isinstance(e, D.Bind):
        out = {}
        for key, mass in util_eval(e.value, env).items():
            if mass == 0.0:
                continue
            if key == BOT:
                out[BOT] = out.get(BOT, 0.0) + mass
                continue
            value, reward = key
            inner_env = dict(env)
            inner_env[e.name] = value
            for key2, mass2 in util_eval(e.body, inner_env).items():
                shifted = key2 if key2 == BOT else (key2[0], key2[1] + reward)
                out[shifted] = out.get(shifted, 0.0) + mass * mass2
        return out
    raise OracleError(f"not a decision-free core expression: {e!r}")


def util_eu(e: D.Expr) -> float:
    """Expected reward of true-returning traces, conditioned on no failure."""
    dist = util_eval(e, {})
    alive = sum(mass for key, mass in dist.items() if key != BOT)
    if alive <= 0.0:
        return NEG_INF
    acc = sum(r * mass for (value, r), mass in _sorted_outcomes(dist) if value)
    return acc / alive


def _sorted_outcomes(dist):
    return sorted(
        ((key, mass) for key, mass in dist.items() if key != BOT),
        key=lambda item: (item[0][0], item[0][1]),
    )


# ---------------------------------------------------------------------------
# Decision language: policy enumeration
# ---------------------------------------------------------------------------

def policy_space(sites):
    """All policies over ``[(site_id, names)]``, first-alternative first."""
    if not sites:
        yield {}
        return
    ids = [sid for sid, _ in sites]
    for combo in itertools.product(*[names for _, names in sites]):
        yield dict(zip(ids, combo))


def dappl_meu_enum(core: D.Expr, sites=None):
    """Maximize the interpreter's expected utility over all policies."""
    from .dappl.reduce import reduce as reduce_policy

    if sites is None:
        sites = D.number_sites(core)
    count = 1
    for _, names in sites:
        count *= len(names)
    if count > 2 ** 14:
        raise OracleError(f"policy space of size {count} is too large to enumerate")
    best = None
    best_policy = None
    for policy in policy_space(sites):
        eu = util_eu(reduce_policy(core, policy))
        if best is None or eu > best:
            best = eu
            best_policy = policy
    return best, best_policy


# ---------------------------------------------------------------------------
# Imperative language: explicit-distribution interpreter
# ---------------------------------------------------------------------------

class Distribution:
    """Finite map from assignments (frozen item sets) to probabilities."""

    def __init__(self, table=None):
        self.table = table if table is not None else {frozenset(): 1.0}

    def items(self):
        return self.table.items()

    def total(self):
        return sum(self.table.values())

    def prob(self, expr) -> float:
        return sum(
            mass for sigma, mass in self.table.items() if eval_term(expr, dict(sigma))
        )

    def project(self, keep: set) -> "Distribution":
        out = {}
        for sigma, mass in self.table.items():
            reduced = frozenset((k, v) for k, v in sigma if k in keep)
            out[reduced] = out.get(reduced, 0.0) + mass
        return Distribution(out)

    def extend(self, name, fn) -> "Distribution":
        """Per-trace deterministic extension ``name := fn(sigma)``."""
        out = {}
        for sigma, mass in self.table.items():
            value = fn(dict(sigma))
            out[sigma | {(name, value)}] = out.get(sigma | {(name, value)}, 0.0) + mass
        return Distribution(out)

    def flip(self, name, theta) -> "Distribution":
        out = {}
        for sigma, mass in self.table.items():
            if theta > 0.0:
                key = sigma | {(name, True)}
                out[key] = out.get(key, 0.0) + theta * mass
            if theta < 1.0:
                key = sigma | {(name, False)}
                out[key] = out.get(key, 0.0) + (1.0 - theta) * mass
        return Distribution(out)

    def marginal(self, names, evidence=None):
        """Map over joint assignments to ``names``, conditioned on evidence."""
        out = {}
        z = 0.0
        for sigma, mass in self.table.items():
            env = dict(sigma)
            if evidence is not None and not eval_term(evidence, env):
                continue
            z += mass
            key = tuple(env[n] for n in names)
            out[key] = out.get(key, 0.0) + mass
        if z == 0.0:
            raise OracleError("evidence has zero probability")
        return {key: mass / z for key, mass in out.items()}


def mmap_argmax(marginal: dict, arity: int):
    """Lexicographically-smallest argmax (False before True) of a marginal."""
    best_key, best_mass = None, -1.0
    for key in itertools.product((False, True), repeat=arity):
        mass = marginal.get(key, 0.0)
        if mass > best_mass:
            best_key, best_mass = key, mass
    return best_key, best_mass


def pineappl_interp(program, support_limit=2 ** 16):
    """Run a loop-free renamed program under the explicit-state semantics.

    Returns ``(query values, staged mmap decisions)``.  Dead variables are
    marginalized out eagerly so the table stays near the live-variable width.
    """
    from .pineappl import ast as P

    statements = program.statements
    live_after = _liveness(program)
    dist = Distribution()
    decisions = {}

    def run(stmts, path: tuple):
        nonlocal dist
        for idx, stmt in enumerate(stmts):
            if isinstance(stmt, P.SFlip):
                dist = dist.flip(stmt.name, stmt.theta)
            elif isinstance(stmt, P.SAssign):
                expr = stmt.value
                dist = dist.extend(stmt.name, lambda env, e=expr: eval_term(e, env))
            elif isinstance(stmt, P.SIf):
                # branches bind disjoint fresh names after expansion; their
                # effects are guarded downstream through explicit join points
                run(stmt.then, path + (idx, "t"))
                run(stmt.els, path + (idx, "e"))
            elif isinstance(stmt, P.SMmap):
                marg = dist.marginal(list(stmt.queried), stmt.evidence)
                key, _ = mmap_argmax(marg, len(stmt.queried))
                for name, value in zip(stmt.outputs, key):
                    decisions[name] = value
                    dist = dist.extend(name, lambda env, v=value: v)
            else:
                raise OracleError(f"unsupported statement {stmt!r}")
            keep = live_after.get(path + (idx,))
            if keep is not None:
                dist = dist.project(keep)
            if len(dist.table) > support_limit:
                raise OracleError("distribution support exceeds the interpreter limit")

    run(statements, ())
    values = []
    for q in program.queries:
        if isinstance(q, P.QPr):
            if q.evidence is None:
                values.append(dist.prob(q.expr))
            else:
                denom = dist.prob(q.evidence)
                if denom == 0.0:
                    raise OracleError("query evidence has zero probability")
                joint = dist.prob(And(left=q.expr, right=q.evidence))
                values.append(joint / denom)
        elif isinstance(q, P.QMmap):
            marg = dist.marginal(list(q.queried), q.evidence)
            key, mass = mmap_argmax(marg, len(q.queried))
            values.append((dict(zip(q.queried, key)), mass))
        else:
            raise OracleError(f"unsupported query {q!r}")
    return values, decisions


def _liveness(program):
    """Variables referenced strictly after each statement position."""
    from .pineappl import ast as P

    needed = set()
    for q in program.queries:
        if isinstance(q, P.QPr):
            needed |= term_vars(q.expr)
            if q.evidence is not None:
                needed |= term_vars(q.evidence)
        else:
            needed |= set(q.queried)
            if q.evidence is not None:
                needed |= term_vars(q.evidence)

    live_after = {}

    def backward(stmts, path, live: set) -> set:
        for idx in range(len(stmts) - 1, -1, -1):
            stmt = stmts[idx]
            live_after[path + (idx,)] = set(live)
            if isinstance(stmt, P.SFlip):
                live.discard(stmt.name)
            elif isinstance(stmt, P.SAssign):
                live.discard(stmt.name)
                live |= term_vars(stmt.value)
            elif isinstance(stmt, P.SIf):
                live = backward(stmt.els, path + (idx, "e"), live)
                live = backward(stmt.then, path + (idx, "t"), set(live))
                live |= term_vars(stmt.guard)
            elif isinstance(stmt, P.SMmap):
                for name in stmt.outputs:
                    live.discard(name)
                live |= set(stmt.queried)
                if stmt.evidence is not None:
                    live |= term_vars(stmt.evidence)
        return live

    backward(program.statements, (), set(needed))
    return live_after


# ---------------------------------------------------------------------------
# Exhaustive marginal-MAP over weighted tuple formulas
# ---------------------------------------------------------------------------

def mmap_enum(formula, map_vars, weights: dict, universe, evidence=None):
    """Exhaustive Eq.-style argmax over instantiations of ``map_vars``.

    ``evidence`` is a partial assignment applied to the formula first.  The
    value reported for an instantiation ``m`` is its literal-weight product
    times the model mass of the formula under ``m``, normalized by the total
    mass; ties resolve to the lexicographically smallest assignment.
    """
    map_vars = sorted(map_vars)
    if len(map_vars) > 14:
        raise OracleError("MAP set too large to enumerate")
    evidence = evidence or {}
    rest = [v for v in sorted(universe) if v not in map_vars and v not in evidence]
    denom = 0.0
    scored = []
    for bits in itertools.product((False, True), repeat=len(map_vars)):
        m = dict(zip(map_vars, bits))
        pm = 1.0
        for v, val in m.items():
            pos, neg = weights[v]
            pm *= pos if val else neg
        mass = 0.0
        for sigma in assignments(rest):
            sigma.update(m)
            sigma.update(evidence)
            if not feval(formula, sigma):
                continue
            w = 1.0
            for v in rest:
                pos, neg = weights[v]
                w *= pos if sigma[v] else neg
            mass += w
        scored.append((dict(m), pm * mass))
        denom += pm * mass
    if denom == 0.0:
        raise OracleError("evidence unsatisfiable: all instantiations have zero mass")
    best, best_mass = None, -1.0
    for m, mass in scored:
        if mass > best_mass:
            best, best_mass = m, mass
    return best, best_mass / denom
