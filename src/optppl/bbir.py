"""Branch-and-bound IR: weighted multi-rooted BDDs and the pruned search.

A :class:`Bbir` packages formulas (as BDD handles), an ordered set of branch
variables ``X``, and a literal weight map over a branch-and-bound semiring.
:func:`ub` and :func:`lb` compute single-pass bounds that replace the sum at
a branch variable by a join (resp. meet), as runs of the one semiring walk
:meth:`BddManager.count`; :func:`bb` searches the space of total branch
assignments, pruning a branch whenever its bound is dominated by the
incumbent under the lattice order.  All bound passes of one search share a
:class:`BoundMemo`, since the search fixes branch variables in one order.
An MEU bound divides an expectation bound by probability bounds; one walk
over the product semiring ``EV_BOUND`` computes the numerator and the
denominator's lower and upper bounds together.

An optional validity formula restricts which branch assignments count as
policies (the surface compiler uses it for its one-hot choice encoding);
bounds then range over valid completions only and the search skips invalid
branches outright.  The default validity is the constant true formula, in
which case everything reduces to the plain algorithm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bdd import FALSE, TRUE, BddManager, CountSetup, WeightMap
from .semiring import EV, EV_BOUND, EXPECTATION, REAL, EVBound


class BbirError(Exception):
    pass


@dataclass
class Bbir:
    mgr: BddManager
    formulas: list
    branch_vars: list
    weights: WeightMap
    semiring: object = EXPECTATION
    validity: int = TRUE

    def __post_init__(self):
        support = set()
        for f in self.formulas:
            support |= self.mgr.support(f)
        extra = set(self.branch_vars) - support
        # branch variables must come from the formulas (validity aside)
        if extra and self.validity == TRUE:
            names = ", ".join(self.mgr.var_label(v) for v in sorted(extra))
            raise BbirError(f"branch variables not in any formula: {names}")
        unweighted = (support | set(self.branch_vars)) - set(self.weights.vars)
        if unweighted:
            names = ", ".join(self.mgr.var_label(v) for v in sorted(unweighted))
            raise BbirError(f"unweighted variable(s): {names}")
        self.branch_set = frozenset(self.branch_vars)
        if len(self.branch_set) != len(self.branch_vars):
            repeated = sorted(v for v in self.branch_set if self.branch_vars.count(v) > 1)
            names = ", ".join(self.mgr.var_label(v) for v in repeated)
            raise BbirError(f"duplicate branch variable(s): {names}")

    def universe_for(self, handle: int):
        """Sorted bound/count universe of a formula: its support plus X."""
        return sorted(self.mgr.support(handle) | self.branch_set)


# ---------------------------------------------------------------------------
# Single-pass bounds (join or meet at branch variables)
# ---------------------------------------------------------------------------

def _bound_setup(bbir: Bbir, universe, weights: WeightMap, semiring, use_join: bool):
    """Count setup of a bound pass: sums outside X, joins (or meets) at X."""
    combine = semiring.join if use_join else semiring.meet
    return CountSetup(universe, weights, semiring, bbir.branch_set, combine)


class BoundMemo:
    """The memos and fixed-prefix setups shared by the bound passes of one search.

    Each objective part's bound setup (a :class:`CountSetup` with joins or
    meets at X) gets one memo.  ``bb`` fixes the branch variables along one
    ``order``, so every partial policy it bounds holds a prefix of that
    order, and the conditioned sets of its passes form a chain.  A diagram
    node's bound from its top position depends only on which conditioned
    variables lie below it, and along a chain their number names that set,
    whatever the order or the literals tried.  :meth:`BddManager.count`
    keys its entries on (node, validity, that number), so an entry stays
    valid for the whole search.  Each setup is fixed once per prefix length.
    """

    def __init__(self, mgr: BddManager, order):
        self.mgr = mgr
        self.order = list(order)
        self._memos = {}  # base setup -> (setups by prefix length, memo)

    def bound(self, base: CountSetup, root: int, validity: int, depth: int):
        """Bound pass of ``root`` with the first ``depth`` variables of the order fixed."""
        entry = self._memos.get(base)
        if entry is None:
            entry = self._memos[base] = ({0: base}, {})
        setups, memo = entry
        setup = setups.get(depth)
        if setup is None:
            setup = setups[depth] = base.fixing(self.order[:depth])
        return self.mgr.count(root, validity, setup, memo)

    def entries(self) -> int:
        return sum(len(memo) for _, memo in self._memos.values())


def _bound_pass(bbir: Bbir, root: int, validity: int, universe, conditioned, use_join: bool):
    """Count ``root`` over ``universe`` with sums outside X and joins/meets at X.

    ``validity`` is walked in lockstep; branch literals whose validity child
    is unsatisfiable contribute nothing.  ``conditioned`` variables (already
    fixed by the caller's partial policy) contribute nothing either.  The
    pass gets a fresh memo, so it suits any conditioned set.
    """
    setup = _bound_setup(bbir, universe, bbir.weights, bbir.semiring, use_join)
    return bbir.mgr.count(root, validity, setup.fixing(conditioned), {})


def _check_partial(bbir: Bbir, partial: dict):
    outside = set(partial) - bbir.branch_set
    if outside:
        names = ", ".join(bbir.mgr.var_label(v) for v in sorted(outside))
        raise BbirError(f"assignment outside the branch variables: {names}")


def _policy_weight(bbir: Bbir, partial: dict):
    # in branch order, so the product does not depend on the dict's order
    acc = bbir.semiring.one
    for var in bbir.branch_vars:
        if var in partial:
            pos, neg = bbir.weights.get(var)
            acc = bbir.semiring.mul(acc, pos if partial[var] else neg)
    return acc


def ub(bbir: Bbir, formula: int, partial: dict):
    """Upper bound on AMC(formula|T) (x) prod w(T) over all completions T."""
    return _bound(bbir, formula, partial, use_join=True)


def lb(bbir: Bbir, formula: int, partial: dict):
    """Dual lower bound: meet instead of join at branch variables."""
    return _bound(bbir, formula, partial, use_join=False)


def _bound(bbir: Bbir, formula: int, partial: dict, use_join: bool):
    _check_partial(bbir, partial)
    mgr = bbir.mgr
    universe = bbir.universe_for(formula)
    cond_formula = mgr.condition_all(formula, partial)
    cond_valid = mgr.condition_all(bbir.validity, partial)
    pm = _policy_weight(bbir, partial)
    acc = _bound_pass(bbir, cond_formula, cond_valid, universe, set(partial), use_join)
    return bbir.semiring.mul(pm, acc)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

class MeuObjective:
    """Maximum expected utility: maximize AMC(phi ^ gamma | pi)_EU / AMC(gamma | pi)_Pr."""

    kind = "meu"
    semiring = EXPECTATION

    def __init__(self, bbir: Bbir):
        if bbir.semiring is not EXPECTATION:
            raise BbirError("MEU requires the expectation semiring")
        if len(bbir.formulas) != 2:
            raise BbirError("MEU expects [unnormalized formula, accepting formula]")
        self.bbir = bbir
        mgr = bbir.mgr
        self.phi, self.gamma = bbir.formulas
        self.num_root = mgr.apply("and", self.phi, self.gamma)
        self.num_universe = sorted(mgr.support(self.num_root) | bbir.branch_set)
        self.den_universe = sorted(mgr.support(self.gamma) | bbir.branch_set)
        self.num_weights = bbir.weights.restrict(
            set(self.num_universe) - bbir.branch_set
        )
        # One EV_BOUND walk bounds a quotient: its (prob, util) is the
        # expectation walk with joins at X and ``low`` the probability walk
        # with meets.  The probability walk with joins is the ``prob`` of
        # the same walk, so when the numerator and denominator share their
        # handle and universe a bound walks the diagram once.
        weights = WeightMap()
        for v in set(self.num_universe) | set(self.den_universe):
            pos, neg = bbir.weights.get(v)
            weights.set(v, EVBound.lift(pos), EVBound.lift(neg))
        self.num_bound = _bound_setup(bbir, self.num_universe, weights, EV_BOUND, True)
        # Equal universes share one weight map and one bound setup, so the
        # amc cache and the bound memo serve both parts of the quotient.
        self.den_weights, self.den_bound = self.num_weights, self.num_bound
        if self.den_universe != self.num_universe:
            self.den_weights = bbir.weights.restrict(
                set(self.den_universe) - bbir.branch_set
            )
            self.den_bound = _bound_setup(bbir, self.den_universe, weights, EV_BOUND, True)

    def initial_handles(self):
        return (self.num_root, self.gamma, self.bbir.validity)

    def evaluate_conditioned(self, handles, partial):
        num_h, den_h, _ = handles
        mgr = self.bbir.mgr
        num = mgr.amc(num_h, self.num_weights, EXPECTATION)
        den = mgr.amc(den_h, self.den_weights, EXPECTATION).prob
        return EXPECTATION.scalar_div(num, den)

    def bound_conditioned(self, handles, partial, memo: BoundMemo | None = None):
        """Bound over the completions of ``partial``; ``handles`` are conditioned on it.

        ``memo`` is the search's store, whose order ``partial`` must be a
        prefix of; without one the passes use a fresh memo.
        """
        num_h, den_h, valid_h = handles
        if memo is None:
            memo = BoundMemo(self.bbir.mgr, partial)
        depth = len(partial)
        num = memo.bound(self.num_bound, num_h, valid_h, depth)
        den = num
        if den_h != num_h or self.den_bound is not self.num_bound:
            den = memo.bound(self.den_bound, den_h, valid_h, depth)
        t = EXPECTATION.mul(_policy_weight(self.bbir, partial), EV(num.prob, num.util))
        return EXPECTATION.join(_div_bound(t, den.low), _div_bound(t, den.prob))

    def scalar(self, value):
        return value.util


def _div_bound(t, r):
    # Upper-bound division: a zero denominator bound gives no information,
    # so the quotient must not prune anything (contrast scalar_div's -inf,
    # which is the *objective's* value when the evidence is impossible).
    if r == 0.0:
        return EXPECTATION.top
    return EXPECTATION.scalar_div(t, r)


class MmapObjective:
    """Marginal MAP: maximize the conditioned model mass of phi ^ gamma.

    The reported value is the posterior probability of the maximizing
    assignment given gamma.
    """

    kind = "mmap"
    semiring = REAL

    def __init__(self, bbir: Bbir):
        if bbir.semiring is not REAL:
            raise BbirError("MMAP requires the real semiring")
        if len(bbir.formulas) != 2:
            raise BbirError("MMAP expects [model formula, evidence formula]")
        self.bbir = bbir
        mgr = bbir.mgr
        self.phi, self.gamma = bbir.formulas
        self.num_root = mgr.apply("and", self.phi, self.gamma)
        self.num_universe = sorted(mgr.support(self.num_root) | bbir.branch_set)
        self.num_weights = bbir.weights.restrict(
            set(self.num_universe) - bbir.branch_set
        )
        # the normalizer marginalizes the MAP variables, so it is constant
        # during the search and can be computed exactly once up front
        self.den_weights = bbir.weights.restrict(self.num_universe)
        self.evidence_mass = mgr.amc(self.num_root, self.den_weights, REAL)
        if self.evidence_mass == 0.0:
            raise BbirError("evidence has zero mass")
        self.num_bound = _bound_setup(bbir, self.num_universe, bbir.weights, REAL, True)

    def initial_handles(self):
        return (self.num_root, None, self.bbir.validity)

    def evaluate_conditioned(self, handles, partial):
        num_h, _, _ = handles
        num = self.bbir.mgr.amc(num_h, self.num_weights, REAL)
        pm = _policy_weight(self.bbir, partial)
        return pm * num / self.evidence_mass

    def bound_conditioned(self, handles, partial, memo: BoundMemo | None = None):
        """Bound over the completions of ``partial`` (see :class:`MeuObjective`)."""
        num_h, _, valid_h = handles
        if memo is None:
            memo = BoundMemo(self.bbir.mgr, partial)
        t = _policy_weight(self.bbir, partial) * memo.bound(
            self.num_bound, num_h, valid_h, len(partial)
        )
        return t / self.evidence_mass

    def scalar(self, value):
        return value


def evaluate_objective(objective, bbir: Bbir, total: dict):
    """Exact objective value at a total branch assignment."""
    _check_partial(bbir, total)
    missing = bbir.branch_set - set(total)
    if missing:
        raise BbirError("policy is not total over the branch variables")
    handles = _condition_handles(bbir.mgr, objective.initial_handles(), total)
    return objective.evaluate_conditioned(handles, total)


def ub_f(objective, bbir: Bbir, partial: dict):
    """Upper bound of the objective over every completion of ``partial``."""
    _check_partial(bbir, partial)
    handles = _condition_handles(bbir.mgr, objective.initial_handles(), partial)
    return objective.bound_conditioned(handles, partial)


def _condition_handles(mgr, handles, assignment):
    return tuple(
        None if h is None else mgr.condition_all(h, assignment) for h in handles
    )


# ---------------------------------------------------------------------------
# The branch-and-bound search
# ---------------------------------------------------------------------------

@dataclass
class SearchStats:
    nodes_created: int = 0
    bound_calls: int = 0
    prunes: int = 0
    invalid: int = 0  # branches skipped because no completion is a policy
    base_cases: int = 0
    interior: int = 0
    bound_memo_entries: int = 0  # size of the search's bound memos at its end
    elapsed_ms: float = 0.0

    def to_dict(self):
        return {
            "nodes_created": self.nodes_created,
            "bound_calls": self.bound_calls,
            "prunes": self.prunes,
            "invalid": self.invalid,
            "base_cases": self.base_cases,
            "interior": self.interior,
            "bound_memo_entries": self.bound_memo_entries,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


@dataclass
class SolveResult:
    value: object
    scalar: float
    witness: dict
    stats: SearchStats


def bb(
    objective,
    bbir: Bbir,
    *,
    prune: bool = True,
    literal_order=(True, False),
) -> SolveResult:
    """Maximize the objective over total branch assignments (Fig.-8 style).

    Branch variables are fixed in ``bbir.branch_vars`` order, so every
    bound of the search shares one :class:`BoundMemo`.  At each variable
    both literals are conditioned and invalid ones skipped.  A child that
    fixes the last variable is a total assignment: it is evaluated exactly
    and never bounded.  Every other child is bounded, and the search dives
    first into the child whose bound is larger under ``total_le`` (equal
    bounds keep ``literal_order``), so the first incumbent comes from a
    bound-guided dive.  Just before its turn a child is pruned when its
    bound is dominated by the incumbent in the lattice order; incomparable
    bounds always recurse.  The root is never bounded, and without pruning
    no bound is computed and children go in ``literal_order``.

    Among exact ties the witness is the assignment that comes first in
    ``literal_order`` along ``branch_vars``, whatever order the search
    visits them in: an equal value replaces the incumbent when its
    assignment comes first, and a child that comes before the incumbent's
    assignment is pruned only when its bound is strictly dominated.
    """
    sr = objective.semiring
    mgr = bbir.mgr
    t0 = time.perf_counter()
    nodes_before = mgr.num_nodes
    stats = SearchStats()
    order = list(bbir.branch_vars)
    last = len(order) - 1
    memo = BoundMemo(mgr, order)
    partial = {}  # the current path, in order
    state = {"best": None, "witness": None}

    def before_witness():
        # the first literal of ``partial`` that differs from the incumbent's
        # witness decides which comes first
        witness = state["witness"]
        for var, value in partial.items():
            if value != witness[var]:
                return value == literal_order[0]
        return False

    def consider(value):
        best = state["best"]
        if best is None or (
            sr.total_le(best, value) and (best != value or before_witness())
        ):
            state["best"] = value
            state["witness"] = dict(partial)

    def pruned(bound):
        best = state["best"]
        return (
            best is not None
            and sr.cmp_le(bound, best)
            and (bound != best or not before_witness())
        )

    def recurse(handles, depth):
        stats.interior += 1
        var = order[depth]
        children = []
        for value in literal_order:
            child = _condition_handles(mgr, handles, {var: value})
            if child[-1] == FALSE:
                stats.invalid += 1
                continue
            partial[var] = value
            if depth == last:
                stats.base_cases += 1
                consider(objective.evaluate_conditioned(child, partial))
            elif prune:
                stats.bound_calls += 1
                bound = objective.bound_conditioned(child, partial, memo)
                children.append((bound, value, child))
            else:
                children.append((None, value, child))
            del partial[var]
        if len(children) == 2 and prune:
            first, second = children[0][0], children[1][0]
            if sr.total_le(first, second) and first != second:
                children.reverse()
        for bound, value, child in children:
            partial[var] = value
            if prune and pruned(bound):
                stats.prunes += 1
            else:
                recurse(child, depth + 1)
            del partial[var]

    handles = objective.initial_handles()
    try:
        if order:
            recurse(handles, 0)
        else:
            stats.base_cases += 1
            consider(objective.evaluate_conditioned(handles, partial))
    finally:
        recurse = None  # it refers to itself; break the cycle
    stats.bound_memo_entries = memo.entries()
    if state["best"] is None:
        # every branch was invalid; report the bottom element
        state["best"] = sr.bottom
        state["witness"] = {}
    stats.nodes_created = mgr.num_nodes - nodes_before
    stats.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return SolveResult(
        value=state["best"],
        scalar=objective.scalar(state["best"]),
        witness=state["witness"],
        stats=stats,
    )
