"""Branch-and-bound IR: weighted multi-rooted BDDs and the pruned search.

A :class:`Bbir` packages formulas (as BDD handles), an ordered set of branch
variables ``X``, and a literal weight map over a branch-and-bound semiring.
Every objective value is one count walk, :meth:`BoundMemo.bound` over
:meth:`BddManager.count`, that replaces the sum at each open branch
variable by a join (resp. meet).  With every branch variable fixed no join
is left and the walk is the exact count, so leaves, bounds, :func:`ub`,
:func:`lb`, :func:`ub_f` and :func:`evaluate_objective` all run it.
:func:`bb` searches the space of total branch assignments, pruning a branch
whenever its bound is dominated by the incumbent under the lattice order.
All bound and leaf walks of one search share a :class:`BoundMemo`, since
the search fixes branch variables in one order.  An MEU bound divides an
expectation bound by probability bounds; one walk over the product
semiring ``EV_BOUND`` computes the numerator and the denominator's lower
and upper bounds together.

An optional validity formula restricts which branch assignments count as
policies (the surface compiler uses it for its one-hot choice encoding);
bounds then range over valid completions only and the search skips invalid
branches outright.  The default validity is the constant true formula, in
which case everything reduces to the plain algorithm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bdd import FALSE, TRUE, BddManager, CountSetup
from .semiring import EV, EV_BOUND, EXPECTATION, REAL, EVBound


class BbirError(Exception):
    pass


@dataclass
class Bbir:
    mgr: BddManager
    formulas: list
    branch_vars: list
    weights: dict  # var -> (positive literal weight, negative literal weight)
    semiring: object = EXPECTATION
    validity: int = TRUE

    def __post_init__(self):
        self._supports = {}  # handle -> support, each swept once
        support = set()
        for f in self.formulas:
            support |= self.support_of(f)
        extra = set(self.branch_vars) - support
        # branch variables must come from the formulas (validity aside)
        if extra and self.validity == TRUE:
            names = ", ".join(self.mgr.var_label(v) for v in sorted(extra))
            raise BbirError(f"branch variables not in any formula: {names}")
        # membership per needed variable: ``weights`` may cover a whole program
        unweighted = [v for v in support | set(self.branch_vars) if v not in self.weights]
        if unweighted:
            names = ", ".join(self.mgr.var_label(v) for v in sorted(unweighted))
            raise BbirError(f"unweighted variable(s): {names}")
        self.branch_set = frozenset(self.branch_vars)
        if len(self.branch_set) != len(self.branch_vars):
            repeated = sorted(v for v in self.branch_set if self.branch_vars.count(v) > 1)
            names = ", ".join(self.mgr.var_label(v) for v in repeated)
            raise BbirError(f"duplicate branch variable(s): {names}")

    def support_of(self, handle: int) -> set:
        """The support of ``handle``, swept only the first time it is asked for."""
        support = self._supports.get(handle)
        if support is None:
            support = self._supports[handle] = self.mgr.support(handle)
        return support


# ---------------------------------------------------------------------------
# The count walk (join or meet at open branch variables)
# ---------------------------------------------------------------------------

class BoundMemo:
    """The memos and fixed-prefix setups shared by the count walks of one search.

    Each objective part's bound setup (a :class:`CountSetup` with joins or
    meets at X) gets one memo, which serves the search's bounds and its
    leaves: a leaf is the walk with every branch variable fixed.  ``bb``
    fixes the branch variables along one ``order``, so every partial policy
    it walks holds a prefix of that order, and the conditioned sets of its
    walks form a chain.  A diagram
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
        """Walk ``root`` with the first ``depth`` variables of the order fixed.

        It joins (or meets) at the branch variables left open, so with all
        of them fixed it is the exact count.
        """
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
            pos, neg = bbir.weights[var]
            acc = bbir.semiring.mul(acc, pos if partial[var] else neg)
    return acc


def ub(bbir: Bbir, formula: int, partial: dict):
    """Upper bound on AMC(formula|T) (x) prod w(T) over all completions T."""
    return _bound(bbir, formula, partial, bbir.semiring.join)


def lb(bbir: Bbir, formula: int, partial: dict):
    """Dual lower bound: meet instead of join at branch variables."""
    return _bound(bbir, formula, partial, bbir.semiring.meet)


def _bound(bbir: Bbir, formula: int, partial: dict, combine):
    _check_partial(bbir, partial)
    mgr = bbir.mgr
    universe = sorted(bbir.support_of(formula) | bbir.branch_set)
    setup = CountSetup(universe, bbir.weights, bbir.semiring, bbir.branch_set, combine)
    acc = BoundMemo(mgr, partial).bound(
        setup,
        mgr.condition_all(formula, partial),
        mgr.condition_all(bbir.validity, partial),
        len(partial),
    )
    return bbir.semiring.mul(_policy_weight(bbir, partial), acc)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

class MeuObjective:
    """Maximum expected utility: maximize AMC(phi ^ gamma | pi)_EU / AMC(gamma | pi)_Pr.

    Both literals of every branch variable must carry the unit weight.
    """

    kind = "meu"
    semiring = EXPECTATION

    def __init__(self, bbir: Bbir):
        if bbir.semiring is not EXPECTATION:
            raise BbirError("MEU requires the expectation semiring")
        if len(bbir.formulas) != 2:
            raise BbirError("MEU expects [unnormalized formula, accepting formula]")
        unit = (EXPECTATION.one, EXPECTATION.one)
        weighted = [v for v in bbir.branch_vars if bbir.weights[v] != unit]
        if weighted:
            names = ", ".join(bbir.mgr.var_label(v) for v in weighted)
            raise BbirError(f"MEU requires unit weights on branch variables: {names}")
        self.bbir = bbir
        mgr = bbir.mgr
        self.phi, self.gamma = bbir.formulas
        self.num_root = mgr.apply("and", self.phi, self.gamma)
        self.num_universe = sorted(bbir.support_of(self.num_root) | bbir.branch_set)
        self.den_universe = sorted(bbir.support_of(self.gamma) | bbir.branch_set)
        # One EV_BOUND walk bounds a quotient: its (prob, util) is the
        # expectation walk with joins at X and ``low`` the probability walk
        # with meets.  The probability walk with joins is the ``prob`` of
        # the same walk, so when the numerator and denominator share their
        # handle and universe a bound walks the diagram once.
        weights = {
            v: tuple(EVBound.lift(w) for w in bbir.weights[v])
            for v in set(self.num_universe) | set(self.den_universe)
        }
        branch = bbir.branch_set
        self.num_bound = CountSetup(self.num_universe, weights, EV_BOUND, branch, EV_BOUND.join)
        # equal universes share one bound setup, so its memo serves both parts
        self.den_bound = self.num_bound
        if self.den_universe != self.num_universe:
            self.den_bound = CountSetup(self.den_universe, weights, EV_BOUND, branch, EV_BOUND.join)

    def initial_handles(self):
        return (self.num_root, self.gamma, self.bbir.validity)

    def _counts(self, handles, partial, memo: BoundMemo):
        """The numerator and denominator walks over the completions of ``partial``."""
        num_h, den_h, valid_h = handles
        depth = len(partial)
        num = memo.bound(self.num_bound, num_h, valid_h, depth)
        if den_h == num_h and self.den_bound is self.num_bound:
            return num, num
        return num, memo.bound(self.den_bound, den_h, valid_h, depth)

    def evaluate_conditioned(self, handles, partial, memo: BoundMemo):
        """Exact value at the total ``partial``; ``handles`` are conditioned on it."""
        num, den = self._counts(handles, partial, memo)
        return EXPECTATION.scalar_div(EV(num.prob, num.util), den.prob)

    def bound_conditioned(self, handles, partial, memo: BoundMemo):
        """Bound over the completions of ``partial``; ``handles`` are conditioned on it.

        ``memo`` is the search's store, whose order ``partial`` must be a
        prefix of.
        """
        num, den = self._counts(handles, partial, memo)
        t = EV(num.prob, num.util)
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
        self.num_universe = sorted(bbir.support_of(self.num_root) | bbir.branch_set)
        # the normalizer marginalizes the MAP variables, so it is constant
        # during the search and can be computed exactly once up front
        marginal = {v: bbir.weights[v] for v in self.num_universe}
        self.evidence_mass = mgr.amc(self.num_root, marginal, REAL)
        if self.evidence_mass == 0.0:
            raise BbirError("evidence has zero mass")
        self.num_bound = CountSetup(self.num_universe, bbir.weights, REAL, bbir.branch_set, REAL.join)

    def initial_handles(self):
        return (self.num_root, None, self.bbir.validity)

    def bound_conditioned(self, handles, partial, memo: BoundMemo):
        """Bound over the completions of ``partial`` (see :class:`MeuObjective`)."""
        num_h, _, valid_h = handles
        t = _policy_weight(self.bbir, partial) * memo.bound(
            self.num_bound, num_h, valid_h, len(partial)
        )
        return t / self.evidence_mass

    # at a total assignment the bound walk is exact
    evaluate_conditioned = bound_conditioned

    def scalar(self, value):
        return value


def evaluate_objective(objective, bbir: Bbir, total: dict):
    """Exact objective value at a total branch assignment."""
    _check_partial(bbir, total)
    missing = bbir.branch_set - set(total)
    if missing:
        raise BbirError("policy is not total over the branch variables")
    handles = _condition_handles(bbir.mgr, objective.initial_handles(), total)
    if handles[-1] == FALSE:
        raise BbirError("the validity formula rules out this assignment")
    return objective.evaluate_conditioned(handles, total, BoundMemo(bbir.mgr, total))


def ub_f(objective, bbir: Bbir, partial: dict):
    """Upper bound of the objective over every completion of ``partial``."""
    _check_partial(bbir, partial)
    handles = _condition_handles(bbir.mgr, objective.initial_handles(), partial)
    return objective.bound_conditioned(handles, partial, BoundMemo(bbir.mgr, partial))


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
    bound_memo_entries: int = 0  # size of the search's memos (bounds and leaves) at its end
    elapsed_ms: float = 0.0

    def to_dict(self):
        # the fields in order, as asdict gives them, without its deep copy
        out = dict(vars(self))
        out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


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
    bound and leaf of the search shares one :class:`BoundMemo`.  At each
    variable the validity handle is conditioned on both literals first, and
    an invalid literal is skipped before anything else is conditioned.  A
    child that fixes the last variable is a total assignment: it is
    evaluated exactly and never bounded.  Only a child whose sibling literal
    is valid is bounded.  A forced child (its sibling is invalid) has the
    valid completions of its parent, whose bound was checked against the
    same incumbent just before, so it recurses at once.  Of two bounded
    children the search dives first into the one whose bound is larger
    under ``total_le`` (equal bounds keep ``literal_order``), so the first
    incumbent comes from a bound-guided dive.  Just before its turn a
    bounded child is pruned when its bound is dominated by the incumbent in
    the lattice order; incomparable bounds always recurse.  The root is
    never bounded, and without pruning no bound is computed and children go
    in ``literal_order``.

    Among exact ties the witness is the assignment that comes first in
    ``literal_order`` along ``branch_vars``, whatever order the search
    visits them in: an equal value replaces the incumbent when its
    assignment comes first, and a child that comes before the incumbent's
    assignment is pruned only when its bound is strictly dominated.
    """
    if literal_order not in ((True, False), (False, True)):
        raise BbirError("literal_order must be (True, False) or (False, True)")
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
        # the validity handle first: an invalid literal conditions nothing else
        valid = []
        for value in literal_order:
            literal = {var: value}
            child_valid = mgr.condition_all(handles[-1], literal)
            if child_valid == FALSE:
                stats.invalid += 1
            else:
                valid.append((value, literal, child_valid))
        # a forced literal keeps every valid completion of this node, whose
        # bound was just checked against the same incumbent
        choice = prune and len(valid) == 2
        children = []
        for value, literal, child_valid in valid:
            child = _condition_handles(mgr, handles[:-1], literal) + (child_valid,)
            partial[var] = value
            if depth == last:
                stats.base_cases += 1
                consider(objective.evaluate_conditioned(child, partial, memo))
            elif choice:
                stats.bound_calls += 1
                bound = objective.bound_conditioned(child, partial, memo)
                children.append((bound, value, child))
            else:
                children.append((None, value, child))
            del partial[var]
        if choice and len(children) == 2:
            first, second = children[0][0], children[1][0]
            if sr.total_le(first, second) and first != second:
                children.reverse()
        for bound, value, child in children:
            partial[var] = value
            if choice and pruned(bound):
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
            consider(objective.evaluate_conditioned(handles, partial, memo))
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
