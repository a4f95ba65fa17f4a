"""Branch-and-bound IR: weighted multi-rooted BDDs and the pruned search.

A :class:`Bbir` packages formulas (as BDD handles), an ordered set of branch
variables ``X``, and a literal weight map over a branch-and-bound semiring.
Every objective value is a count, :meth:`BddManager.count`, that replaces
the sum at each open branch variable by a join (resp. meet).  With every
branch variable fixed no join is left and the count is exact, so leaves,
bounds, :func:`ub`, :func:`lb`, :func:`ub_f` and :func:`evaluate_objective`
all run it.  The one-off values condition the diagrams on their partial
assignment and count over the universe without its variables.

:func:`bb` searches the space of total branch assignments, pruning a branch
whenever its bound is dominated by the incumbent under the lattice order.
It is depth-first branch and bound written as one loop over an explicit
stack of the children still to visit, so its Python depth does not grow
with the branch variables, and its tie test reads O(1) per call from
per-depth arrays.  It fixes the branch variables in variable order and
carries each diagram down as a :class:`~optppl.bdd.Frontier`, split once
per expanded node (:meth:`~optppl.bdd.BddManager.split`), so it conditions
no formula and builds no node; its frontier splits and counts are kept per
setup in a :class:`BoundMemo`, as context caching does in AND/OR branch and
bound (Marinescu & Dechter, AIJ 2009).  An MEU bound divides an
expectation bound by probability bounds; one walk over the product
semiring ``EV_BOUND`` computes the numerator and the denominator's lower
and upper bounds together.

An optional validity formula over the branch variables restricts which
branch assignments count as policies (the surface compiler uses it for its
one-hot choice encoding); bounds then range over valid completions only and
the search skips invalid branches outright.  The default validity is the
constant true formula, in which case everything reduces to the plain
algorithm.
"""

from __future__ import annotations

import time
from itertools import accumulate
from dataclasses import InitVar, dataclass

from .bdd import FALSE, TRUE, BddManager, CountSetup, Frontier
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
    # handle -> support already swept by the caller; the Bbir takes the dict
    # over.  Not a field, so ``dataclasses.replace`` sweeps afresh.
    swept: InitVar[dict | None] = None

    def __post_init__(self, swept):
        self._supports = {} if swept is None else swept  # handle -> support, each swept once
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
        # the search conditions the validity one literal at a time, in
        # variable order, which takes one step only on branch variables
        tested = self.validity != TRUE and self.support_of(self.validity) - self.branch_set
        if tested:
            names = ", ".join(self.mgr.var_label(v) for v in sorted(tested))
            raise BbirError(f"validity formula tests non-branch variable(s): {names}")

    def support_of(self, handle: int) -> set:
        """The support of ``handle``, swept only the first time it is asked for."""
        support = self._supports.get(handle)
        if support is None:
            support = self._supports[handle] = self.mgr.support(handle)
        return support


# ---------------------------------------------------------------------------
# The count walk (join or meet at open branch variables)
# ---------------------------------------------------------------------------

class _Tables:
    """One bound setup's count memo and frontier tables in a search."""

    __slots__ = ("memo", "counts", "splits", "stops")

    def __init__(self, setup: CountSetup, order):
        self.memo = {}  # the count memo, keyed on node and validity
        self.counts = {}  # (frontier id, validity) -> the frontier's count
        self.splits = {}  # frontier id -> [False side's id, True side's id], None if not taken
        self.stops = [setup.pos_of[v] for v in order]  # the branch positions


class BoundMemo:
    """The count memos and frontier tables shared by the walks of one search.

    ``setups`` holds one :class:`CountSetup` per objective part, and
    ``order`` the branch variables in variable order, the order in which
    ``bb`` fixes them.  Each setup gets one count memo, which serves every
    bound and leaf of the search: a count from a frontier's start on only
    visits positions below every fixed variable, where nothing is fixed.

    Many partial policies leave the same frontier, so frontiers are
    interned: the search holds the id of each part's frontier, and per
    setup the sides each frontier splits into and the counts are kept by
    id.  Only the roots and the sides the search takes are interned.
    """

    def __init__(self, mgr: BddManager, setups, order=()):
        self.mgr = mgr
        self.setups = tuple(setups)
        self._frontiers = []  # id -> Frontier
        self._ids = {}  # Frontier -> id
        tables = {}  # a setup shared by two parts shares its tables
        self._tables = [tables.setdefault(s, _Tables(s, order)) for s in self.setups]

    def intern(self, frontier: Frontier) -> int:
        """The id of ``frontier``, new if it is not known yet."""
        fid = self._ids.get(frontier)
        if fid is None:
            fid = self._ids[frontier] = len(self._frontiers)
            self._frontiers.append(frontier)
        return fid

    def start(self, roots):
        """The frontier ids of ``roots``, one per part, at position 0."""
        return tuple(
            self.intern(Frontier.of(root, setup.semiring.one))
            for root, setup in zip(roots, self.setups)
        )

    def split(self, fids, depth: int, lits):
        """Per literal of ``lits``, the parts' frontier ids past the
        ``depth``-th branch variable fixed to it.

        ``fids`` lie past the variable before it (or are the roots).  A
        frontier is split once (:meth:`BddManager.split`) and only the sides
        asked for are interned; one asked for later splits it again.
        """
        sides = []
        for fid, setup, tables in zip(fids, self.setups, self._tables):
            got = tables.splits.get(fid)
            if got is None:
                got = tables.splits[fid] = [None, None]
            halves = None
            for lit in lits:
                if got[lit] is None:
                    if halves is None:
                        halves = self.mgr.split(self._frontiers[fid], setup, tables.stops[depth])
                    got[lit] = self.intern(halves[lit])
            sides.append(got)
        return [tuple([got[lit] for got in sides]) for lit in lits]

    def count(self, part: int, fid: int, validity: int):
        """The count of frontier ``fid`` under ``validity`` in the part's setup.

        It joins (or meets) at the branch variables below the frontier's
        start, so below the last one it is exact.
        """
        tables = self._tables[part]
        key = (fid, validity)
        out = tables.counts.get(key)
        if out is None:
            frontier = self._frontiers[fid]
            out = self.mgr.count(frontier, validity, self.setups[part], tables.memo)
            tables.counts[key] = out
        return out

    def entries(self) -> int:
        """The count memos' entries."""
        return sum(len(tables.memo) for tables in set(self._tables))


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
    # the conditioned diagrams test no variable of ``partial``
    universe = sorted((bbir.support_of(formula) | bbir.branch_set) - partial.keys())
    setup = CountSetup(universe, bbir.weights, bbir.semiring, bbir.branch_set, combine)
    acc = mgr.count(
        Frontier.of(mgr.condition_all(formula, partial), bbir.semiring.one),
        mgr.condition_all(bbir.validity, partial),
        setup,
        {},
    )
    return bbir.semiring.mul(_policy_weight(bbir, partial), acc)


def _conditioned(objective, bbir: Bbir, partial: dict):
    """Frontier ids, validity and memo of the objective conditioned on ``partial``.

    The parts' universes leave out the variables of ``partial``, which the
    conditioned diagrams no longer test.
    """
    mgr = bbir.mgr
    memo = BoundMemo(mgr, objective.setups(partial.keys()))
    fids = memo.start([mgr.condition_all(root, partial) for root in objective.roots])
    return fids, mgr.condition_all(bbir.validity, partial), memo


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

class MeuObjective:
    """Maximum expected utility: maximize AMC(phi ^ gamma | pi)_EU / AMC(gamma | pi)_Pr.

    Both literals of every branch variable must carry the unit weight.  The
    universes come from the supports the :class:`Bbir` holds, so a formula
    its maker swept is not swept again.  Each distinct weight pair is lifted
    to ``EVBound`` once: every choice variable carries the same pair, as
    does every negative reward literal.
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
        # root and universe a bound walks the diagram once.
        lifted = {}  # weight pair -> its lift
        self._weights = {}
        for v in set(self.num_universe) | set(self.den_universe):
            pair = bbir.weights[v]
            got = lifted.get(pair)
            if got is None:
                got = lifted[pair] = (EVBound.lift(pair[0]), EVBound.lift(pair[1]))
            self._weights[v] = got
        self._shared = self.den_universe == self.num_universe
        if self._shared and self.num_root == self.gamma:
            self.roots = (self.num_root,)
        else:
            self.roots = (self.num_root, self.gamma)
        self.bound_setups = self.setups()

    def setups(self, fixed=()):
        """The bound setups of the parts, over their universes without ``fixed``.

        ``bound_setups`` holds those of the whole universes, which ``bb``
        walks.
        """

        def setup(universe):
            kept = [v for v in universe if v not in fixed] if fixed else universe
            return CountSetup(kept, self._weights, EV_BOUND, self.bbir.branch_set, EV_BOUND.join)

        num = setup(self.num_universe)
        if len(self.roots) == 1:
            return [num]
        # equal universes share one bound setup, so its memo serves both parts
        return [num, num if self._shared else setup(self.den_universe)]

    def _counts(self, fids, validity, memo: BoundMemo):
        """The numerator and denominator counts of the parts' frontiers."""
        num = memo.count(0, fids[0], validity)
        if len(fids) == 1:
            return num, num
        return num, memo.count(1, fids[1], validity)

    def evaluate_conditioned(self, fids, validity, partial, memo: BoundMemo):
        """Exact value at the total ``partial``; its frontiers ``fids`` are past all of it."""
        num, den = self._counts(fids, validity, memo)
        return EXPECTATION.scalar_div(EV(num.prob, num.util), den.prob)

    def bound_conditioned(self, fids, validity, partial, memo: BoundMemo):
        """Bound over the completions of ``partial``.

        ``fids`` name the parts' frontiers in ``memo``, past every variable
        of ``partial``, and ``validity`` is conditioned on it.
        """
        num, den = self._counts(fids, validity, memo)
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
        self.roots = (self.num_root,)
        self.bound_setups = self.setups()

    def setups(self, fixed=()):
        """The bound setup of the one part, over its universe without ``fixed``."""
        universe = self.num_universe
        kept = [v for v in universe if v not in fixed] if fixed else universe
        return [CountSetup(kept, self.bbir.weights, REAL, self.bbir.branch_set, REAL.join)]

    def bound_conditioned(self, fids, validity, partial, memo: BoundMemo):
        """Bound over the completions of ``partial`` (see :class:`MeuObjective`)."""
        t = _policy_weight(self.bbir, partial) * memo.count(0, fids[0], validity)
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
    fids, validity, memo = _conditioned(objective, bbir, total)
    if validity == FALSE:
        raise BbirError("the validity formula rules out this assignment")
    return objective.evaluate_conditioned(fids, validity, total, memo)


def ub_f(objective, bbir: Bbir, partial: dict):
    """Upper bound of the objective over every completion of ``partial``."""
    _check_partial(bbir, partial)
    fids, validity, memo = _conditioned(objective, bbir, partial)
    return objective.bound_conditioned(fids, validity, partial, memo)


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

    Branch variables are fixed in variable order, so every open position
    above the next branch variable is a chance variable.  The search
    carries one :class:`Frontier` per objective part down that order, the
    fixed prefix summed out, and every bound and leaf is a count from a
    frontier with one :class:`BoundMemo`.  Only the validity handle is
    conditioned, one step per literal, since it tests branch variables
    only; an invalid literal is skipped before anything else is done.
    Expanding a node then splits its frontiers once at the next branch
    variable, keeping the sides of its valid literals.

    It is one loop over a stack of the children still to visit, each with
    its depth, so it takes no Python frame per branch variable.  Expanding
    a node pushes its valid children, the one to visit first on top.  A
    child that fixes the last variable is a total assignment: it is
    evaluated exactly and never bounded, and since the two leaves go on top
    they are evaluated at once, in ``literal_order``.  Only a child whose
    sibling literal is valid is bounded, when its parent is expanded.  A
    forced child (its sibling is invalid) has the valid completions of its
    parent, whose bound was checked against the same incumbent just before,
    so it is expanded at once.  Of two bounded children the one whose bound
    is larger under ``total_le`` goes first (equal bounds keep
    ``literal_order``), so the first incumbent comes from a bound-guided
    dive.  When it is popped a bounded child is pruned if its bound is
    dominated by the incumbent in the lattice order; incomparable bounds
    are always expanded.  The root is never bounded, and without pruning no
    bound is computed and children go in ``literal_order``.

    Among exact ties the witness is the assignment that comes first in
    ``literal_order`` along ``bbir.branch_vars``, whatever order the search
    visits them in: an equal value replaces the incumbent when its
    assignment comes first, and an equal bound prunes only when the first
    variable along ``branch_vars`` that is open or differs from the
    incumbent's is fixed to the later literal.  That test reads O(1) per
    call: per depth the search keeps the first position along
    ``branch_vars`` where the path leaves the witness, and the first open
    position is a suffix minimum over the variable order.
    """
    if literal_order not in ((True, False), (False, True)):
        raise BbirError("literal_order must be (True, False) or (False, True)")
    sr = objective.semiring
    mgr = bbir.mgr
    t0 = time.perf_counter()
    nodes_before = mgr.num_nodes
    stats = SearchStats()
    order = sorted(bbir.branch_vars)
    last = len(order) - 1
    memo = BoundMemo(mgr, objective.bound_setups, order)
    rank = sorted(range(len(order)), key=bbir.branch_vars.__getitem__)  # depth -> position
    # with k variables fixed, open_from[k] is the first open position
    open_from = list(accumulate(reversed(rank), min))[::-1] + [len(order)]
    # with k variables fixed, leave[k] is the first (position, literal)
    # along branch_vars where the path leaves the witness, or (n, None)
    leave = [(len(order), None)] * (len(order) + 1)
    partial = {}  # the current path, in variable order
    best = witness = None
    # (depth, bound or None, literal, frontier ids, validity) per child; the
    # root fixes nothing and its frontiers are the roots at position 0
    stack = [(-1, None, None, memo.start(objective.roots), bbir.validity)]

    def precedes(depth):
        # whether a completion of the path can come before the witness: the
        # first position along branch_vars that is open or leaves it decides
        # (at a leaf none is open, and the path is not the witness)
        at, took = leave[depth + 1]
        return at >= open_from[depth + 1] or took == literal_order[0]

    while stack:
        depth, bound, lit, fids, valid_h = stack.pop()
        if depth >= 0:
            var = order[depth]
            while len(partial) > depth:
                partial.popitem()
            partial[var] = lit
            left = leave[depth]
            if witness is not None and lit != witness[var] and rank[depth] < left[0]:
                left = (rank[depth], lit)
            leave[depth + 1] = left
        if depth == last:
            stats.base_cases += 1
            value = objective.evaluate_conditioned(fids, valid_h, partial, memo)
            if best is None or (sr.total_le(best, value) and (best != value or precedes(depth))):
                best, witness = value, {var: partial[var] for var in bbir.branch_vars}
                leave = [leave[0]] * len(leave)  # the path is the witness
            continue
        if bound is not None and best is not None and sr.cmp_le(bound, best) and (
            bound != best or not precedes(depth)
        ):
            stats.prunes += 1
            continue
        stats.interior += 1
        depth += 1
        var = order[depth]
        # the validity tests branch variables only, and those above var are
        # fixed, so conditioning it on var takes one step
        lits, valids = [], []
        for lit in literal_order:
            child_valid = mgr.condition(valid_h, var, lit)
            if child_valid == FALSE:
                stats.invalid += 1
            else:
                lits.append(lit)
                valids.append(child_valid)
        # a forced literal keeps every valid completion of this node, whose
        # bound was just checked against the same incumbent
        bounded = prune and len(lits) == 2 and depth < last
        children = []
        for lit, child_valid, fixed in zip(lits, valids, memo.split(fids, depth, lits)):
            bound = None
            if bounded:
                stats.bound_calls += 1
                partial[var] = lit
                bound = objective.bound_conditioned(fixed, child_valid, partial, memo)
                del partial[var]
            children.append((depth, bound, lit, fixed, child_valid))
        if bounded:
            first, second = children[0][1], children[1][1]
            if sr.total_le(first, second) and first != second:
                children.reverse()
        stack.extend(reversed(children))
    stats.bound_memo_entries = memo.entries()
    if best is None:
        # every branch was invalid; report the bottom element
        best, witness = sr.bottom, {}
    stats.nodes_created = mgr.num_nodes - nodes_before
    stats.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return SolveResult(value=best, scalar=objective.scalar(best), witness=witness, stats=stats)
