"""Bound passes and the pruned search over random weighted problems."""

import dataclasses
import gc
import itertools
import random
import sys

import pytest

from optppl import (
    EV,
    EXPECTATION,
    FALSE,
    REAL,
    TRUE,
    Bbir,
    BbirError,
    BddManager,
    MeuObjective,
    MmapObjective,
    bb,
    evaluate_objective,
    lb,
    ub,
    ub_f,
)
from optppl.bbir import BoundMemo, _div_bound, _policy_weight
from optppl.bdd import CountSetup, Frontier
from optppl.dappl import prepare, solve_compiled, solve_meu
from optppl.gen import gen_dr, gen_ladder, gen_nested_mmap
from optppl.oracle import brute_amc, mmap_enum
from optppl.pineappl import run_program

from helpers import (
    all_assignments,
    build_bdd,
    fresh_vars,
    mk_lit,
    random_bbir,
    random_meu_instance,
    random_formula,
    random_mmap_instance,
    rename_formula,
    substitute,
)

TOL = 1e-9


def _bound_pass(bbir, root, validity, universe, conditioned, use_join):
    """A one-off walk of ``root`` over ``universe`` without the ``conditioned``
    variables, in the problem's own semiring, with joins (or meets) at the
    open branch variables."""
    combine = bbir.semiring.join if use_join else bbir.semiring.meet
    kept = [v for v in universe if v not in conditioned]
    setup = CountSetup(kept, bbir.weights, bbir.semiring, bbir.branch_set, combine)
    return bbir.mgr.count(Frontier.of(root, bbir.semiring.one), validity, setup, {})


def le_tol(a, b, tol=TOL):
    return a.prob <= b.prob + tol and a.util <= b.util + tol


def exact_completion_value(bbir, base_formula, universe, T):
    """Independent oracle: AMC(formula|T) (x) weight of the assignment."""
    masked = substitute(base_formula, T)
    value = brute_amc(
        masked, bbir.weights, [v for v in universe if v not in T], bbir.semiring
    )
    pm = bbir.semiring.one
    for v in sorted(T):
        pos, neg = bbir.weights[v]
        pm = bbir.semiring.mul(pm, pos if T[v] else neg)
    return bbir.semiring.mul(value, pm)


def pinned_formula(bbir, formula, var_of):
    """Tuple formula over variable ids, irrelevant variables pinned false."""
    fids = rename_formula(formula, var_of)
    universe = sorted(bbir.mgr.support(bbir.formulas[0]) | bbir.branch_set)
    irrelevant = set(var_of.values()) - set(universe)
    return substitute(fids, {v: False for v in irrelevant}), universe


class TestBoundDominance:
    @pytest.mark.parametrize("seed", range(25))
    def test_ub_dominates_and_lb_is_dominated(self, seed):
        rng = random.Random(seed)
        bbir, formula, var_of = random_bbir(
            rng, n_vars=rng.randint(4, 8), n_branch=rng.randint(1, 6)
        )
        base, universe = pinned_formula(bbir, formula, var_of)
        root = bbir.formulas[0]
        X = list(bbir.branch_vars)
        partials = [{}]
        for _ in range(3):
            if X:
                sub = rng.sample(X, k=rng.randint(1, len(X)))
                partials.append({v: rng.random() < 0.5 for v in sub})
        for P in partials:
            upper = ub(bbir, root, P)
            lower = lb(bbir, root, P)
            for bits in all_assignments([v for v in X if v not in P]):
                T = dict(P)
                T.update(bits)
                exact = exact_completion_value(bbir, base, universe, T)
                assert le_tol(exact, upper)
                assert le_tol(lower, exact)

    @pytest.mark.parametrize("seed", range(15))
    def test_exactness_at_total_policies(self, seed):
        rng = random.Random(400 + seed)
        bbir, formula, var_of = random_bbir(rng)
        base, universe = pinned_formula(bbir, formula, var_of)
        root = bbir.formulas[0]
        for _ in range(4):
            T = {v: rng.random() < 0.5 for v in bbir.branch_vars}
            upper = ub(bbir, root, T)
            lower = lb(bbir, root, T)
            exact = exact_completion_value(bbir, base, universe, T)
            assert EXPECTATION.isclose(upper, exact, TOL)
            assert EXPECTATION.isclose(lower, exact, TOL)

    def test_lb_below_ub_randomized(self):
        rng = random.Random(77)
        for _ in range(100):
            bbir, _, _ = random_bbir(rng)
            X = list(bbir.branch_vars)
            P = (
                {v: rng.random() < 0.5 for v in rng.sample(X, k=rng.randint(0, len(X)))}
                if X
                else {}
            )
            assert le_tol(lb(bbir, bbir.formulas[0], P), ub(bbir, bbir.formulas[0], P))

    @pytest.mark.parametrize("seed", range(10))
    def test_bounds_do_not_depend_on_the_partial_key_order(self, seed):
        rng = random.Random(900 + seed)
        bbir, _, _ = random_bbir(rng, n_vars=rng.randint(5, 8), n_branch=rng.randint(3, 5))
        root = bbir.formulas[0]
        P = {v: rng.random() < 0.5 for v in bbir.branch_vars}
        for _ in range(3):
            items = list(P.items())
            rng.shuffle(items)
            for bound in (ub, lb):
                assert bound(bbir, root, P) == bound(bbir, root, dict(items))

    def test_assignment_outside_branch_set_rejected(self):
        rng = random.Random(5)
        bbir, _, _ = random_bbir(rng, n_vars=5, n_branch=2)
        outside = next(
            v for v in bbir.weights if v not in bbir.branch_set
        )
        with pytest.raises(BbirError):
            ub(bbir, bbir.formulas[0], {outside: True})

    def test_duplicate_branch_variable_rejected(self):
        mgr = BddManager()
        x = mgr.new_var("x")
        wm = {x: (0.5, 0.5)}
        with pytest.raises(BbirError, match="duplicate branch variable"):
            Bbir(mgr=mgr, formulas=[mgr.mk_var(x), mgr.mk_true()],
                 branch_vars=[x, x], weights=wm, semiring=REAL)

    def test_validity_over_a_non_branch_variable_rejected(self):
        # the search conditions the validity one branch literal at a time
        mgr = BddManager()
        x, c, y = mgr.new_var("x"), mgr.new_var("c"), mgr.new_var("y")
        wm = {x: (1.0, 1.0), c: (0.5, 0.5), y: (1.0, 1.0)}
        phi = mgr.apply("and", mgr.mk_var(x), mgr.mk_var(c))
        with pytest.raises(BbirError, match="validity formula tests non-branch variable.*: c"):
            Bbir(mgr=mgr, formulas=[phi, mgr.mk_true()], branch_vars=[x, y], weights=wm,
                 semiring=REAL, validity=mgr.apply("or", mgr.mk_var(c), mgr.mk_var(y)))
        Bbir(mgr=mgr, formulas=[phi, mgr.mk_true()], branch_vars=[x, y], weights=wm,
             semiring=REAL, validity=mgr.exactly_one([x, y]))


def one_hot_bbir(rng):
    """Random problem whose validity is exactly_one over >= 2 branch variables."""
    while True:
        bbir, formula, var_of = random_bbir(
            rng, n_vars=rng.randint(4, 8), n_branch=rng.randint(2, 5)
        )
        if len(bbir.branch_vars) >= 2:
            validity = bbir.mgr.exactly_one(bbir.branch_vars)
            return dataclasses.replace(bbir, validity=validity), formula, var_of


class TestValidityLockstep:
    """Bounds under a validity other than TRUE range over valid policies only."""

    @pytest.mark.parametrize("seed", range(25))
    def test_valid_completions_lie_between_the_bounds(self, seed):
        rng = random.Random(1300 + seed)
        bbir, formula, var_of = one_hot_bbir(rng)
        base, universe = pinned_formula(bbir, formula, var_of)
        root = bbir.formulas[0]
        X = list(bbir.branch_vars)
        partials = [{}] + [
            {v: rng.random() < 0.5 for v in rng.sample(X, k=rng.randint(1, len(X) - 1))}
            for _ in range(3)
        ]
        checked = 0
        for P in partials:
            upper = ub(bbir, root, P)
            lower = lb(bbir, root, P)
            for bits in all_assignments([v for v in X if v not in P]):
                T = dict(P)
                T.update(bits)
                if sum(T.values()) != 1:
                    continue  # not a policy under the one-hot validity
                exact = exact_completion_value(bbir, base, universe, T)
                assert le_tol(exact, upper)
                assert le_tol(lower, exact)
                checked += 1
        assert checked >= len(X)  # every one-hot policy completes {}

    @pytest.mark.parametrize("seed", range(25))
    def test_bounds_are_exact_at_valid_and_zero_at_invalid_policies(self, seed):
        rng = random.Random(1400 + seed)
        bbir, formula, var_of = one_hot_bbir(rng)
        base, universe = pinned_formula(bbir, formula, var_of)
        root = bbir.formulas[0]
        for T in all_assignments(list(bbir.branch_vars)):
            upper = ub(bbir, root, T)
            if sum(T.values()) == 1:
                exact = exact_completion_value(bbir, base, universe, T)
                assert EXPECTATION.isclose(upper, exact, TOL)
                assert EXPECTATION.isclose(lb(bbir, root, T), exact, TOL)
            else:
                assert upper == EXPECTATION.zero


class TestUbF:
    @pytest.mark.parametrize("seed", range(25))
    def test_dominates_completion_objective_values(self, seed):
        rng = random.Random(900 + seed)
        inst = random_meu_instance(rng)
        if inst is None:
            return
        objective = MeuObjective(inst)
        X = list(inst.branch_vars)
        for _ in range(3):
            P = {v: rng.random() < 0.5 for v in rng.sample(X, k=rng.randint(1, len(X)))}
            m = ub_f(objective, inst, P)
            for bits in all_assignments([v for v in X if v not in P]):
                T = dict(P)
                T.update(bits)
                value = evaluate_objective(objective, inst, T)
                if value.util == float("-inf"):
                    continue  # impossible evidence loses against anything
                assert le_tol(value, m)

    def test_nonnegative_utilities_reduce_to_low_division(self):
        rng = random.Random(321)
        hits = 0
        for _ in range(50):
            inst = random_meu_instance(rng)
            if inst is None:
                continue
            objective = MeuObjective(inst)
            X = list(inst.branch_vars)
            P = {v: rng.random() < 0.5 for v in rng.sample(X, k=rng.randint(1, len(X)))}
            handles = (
                inst.mgr.condition_all(objective.num_root, P),
                inst.mgr.condition_all(objective.gamma, P),
                inst.mgr.condition_all(inst.validity, P),
            )
            t = EXPECTATION.mul(
                _policy_weight(inst, P),
                _bound_pass(inst, handles[0], handles[2], objective.num_universe,
                            set(P), True),
            )
            low = _bound_pass(inst, handles[1], handles[2], objective.den_universe,
                              set(P), False).prob
            if low <= 0.0:
                continue
            hits += 1
            m = ub_f(objective, inst, P)
            assert EXPECTATION.isclose(m, EXPECTATION.scalar_div(t, low), 1e-9)
        assert hits > 10


class TestSearch:
    @pytest.mark.parametrize("seed", range(30))
    def test_meu_prune_equals_no_prune(self, seed):
        rng = random.Random(50 + seed)
        inst = random_meu_instance(rng)
        if inst is None:
            return
        objective = MeuObjective(inst)
        fast = bb(objective, inst, prune=True)
        slow = bb(objective, inst, prune=False)
        assert EXPECTATION.isclose(fast.value, slow.value, TOL)
        assert fast.witness == slow.witness

    @pytest.mark.parametrize("seed", range(30))
    def test_meu_matches_exhaustive_evaluation(self, seed):
        rng = random.Random(150 + seed)
        inst = random_meu_instance(rng)
        if inst is None:
            return
        objective = MeuObjective(inst)
        result = bb(objective, inst)
        best = None
        for bits in all_assignments(inst.branch_vars):
            value = evaluate_objective(objective, inst, dict(bits))
            if best is None or (EXPECTATION.total_le(best, value) and best != value):
                best = value
        assert EXPECTATION.isclose(result.value, best, TOL)
        check = evaluate_objective(objective, inst, result.witness)
        assert EXPECTATION.isclose(check, result.value, TOL)

    @pytest.mark.parametrize("seed", range(30))
    def test_mmap_matches_enumeration_oracle(self, seed):
        rng = random.Random(250 + seed)
        out = random_mmap_instance(rng)
        if out is None:
            return
        inst, joint, var_of = out
        try:
            objective = MmapObjective(inst)
        except BbirError:
            return  # evidence unsatisfiable
        result = bb(objective, inst, literal_order=(False, True))
        universe = sorted(
            inst.mgr.support(inst.mgr.apply("and", *inst.formulas)) | inst.branch_set
        )
        base = substitute(
            rename_formula(joint, var_of),
            {v: False for v in set(var_of.values()) - set(universe)},
        )
        assignment, posterior = mmap_enum(base, list(inst.branch_set), inst.weights, universe)
        assert result.witness == assignment
        assert abs(result.value - posterior) < 1e-6
        no_prune = bb(objective, inst, prune=False, literal_order=(False, True))
        assert abs(result.value - no_prune.value) < TOL
        assert result.witness == no_prune.witness

    @pytest.mark.parametrize("seed", range(20))
    def test_mmap_with_prior_assignment(self, seed):
        rng = random.Random(3000 + seed)
        out = random_mmap_instance(rng)
        if out is None:
            return
        inst, joint, var_of = out
        free = sorted(set(inst.weights) - inst.branch_set)
        prior_vars = rng.sample(free, k=min(2, len(free)))
        prior = {v: rng.random() < 0.5 for v in prior_vars}
        # the prior literals are conjoined into the evidence formula
        mgr = inst.mgr
        phi, gamma = inst.formulas
        observed = mgr.conjoin([gamma] + [mk_lit(mgr, v, val) for v, val in prior.items()])
        conditioned = Bbir(mgr=mgr, formulas=[phi, observed], branch_vars=inst.branch_vars,
                           weights=inst.weights, semiring=REAL)
        try:
            objective = MmapObjective(conditioned)
        except BbirError:
            return  # prior contradicts the evidence
        result = bb(objective, conditioned, literal_order=(False, True))
        universe = sorted(
            inst.mgr.support(inst.mgr.apply("and", *inst.formulas)) | inst.branch_set
        )
        base = substitute(
            rename_formula(joint, var_of),
            {v: False for v in set(var_of.values()) - set(universe)},
        )
        assignment, posterior = mmap_enum(
            base, list(inst.branch_set), inst.weights,
            [v for v in universe if v not in prior], evidence=prior,
        )
        assert result.witness == assignment
        assert abs(result.value - posterior) < 1e-6

    def test_empty_branch_set_evaluates_once(self):
        mgr = BddManager()
        x = mgr.new_var("x")
        wm = {x: (EV(0.25, 2.0), EV(0.75, 0.0))}
        inst = Bbir(mgr=mgr, formulas=[mgr.mk_var(x), mgr.mk_true()],
                    branch_vars=[], weights=wm, semiring=EXPECTATION)
        result = bb(MeuObjective(inst), inst)
        assert result.stats.base_cases == 1
        # single model {x} of weight (0.25, 2.0); evidence mass is 1
        assert abs(result.scalar - 2.0) < TOL

    def test_stats_conservation(self):
        rng = random.Random(9)
        for _ in range(20):
            inst = random_meu_instance(rng)
            if inst is None:
                continue
            result = bb(MeuObjective(inst), inst)
            stats = result.stats
            if inst.branch_vars:
                # every literal visit prunes, is invalid, or opens a child
                children = stats.interior - 1 + stats.base_cases
                assert stats.prunes + stats.invalid + children == 2 * stats.interior
            assert stats.elapsed_ms >= 0.0

    def test_root_and_leaf_children_are_never_bounded(self):
        # a one-variable search has only leaf children: both are evaluated
        # exactly and nothing is bounded
        mgr = BddManager()
        x, y = mgr.new_var("x"), mgr.new_var("y")
        phi = mgr.apply("iff", mgr.mk_var(x), mgr.mk_var(y))
        inst = Bbir(mgr=mgr, formulas=[phi, mgr.mk_true()], branch_vars=[x],
                    weights={x: (0.4, 0.6), y: (0.5, 0.5)}, semiring=REAL)
        stats = bb(MmapObjective(inst), inst, literal_order=(False, True)).stats
        assert (stats.bound_calls, stats.prunes, stats.base_cases) == (0, 0, 2)

        problem = prepare(gen_dr(4, seed=0))[2].finalize()
        objective = MeuObjective(problem)
        leaves, bounded = [], []
        leaf, bound = objective.evaluate_conditioned, objective.bound_conditioned
        objective.evaluate_conditioned = lambda f, v, p, m: leaves.append(len(p)) or leaf(f, v, p, m)
        objective.bound_conditioned = lambda f, v, p, m: bounded.append(len(p)) or bound(f, v, p, m)
        result = bb(objective, problem)
        del objective.evaluate_conditioned, objective.bound_conditioned
        n = len(problem.branch_vars)
        assert bounded and all(0 < depth < n for depth in bounded)
        # the dive into the better-bounded child reaches the optimum, so the
        # first leaf is the only one; the blind dive in literal order took
        # 57 bound calls, 14 prunes and 37 invalid branches
        assert leaves == [n] and result.stats.base_cases == 1
        assert result.stats.bound_calls == len(bounded) == 18
        assert (result.stats.prunes, result.stats.invalid) == (9, 9)
        plain = bb(objective, problem, prune=False)
        assert result.value == plain.value
        assert result.witness == plain.witness

    @pytest.mark.parametrize("seed", range(20))
    def test_only_children_with_a_valid_sibling_are_bounded(self, seed):
        # a child whose sibling literal is invalid has its parent's valid
        # completions, so it recurses without a bound
        rng = random.Random(7300 + seed)
        problems = [(MeuObjective, prepare(gen_dr(3 + seed % 4, seed=seed))[2].finalize())]
        inst = random_meu_instance(rng)
        if inst is not None:
            problems.extend((MeuObjective, v) for v in search_variants(inst, rng))
        out = random_mmap_instance(rng)
        if out is not None:
            problems.extend((MmapObjective, v) for v in search_variants(out[0], rng))
        for make_objective, problem in problems:
            objective = make_objective(problem)
            result, calls = recorded_search(objective, problem)
            for partial, _ in calls:
                var = sorted(problem.branch_vars)[len(partial) - 1]
                sibling = {**partial, var: not partial[var]}
                assert problem.mgr.condition_all(problem.validity, sibling) != FALSE
            plain = bb(objective, problem, prune=False)
            assert (result.value, result.witness) == (plain.value, plain.witness)

    def test_bound_guided_dive_scales_on_dr(self):
        # the blind dive in literal order made 25,319 bound calls here
        problem = prepare(gen_dr(20, seed=0))[2].finalize()
        result = bb(MeuObjective(problem), problem)
        # the conditioned search summed the same terms to 95.90271908160793
        assert result.scalar == 95.90271908160796
        assert result.stats.bound_calls <= 300

    def test_search_creates_no_nodes_and_its_memo_grows_linearly_on_dr(self):
        # conditioning the diagrams made 22,003 and 83,534 nodes here, and
        # the memo grew from 35,923 to 99,827 entries
        entries = []
        for n in (40, 80):
            problem = prepare(gen_dr(n, seed=0))[2].finalize()
            stats = bb(MeuObjective(problem), problem).stats
            assert stats.nodes_created == 0
            entries.append(stats.bound_memo_entries)
        assert entries[1] / entries[0] < 2.5

    def test_search_takes_no_frame_per_branch_variable(self, monkeypatch):
        # the recursive search was 801 frames deeper at the count on n=200
        problem = prepare(gen_dr(200, seed=0))[2].finalize()
        assert len(problem.branch_vars) > 700

        def depth():
            frame, n = sys._getframe(1), 0
            while frame is not None:
                frame, n = frame.f_back, n + 1
            return n

        deepest = [0]
        count = BoundMemo.count

        def spy(memo, part, fid, validity):
            deepest[0] = max(deepest[0], depth())
            return count(memo, part, fid, validity)

        monkeypatch.setattr(BoundMemo, "count", spy)
        base = depth()
        bb(MeuObjective(problem), problem)
        assert 0 < deepest[0] - base <= 8

    @pytest.mark.parametrize("source, before", [
        (gen_dr(40, seed=0), 274),
        (gen_ladder(2, k=2, seed=0), 29),
    ], ids=["dr40", "ladder2k2"])
    def test_search_interns_only_its_roots_and_the_children_it_takes(
        self, monkeypatch, source, before
    ):
        # ``before`` frontiers were interned when each expansion also
        # interned its frontier pushed down to the next branch variable
        problem = prepare(source)[2].finalize()
        taken, memos = set(), []
        start, split = BoundMemo.start, BoundMemo.split

        def spy_start(memo, roots):
            memos.append(memo)
            fids = start(memo, roots)
            taken.update(fids)
            return fids

        def spy_split(memo, fids, depth, lits):
            children = split(memo, fids, depth, lits)
            for child in children:
                taken.update(child)
            return children

        monkeypatch.setattr(BoundMemo, "start", spy_start)
        monkeypatch.setattr(BoundMemo, "split", spy_split)
        bb(MeuObjective(problem), problem)
        [memo] = memos
        assert taken == set(range(len(memo._frontiers)))
        assert len(taken) < before

    def test_tie_test_reads_branch_vars_in_linear_time(self):
        # the tie test scanned branch_vars from the start: 48,014 / 202,358
        # / 831,339 elements read on n=160 / 320 / 640, 4.1x per doubling
        class Counted(list):
            reads = 0

            def __iter__(self):
                for var in super().__iter__():
                    Counted.reads += 1
                    yield var

        reads = []
        for n in (160, 320, 640):
            problem = prepare(gen_dr(n, seed=0))[2].finalize()
            problem = dataclasses.replace(problem, branch_vars=Counted(problem.branch_vars))
            objective = MeuObjective(problem)
            Counted.reads = 0
            bb(objective, problem)
            reads.append(Counted.reads)
        assert reads[1] <= 2.3 * reads[0] and reads[2] <= 2.3 * reads[1]

    def test_a_solve_leaves_no_reference_cycles(self):
        # the count walk's recursive closures are cleared on return, and the
        # search is one loop; before, one solve left about 15000 objects for
        # the cycle collector
        src = gen_dr(4, seed=0)
        gc.collect()
        gc.disable()
        try:
            solve_meu(src)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage < 100


class TestTieWitness:
    """Among exact ties the witness comes first in literal order, though the
    bound-guided search visits a later maximum first."""

    def test_mmap_tie_resolves_to_the_first_assignment(self):
        mgr = BddManager()
        a, y, b = (mgr.new_var(name) for name in "ayb")
        A, Y, B = (mgr.mk_var(v) for v in (a, y, b))
        phi = mgr.apply(
            "or",
            mgr.conjoin([mgr.negate(A), mgr.negate(B), Y]),
            mgr.apply("and", A, mgr.apply("iff", B, Y)),
        )
        weights = {a: (1.0, 1.0), b: (1.0, 1.0), y: (0.5, 0.5)}
        inst = Bbir(mgr=mgr, formulas=[phi, mgr.mk_true()], branch_vars=[a, b],
                    weights=weights, semiring=REAL)
        objective = MmapObjective(inst)
        # y lies between a and b, so the bound of a=T joins over b inside
        # each y: 1.0 against 0.5 for a=F (times 1/1.5), and a=T goes first
        assert ub_f(objective, inst, {a: True}) > ub_f(objective, inst, {a: False})
        result = bb(objective, inst, literal_order=(False, True))
        # {F,F}, {T,F} and {T,T} all have the value 1/3
        assert result.witness == {a: False, b: False}
        assert result.value == 0.5 / 1.5
        assert result.witness == bb(objective, inst, prune=False,
                                    literal_order=(False, True)).witness

    def test_an_equal_bound_is_kept_while_an_earlier_variable_is_open(self):
        # branch_vars name x1 before x0, but the search fixes x0 first.  It
        # finds x0=T, x1=F; x0=F then leaves that witness at x0 with the
        # later literal and ties its bound, yet x1, open and earlier along
        # branch_vars, can still come first, so the branch is searched
        mgr = BddManager()
        x0, x1, y = (mgr.new_var(name) for name in ("x0", "x1", "y"))
        X0, X1, Y = (mgr.mk_var(v) for v in (x0, x1, y))
        phi = mgr.disjoin([
            mgr.apply("xor", X0, X1),
            mgr.conjoin([X0, X1, Y]),
        ])
        weights = {x0: (1.0, 1.0), x1: (1.0, 1.0), y: (0.25, 0.75)}
        inst = Bbir(mgr=mgr, formulas=[phi, mgr.mk_true()], branch_vars=[x1, x0],
                    weights=weights, semiring=REAL)
        objective = MmapObjective(inst)
        result = bb(objective, inst)
        assert result.witness == {x1: True, x0: False}
        assert result.stats.prunes == 0
        assert result.witness == bb(objective, inst, prune=False).witness

    def test_pineappl_tie_resolves_to_the_smallest_assignment(self):
        src = (
            "a = flip 0.5; y = flip 0.5; b = flip 0.5;\n"
            "mmap(a, b) with { !a && !b && y || a && (b && y || !b && !y) }"
        )
        (query,) = run_program(src)["queries"]
        assert query["assignment"] == {"a": False, "b": False}
        assert query["value"] == 0.125 / 0.375

    def test_dappl_tie_resolves_to_the_first_alternative(self):
        # A and B are both worth 10.  c0.A and c0.B are pinned first, so c
        # lies above the choice under B, whose bound (20) lets that choice
        # see c: the search dives into B first
        src = (
            "c <- flip 0.5;\n"
            "choose [A, B]\n"
            "| A -> reward 10\n"
            "| B -> (choose [U, V] | U -> if c then reward 20 else ()"
            " | V -> if c then () else reward 20)"
        )
        mgr = BddManager()
        for label in ("c0.A", "c0.B"):
            mgr.ensure_var(label)
        out = solve_meu(src, mgr=mgr)
        assert out["meu"] == 10.0
        assert out["policy"] == {"c0": "A", "c1": "U"}


def tie_instance(rng, kind):
    """A small problem with dyadic weights and integer utilities, so that
    every count is exact and equal values tie in every association; its
    branch variables are shuffled out of variable order."""
    mgr = BddManager()
    n = rng.randint(4, 7)
    names = [f"v{i}" for i in range(n)]
    ids = fresh_vars(mgr, n)
    var_of = dict(zip(names, ids))
    phi = build_bdd(mgr, random_formula(rng, names, 3), var_of)
    gamma = build_bdd(mgr, random_formula(rng, names, 2), var_of) if rng.random() < 0.4 else TRUE
    support = sorted(mgr.support(phi) | mgr.support(gamma))
    if len(support) < 2:
        return None
    branch = rng.sample(support, k=rng.randint(2, min(4, len(support))))
    weights = {}
    for v in ids:
        if kind == "meu":
            unit = EV(1.0, 0.0)
            weights[v] = (unit, unit) if v in branch else (
                EV(0.5, float(rng.randint(0, 3))), EV(0.5, float(rng.randint(0, 3))))
        else:
            weights[v] = (1.0, 1.0) if v in branch else rng.choice(((0.5, 0.5), (0.25, 0.75)))
    validity = mgr.exactly_one(branch) if rng.random() < 0.3 else TRUE
    return Bbir(mgr=mgr, formulas=[phi, gamma], branch_vars=branch, weights=weights,
                semiring=EXPECTATION if kind == "meu" else REAL, validity=validity)


def first_maximum(objective, inst, literal_order):
    """The brute-force optimum and the first assignment along ``branch_vars``
    (``literal_order[0]`` first) that reaches it."""
    sr = objective.semiring
    best = witness = None
    for values in itertools.product(literal_order, repeat=len(inst.branch_vars)):
        total = dict(zip(inst.branch_vars, values))
        if inst.mgr.condition_all(inst.validity, total) == FALSE:
            continue
        value = evaluate_objective(objective, inst, total)
        if best is None or (sr.total_le(best, value) and best != value):
            best, witness = value, total
    return best, witness


class TestTiesAlongBranchOrder:
    """The search fixes variables in variable order, yet among exact ties its
    witness is the first maximum along ``branch_vars``."""

    @pytest.mark.parametrize("kind", ["meu", "mmap"])
    def test_witness_is_the_first_maximum_along_branch_vars(self, kind):
        rng = random.Random(kind)
        checked = tied = 0
        while checked < 60:
            inst = tie_instance(rng, kind)
            if inst is None or sorted(inst.branch_vars) == inst.branch_vars:
                continue
            try:
                objective = (MeuObjective if kind == "meu" else MmapObjective)(inst)
            except BbirError:
                continue  # evidence of zero mass
            for literal_order in ((True, False), (False, True)):
                best, witness = first_maximum(objective, inst, literal_order)
                if witness is None:
                    continue  # no valid policy
                maxima = sum(
                    evaluate_objective(objective, inst, dict(zip(inst.branch_vars, values))) == best
                    for values in itertools.product((True, False), repeat=len(inst.branch_vars))
                    if inst.mgr.condition_all(
                        inst.validity, dict(zip(inst.branch_vars, values))) != FALSE
                )
                tied += maxima > 1
                for prune in (True, False):
                    result = bb(objective, inst, prune=prune, literal_order=literal_order)
                    assert result.value == best
                    assert result.witness == witness
                    assert list(result.witness) == inst.branch_vars
                checked += 1
        assert tied >= 20


class TestRejectedInputs:
    """Inputs that used to give silent wrong answers raise ``BbirError``."""

    def test_meu_rejects_non_unit_branch_weights(self):
        # with these weights the pruned search returned EV(1.8734, 40.7229)
        # and the unpruned one EV(1.93449, 44.4657): the bound weighed the
        # policy in and the leaves did not
        inst = random_meu_instance(random.Random(6))
        rng = random.Random(1006)
        weights = dict(inst.weights)
        for v in inst.branch_vars:
            weights[v] = (EV(rng.uniform(0.2, 1.5), rng.uniform(0, 10)),
                          EV(rng.uniform(0.2, 1.5), rng.uniform(0, 10)))
        weighted = dataclasses.replace(inst, weights=weights)
        with pytest.raises(BbirError, match="unit weights on branch variables"):
            MeuObjective(weighted)
        MeuObjective(inst)  # the unit weights of the original are accepted

    @pytest.mark.parametrize("literal_order", [(True,), (True, True), (), (1, 0, 1)])
    def test_search_rejects_a_literal_order_that_is_not_a_permutation(self, literal_order):
        # (True,) used to return -inf after 0 leaves
        problem = prepare(gen_dr(4, seed=0))[2].finalize()
        with pytest.raises(BbirError, match="literal_order"):
            bb(MeuObjective(problem), problem, literal_order=literal_order)
        for order in ((True, False), (False, True)):
            result = bb(MeuObjective(problem), problem, literal_order=order)
            assert result.scalar == 95.00033088689861

    def test_meu_value_of_an_invalid_total_is_rejected(self):
        # the all-true total used to evaluate to EV(0.41484, 6.76849)
        inst = random_meu_instance(random.Random(1))
        assert len(inst.branch_vars) == 2
        inst = dataclasses.replace(inst, validity=inst.mgr.exactly_one(inst.branch_vars))
        objective = MeuObjective(inst)
        with pytest.raises(BbirError, match="validity formula rules out"):
            evaluate_objective(objective, inst, {v: True for v in inst.branch_vars})
        first, second = inst.branch_vars
        evaluate_objective(objective, inst, {first: True, second: False})

    def test_mmap_value_of_an_invalid_total_is_rejected(self):
        # the all-true total used to evaluate to 0.6294572911393312
        inst = random_mmap_instance(random.Random(1))[0]
        assert len(inst.branch_vars) >= 2
        inst = dataclasses.replace(inst, validity=inst.mgr.exactly_one(inst.branch_vars))
        objective = MmapObjective(inst)
        with pytest.raises(BbirError, match="validity formula rules out"):
            evaluate_objective(objective, inst, {v: True for v in inst.branch_vars})
        one_hot = {v: i == 0 for i, v in enumerate(inst.branch_vars)}
        assert evaluate_objective(objective, inst, one_hot) >= 0.0


def recorded_search(objective, inst, **kwargs):
    """Run ``bb`` and record every (partial, bound) it computes."""
    calls = []
    inner = objective.bound_conditioned

    def record(fids, validity, partial, memo):
        bound = inner(fids, validity, partial, memo)
        calls.append((dict(partial), bound))
        return bound

    objective.bound_conditioned = record
    try:
        return bb(objective, inst, **kwargs), calls
    finally:
        del objective.bound_conditioned


def frontier_bound(objective, partial, method=None):
    """The bound of ``partial``, a prefix of the variable order, computed as
    ``bb`` computes it but from a fresh memo: the frontiers are split at
    each variable in turn and the side of its literal taken, then counted
    by ``method`` (``objective.bound_conditioned`` if None)."""
    inst = objective.bbir
    order = sorted(inst.branch_vars)
    assert set(partial) == set(order[: len(partial)])
    memo = BoundMemo(inst.mgr, objective.bound_setups, order)
    fids = memo.start(objective.roots)
    validity = inst.validity
    for depth, var in enumerate(order[: len(partial)]):
        [fids] = memo.split(fids, depth, [partial[var]])
        validity = inst.mgr.condition(validity, var, partial[var])
    method = method or objective.bound_conditioned
    return method(fids, validity, partial, memo)


def fresh_memo_search(objective, inst, **kwargs):
    """Run ``bb`` with every bound computed from a fresh memo."""
    inner = objective.bound_conditioned

    def fresh(fids, validity, partial, memo):
        return frontier_bound(objective, partial, inner)

    objective.bound_conditioned = fresh
    try:
        return bb(objective, inst, **kwargs)
    finally:
        del objective.bound_conditioned


def search_variants(inst, rng):
    """The instance, then shuffled (and, for MMAP, non-unit-weighted), then
    also one-hot valid.  MEU takes unit branch weights only."""
    yield inst
    branch = list(inst.branch_vars)
    rng.shuffle(branch)
    weights = dict(inst.weights)
    if inst.semiring is REAL:
        for v in branch:
            weights[v] = (rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0))
    shuffled = dataclasses.replace(inst, branch_vars=branch, weights=weights)
    yield shuffled
    if len(branch) >= 2:
        yield dataclasses.replace(shuffled, validity=inst.mgr.exactly_one(branch))


def single_pass_bound(objective, partial):
    """The objective's bound from one-off ``_bound_pass`` runs in its own
    semiring, on the diagrams conditioned on ``partial``."""
    inst = objective.bbir
    num_h, den_h, valid_h = conditioned_handles(objective, partial)
    conditioned = set(partial)
    num = _bound_pass(inst, num_h, valid_h, objective.num_universe, conditioned, True)
    t = inst.semiring.mul(_policy_weight(inst, partial), num)
    if objective.kind == "mmap":
        return t / objective.evidence_mass
    low = _bound_pass(inst, den_h, valid_h, objective.den_universe, conditioned, False).prob
    high = _bound_pass(inst, den_h, valid_h, objective.den_universe, conditioned, True).prob
    return EXPECTATION.join(_div_bound(t, low), _div_bound(t, high))


def close_rel(a, b, rel=1e-12):
    """Equal up to ``rel`` of the larger magnitude, componentwise for EV."""
    if isinstance(a, EV):
        return close_rel(a.prob, b.prob, rel) and close_rel(a.util, b.util, rel)
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def assert_memo_matches_fresh(make_objective, inst):
    for literal_order in ((True, False), (False, True)):
        objective = make_objective(inst)
        result, calls = recorded_search(objective, inst, literal_order=literal_order)
        assert len(calls) == result.stats.bound_calls
        for partial, bound in calls:
            assert frontier_bound(objective, partial) == bound
            # the conditioned walk sums the same terms in another association
            assert close_rel(single_pass_bound(objective, partial), bound)
        fresh = fresh_memo_search(objective, inst, literal_order=literal_order)
        assert result.value == fresh.value
        assert result.witness == fresh.witness
        for name in ("prunes", "invalid", "bound_calls"):
            assert getattr(result.stats, name) == getattr(fresh.stats, name)


class TestSearchMemo:
    """One bound memo per search gives the bounds of a fresh memo per call."""

    @pytest.mark.parametrize("seed", range(30))
    def test_meu_memo_bounds_equal_fresh_bounds(self, seed):
        rng = random.Random(5000 + seed)
        inst = random_meu_instance(rng)
        if inst is None:
            return
        for variant in search_variants(inst, rng):
            assert_memo_matches_fresh(MeuObjective, variant)

    @pytest.mark.parametrize("seed", range(30))
    def test_mmap_memo_bounds_equal_fresh_bounds(self, seed):
        rng = random.Random(5100 + seed)
        out = random_mmap_instance(rng)
        if out is None:
            return
        for variant in search_variants(out[0], rng):
            try:
                MmapObjective(variant)
            except BbirError:
                return  # evidence unsatisfiable
            assert_memo_matches_fresh(MmapObjective, variant)

    @pytest.mark.parametrize("family", ["dr", "ladder"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_generated_programs_memo_bounds_equal_fresh_bounds(self, family, n):
        src = gen_dr(n, seed=1) if family == "dr" else gen_ladder(n, seed=1)
        problem = prepare(src)[2].finalize()
        branch = list(problem.branch_vars)
        random.Random(n).shuffle(branch)
        for inst in (problem, dataclasses.replace(problem, branch_vars=branch)):
            assert_memo_matches_fresh(MeuObjective, inst)

    @pytest.mark.parametrize("seed", range(15))
    def test_ub_f_after_a_search_matches_brute_force(self, seed):
        rng = random.Random(5200 + seed)
        inst = random_meu_instance(rng)
        if inst is None or len(inst.branch_vars) < 2:
            return
        branch = list(inst.branch_vars)
        rng.shuffle(branch)
        inst = dataclasses.replace(inst, branch_vars=branch)
        objective = MeuObjective(inst)
        bb(objective, inst)
        # a partial policy without the search's first variable is no prefix
        P = {v: rng.random() < 0.5 for v in rng.sample(branch[1:], k=rng.randint(1, len(branch) - 1))}
        m = ub_f(objective, inst, P)
        assert m == ub_f(MeuObjective(inst), inst, P)
        for bits in all_assignments([v for v in branch if v not in P]):
            T = dict(P)
            T.update(bits)
            value = evaluate_objective(objective, inst, T)
            if value.util == float("-inf"):
                continue  # impossible evidence loses against anything
            assert le_tol(value, m)
            assert EXPECTATION.isclose(ub_f(objective, inst, T), value, TOL)

    @pytest.mark.parametrize("seed", range(20))
    def test_unpruned_search_runs_no_bound_pass(self, seed):
        rng = random.Random(5300 + seed)
        meu = random_meu_instance(rng)
        mmap = random_mmap_instance(rng)
        problems = []
        if meu is not None:
            problems.append((MeuObjective(meu), meu))
        if mmap is not None:
            try:
                problems.append((MmapObjective(mmap[0]), mmap[0]))
            except BbirError:
                pass  # evidence unsatisfiable
        for objective, inst in problems:
            pruned = bb(objective, inst)

            def no_bound(*args, **kwargs):
                raise AssertionError("a bound pass ran without pruning")

            objective.bound_conditioned = no_bound
            plain = bb(objective, inst, prune=False)
            assert plain.value == pruned.value
            assert plain.witness == pruned.witness
            assert plain.stats.bound_calls == 0

    def test_bound_memo_entries_are_reported(self):
        out = solve_compiled(prepare(gen_dr(4, seed=0))[2])
        assert out["stats"]["bound_memo_entries"] > 0
        mgr = BddManager()
        x = mgr.new_var("x")
        wm = {x: (EV(0.25, 2.0), EV(0.75, 0.0))}
        inst = Bbir(mgr=mgr, formulas=[mgr.mk_var(x), mgr.mk_true()],
                    branch_vars=[], weights=wm, semiring=EXPECTATION)
        stats = bb(MeuObjective(inst), inst).stats
        # the search's one leaf walks the one node x
        assert stats.bound_calls == 0
        assert stats.bound_memo_entries == 1
        assert stats.to_dict()["bound_memo_entries"] == 1
        # one-variable searches evaluate their two leaf children and bound
        # nothing; z is the diagrams' last variable, so the frontiers hold
        # all of them and the leaves count no node below it
        solves = run_program(gen_nested_mmap(3))["stats"]["mmap_solves"]
        assert solves and all(s["bound_calls"] == 0 for s in solves)
        assert all(s["bound_memo_entries"] == 0 for s in solves)
        src = "a = flip 0.3; b = flip 0.6; (x, y) = mmap(a, b) with { a || b }; pr(x)"
        solves = run_program(src)["stats"]["mmap_solves"]
        assert [s["bound_memo_entries"] > 0 for s in solves] == [True]

    def test_stats_dict_is_the_asdict_form(self):
        inst = prepare(gen_dr(4, seed=0))[2].finalize()
        stats = bb(MeuObjective(inst), inst).stats
        stats.elapsed_ms = 1.23456789
        want = dataclasses.asdict(stats)
        want["elapsed_ms"] = 1.235
        assert list(stats.to_dict().items()) == list(want.items())


class TestSupportSweeps:
    def test_objective_sweeps_no_support_twice(self, monkeypatch):
        problem = prepare(gen_dr(4, seed=0))[2].finalize()
        swept = []
        inner = BddManager.support
        monkeypatch.setattr(BddManager, "support", lambda mgr, a: swept.append(a) or inner(mgr, a))
        # the problem's own formulas, swept again by a new Bbir and its objective
        objective = MeuObjective(dataclasses.replace(problem))
        assert objective.num_root in swept and objective.gamma in swept
        assert len(swept) == len(set(swept))

    @pytest.mark.parametrize("src", [gen_dr(4, seed=0), gen_ladder(4, 1, seed=0)], ids=["dr", "ladder"])
    def test_solve_sweeps_no_support_twice(self, src, monkeypatch):
        # finalize sweeps its formulas and hands the supports to the Bbir
        swept = []
        inner = BddManager.support
        monkeypatch.setattr(BddManager, "support", lambda mgr, a: swept.append(a) or inner(mgr, a))
        solve_meu(src)
        assert swept and len(swept) == len(set(swept))


class CountSpy:
    """Counts the ``BddManager.count`` walks for the rest of the test."""

    def __init__(self, monkeypatch):
        self.walks = 0
        inner = BddManager.count

        def count(mgr, *args):
            self.walks += 1
            return inner(mgr, *args)

        monkeypatch.setattr(BddManager, "count", count)


def valid_prefixes(inst, rng):
    """Partial policies fixing each prefix of the variable order along one valid path."""
    partial = {}
    yield {}
    for var in sorted(inst.branch_vars):
        first = rng.random() < 0.5
        for value in (first, not first):
            partial[var] = value
            if inst.mgr.condition_all(inst.validity, partial) != FALSE:
                break
        else:
            return
        yield dict(partial)


def conditioned_handles(objective, partial):
    """The numerator, denominator and validity handles conditioned on ``partial``."""
    mgr = objective.bbir.mgr
    handles = (objective.num_root, getattr(objective, "gamma", None), objective.bbir.validity)
    return tuple(mgr.condition_all(h, partial) for h in handles)


class TestFusedBound:
    """An MEU bound walks once when the numerator and denominator coincide."""

    @pytest.mark.parametrize("family", ["dr", "ladder"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_generated_programs_bound_in_one_walk(self, family, n, monkeypatch):
        src = gen_dr(n, seed=2) if family == "dr" else gen_ladder(n, seed=2)
        problem = prepare(src)[2].finalize()
        objective = MeuObjective(problem)
        assert objective.num_root == objective.gamma
        spy = CountSpy(monkeypatch)
        depths = 0
        for partial in valid_prefixes(problem, random.Random(n)):
            before = spy.walks
            bound = frontier_bound(objective, partial)
            assert spy.walks - before == 1
            before = spy.walks
            conditioned = ub_f(objective, problem, partial)
            assert spy.walks - before == 1
            assert single_pass_bound(objective, partial) == conditioned
            assert close_rel(single_pass_bound(objective, partial), bound)
            depths += 1
        assert depths == len(problem.branch_vars) + 1

    @pytest.mark.parametrize("seed", range(30))
    def test_distinct_numerator_and_denominator_walk_twice(self, seed, monkeypatch):
        rng = random.Random(5400 + seed)
        inst = random_meu_instance(rng)
        if inst is None:
            return
        spy = CountSpy(monkeypatch)
        for variant in search_variants(inst, rng):
            objective = MeuObjective(variant)
            if objective.num_root == objective.gamma:
                continue
            for partial in valid_prefixes(variant, rng):
                handles = conditioned_handles(objective, partial)
                before = spy.walks
                bound = ub_f(objective, variant, partial)
                # conditioning can make the two handles equal
                shared = (handles[0] == handles[1]
                          and objective.num_universe == objective.den_universe)
                assert spy.walks - before == (1 if shared else 2)
                if not partial:
                    assert spy.walks - before == 2
                assert single_pass_bound(objective, partial) == bound
                assert close_rel(frontier_bound(objective, partial), bound)
