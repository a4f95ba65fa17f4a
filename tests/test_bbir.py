"""Bound passes and the pruned search over random weighted problems."""

import dataclasses
import random

import pytest

from optppl import (
    EV,
    EXPECTATION,
    REAL,
    Bbir,
    BbirError,
    BddManager,
    MeuObjective,
    MmapObjective,
    WeightMap,
    bb,
    evaluate_objective,
    lb,
    ub,
    ub_f,
)
from optppl.oracle import brute_amc, mmap_enum

from helpers import (
    all_assignments,
    random_bbir,
    random_meu_instance,
    random_mmap_instance,
    rename_formula,
    substitute,
)

TOL = 1e-9


def le_tol(a, b, tol=TOL):
    return a.prob <= b.prob + tol and a.util <= b.util + tol


def exact_completion_value(bbir, base_formula, universe, T):
    """Independent oracle: AMC(formula|T) (x) weight of the assignment."""
    wdict = {v: bbir.weights.get(v) for v in bbir.weights.vars}
    masked = substitute(base_formula, T)
    value = brute_amc(
        masked, wdict, [v for v in universe if v not in T], bbir.semiring
    )
    pm = bbir.semiring.one
    for v in sorted(T):
        pos, neg = wdict[v]
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

    def test_assignment_outside_branch_set_rejected(self):
        rng = random.Random(5)
        bbir, _, _ = random_bbir(rng, n_vars=5, n_branch=2)
        outside = next(
            v for v in bbir.weights.vars if v not in bbir.branch_set
        )
        with pytest.raises(BbirError):
            ub(bbir, bbir.formulas[0], {outside: True})

    def test_duplicate_branch_variable_rejected(self):
        mgr = BddManager()
        x = mgr.new_var("x")
        wm = WeightMap({x: (0.5, 0.5)})
        with pytest.raises(BbirError, match="duplicate branch variable"):
            Bbir(mgr=mgr, formulas=[mgr.mk_var(x), mgr.mk_true()],
                 branch_vars=[x, x], weights=wm, semiring=REAL)


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
            from optppl.bbir import _bound_pass, _policy_weight

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
        wdict = {v: inst.weights.get(v) for v in universe}
        assignment, posterior = mmap_enum(base, list(inst.branch_set), wdict, universe)
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
        free = sorted(set(inst.weights.vars) - inst.branch_set)
        prior_vars = rng.sample(free, k=min(2, len(free)))
        prior = {v: rng.random() < 0.5 for v in prior_vars}
        # the prior literals are conjoined into the evidence formula
        mgr = inst.mgr
        phi, gamma = inst.formulas
        observed = mgr.conjoin([gamma] + [mgr.mk_lit(v, val) for v, val in prior.items()])
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
        wdict = {v: inst.weights.get(v) for v in universe}
        assignment, posterior = mmap_enum(
            base, list(inst.branch_set), wdict,
            [v for v in universe if v not in prior], evidence=prior,
        )
        assert result.witness == assignment
        assert abs(result.value - posterior) < 1e-6

    def test_empty_branch_set_evaluates_once(self):
        mgr = BddManager()
        x = mgr.new_var("x")
        wm = WeightMap({x: (EV(0.25, 2.0), EV(0.75, 0.0))})
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
