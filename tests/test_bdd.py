"""Decision-diagram engine: canonicity, combinators, and model counting."""

import math
import random
from functools import partial

import pytest

from optppl import EV, EXPECTATION, FALSE, REAL, TRUE, BddError, BddManager
from optppl.bdd import CountSetup, Frontier
from optppl.oracle import brute_amc
from optppl.semiring import EV_BOUND, EVBound

from helpers import (
    all_assignments,
    build_bdd,
    enumerate_models,
    float_hex,
    fresh_vars,
    ite,
    mk_lit,
    model_count,
    random_formula,
    rename_formula,
    textbook_count,
)


@pytest.fixture
def mgr():
    return BddManager()


def truth_table(mgr, node, universe):
    return tuple(
        any(sigma == m for m in enumerate_models(mgr, node, universe))
        for sigma in all_assignments(universe)
    )


class TestConstruction:
    def test_mk_var_hash_consing(self, mgr):
        r = mgr.new_var("r")
        assert mgr.mk_var(r) == mgr.mk_var(r)

    def test_negate_terminals(self, mgr):
        assert mgr.negate(mgr.mk_true()) == mgr.mk_false()
        assert mgr.negate(mgr.mk_false()) == mgr.mk_true()

    def test_contradiction_collapses(self, mgr):
        r = mgr.new_var("r")
        node = mgr.apply("and", mgr.mk_var(r), mgr.negate(mgr.mk_var(r)))
        assert node == FALSE

    def test_iff_with_true_is_identity(self, mgr):
        x = mgr.new_var("x")
        assert mgr.apply("iff", mgr.mk_var(x), mgr.mk_true()) == mgr.mk_var(x)

    def test_unknown_variable_rejected(self, mgr):
        with pytest.raises(BddError):
            mgr.mk_var(3)

    def test_no_redundant_nodes(self, mgr):
        x, y = mgr.new_var("x"), mgr.new_var("y")
        node = ite(mgr, mgr.mk_var(x), mgr.mk_var(y), mgr.mk_var(y))
        assert node == mgr.mk_var(y)


class TestApplyAgainstTruthTables:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_formulas_match_brute_force(self, seed):
        rng = random.Random(seed)
        mgr = BddManager()
        names = ["a", "b", "c", "d"]
        ids = dict(zip(names, fresh_vars(mgr, 4)))
        formula = random_formula(rng, names, depth=4)
        node = build_bdd(mgr, formula, ids)
        from optppl.oracle import feval

        for sigma in all_assignments(names):
            expected = feval(formula, sigma)
            got = any(
                all(m[ids[n]] == sigma[n] for n in names)
                for m in enumerate_models(mgr, node, ids.values())
            )
            assert got == expected

    def test_canonicity_of_equivalent_formulas(self):
        rng = random.Random(99)
        mgr = BddManager()
        names = ["a", "b", "c"]
        ids = dict(zip(names, fresh_vars(mgr, 3)))
        seen = {}
        for _ in range(60):
            formula = random_formula(rng, names, depth=3)
            node = build_bdd(mgr, formula, ids)
            table = truth_table(mgr, node, list(ids.values()))
            if table in seen:
                assert seen[table] == node  # same function, same handle
            seen[table] = node


class TestCondition:
    def test_worked_umbrella_conditioning(self, mgr):
        r, r10, r5, r100 = (mgr.new_var(n) for n in ["r", "R10", "R-5", "R-100"])
        lit = partial(mk_lit, mgr)
        phi_u = mgr.apply(
            "or",
            mgr.conjoin([lit(r, True), lit(r10, True), lit(r5, False), lit(r100, False)]),
            mgr.conjoin([lit(r, False), lit(r10, False), lit(r5, True), lit(r100, False)]),
        )
        conditioned = mgr.condition(phi_u, r, True)
        expected = mgr.conjoin([lit(r10, True), lit(r5, False), lit(r100, False)])
        assert conditioned == expected

    def test_idempotent(self, mgr):
        x, y = mgr.new_var("x"), mgr.new_var("y")
        node = mgr.apply("or", mgr.mk_var(x), mgr.mk_var(y))
        once = mgr.condition(node, x, True)
        assert mgr.condition(once, x, True) == once

    def test_absent_variable_is_identity(self, mgr):
        x, y = mgr.new_var("x"), mgr.new_var("y")
        node = mgr.mk_var(y)
        assert mgr.condition(node, x, False) == node

    def test_conditioned_variable_leaves_support(self):
        rng = random.Random(5)
        for seed in range(20):
            mgr = BddManager()
            names = ["a", "b", "c", "d"]
            ids = dict(zip(names, fresh_vars(mgr, 4)))
            node = build_bdd(mgr, random_formula(rng, names, 3), ids)
            for n in names:
                for value in (False, True):
                    assert ids[n] not in mgr.support(mgr.condition(node, ids[n], value))

    def test_condition_matches_restricted_truth_table(self):
        rng = random.Random(17)
        from optppl.oracle import feval

        for seed in range(10):
            mgr = BddManager()
            names = ["a", "b", "c", "d"]
            ids = dict(zip(names, fresh_vars(mgr, 4)))
            formula = random_formula(rng, names, depth=4)
            node = build_bdd(mgr, formula, ids)
            pick = rng.choice(names)
            value = rng.random() < 0.5
            conditioned = mgr.condition(node, ids[pick], value)
            rest = [n for n in names if n != pick]
            for sigma in all_assignments(rest):
                sigma_full = dict(sigma)
                sigma_full[pick] = value
                want = feval(formula, sigma_full)
                got = any(
                    all(m.get(ids[n], sigma[n]) == sigma[n] for n in rest)
                    for m in enumerate_models(mgr, conditioned, [ids[n] for n in rest])
                )
                assert got == want


class TestExactlyOne:
    def test_singleton(self, mgr):
        v = mgr.new_var("v")
        assert mgr.exactly_one([v]) == mgr.mk_var(v)

    def test_two_models(self, mgr):
        u, n = mgr.new_var("u"), mgr.new_var("n")
        node = mgr.exactly_one([u, n])
        models = [frozenset(m.items()) for m in enumerate_models(mgr, node, [u, n])]
        assert sorted(models, key=sorted) == sorted(
            [frozenset({(u, True), (n, False)}), frozenset({(u, False), (n, True)})],
            key=sorted,
        )

    def test_five_variables_five_models(self, mgr):
        ids = fresh_vars(mgr, 5)
        node = mgr.exactly_one(ids)
        assert model_count(mgr, node, ids) == 5

    def test_empty_rejected(self, mgr):
        with pytest.raises(BddError):
            mgr.exactly_one([])

    def test_duplicates_rejected(self, mgr):
        v = mgr.new_var("v")
        with pytest.raises(BddError):
            mgr.exactly_one([v, v])


class TestCube:
    def test_empty_cube_is_true(self, mgr):
        assert mgr.cube([]) == TRUE

    @pytest.mark.parametrize("seed", range(20))
    def test_random_cubes_equal_the_conjoined_literals(self, seed):
        rng = random.Random(seed)
        mgr = BddManager()
        ids = fresh_vars(mgr, 8)
        literals = [(v, rng.random() < 0.5) for v in rng.sample(ids, rng.randint(1, 8))]
        before = mgr.num_nodes
        node = mgr.cube(literals)
        # built bottom-up: one new node per literal
        assert mgr.num_nodes - before == len(literals)
        assert node == mgr.conjoin(mk_lit(mgr, v, value) for v, value in literals)

    def test_repeated_literal_counts_once(self, mgr):
        x, y = mgr.new_var("x"), mgr.new_var("y")
        assert mgr.cube([(y, False), (x, True), (y, False)]) == mgr.cube([(x, True), (y, False)])

    def test_both_signs_give_false(self, mgr):
        x, y = mgr.new_var("x"), mgr.new_var("y")
        assert mgr.cube([(x, True), (y, True), (x, False)]) == FALSE

    def test_unknown_variable_rejected(self, mgr):
        x = mgr.new_var("x")
        with pytest.raises(BddError):
            mgr.cube([(x, True), (x + 1, False)])


class TestAndOrKernel:
    @pytest.mark.parametrize("op", ["and", "or"])
    def test_operand_order_shares_one_cache_entry(self, op):
        mgr = BddManager()
        x, y, z = (mgr.mk_var(v) for v in fresh_vars(mgr, 3))
        a, b = mgr.apply("or", x, z), mgr.apply("xor", y, z)
        out = mgr.apply(op, a, b)
        nodes, entries = mgr.num_nodes, len(mgr._apply_caches[op])
        assert entries and mgr.apply(op, b, a) == out
        # the swapped call is one cache hit: no node and no entry is added
        assert (mgr.num_nodes, len(mgr._apply_caches[op])) == (nodes, entries)

    def test_drop_op_caches_empties_every_operator_cache(self, mgr):
        x, y = mgr.new_var("x"), mgr.new_var("y")
        vx, vy = mgr.mk_var(x), mgr.mk_var(y)
        for op in ("and", "or", "xor", "iff"):
            mgr.apply(op, vx, vy)
        mgr.condition(mgr.apply("and", vx, vy), y, True)
        mgr.negate(vx)
        assert all(mgr._apply_caches.values()) and mgr._ite_cache
        mgr.drop_op_caches()
        assert not any(mgr._apply_caches.values()) and not mgr._ite_cache
        assert not mgr._neg_cache and not mgr._cond_cache


class TestIte:
    @pytest.mark.parametrize("seed", range(8))
    def test_ite_equals_the_and_or_negate_reference(self, seed):
        rng = random.Random(seed)
        mgr = BddManager()
        names = ["a", "b", "c", "d"]
        ids = dict(zip(names, fresh_vars(mgr, 4)))
        g, t, e = (build_bdd(mgr, random_formula(rng, names, depth=3), ids) for _ in range(3))
        triples = [(g, t, e), (g, t, t), (g, g, e), (g, t, g), (g, g, g)]
        # constant operands in every position
        for k in range(3):
            for const in (FALSE, TRUE):
                triple = [g, t, e]
                triple[k] = const
                triples.append(tuple(triple))
        triples += [(g, TRUE, FALSE), (g, FALSE, TRUE), (g, FALSE, e), (g, t, TRUE)]
        for triple in triples:
            assert mgr.ite(*triple) == ite(mgr, *triple)

    def test_iff_and_xor_with_a_constant_operand_add_no_node(self, mgr):
        x, y = (mgr.mk_var(v) for v in fresh_vars(mgr, 2))
        x_or_y = mgr.apply("or", x, y)
        # the absorbing constant gives the negation, built here beforehand
        not_x_or_y = mgr.negate(x_or_y)
        before = mgr.num_nodes
        for a, b in ((x_or_y, TRUE), (FALSE, x_or_y)):
            assert mgr.apply("iff", a, b) == (x_or_y if TRUE in (a, b) else not_x_or_y)
            assert mgr.apply("xor", a, b) == (not_x_or_y if TRUE in (a, b) else x_or_y)
        assert mgr.apply("iff", x_or_y, x_or_y) == TRUE
        assert mgr.apply("xor", x_or_y, x_or_y) == FALSE
        assert mgr.num_nodes == before


def section2_weights(mgr, ids):
    r, r10, r5, r100 = ids
    return {
        r: (EV(0.1, 0), EV(0.9, 0)),
        r10: (EV(1, 10), EV(1, 0)),
        r5: (EV(1, -5), EV(1, 0)),
        r100: (EV(1, -100), EV(1, 0)),
    }


class TestAmc:
    def test_umbrella_worked_example(self, mgr):
        ids = [mgr.new_var(n) for n in ["r", "R10", "R-5", "R-100"]]
        r, r10, r5, r100 = ids
        lit = partial(mk_lit, mgr)
        phi_u = mgr.apply(
            "or",
            mgr.conjoin([lit(r, True), lit(r10, True), lit(r5, False), lit(r100, False)]),
            mgr.conjoin([lit(r, False), lit(r10, False), lit(r5, True), lit(r100, False)]),
        )
        value = mgr.amc(phi_u, section2_weights(mgr, ids), EXPECTATION)
        assert EXPECTATION.isclose(value, EV(1.0, -3.5))

    def test_false_counts_to_zero(self, mgr):
        ids = [mgr.new_var(n) for n in ["r", "R10", "R-5", "R-100"]]
        assert mgr.amc(FALSE, section2_weights(mgr, ids), EXPECTATION) == EXPECTATION.zero

    def test_true_gap_factors(self, mgr):
        x, r = mgr.new_var("x"), mgr.new_var("r")
        wm = {x: (EV(0.3, 0), EV(0.7, 0)), r: (EV(1, 5), EV(1, 0))}
        value = mgr.amc(TRUE, wm, EXPECTATION)
        assert EXPECTATION.isclose(value, EV(2.0, 5.0))

    def test_unweighted_variable_rejected(self, mgr):
        x, y = mgr.new_var("x"), mgr.new_var("y")
        node = mgr.apply("and", mgr.mk_var(x), mgr.mk_var(y))
        with pytest.raises(BddError, match=r"unweighted variable in formula: y$"):
            mgr.amc(node, {x: (EV(1, 0), EV(1, 0))}, EXPECTATION)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_formulas_match_brute_force(self, seed):
        # includes weight maps whose literal pairs do not sum to the unit
        rng = random.Random(seed)
        mgr = BddManager()
        n = rng.randint(2, 8)
        names = [f"v{i}" for i in range(n)]
        ids = dict(zip(names, fresh_vars(mgr, n)))
        formula = random_formula(rng, names, depth=4)
        node = build_bdd(mgr, formula, ids)
        universe = sorted(ids.values())
        wdict = {}
        for v in universe:
            wdict[v] = (
                EV(rng.uniform(0, 2), rng.uniform(-10, 10)),
                EV(rng.uniform(0, 2), rng.uniform(-10, 10)),
            )
        got = mgr.amc(node, wdict, EXPECTATION)
        want = brute_amc(rename_formula(formula, ids), wdict, universe, EXPECTATION)
        assert EXPECTATION.isclose(got, want, 1e-9)

    def test_real_semiring_matches_brute_force(self):
        rng = random.Random(123)
        mgr = BddManager()
        names = ["a", "b", "c"]
        ids = dict(zip(names, fresh_vars(mgr, 3)))
        formula = random_formula(rng, names, depth=3)
        node = build_bdd(mgr, formula, ids)
        universe = sorted(ids.values())
        wdict = {v: (rng.uniform(0, 1), rng.uniform(0, 1)) for v in universe}
        got = mgr.amc(node, wdict, REAL)
        want = brute_amc(rename_formula(formula, ids), wdict, universe, REAL)
        assert abs(got - want) < 1e-9

    def test_visits_linear_in_node_count(self):
        rng = random.Random(3)
        mgr = BddManager()
        names = [f"v{i}" for i in range(8)]
        ids = dict(zip(names, fresh_vars(mgr, 8)))
        node = build_bdd(mgr, random_formula(rng, names, depth=6), ids)
        wm = {v: (EV(0.5, 1), EV(0.5, 0)) for v in ids.values()}
        mgr.amc(node, wm, EXPECTATION)
        reachable = len(mgr.reachable_nodes([node]))
        visits = mgr.amc_visits
        assert visits <= reachable
        # every call walks afresh, so a repeat call reports the same visits
        mgr.amc(node, wm, EXPECTATION)
        assert mgr.amc_visits == visits


    def test_fresh_weight_maps_never_hit_a_stale_cache(self, mgr):
        # restricted maps die young, so a new map can reuse a freed map's id
        x = mgr.new_var("x")
        node = mgr.mk_var(x)
        rng = random.Random(5)
        for _ in range(200):
            p = rng.random()
            w = {x: (p, 1 - p)}
            assert abs(mgr.amc(node, {x: w[x]}, REAL) - p) < 1e-12
        # one map mutated between two calls counts with its new weights
        w = {x: (0.25, 0.75)}
        assert mgr.amc(node, w, REAL) == 0.25
        w[x] = (0.625, 0.375)
        assert mgr.amc(node, w, REAL) == 0.625


# Weight pairs for the count-walk tests: unit weights, non-unit weights whose
# gap is the unit, a reward of -0 (a utility of -0.0 beside the unit
# probability), and weights with nothing special about them.
_REAL_PAIRS = ((1.0, 1.0), (0.25, 0.75), (1.0, 0.5), (0.0, 1.0), (0.5, 2.0))
_EV_PAIRS = (
    (EV(1.0, 0.0), EV(1.0, 0.0)),
    (EV(0.25, 0.0), EV(0.75, 0.0)),
    (EV(1.0, -0.0), EV(1.0, 0.0)),
    (EV(1.0, 7.5), EV(1.0, 0.0)),
    (EV(0.5, -3.0), EV(0.25, 2.0)),
    (EV(0.0, 1.0), EV(1.0, -0.0)),
)


def _random_pair(rng, semiring):
    if rng.random() < 0.3:  # no shortcut applies
        if semiring is REAL:
            return rng.uniform(0, 1.5), rng.uniform(0, 1.5)
        pair = tuple(EV(rng.uniform(0, 1.5), rng.uniform(-10, 10)) for _ in range(2))
    elif semiring is REAL:
        return rng.choice(_REAL_PAIRS)
    else:
        pair = rng.choice(_EV_PAIRS)
    return pair if semiring is EXPECTATION else tuple(EVBound.lift(w) for w in pair)


def _components(value):
    return value if isinstance(value, tuple) else (value,)


class TestCountShortcuts:
    """``count`` skips the products by one and the sums with zero that a
    textbook count does, and must still agree with it in ``float.hex``."""

    @staticmethod
    def random_problem(rng, semiring):
        mgr = BddManager()
        n = rng.randint(3, 10)
        names = [f"v{i}" for i in range(n)]
        ids = dict(zip(names, fresh_vars(mgr, n)))
        # a formula over a few of the variables leaves runs of skipped positions
        tested = rng.sample(names, k=rng.randint(1, n))
        root = build_bdd(mgr, random_formula(rng, tested, depth=4), ids)
        branch = sorted(rng.sample(list(ids.values()), k=rng.randint(0, min(4, n))))
        roll = rng.random()
        if roll < 0.3 or not branch:
            validity = TRUE
        elif roll < 0.6:
            validity = mgr.exactly_one(branch)
        else:
            validity = build_bdd(mgr, random_formula(rng, names, depth=2), ids)
        weights = {v: _random_pair(rng, semiring) for v in ids.values()}
        if semiring is EV_BOUND:
            combine = EV_BOUND.join
        else:
            combine = rng.choice((semiring.join, semiring.meet))
        return mgr, root, validity, weights, branch, combine

    @pytest.mark.parametrize("semiring", [REAL, EXPECTATION, EV_BOUND], ids=["real", "ev", "ev_bound"])
    @pytest.mark.parametrize("seed", range(40))
    def test_random_counts_match_the_textbook_bit_for_bit(self, semiring, seed):
        rng = random.Random(seed)
        mgr, root, validity, weights, branch, combine = self.random_problem(rng, semiring)
        universe = sorted(weights)
        # condition on a growing prefix of a random order, as a one-off bound
        # does, and count over the universe without the fixed variables
        order = rng.sample(universe, k=len(universe))
        values = {v: rng.random() < 0.5 for v in order}
        for depth in range(len(order) + 1):
            fixed = {v: values[v] for v in order[:depth]}
            f = mgr.condition_all(root, fixed)
            v = mgr.condition_all(validity, fixed)
            kept = [u for u in universe if u not in fixed]
            setup = CountSetup(kept, weights, semiring, frozenset(branch), combine)
            got = mgr.count(Frontier.of(f, semiring.one), v, setup, {})
            want = textbook_count(
                mgr, f, v, universe, weights, semiring, frozenset(branch), combine, set(fixed)
            )
            assert float_hex(got) == float_hex(want), depth

    @pytest.mark.parametrize("semiring", [REAL, EXPECTATION, EV_BOUND], ids=["real", "ev", "ev_bound"])
    @pytest.mark.parametrize("seed", range(40))
    def test_frontier_counts_match_the_textbook(self, semiring, seed):
        rng = random.Random(seed)
        mgr, root, validity, weights, branch, combine = self.random_problem(rng, semiring)
        if mgr.support(validity) - set(branch):
            validity = TRUE  # a frontier's validity tests branch variables only
        universe = sorted(weights)
        setup = CountSetup(universe, weights, semiring, frozenset(branch), combine)
        # fix the branch variables in variable order, as a search does: push
        # the frontier down to each, count with it open, then fix it
        values = {v: rng.random() < 0.5 for v in branch}
        memo = {}
        frontier, v, fixed = Frontier.of(root, semiring.one), validity, {}
        for var in branch + [None]:
            if var is not None:
                frontier = mgr.push(frontier, setup, setup.pos_of[var])
            got = mgr.count(frontier, v, setup, memo)
            # one memo serves every frontier: a fresh one gives the same bits
            assert float_hex(got) == float_hex(mgr.count(frontier, v, setup, {}))
            want = textbook_count(
                mgr, mgr.condition_all(root, fixed), v, universe, weights, semiring,
                frozenset(branch), combine, set(fixed),
            )
            # the frontier sums the same terms in another association
            assert all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
                       for a, b in zip(_components(got), _components(want))), fixed
            if var is not None:
                frontier = mgr.fix(frontier, setup, values[var])
                v = mgr.condition(v, var, values[var])
                fixed[var] = values[var]

    def test_skipped_gaps_mix_unit_and_non_unit_runs(self, mgr):
        xs = fresh_vars(mgr, 9)
        unit, half = (0.25, 0.75), (0.5, 0.75)
        # the gaps are 1, 1, 1.25, 1 above the tested x4 and 1.25, 1.25, 1, 1 below
        pairs = [unit, unit, half, unit, None, half, half, unit, unit]
        weights = {x: pair or (0.375, 0.5) for x, pair in zip(xs, pairs)}
        setup = CountSetup(xs, weights, REAL)
        for root in (mgr.mk_var(xs[4]), TRUE, mgr.negate(mgr.mk_var(xs[4]))):
            got = mgr.count(Frontier.of(root, 1.0), TRUE, setup, {})
            assert got.hex() == textbook_count(mgr, root, TRUE, xs, weights, REAL).hex()
        assert mgr.count(Frontier.of(mgr.mk_var(xs[4]), 1.0), TRUE, setup, {}) == 1.25 ** 3 * 0.375
        assert setup.nonunit == [2, 2, 2, 4, 4, 5, 6, 9, 9, 9]

    def test_push_multiplies_the_skipped_gaps_into_the_weights(self, mgr):
        xs = fresh_vars(mgr, 4)
        weights = {xs[0]: (0.25, 0.75), xs[1]: (0.5, 0.75), xs[2]: (0.5, 0.5), xs[3]: (0.5, 0.5)}
        setup = CountSetup(xs, weights, REAL, frozenset([xs[3]]), REAL.join)
        x0, x2, x3 = (mgr.mk_var(x) for x in (xs[0], xs[2], xs[3]))
        root = mgr.apply("or", mgr.apply("and", x0, x3), mgr.apply("and", mgr.negate(x0), x2))
        pushed = mgr.push(Frontier.of(root, 1.0), setup, 3)
        # x0 = 1 reaches x3 over the gaps 1.25 and 1; x0 = 0 reaches x2's
        # node, whose high edge reaches TRUE over x3
        assert pushed.start == 3
        assert dict(pushed.pairs) == {x3: 0.25 * 1.25, TRUE: 0.75 * 1.25 * 0.5}
        # a frontier below ``stop`` whose skipped gaps are the unit is kept
        assert mgr.push(Frontier(2, ((x3, 0.5),)), setup, 3).pairs == ((x3, 0.5),)
        # x3 is open: its node joins 0.5 with 0, and TRUE has x3's gap 0.5
        assert mgr.count(pushed, TRUE, setup, {}) == 0.25 * 1.25 * 0.5 + 0.75 * 1.25 * 0.5 * 0.5
        fixed = mgr.fix(pushed, setup, False)
        # x3's node drops out on x3 = 0; TRUE keeps its weight
        assert fixed == Frontier(4, ((TRUE, 0.75 * 1.25 * 0.5),))

    def test_dead_formula_child_enters_the_join_as_zero(self, mgr):
        b, c = fresh_vars(mgr, 2)
        weights = {b: (EV(1.0, 0.0), EV(1.0, 0.0)), c: (EV(0.5, -3.0), EV(0.5, -1.0))}
        f = mgr.apply("and", mgr.mk_var(b), mgr.mk_var(c))
        setup = CountSetup([b, c], weights, EXPECTATION, frozenset([b]), EXPECTATION.join)
        # b = 0 is valid but f is FALSE there: the join sees zero beside c's count
        got = mgr.count(Frontier.of(f, EXPECTATION.one), TRUE, setup, {})
        assert got == EV(0.5, 0.0)
        assert float_hex(got) == float_hex(
            textbook_count(mgr, f, TRUE, [b, c], weights, EXPECTATION, {b}, EXPECTATION.join)
        )
        # with b = 0 ruled out by the validity, the dead literal is left out
        assert mgr.count(Frontier.of(f, EXPECTATION.one), mgr.mk_var(b), setup, {}) == EV(0.5, -3.0)

    def test_reward_of_minus_zero_keeps_the_sign(self, mgr):
        # a unit weight is skipped instead of multiplied in; a product with
        # it would turn a -0.0 into 0.0, but no count value carries a -0.0
        r, x = fresh_vars(mgr, 2)
        weights = {r: (EV(1.0, -0.0), EV(1.0, 0.0)), x: (EV(0.5, -0.0), EV(0.5, 0.0))}
        universe = [r, x]
        for f in (mgr.mk_var(r), mgr.apply("and", mgr.mk_var(r), mgr.mk_var(x)), TRUE):
            got = mgr.count(Frontier.of(f, EXPECTATION.one), TRUE,
                            CountSetup(universe, weights, EXPECTATION), {})
            want = textbook_count(mgr, f, TRUE, universe, weights, EXPECTATION)
            assert float_hex(got) == float_hex(want)
            assert math.copysign(1.0, got.util) == 1.0


class TestRenaming:
    """``is_renaming`` checks one diagram against another's relabelling."""

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_building_the_renamed_formula(self, mgr, seed):
        rng = random.Random(seed)
        names = ["a", "b", "c", "d"]
        old = dict(zip(names, fresh_vars(mgr, 4, "u")))
        new = dict(zip(names, fresh_vars(mgr, 4, "w")))
        rename = {old[n]: new[n] for n in names}
        formula = random_formula(rng, names)
        a = build_bdd(mgr, formula, old)
        b = build_bdd(mgr, formula, new)
        assert mgr.is_renaming(a, b, rename)
        # the renaming keeps the order, so the renamed diagram is canonical
        for _ in range(10):
            other = build_bdd(mgr, random_formula(rng, names), new)
            assert mgr.is_renaming(a, other, rename) == (other == b)

    def test_a_variable_left_out_of_the_renaming_fails(self, mgr):
        x, y = fresh_vars(mgr, 2)
        assert mgr.is_renaming(TRUE, TRUE, {})
        assert not mgr.is_renaming(mgr.mk_var(x), mgr.mk_var(y), {})
        assert mgr.is_renaming(mgr.mk_var(x), mgr.mk_var(y), {x: y})

    def test_sweep_is_support_and_size(self, mgr):
        x, y, z = fresh_vars(mgr, 3)
        node = mgr.apply("or", mgr.apply("and", mgr.mk_var(x), mgr.mk_var(y)), mgr.mk_var(z))
        assert mgr.sweep(node) == ({x, y, z}, len(mgr.reachable_nodes([node])))
        assert mgr.sweep(TRUE) == (set(), 0)


class TestEnumerationAndDot:
    def test_enumerate_true_over_one_var(self, mgr):
        x = mgr.new_var("x")
        models = list(enumerate_models(mgr, TRUE, [x]))
        assert models == [{x: False}, {x: True}]

    def test_enumerate_umbrella_models(self, mgr):
        ids = [mgr.new_var(n) for n in ["r", "R10", "R-5", "R-100"]]
        r, r10, r5, r100 = ids
        lit = partial(mk_lit, mgr)
        phi_u = mgr.apply(
            "or",
            mgr.conjoin([lit(r, True), lit(r10, True), lit(r5, False), lit(r100, False)]),
            mgr.conjoin([lit(r, False), lit(r10, False), lit(r5, True), lit(r100, False)]),
        )
        assert model_count(mgr, phi_u, ids) == 2

    def test_dot_output_shape(self, mgr):
        x, y = mgr.new_var("x"), mgr.new_var("y")
        node = mgr.apply("or", mgr.mk_var(x), mgr.mk_var(y))
        text = mgr.to_dot([node])
        assert text.startswith("digraph bdd {") and text.endswith("}")
        assert "style=solid" in text and "style=dashed" in text
        assert 'shape=box' in text
        assert text.count("->") >= 3
