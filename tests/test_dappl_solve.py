"""Compilation and end-to-end solving of decision programs."""

import json
import os
import random
from functools import partial

import pytest

from optppl import EV, EXPECTATION, MeuObjective, bb, evaluate_objective
from optppl.bdd import TRUE, BddManager
from optppl.dappl import (
    DapplCompileError, compile_program, prepare, reduce, solve_compiled, solve_meu,
)
from optppl.dappl import ast as A
from optppl.dappl import compile as compile_mod
from optppl.dappl.ast import number_sites
from optppl.dappl.compile import Compiler, _Planner, plan_variables
from optppl.frontend import Lit, Var
from optppl.gen import gen_bn, gen_dr, gen_gridworld, gen_ladder
from optppl.oracle import OracleError, dappl_meu_enum, policy_space, util_eu

from corpus import random_dappl_program, random_sugared_dappl_program
from helpers import enumerate_models, mk_lit

EARTHQUAKE = os.path.join(os.path.dirname(os.path.dirname(__file__)), "data", "earthquake.json")
UMBRELLA = """
rainy <- flip 0.1;
choose [Umb, No_umb]
| Umb -> if rainy then reward 10 else reward -5
| No_umb -> if rainy then reward -100 else ()
"""
UMBRELLA_OBS = UMBRELLA.replace("rainy <- flip 0.1;", "rainy <- flip 0.1;\nobserve rainy;")


class TestWorkedExample:
    def test_meu_without_observation(self):
        out = solve_meu(UMBRELLA)
        assert abs(out["meu"] - (-3.5)) < 1e-9
        assert out["policy"] == {"c0": "Umb"}
        assert abs(out["value"]["prob"] - 1.0) < 1e-9

    def test_meu_with_observation(self):
        out = solve_meu(UMBRELLA_OBS)
        assert abs(out["meu"] - 10.0) < 1e-9
        assert out["policy"] == {"c0": "Umb"}

    def test_pruning_occurs(self):
        assert solve_meu(UMBRELLA)["stats"]["prunes"] > 0

    def test_result_is_plain_json(self):
        out = solve_meu(UMBRELLA)
        assert json.loads(json.dumps(out)) == out


class TestCompilation:
    def test_flip_compiles_to_fresh_weighted_variable(self):
        _, _, compiled = prepare("flip 0.5")
        mgr = compiled.mgr
        assert compiled.gamma == mgr.mk_true()
        assert compiled.pending == ()
        support = mgr.support(compiled.phi)
        assert len(support) == 1
        (v,) = support
        assert compiled.weights[v] == (EV(0.5, 0.0), EV(0.5, 0.0))

    def test_syntactically_equal_flips_stay_distinct(self):
        _, _, compiled = prepare("x <- flip 0.5; y <- flip 0.5; return (x && y)")
        assert len(compiled.mgr.support(compiled.phi)) == 2

    def test_repeated_reward_constants_stay_distinct(self):
        _, _, compiled = prepare("reward 3 (reward 3 (return tt))")
        problem = compiled.finalize()
        assert len(compiled.mgr.support(problem.formulas[0])) == 2

    def test_compile_size_is_linear_on_dr(self):
        # folding the rewards in one literal at a time rebuilt the diagram per
        # literal: n=80 allocated 3.99 times the nodes of n=40
        small, large = (prepare(gen_dr(n, seed=0))[2].mgr.num_nodes for n in (40, 80))
        assert large < 2.5 * small

    def test_conditioned_formula_matches_hand_encoding(self):
        # conditioning the compiled formula on each decision literal must
        # count the same as the hand-built per-policy encodings
        core, sites, compiled = prepare(UMBRELLA)
        problem = compiled.finalize()
        mgr = compiled.mgr
        site = compiled.sites[0]
        u_var, n_var = site.vars
        phi = problem.formulas[0]
        hand = BddManager()
        ids = [hand.new_var(x) for x in ["r", "R10", "R-5", "R-100"]]
        r, r10, r5, r100 = ids
        wm = {
            r: (EV(0.1, 0), EV(0.9, 0)),
            r10: (EV(1, 10), EV(1, 0)),
            r5: (EV(1, -5), EV(1, 0)),
            r100: (EV(1, -100), EV(1, 0)),
        }
        lit = partial(mk_lit, hand)
        phi_u = hand.apply(
            "or",
            hand.conjoin([lit(r, True), lit(r10, True), lit(r5, False), lit(r100, False)]),
            hand.conjoin([lit(r, False), lit(r10, False), lit(r5, True), lit(r100, False)]),
        )
        phi_n = hand.apply(
            "or",
            hand.conjoin([lit(r, True), lit(r10, False), lit(r5, False), lit(r100, True)]),
            hand.conjoin([lit(r, False), lit(r10, False), lit(r5, False), lit(r100, False)]),
        )
        for policy, reference in (((True, False), phi_u), ((False, True), phi_n)):
            conditioned = mgr.condition_all(phi, {u_var: policy[0], n_var: policy[1]})
            got = mgr.amc(
                conditioned,
                {v: problem.weights[v] for v in mgr.support(conditioned)},
                EXPECTATION,
            )
            want = hand.amc(reference, wm, EXPECTATION)
            assert EXPECTATION.isclose(got, want, 1e-9)

    def test_choice_variable_count_matches_alternatives(self):
        src = """
        c1 <- [A, B, C];
        r <- (choose c1 | A -> reward 1 | B -> reward 2 | C -> reward 3);
        choose [X, Y] | X -> reward 1 | Y -> ()
        """
        _, sites, compiled = prepare(src)
        problem = compiled.finalize()
        total_alternatives = sum(len(names) for _, names in sites)
        assert len(problem.branch_vars) == total_alternatives
        # every policy image satisfies the exactly-one constraints
        mgr = compiled.mgr
        for site in compiled.sites:
            for chosen in range(len(site.vars)):
                assignment = {
                    v: (i == chosen) for i, v in enumerate(site.vars)
                }
                assert mgr.condition_all(site.eo, assignment) == mgr.mk_true()

    def test_reward_exclusivity_on_models(self):
        src = """
        x <- flip 0.5;
        c <- [A, B];
        choose c
        | A -> if x then reward 3 else reward 7
        | B -> reward 9
        """
        core, sites, compiled = prepare(src)
        problem = compiled.finalize()
        mgr = compiled.mgr
        phi = problem.formulas[0]
        reward_vars = {
            v for v in mgr.support(phi)
            if mgr.var_label(v).startswith("r_")
        }
        label = mgr.var_label
        for model in enumerate_models(mgr, phi, mgr.support(phi)):
            awarded = sorted(label(v) for v in reward_vars if model[v])
            chosen_a = model[compiled.sites[0].vars[0]]
            x_true = [model[v] for v in model if label(v).startswith("f_")][0]
            if chosen_a and x_true:
                assert awarded == ["r_3#1"]
            elif chosen_a:
                assert awarded == ["r_7#2"]
            else:
                assert awarded == ["r_9#3"]


class TestPipeline:
    def test_loop_soundness(self):
        rng = random.Random(11)
        for n in range(1, 6):
            k = round(rng.uniform(-20, 20), 3)
            out = solve_meu(f"loop {n} {{ reward {k} }}")
            assert abs(out["meu"] - n * k) < 1e-9

    def test_observe_contradiction_warns(self):
        out = solve_meu("x <- flip 0.5; observe (x && !x); reward 1")
        assert out["meu"] == float("-inf")
        assert "warning" in out

    def test_unused_choice_defaults_to_first_alternative(self):
        out = solve_meu("c <- [A, B]; reward 2")
        assert abs(out["meu"] - 2.0) < 1e-9
        assert out["policy"] == {"c0": "A"}

    def test_reward_bound_but_unused_still_counts(self):
        src = "x <- flip 0.25; _r <- (if x then reward 8 else ()); return tt"
        out = solve_meu(src)
        assert abs(out["meu"] - 2.0) < 1e-9

    def test_return_false_has_zero_utility_weight(self):
        # utility mass attaches only to true-returning traces
        core, _, compiled = prepare(
            "x <- flip 0.5; if x then (reward 6 (return ff)) else reward 2"
        )
        out = solve_compiled(compiled)
        # interpreter agreement is what matters
        assert abs(out["meu"] - util_eu(core)) < 1e-9

    def test_observe_on_reward_carrying_value(self):
        # the observed guard tests a binding whose value formula mentions a
        # reward variable; the acceptance mass must not be distorted by it
        src = """
        x <- flip 0.25;
        b <- (if x then reward 7 else (return ff));
        observe b;
        reward 1
        """
        core, _, compiled = prepare(src)
        out = solve_compiled(compiled)
        reference = util_eu(core)
        assert abs(reference - 8.0) < 1e-9  # conditioned on x, rewards 7 + 1
        assert abs(out["meu"] - reference) < 1e-9
        assert abs(out["value"]["prob"] - 1.0) < 1e-9

    def test_choice_value_observed(self):
        # observing the value returned by a decision: only tt-returning arms
        # survive, so the optimum come from the surviving arm
        src = """
        c <- [Go, Stay];
        b <- (choose c | Go -> reward 5 | Stay -> (reward 9 (return ff)));
        observe b;
        ()
        """
        core, sites, compiled = prepare(src)
        out = solve_compiled(compiled)
        eu, policy = dappl_meu_enum(core, sites)
        assert abs(out["meu"] - eu) < 1e-9
        assert abs(out["meu"] - 5.0) < 1e-9
        assert out["policy"] == {"c0": "Go"}

    def test_loop_with_decision_inside(self):
        # each unrolled copy is an independent decision site
        out = solve_meu("loop 2 { choose [A, B] | A -> reward 1 | B -> reward 3 }")
        assert abs(out["meu"] - 6.0) < 1e-9
        assert out["policy"] == {"c0": "B", "c1": "B"}


class TestScopes:
    """One scope types and desugars a program, so every binding shadows."""

    def test_a_choice_shadows_a_categorical_of_the_same_patterns(self):
        src = "x <- disc[a: 0.5, b: 0.5]; x <- [a, b]; choose x | a -> reward 1 | b -> reward 10"
        core, sites, compiled = prepare(src)
        out = solve_compiled(compiled)
        assert out["meu"] == 10.0 and out["policy"] == {"c0": "b"}
        assert dappl_meu_enum(core, sites) == (10.0, {0: "b"})

    def test_a_binding_inside_a_value_goes_out_of_scope_with_it(self):
        # the inner decision is never read; the choose reads the categorical
        src = (
            "x <- disc[a: 0.5, b: 0.5]; y <- (x <- [a, b]; return tt); "
            "choose x | a -> reward 1 | b -> reward 10"
        )
        assert solve_meu(src)["meu"] == 5.5

    def test_a_pure_binding_reads_the_names_as_they_were_when_bound(self):
        # the scope is changed in place, so y must not see the later x
        src = "x <- flip 0.5; y <- return x; x <- flip 0.9; if y then reward 10 else ()"
        assert solve_meu(src)["meu"] == 5.0

    @pytest.mark.parametrize(
        "name, src, want",
        [
            # a compound guard's name
            ("_g1", "_g1 <- flip 0.5; x <- flip 0.5; "
             "if (x || !x) then (if _g1 then reward 10 else ()) else ()", 5.0),
            # a categorical's chain flip
            ("_cat1", "_cat1 <- flip 0.5; d <- disc[a: 0.5, b: 0.5]; "
             "choose d | a -> (if _cat1 then reward 10 else ()) | b -> ()", 2.5),
            # a loop copy's binding
            ("_loop1", "_loop1 <- flip 0.5; loop 2 { if _loop1 then reward 10 else () }", 10.0),
        ],
        ids=["guard", "categorical", "loop"],
    )
    def test_invented_names_never_capture_a_programs_own(self, name, src, want):
        # the oracle reads the same desugared core, so the judge is the same
        # program with the user's name spelled otherwise
        assert solve_meu(src.replace(name, "user"))["meu"] == want
        assert solve_meu(src)["meu"] == want

    def test_a_solve_walks_the_source_once_before_the_planner(self, monkeypatch):
        import importlib

        import optppl.dappl as dappl

        # the package's ``desugar`` is the function, so fetch the module
        desugar_mod = importlib.import_module("optppl.dappl.desugar")

        def refuse(*args):
            raise AssertionError("a second walk before the planner")

        for owner, name in ((dappl, "check_program"), (desugar_mod, "check_program"),
                            (dappl, "number_sites"), (A, "number_sites")):
            monkeypatch.setattr(owner, name, refuse)
        walks = []

        def desugar_once(tree):
            walks.append(tree)
            return desugar_mod.desugar(tree)

        monkeypatch.setattr(dappl, "desugar", desugar_once)
        src = (
            "l <- (loop 2 { choose [A, B] | A -> reward 1 | B -> reward 3 }); "
            "if [C] then reward 1 else ()"
        )
        core, sites, compiled = dappl.prepare(src)
        assert len(walks) == 1
        assert sites == [(0, ("A", "B")), (1, ("A", "B")), (2, ("C", "C_not"))]
        assert [site.site for site in compiled.sites] == [0, 1, 2]
        monkeypatch.undo()
        assert number_sites(core) == sites

    @pytest.mark.parametrize("seed", range(200))
    def test_sugar_means_what_it_writes_out_to(self, seed):
        sugared, by_hand = random_sugared_dappl_program(seed)
        core, sites, compiled = prepare(by_hand)
        want = solve_compiled(compiled)["meu"]
        eu, _ = dappl_meu_enum(core, sites)
        for got in (solve_meu(sugared)["meu"], eu):
            if want == float("-inf"):
                assert got == want
            else:
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("seed", range(40))
def test_random_programs_match_enumeration(seed):
    src = random_dappl_program(seed * 7 + 1)
    core, sites, compiled = prepare(src)
    out = solve_compiled(compiled)
    eu, _ = dappl_meu_enum(core, sites)
    if eu == float("-inf"):
        assert out["meu"] == float("-inf")
    else:
        assert abs(out["meu"] - eu) < 1e-6


@pytest.mark.parametrize("seed", range(15))
def test_per_policy_amc_ratio_matches_interpreter(seed):
    src = random_dappl_program(seed * 13 + 3)
    core, sites, compiled = prepare(src)
    problem = compiled.finalize()
    objective = MeuObjective(problem)
    site_map = {s.site: s for s in compiled.sites}
    for policy in policy_space(sites):
        total = {}
        for sid, name in policy.items():
            site = site_map[sid]
            for nm, var in zip(site.names, site.vars):
                if var in problem.branch_set:
                    total[var] = nm == name
        if problem.branch_set - set(total):
            continue
        value = evaluate_objective(objective, problem, total)
        reference = util_eu(reduce(core, policy))
        if reference == float("-inf"):
            assert value.util == float("-inf")
        else:
            assert abs(value.util - reference) < 1e-6


def _core(src):
    core, _, _ = prepare(src)
    return core


class _ChooseChecker(Compiler):
    """Checks that every choose compiles to handles that imply its site's eo."""

    checked = 0

    def compile(self, e, env):
        start = len(self.rewards)
        out = super().compile(e, env)
        if isinstance(e, A.Choose):
            phi, gamma, trace, _ = out
            rewards = len(self.rewards) > start
            eo = env[e.scrutinee.name].eo
            # with no reward in any arm the trace is TRUE by design
            for handle in (phi, gamma, trace) if rewards else (phi, gamma):
                assert self.mgr.apply("and", handle, eo) == handle
            self.checked += 1
        return out


@pytest.mark.parametrize(
    "sources",
    [[random_dappl_program(seed) for seed in range(300)],
     [UMBRELLA, UMBRELLA_OBS, gen_ladder(3, 2, seed=0), gen_ladder(2, 2, seed=5),
      gen_dr(6, seed=0), gen_gridworld(3, 4, 0.1, seed=0)]],
    ids=["corpus", "families"],
)
def test_every_choose_implies_its_exactly_one_constraint(sources):
    # each arm is built on its site's one-hot cube, and no conjunction with
    # eo follows, so the cube alone must keep the compiled handles inside eo
    checked = 0
    for src in sources:
        core = _core(src)
        compiler = _ChooseChecker(plan_variables(core))
        compiler.compile(core, {})
        checked += compiler.checked
    assert checked >= len(sources) // 2


def _registration_order_meu(core):
    # pre-registering every label in creation order reproduces registration order
    mgr = BddManager()
    for label in plan_variables(core).labels:
        mgr.ensure_var(label)
    return solve_compiled(compile_program(core, mgr))["meu"]


class TestVariableOrder:
    """The planned order moves only variables inside outermost choose arms."""

    @pytest.mark.parametrize(
        "src",
        [gen_dr(n, seed) for n in range(3, 7) for seed in range(4)]
        + [gen_gridworld(dim, 2 * (dim - 1), 0.1, seed=dim) for dim in (2, 3, 4)]
        + [gen_bn(EARTHQUAKE, strategy, seed) for strategy in ("existing", "new_nodes")
           for seed in range(3)],
    )
    def test_families_without_arm_references_keep_registration_order(self, src):
        plan = plan_variables(_core(src))
        assert plan.order == list(range(len(plan.labels)))

    def test_ladder_interleaves_each_pick_with_its_router_and_reward(self):
        # arm i tests router w_i and rewards under `if !w_i`
        plan = plan_variables(_core(gen_ladder(3, 1, seed=0)))
        rewards = [label for label in plan.labels if label.startswith("r_")]
        assert [plan.labels[i] for i in plan.order] == [
            label
            for i, reward in enumerate(rewards)
            for label in (f"c0.pick0_{i}", f"f_0.738895#{i + 1}", reward)
        ]

    def test_nested_sites_keep_registration_order(self):
        # with k=2, each arm of site c0 holds one reward under its `if`
        # (created just before the arm's inner site) and an inner site whose
        # arms hold more rewards; only c0 and those outer rewards move
        plan = plan_variables(_core(gen_ladder(2, 2, seed=5)))
        labels = plan.labels
        outer = {i for i in range(len(labels) - 1)
                 if labels[i].startswith("r_") and labels[i + 1].startswith("c")}
        assert len(outer) == 4
        position = {v: p for p, v in enumerate(plan.order)}
        kept = [i for i in range(len(labels))
                if i not in outer and not labels[i].startswith("c0.")]
        assert sorted(kept, key=position.__getitem__) == kept
        # every outer arm tests all routers through its inner site, so its
        # choice variable goes above the first of them
        assert [labels[i] for i in plan.order[:5]] == [
            "c0.pick0_0", "c0.pick0_1", "c0.pick0_2", "c0.pick0_3", "f_0.794275#1"
        ]

    def test_ladder_diagram_stays_small(self):
        # registration order allocates about 695k nodes already at n=7
        _, _, compiled = prepare(gen_ladder(10, 1, seed=0))
        assert compiled.mgr.num_nodes < 20_000

    def test_planned_and_registration_orders_agree_on_random_programs(self):
        moved = 0
        for seed in range(400):
            core = _core(random_dappl_program(seed))
            plan = plan_variables(core)
            moved += plan.order != list(range(len(plan.labels)))
            planned = solve_compiled(compile_program(core))["meu"]
            assert planned == pytest.approx(_registration_order_meu(core), rel=1e-9, abs=1e-12)
        assert moved > 40  # the rule does reorder a good share of them

    @pytest.mark.parametrize(
        "scrutinee, arm, message",
        [
            ("c", "Z", "'Z' is not an alternative"),
            ("nowhere", "Y", "'nowhere' is not a bound choice"),
            ("b", "Y", "'b' is not a bound choice"),
        ],
    )
    def test_malformed_core_fails_in_the_compiler(self, scrutinee, arm, message):
        # b <- flip 0.5; c <- [X, Y]; choose <scrutinee> | X -> reward 1 | <arm> -> return b
        # the arms test b, so the planner would move their choice variables
        tt = A.Return(pure=Lit(value=True))
        arms = (("X", A.Reward(amount=1.0, body=tt)), (arm, A.Return(pure=Var(name="b"))))
        choose = A.Choose(scrutinee=A.ScrutVar(name=scrutinee), arms=arms)
        core = A.Bind(name="b", value=A.Flip(theta=0.5), body=A.Bind(
            name="c", value=A.ChoiceIntro(names=("X", "Y"), site=0), body=choose))
        with pytest.raises(DapplCompileError, match=message):
            compile_program(core)


def _walk_bookkeeping(src):
    """Entries the planner and the compiler keep in scopes and sets on ``src``.

    A scope dict handed to a walk counts its entries when first seen; a set
    handed to or returned by a walk counts its size at the end.
    """
    held = {}  # id -> object, kept so that no id is reused

    def note(value):
        if isinstance(value, tuple):
            for item in value:
                note(item)
        elif isinstance(value, (dict, set, frozenset)) and id(value) not in held:
            held[id(value)] = (value, len(value) if isinstance(value, dict) else None)

    def spy(walk):
        def wrapped(self, *args):
            for arg in args:
                note(arg)
            out = walk(self, *args)
            note(out)
            return out

        return wrapped

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_Planner, "walk", spy(_Planner.walk))
        m.setattr(Compiler, "compile", spy(Compiler.compile))
        prepare(src)
    return sum(len(v) if first is None else first for v, first in held.values())


class TestBuildOnce:
    """Compile and finalize build each diagram once, in linear size."""

    def test_walk_bookkeeping_is_linear_on_dr(self):
        # each binding copied the scope and each subterm returned the union
        # of its parts' sets: n=320 kept 1,601,766 entries, 4.2 times n=160
        assert _walk_bookkeeping(gen_dr(320, seed=0)) < 2.2 * _walk_bookkeeping(gen_dr(160, seed=0))

    @pytest.mark.parametrize("shape", ["run", "nested binds"])
    def test_pending_rewards_are_linear(self, shape, monkeypatch):
        # each reward and each bind copied the pending tuple: 2,000 rewards
        # kept 2,001,000 entries in a run and 2,005,001 under nested binds
        n = 2000
        if shape == "run":
            src = "x <- flip 0.5; " + "reward 1 " * n + "()"
        else:
            src = "reward 1 ()"
            for i in range(n):
                src = f"x{i} <- ({src}); reward 1 ()"
        held = {}  # id -> pending collection, kept so that no id is reused
        compile_ = Compiler.compile

        def spy(self, e, env):
            out = compile_(self, e, env)
            held[id(out[3])] = out[3]
            return out

        monkeypatch.setattr(Compiler, "compile", spy)
        compiled = prepare(src)[2]
        # no `if` discharges a reward, so every one is pending at the end
        assert len(compiled.pending) == src.count("reward")
        assert sum(len(pending) for pending in held.values()) <= 2 * len(compiled.pending) + 1

    def test_finalize_allocation_is_linear_on_dr(self):
        # folding each site's eo below the validity built so far rebuilt it
        # per site: n=160 allocated 4.03 times the nodes of n=80
        def allocated(n):
            compiled = prepare(gen_dr(n, seed=0))[2]
            before = compiled.mgr.num_nodes
            compiled.finalize()
            return compiled.mgr.num_nodes - before

        assert allocated(160) < 2.5 * allocated(80)

    def test_pinned_reward_chains_are_linear_on_dr(self, monkeypatch):
        # each `if` rebuilt the cube of every reward of its tail: n=320 made
        # 4.03 times the `_mk` calls of n=160 inside `cube`
        calls, inside = [0], [False]
        mk, cube = BddManager._mk, BddManager.cube

        def counted_mk(mgr, *args):
            calls[0] += inside[0]
            return mk(mgr, *args)

        def counted_cube(mgr, literals):
            inside[0] = True
            try:
                return cube(mgr, literals)
            finally:
                inside[0] = False

        monkeypatch.setattr(BddManager, "_mk", counted_mk)
        monkeypatch.setattr(BddManager, "cube", counted_cube)

        def cube_mks(n):
            calls[0] = 0
            prepare(gen_dr(n, seed=0))
            return calls[0]

        assert cube_mks(320) < 2.6 * cube_mks(160)

    def test_gridworld_compiles_only_the_cells_it_reads(self):
        # every grid cell of every step is a pure binding; compiled eagerly
        # they took 31,760 nodes
        _, _, compiled = prepare(gen_gridworld(4, 6, 0.1, seed=0))
        assert compiled.mgr.num_nodes < 10_000
        out = solve_compiled(compiled)
        assert out["meu"] == pytest.approx(67.62781851851692, rel=1e-12)
        assert out["policy"] == {
            "c0": "Right0", "c1": "Right1", "c2": "Right2",
            "c3": "Down3", "c4": "Down4", "c5": "Down5",
        }

    def test_unread_pure_binding_allocates_nothing(self):
        src = """
        x <- flip 0.3;
        y <- flip 0.6;
        {dead}
        if x then reward 1 else ()
        """
        with_dead = prepare(src.format(dead="dead <- return (x && !y);"))[2]
        without = prepare(src.format(dead=""))[2]
        assert with_dead.mgr.num_nodes == without.mgr.num_nodes

    def test_binding_read_twice_compiles_once_to_the_eager_handle(self, monkeypatch):
        # b is first read in one arm's guard, then in the other arm's observe
        src = """
        x <- flip 0.3;
        y <- flip 0.6;
        b <- return (x && !y);
        c <- [L, R];
        choose c
        | L -> (if b then reward 1 else ())
        | R -> (observe (b || y); reward 2)
        """
        core = _core(src)
        bind = core.body.body
        assert bind.name == "b"
        term = bind.value.pure
        compiled_terms = []
        inner = compile_mod.compile_term

        def spy(mgr, t, read):
            handle = inner(mgr, t, read)
            if t is term:
                compiled_terms.append(handle)
            return handle

        monkeypatch.setattr(compile_mod, "compile_term", spy)
        compiled = compile_program(core)
        mgr = compiled.mgr
        x, y = (mgr.mk_var(mgr.ensure_var(label)) for label in ("f_0.3#1", "f_0.6#2"))
        assert compiled_terms == [mgr.apply("and", x, mgr.negate(y))]
        eu, policy = dappl_meu_enum(core, number_sites(core))
        out = solve_compiled(compiled)
        assert out["meu"] == pytest.approx(eu, rel=1e-12)
        assert out["policy"] == {f"c{site}": name for site, name in policy.items()}

    def test_choose_that_observes_nothing_accepts_on_its_eo(self):
        _, _, quiet = prepare(UMBRELLA)
        assert quiet.gamma == quiet.sites[0].eo
        src = "x <- flip 0.5; choose [A, B] | A -> (observe x; reward 1) | B -> ()"
        _, _, observing = prepare(src)
        assert observing.gamma not in (TRUE, observing.sites[0].eo)

    def test_random_programs_match_the_oracle_meu_and_policy(self):
        unique = 0
        for seed in range(300):
            core, sites, compiled = prepare(random_dappl_program(seed))
            out = solve_compiled(compiled)
            try:
                eu, best = dappl_meu_enum(core, sites)
            except OracleError:
                continue
            policy = {int(site[1:]): name for site, name in out["policy"].items()}
            if eu == float("-inf"):
                assert out["meu"] == eu
                continue
            assert out["meu"] == pytest.approx(eu, rel=1e-9, abs=1e-12)
            values = [util_eu(reduce(core, p)) for p in policy_space(sites)]
            ties = sum(v == pytest.approx(eu, rel=1e-9, abs=1e-12) for v in values)
            # among tied policies the search breaks ties its own way
            assert util_eu(reduce(core, policy)) == pytest.approx(eu, rel=1e-9, abs=1e-12)
            if ties == 1:
                unique += 1
                assert policy == best
        assert unique > 200
