"""Front end of the decision language: parsing, typing, sugar, reduction."""

import pytest

from optppl.dappl import (
    DapplDesugarError,
    DapplSyntaxError,
    DapplTypeError,
    check,
    check_program,
    desugar,
    parse,
    reduce,
)
from optppl.dappl import ast as A
from optppl.dappl.ast import number_sites
from optppl.dappl.types import BOOL, DIST, TCat, TChoice
from optppl.frontend import Lit, Var
from optppl.oracle import util_eu, util_eval

UMBRELLA = """
rainy <- flip 0.1;
choose [Umb, No_umb]
| Umb -> if rainy then reward 10 else reward -5
| No_umb -> if rainy then reward -100 else ()
"""


class TestParser:
    def test_umbrella_shape(self):
        tree = parse(UMBRELLA)
        assert isinstance(tree, A.Bind)
        assert isinstance(tree.value, A.Flip) and tree.value.theta == 0.1
        choose = tree.body
        assert isinstance(choose, A.Choose)
        assert isinstance(choose.scrutinee, A.ChoiceIntro)
        assert choose.scrutinee.names == ("Umb", "No_umb")
        assert len(choose.arms) == 2
        rewards = []

        def collect(e):
            if isinstance(e, A.Reward):
                rewards.append(e.amount)
            for child in A._children(e):
                collect(child)

        collect(tree)
        assert sorted(rewards) == [-100, -5, 10]

    def test_comments_stripped(self):
        tree = parse("// a comment\nreturn tt // trailing\n")
        assert isinstance(tree, A.Return)

    def test_trailing_reward_sugar(self):
        tree = parse("reward 5")
        assert isinstance(tree, A.Reward) and tree.body is None

    def test_flip_bias_out_of_range(self):
        with pytest.raises(DapplSyntaxError):
            parse("flip 1.5")

    def test_negative_flip_bias_names_the_bias(self):
        with pytest.raises(DapplSyntaxError, match=r"flip bias -0\.2 outside \[0, 1\]"):
            parse("flip -0.2")

    def test_error_carries_location(self):
        with pytest.raises(DapplSyntaxError) as err:
            parse("x <- flip 0.5;\nchoose x |")
        assert "line 2" in str(err.value)

    def test_observe_statement(self):
        tree = parse("x <- flip 0.5; observe x; reward 1")
        assert isinstance(tree.body, A.Observe)

    def test_duplicate_alternatives_rejected(self):
        with pytest.raises(DapplSyntaxError):
            parse("choose [A, A] | A -> reward 1")

    def test_unit_expression(self):
        assert isinstance(parse("()"), A.Unit)

    def test_loop_and_disc(self):
        tree = parse("loop 3 { reward 2 }")
        assert isinstance(tree, A.Loop) and tree.count == 3
        tree = parse("x <- disc[a: 0.5, b: 0.3, c: 0.2]; return tt")
        assert isinstance(tree.value, A.Disc)


class TestTypes:
    def test_umbrella_is_distribution_typed(self):
        assert check(parse(UMBRELLA), {}) == DIST

    def test_tt_is_bool(self):
        assert check(A.Return(pure=Lit(value=True)), {}) == DIST
        from optppl.dappl.types import check_pure

        assert check_pure(Lit(value=True), {}) == BOOL

    def test_choice_intro_type(self):
        assert check(parse("[A, B]"), {}) == TChoice(["A", "B"])

    def test_choose_on_flip_bound_variable_rejected(self):
        with pytest.raises(DapplTypeError):
            check_program(parse("x <- flip 0.5; choose x | A -> reward 1"))

    def test_unbound_variable(self):
        with pytest.raises(DapplTypeError):
            check_program(parse("return x"))

    def test_branch_type_mismatch(self):
        with pytest.raises(DapplTypeError):
            check_program(parse("c <- [A]; if tt then (return tt) else c"))

    def test_pattern_set_must_match(self):
        with pytest.raises(DapplTypeError):
            check_program(parse("c <- [A, B]; choose c | A -> reward 1"))

    def test_observe_guard_must_be_bool(self):
        with pytest.raises(DapplTypeError):
            check_program(parse("c <- [A, B]; observe c; reward 1"))

    @pytest.mark.parametrize("value", ["(if x then [A, B] else [A, B])", "reward 3 [A, B]"])
    def test_a_choice_is_bound_only_as_its_intro(self, value):
        # a computed choice has no site for the choose to read
        src = f"x <- flip 0.5; y <- {value}; choose y | A -> reward 1 | B -> reward 2"
        with pytest.raises(DapplTypeError, match=r"bind the \[\.\.\.\] or disc\[\.\.\.\] itself"):
            desugar(parse(src))

    def test_a_categorical_is_bound_only_as_its_disc(self):
        src = "y <- (if tt then disc[a: 0.5, b: 0.5] else disc[a: 0.5, b: 0.5]); return tt"
        with pytest.raises(DapplTypeError, match="Cat"):
            check_program(parse(src))

    def test_check_types_sugar_under_a_given_scope(self):
        assert check(parse("disc[a: 0.5, b: 0.5]"), {}) == TCat(["a", "b"])
        choose = parse("choose c | A -> reward 1 | B -> ()")
        assert check(choose, {"c": TChoice(["A", "B"])}) == DIST
        with pytest.raises(DapplTypeError, match="unbound"):
            check(choose, {})

    def test_a_rebinding_shadows_the_name_for_the_type_checker(self):
        # a categorical rebound as a flip is a Boolean, so choose rejects it
        with pytest.raises(DapplTypeError, match="got Bool"):
            check_program(parse("x <- disc[a: 0.5, b: 0.5]; x <- flip 0.5; choose x | a -> ()"))

    def test_the_first_error_in_walk_order_is_reported(self):
        # the categorical comes before the unbound name
        with pytest.raises(DapplDesugarError, match="categorical probabilities"):
            check_program(parse("x <- disc[a: 0.5, b: 0.2]; return z"))


def solve_eu(source: str) -> float:
    """Desugar a choice-free program and run the reference interpreter."""
    tree = parse(source)
    check_program(tree)
    return util_eu(desugar(tree))


class TestDesugar:
    def test_loop_of_rewards(self):
        assert abs(solve_eu("loop 3 { reward 2 }") - 6.0) < 1e-9

    def test_loop_bound_below_one(self):
        with pytest.raises(DapplDesugarError):
            desugar(parse("loop 0 { reward 2 }"))

    def test_disc_outcome_probabilities(self):
        src = """
        x <- disc[a: 0.5, b: 0.3, c: 0.2];
        choose x | a -> reward 1 | b -> reward 2 | c -> reward 4
        """
        # expected utility separates the three outcome masses
        assert abs(solve_eu(src) - (0.5 * 1 + 0.3 * 2 + 0.2 * 4)) < 1e-9

    @pytest.mark.parametrize("pairs", ["a: 0.5, b: 0.2", "a: 1.2, b: -0.2"])
    def test_disc_probabilities_must_be_a_distribution(self, pairs):
        with pytest.raises(DapplDesugarError, match="categorical probabilities"):
            desugar(parse(f"x <- disc[{pairs}]; return tt"))

    def test_disc_consulted_twice_is_one_sample(self):
        src = """
        d <- disc[a: 0.3, b: 0.7];
        x <- (choose d | a -> reward 10 | b -> ());
        choose d | a -> reward 1 | b -> reward 2
        """
        assert abs(solve_eu(src) - (0.3 * 11 + 0.7 * 2)) < 1e-9

    def test_disc_zero_probability_outcome(self):
        src = "choose disc[a: 0.0, b: 1.0] | a -> reward 100 | b -> reward 7"
        assert abs(solve_eu(src) - 7.0) < 1e-9

    def test_nested_loops(self):
        assert abs(solve_eu("loop 2 { loop 3 { reward 2 } }") - 12.0) < 1e-9

    def test_loop_with_observation_inside(self):
        src = "loop 2 { x <- flip 0.5; observe x; reward 4 }"
        assert abs(solve_eu(src) - 8.0) < 1e-9

    def test_guard_normalization(self):
        tree = desugar(parse("x <- flip 0.5; y <- flip 0.5; if (x && y) then reward 2 else ()"))
        # the compound guard is let-bound to a fresh variable
        def find_ite(e):
            if isinstance(e, A.Ite):
                return e
            for child in A._children(e):
                found = find_ite(child)
                if found is not None:
                    return found
            return None

        ite = find_ite(tree)
        assert isinstance(ite.guard, Var)

    def test_decision_guard_becomes_binary_choice(self):
        tree = desugar(parse("if [Act] then reward 3 else reward 1"))
        sites = number_sites(tree)
        assert len(sites) == 1
        assert set(sites[0][1]) == {"Act", "Act_not"}

    def test_trailing_reward_filled(self):
        tree = desugar(parse("reward 5"))
        assert isinstance(tree, A.Reward) and isinstance(tree.body, A.Return)

    def test_unit_becomes_return_true(self):
        tree = desugar(parse("()"))
        assert isinstance(tree, A.Return) and tree.pure.value is True


class TestReduce:
    def fixture_core(self):
        tree = parse(UMBRELLA)
        check_program(tree)
        core = desugar(tree)
        sites = number_sites(core)
        return core, sites

    def test_umbrella_policies(self):
        core, sites = self.fixture_core()
        assert len(sites) == 1
        take = reduce(core, {sites[0][0]: "Umb"})
        skip = reduce(core, {sites[0][0]: "No_umb"})
        assert abs(util_eu(take) - (-3.5)) < 1e-9
        assert abs(util_eu(skip) - (-10.0)) < 1e-9

    def test_choice_free_program_unchanged_in_meaning(self):
        src = "x <- flip 0.3; if x then reward 4 else reward 1"
        tree = desugar(parse(src))
        assert util_eval(reduce(tree, {})) == util_eval(tree)

    def test_two_choice_program_all_policies(self):
        src = """
        c1 <- [A, B];
        c2 <- [C, D];
        r1 <- (choose c1 | A -> reward 1 | B -> reward 2);
        choose c2 | C -> reward 4 | D -> reward 8
        """
        core = desugar(parse(src))
        sites = number_sites(core)
        values = set()
        for a in ("A", "B"):
            for c in ("C", "D"):
                policy = {sites[0][0]: a, sites[1][0]: c}
                values.add(round(util_eu(reduce(core, policy)), 9))
        assert values == {5.0, 6.0, 9.0, 10.0}

    def test_missing_site_rejected(self):
        core, sites = self.fixture_core()
        from optppl.dappl.reduce import DapplReduceError

        with pytest.raises(DapplReduceError):
            reduce(core, {})

    def test_reduced_program_is_core_typed(self):
        core, sites = self.fixture_core()
        reduced = reduce(core, {sites[0][0]: "Umb"})
        assert check(reduced, {}) == DIST
