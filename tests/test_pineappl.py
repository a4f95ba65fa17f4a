"""Imperative language: front end, expansion, staged solving, differential."""

import copy
import json
import random
import time

import pytest

from optppl import REAL, BddManager
from optppl.frontend import Var, term_vars
from optppl.oracle import OracleError, pineappl_interp
from optppl.pineappl import (
    PineapplExpandError,
    PineapplRunError,
    PineapplSyntaxError,
    compile_source,
    expand,
    parse,
    run_program,
)
from optppl.pineappl import ast as P
from optppl.pineappl import compile as compile_module
from optppl.pineappl.compile import Compiler
from optppl.pineappl.expand import _Renamer

from optppl.gen import gen_nested_mmap

from corpus import random_pineappl_program
from helpers import enumerate_models, render_term

DIAGNOSIS = """
disease = flip 0.5;
if disease { headache = flip 0.7; } else { headache = flip 0.1; }
diagnosis = mmap(disease) with { headache }
if diagnosis && disease { complications = ff; }
  else if diagnosis && !disease { complications = flip 0.4; }
  else if !diagnosis && disease { complications = flip 0.9; }
  else { complications = ff; }
pr(complications)
"""


class TestParser:
    def test_diagnosis_shape(self):
        prog = parse(DIAGNOSIS)
        assert len(prog.statements) == 4
        assert isinstance(prog.statements[0], P.SFlip)
        assert isinstance(prog.statements[1], P.SIf)
        mm = prog.statements[2]
        assert isinstance(mm, P.SMmap)
        assert mm.outputs == ("diagnosis",) and mm.queried == ("disease",)
        assert isinstance(mm.evidence, Var)
        assert len(prog.queries) == 1 and isinstance(prog.queries[0], P.QPr)

    def test_multi_output_mmap(self):
        prog = parse("a = flip 0.5; b = flip 0.5; (x, y) = mmap(a, b); pr(x)")
        mm = prog.statements[2]
        assert mm.outputs == ("x", "y") and mm.queried == ("a", "b")

    def test_query_required(self):
        with pytest.raises(PineapplSyntaxError):
            parse("a = flip 0.5;")

    def test_empty_statements_with_query_ok(self):
        prog = parse("pr(tt)")
        assert prog.statements == []

    def test_error_location(self):
        with pytest.raises(PineapplSyntaxError) as err:
            parse("a = flip 0.5;\nb = ;\npr(a)")
        assert "line 2" in str(err.value)

    def test_terminal_mmap_query(self):
        prog = parse("a = flip 0.6; mmap(a)")
        assert isinstance(prog.queries[0], P.QMmap)

    def test_statements_after_a_query_rejected(self):
        with pytest.raises(PineapplSyntaxError):
            parse("a = flip 0.6; pr(a) b = flip 0.5; pr(b)")

    @pytest.mark.parametrize("source", [
        "x = flip 1.2.3; pr(x)",
        "x = disc[a: 0.5.1, b: 0.5]; pr(x is a)",
    ])
    def test_malformed_number_is_a_syntax_error(self, source):
        with pytest.raises(PineapplSyntaxError) as err:
            parse(source)
        assert "line 1" in str(err.value)


class TestExpansion:
    def test_simple_loop_unrolls_with_renaming(self):
        prog = expand(parse("""
            a = flip 0.5;
            loop 3 { tmp = flip 0.1; a = a || tmp; }
            pr(a)
        """))
        names = [s.name for s in prog.statements]
        assert names == ["a", "tmp", "a@2", "tmp@2", "a@3", "tmp@3", "a@4"]
        assert render_term(prog.queries[0].expr) == "a@4"

    def test_loop_of_one_only_renames(self):
        prog = expand(parse("a = flip 0.5; loop 1 { a = !a; } pr(a)"))
        assert [s.name for s in prog.statements] == ["a", "a@2"]

    def test_if_with_loops_gets_join_points(self):
        prog = expand(parse("""
            x = flip 0.5;
            y = flip 0.5;
            if x { loop 2 { tmp = flip 0.2; y = y && tmp; } }
            else { loop 3 { tmp = flip 0.7; y = y || tmp; } }
            pr(y)
        """))
        tail = prog.statements[-2:]
        joined = {s.name.split("@")[0] for s in tail}
        assert joined == {"y", "tmp"}
        y_join = next(s for s in tail if s.name.startswith("y@"))
        rendered = render_term(y_join.value)
        assert "x &&" in rendered and "!x &&" in rendered
        assert render_term(prog.queries[0].expr) == y_join.name

    def test_one_sided_binding_is_error_only_when_used(self):
        ok = expand(parse("x = flip 0.5; if x { t = flip 0.2; } else { }  pr(x)"))
        assert ok is not None
        with pytest.raises(PineapplExpandError):
            expand(parse("x = flip 0.5; if x { t = flip 0.2; } else { } pr(t)"))

    def test_expansion_leaves_the_parsed_program_unchanged(self):
        # the iterations of an unrolled loop share the body's statements
        prog = parse("""
            a = flip 0.5;
            loop 3 {
              w = disc[lo: 0.25, hi: 0.75];
              t = flip 0.1;
              if a || w is hi { a = a && !t; loop 2 { t = flip 0.3; a = a || t; } }
              else { b = flip 0.4; a = b; }
              (m) = mmap(t) with { a };
            }
            pr(a || m)
        """)
        before = copy.deepcopy(prog)
        first = expand(prog)
        assert prog == before
        assert expand(prog) == first
        assert prog == before

    def test_guard_names_stay_out_of_the_scope(self):
        # each compound guard's name was bound into the scope, so every
        # later if copied and scanned a scope that grew with the program
        def scope(n):
            env = {}
            # the renamer unrolls the generator's loop itself
            _Renamer().rename_stmts(parse(gen_nested_mmap(n)).statements, env)
            return env

        small, large = scope(10), scope(200)
        assert not [name for name in large if "#" in name]
        assert small.keys() == large.keys()

    def test_joins_cost_what_the_arms_bind(self):
        # every if copied the whole scope twice and scanned both copies: N
        # flips then N ifs rebinding y expanded in 30 / 118 / 481 ms for
        # N = 500 / 1,000 / 2,000, about 16x for 4x the program
        def best_of_3(n):
            flips = "".join(f"x{i} = flip 0.5; " for i in range(n))
            ifs = "".join(f"if x{i} {{ y = flip 0.5; }} else {{ }} " for i in range(n))
            program = parse(flips + "y = flip 0.5; " + ifs + "pr(y)")
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                expand(program)
                times.append(time.perf_counter() - t0)
            return min(times)

        assert best_of_3(2000) / best_of_3(500) < 8

    @pytest.mark.parametrize("n", range(1, 11))
    def test_nested_mmap_matches_interpreter(self, n):
        assert_matches_interpreter(gen_nested_mmap(n))

    def test_loop_bound_below_one(self):
        with pytest.raises(PineapplExpandError):
            expand(parse("loop 0 { x = flip 0.5; } pr(tt)"))

    def test_evidence_restriction_on_mmap_outputs(self):
        with pytest.raises(PineapplExpandError):
            expand(parse("x = flip 0.5; m = mmap(x); pr(x) with { m }"))
        with pytest.raises(PineapplExpandError):
            expand(parse("x = flip 0.5; m = mmap(x); y = flip 0.5; n = mmap(y) with { m }; pr(x)"))

    @pytest.mark.parametrize("source, message", [
        # an unbound name before a bad loop bound
        ("y = z; loop 0 { x = flip 0.5; } pr(y)", r"unbound variable 'z' \(line 1, column 5\)"),
        ("loop 0 { x = flip 0.5; } y = z; pr(y)",
         r"loop bound must be at least 1, got 0 \(line 1, column 1\)"),
        # a bad categorical before an unbound name, inside a loop's body
        ("loop 2 { w = disc[a: 0.5, b: 0.6]; y = z; } pr(tt)", "'w': categorical"),
        # evidence on an mmap output before an unbound name in a later query
        ("x = flip 0.5; m = mmap(x); pr(x) with { m } pr(z)",
         "observed expression in query references mmap-bound variable"),
        ("x = flip 0.5; m = mmap(x); n = mmap(x) with { m }; y = z; pr(x)",
         "observed expression in mmap references mmap-bound variable"),
    ])
    def test_expansion_reports_the_first_error_in_program_order(self, source, message):
        with pytest.raises(PineapplExpandError, match=message):
            expand(parse(source))

    @pytest.mark.parametrize("source, message", [
        ("x = flip 0.5; m = mmap(x); pr(x) with { m }",
         r"query references mmap-bound variable\(s\): m \(line 1, column 41\)"),
        # a compound term's span is its operator's
        ("x = flip 0.5; m = mmap(x);\n  n = mmap(x) with { x && m }; pr(x)",
         r"mmap references mmap-bound variable\(s\): m \(line 2, column 24\)"),
    ])
    def test_evidence_restriction_names_the_evidence_position(self, source, message):
        with pytest.raises(PineapplExpandError, match=message):
            expand(parse(source))

    def test_unbound_name_in_a_terminal_mmap_names_the_query_position(self):
        with pytest.raises(PineapplExpandError, match=r"'z' \(line 2, column 3\)"):
            expand(parse("x = flip 0.5; pr(x)\n  mmap(x, z) with { x }"))

    def test_categorical_sugar(self):
        out = run_program("""
            w = disc[sun: 0.6, rain: 0.3, snow: 0.1];
            happy = w is sun || w is snow;
            pr(happy)
        """)
        assert abs(out["queries"][0]["value"] - 0.7) < 1e-9

    @pytest.mark.parametrize("pairs", ["a: 0.5, b: 0.2", "a: 1.2, b: -0.2"])
    def test_categorical_must_be_a_distribution(self, pairs):
        with pytest.raises(PineapplExpandError, match="'w': categorical probabilities"):
            expand(parse(f"w = disc[{pairs}]; pr(tt)"))

    def test_categorical_inside_branch(self):
        out = run_program("""
            g = flip 0.5;
            if g { w = disc[a: 0.4, b: 0.6]; hit = w is a; } else { hit = ff; }
            pr(hit)
        """)
        assert abs(out["queries"][0]["value"] - 0.2) < 1e-9

    def test_staged_query_inside_branch(self):
        src = """
            g = flip 0.8;
            x = flip 0.3;
            if g { m = mmap(x); y = m && x; } else { y = x; }
            pr(y)
        """
        out = run_program(src)
        values, decisions = pineappl_interp(expand(parse(src)))
        assert abs(out["queries"][0]["value"] - values[0]) < 1e-9
        assert out["decisions"] == decisions


class TestStagedSolving:
    def test_diagnosis_pins_true_and_complications(self):
        out = run_program(DIAGNOSIS)
        assert out["decisions"] == {"diagnosis": True}
        assert abs(out["queries"][0]["value"] - 0.2) < 1e-9

    def test_terminal_mmap_posterior(self):
        out = run_program("""
            disease = flip 0.5;
            if disease { headache = flip 0.7; } else { headache = flip 0.1; }
            mmap(disease) with { headache }
        """)
        q = out["queries"][0]
        assert q["assignment"] == {"disease": True}
        # Bayes over the program's own model: 0.35 / (0.35 + 0.05)
        assert abs(q["value"] - 0.35 / 0.40) < 1e-9

    def test_result_is_plain_json(self):
        out = run_program(DIAGNOSIS)
        assert json.loads(json.dumps(out)) == out

    def test_terminal_mmap_query_reports_its_search(self):
        out = run_program("a = flip 0.3; b = flip 0.6; c = a || b; mmap(a, b) with { c }")
        [solve] = out["stats"]["mmap_solves"]
        assert solve["interior"] == 2 and solve["base_cases"] > 0

    def test_query_searches_follow_the_staged_ones(self):
        # the staged mmap branches on one variable, the query on two
        out = run_program(
            "a = flip 0.3; b = flip 0.6; m = mmap(a) with { a || b }\n"
            "c = flip 0.4; d = a || c; mmap(b, c) with { d }"
        )
        assert [s["interior"] for s in out["stats"]["mmap_solves"]] == [1, 2]

    def test_mmap_naming_a_variable_twice(self):
        # a repeated name is one MAP variable
        src = "a = flip 0.5; mmap(a, a)"
        q = run_program(src)["queries"][0]
        assert pineappl_interp(expand(parse(src))) == ([({"a": False}, 0.5)], {})
        assert q["assignment"] == {"a": False} and abs(q["value"] - 0.5) < 1e-9

    def test_staged_mmap_naming_a_variable_twice(self):
        src = "a = flip 0.5; (x, y) = mmap(a, a); pr(x || y)"
        out = run_program(src)
        assert pineappl_interp(expand(parse(src)))[1] == {"x": False, "y": False}
        assert out["decisions"] == {"x": False, "y": False}
        assert out["queries"][0]["value"] == 0.0

    def test_straight_line_fold_stays_small(self):
        # each definition sits at the bottom of the order; conjoining the
        # definitions oldest-first rebuilt the diagram above it at every
        # step (over 600k nodes here)
        pairs = 300
        src = "a_0 = tt;\n" + "".join(
            f"t_{i} = flip 0.5; a_{i} = a_{i - 1} && t_{i};\n" for i in range(1, pairs + 1)
        ) + f"pr(a_{pairs})"
        out = run_program(src)
        assert out["stats"]["bdd_nodes"] < 15000
        assert out["queries"][0]["value"] == pytest.approx(0.5**pairs, rel=1e-9)

    def test_mmap_of_deterministic_variable(self):
        out = run_program("x = tt; mmap(x)")
        q = out["queries"][0]
        assert q["assignment"] == {"x": True} and abs(q["value"] - 1.0) < 1e-9

    def test_tie_breaks_to_false(self):
        out = run_program("x = flip 0.5; m = mmap(x); pr(m)")
        assert out["decisions"] == {"m": False}
        assert abs(out["queries"][0]["value"] - 0.0) < 1e-9

    def test_pr_of_true(self):
        assert run_program("pr(tt)")["queries"][0]["value"] == 1.0

    def test_impossible_query_evidence(self):
        with pytest.raises(PineapplRunError):
            run_program("x = flip 0.5; y = x && !x; pr(x) with { y }")

    def test_impossible_mmap_evidence(self):
        with pytest.raises(PineapplRunError):
            run_program("x = flip 0.5; y = x && !x; m = mmap(x) with { y }; pr(x)")

    def test_satisfiable_mmap_evidence_of_zero_mass(self):
        with pytest.raises(PineapplRunError, match="mmap evidence is impossible"):
            run_program("x = flip 0.0; m = mmap(x) with { x }; pr(x)")

    def test_multiple_queries_in_order(self):
        out = run_program("x = flip 0.25; y = flip 0.5; pr(x) pr(y) pr(x && y)")
        values = [q["value"] for q in out["queries"]]
        assert [round(v, 9) for v in values] == [0.25, 0.5, 0.125]

    def test_definitions_structure_matches_staging_example(self):
        # every model of the accumulated constraint realizes
        # disease <-> f and headache <-> (disease && f' || !disease && f'')
        program, compiler = compile_source(
            "disease = flip 0.5;\n"
            "if disease { headache = flip 0.7; } else { headache = flip 0.1; }\n"
            "pr(headache)"
        )
        mgr = compiler.mgr
        constraint = compiler.constraint
        disease = compiler.env["disease"]
        headache = compiler.env["headache@3"]  # the joined definition
        flips = {mgr.var_label(v).split("#")[0]: v for v in compiler.weights}
        f05, f07, f01 = flips["f_0.5"], flips["f_0.7"], flips["f_0.1"]
        universe = sorted(mgr.support(constraint))
        models = list(enumerate_models(mgr, constraint, universe))
        assert len(models) == 8  # one model per flip combination
        for m in models:
            assert m[disease] == m[f05]
            want = (m[disease] and m[f07]) or (not m[disease] and m[f01])
            assert m[headache] == want

    def test_if_join_recovers_branch_definitions(self):
        program, compiler = compile_source(
            "g = flip 0.5;\n"
            "if g { z = flip 0.2; } else { z = flip 0.7; }\n"
            "pr(z)"
        )
        mgr = compiler.mgr
        join_var = compiler.env["z@3"]
        z_then, z_else = compiler.env["z"], compiler.env["z@2"]
        g = compiler.env["g"]
        constraint = compiler.constraint
        for value, branch in ((True, z_then), (False, z_else)):
            side = mgr.condition(constraint, g, value)
            iff = mgr.apply("iff", mgr.mk_var(join_var), mgr.mk_var(branch))
            # the constraint under this guard entails join <-> branch
            assert mgr.apply("and", side, mgr.negate(iff)) == mgr.mk_false()


def assert_matches_interpreter(src):
    """The solver and the interpreter give the same answers, or both reject."""
    try:
        values, decisions = pineappl_interp(expand(parse(src)))
    except OracleError:
        with pytest.raises(PineapplRunError):
            run_program(src)
        return
    out = run_program(src)
    assert out["decisions"] == decisions
    for got, want in zip(out["queries"], values):
        if isinstance(want, tuple):
            assert got["assignment"] == want[0]
            want = want[1]
        assert abs(got["value"] - want) < 1e-6


def _hub(n, queries):
    """``x`` read by ``n`` derived names ``y<i> = x && t<i>``, then ``queries``."""
    body = "".join(f"t{i} = flip 0.5; y{i} = x && t{i};\n" for i in range(n))
    return "x = flip 0.5;\n" + body + queries


def _spy_conjoin(monkeypatch):
    """Record how many definitions each ``Compiler._conjoin`` call conjoins."""
    sizes = []
    conjoin = Compiler._conjoin

    def spy(compiler, indices):
        indices = list(indices)
        sizes.append(len(indices))
        return conjoin(compiler, indices)

    monkeypatch.setattr(Compiler, "_conjoin", spy)
    return sizes


class TestComponentScoping:
    """Staged solves conjoin only the definitions their variables depend on:
    the closure of the queried variables and the evidence through each
    definition's inputs, down to flips."""

    def test_nested_mmap_solves_stay_linear(self):
        # against the whole constraint, each staged mmap rebuilt every
        # earlier iteration (about 3.1M nodes at this size)
        out = run_program(gen_nested_mmap(80))
        assert out["stats"]["bdd_nodes"] < 150_000
        assert out["queries"][0]["value"] == 0.5

    def test_untouched_components_do_not_weigh_in(self):
        # counted with their unit weights, 1100 free program variables
        # overflow both counts to inf and the ratio to nan
        src = "".join(f"t{i} = flip 0.5;\n" for i in range(1100)) + "b = flip 0.3;\npr(b)"
        assert run_program(src)["queries"][0]["value"] == pytest.approx(0.3, abs=1e-12)

    def test_evidence_joins_independent_components(self):
        assert_matches_interpreter(
            "a = flip 0.3; b = flip 0.6; c = flip 0.2; d = b || c;\n"
            "m = mmap(a) with { a || d }\n"
            "if m { e = flip 0.9; } else { e = c; }\n"
            "pr(a) with { a || d }\n"
            "pr(e) with { a || !b }\n"
            "pr(m && d) with { a }\n"
            "mmap(a, c) with { a || c }"
        )

    def test_names_derived_from_the_queried_variable_stay_out(self, monkeypatch):
        # each y<i> <-> x && t<i> sums to 1 over y<i>, so neither solve
        # needs any of the 200
        sizes = _spy_conjoin(monkeypatch)
        out = run_program(_hub(200, "pr(x)\nmmap(x)"))
        assert [q["value"] for q in out["queries"]] == [0.5, 0.5]
        # pr(x) reads only x's flip; mmap(x) adds and reads x <-> f alone
        assert sizes == [0, 1]

    def test_a_closure_is_conjoined_once(self, monkeypatch):
        # pr(z) reads the last mmap's closure; every mmap's is new
        sizes = _spy_conjoin(monkeypatch)
        out = run_program(gen_nested_mmap(5))
        assert out["queries"][0]["value"] == 0.5
        assert len(sizes) == 5

    def test_evidence_that_reads_a_derived_name_pulls_in_its_definition(self, monkeypatch):
        src = _hub(3, "pr(x) with { y1 }\nmmap(x) with { y0 || y2 }")
        assert_matches_interpreter(src)
        sizes = _spy_conjoin(monkeypatch)
        out = run_program(src)
        assert out["queries"][0]["value"] == 1.0
        # y1's definition; then x <-> f and those of y0 and y2
        assert sizes == [1, 3]

    def test_staged_solve_sweeps_each_handle_once(self, monkeypatch):
        # restricting the weights to the scoped constraint's support swept
        # it once more than the search problem's own check does
        program, compiler = compile_source(gen_nested_mmap(3))
        stmt = [s for s in _flat(program.statements) if isinstance(s, P.SMmap)][-1]
        swept = []
        support = BddManager.support

        def spy(mgr, a):
            swept.append(a)
            return support(mgr, a)

        monkeypatch.setattr(BddManager, "support", spy)
        compiler.solve_mmap(stmt.queried, stmt.evidence)
        assert swept and len(swept) == len(set(swept))

    @pytest.mark.parametrize("seed", range(30))
    def test_programs_with_several_staged_mmaps_match_interpreter(self, seed):
        for k in range(1000):
            src = random_pineappl_program(7919 * seed + k, max_flips=6, max_mmaps=4)
            if src.count("= mmap(") >= 2:
                break
        assert_matches_interpreter(src)

    @pytest.mark.parametrize("seed", range(30))
    def test_programs_whose_mmap_outputs_feed_guards_match_interpreter(self, seed):
        for k in range(1000):
            src = random_pineappl_program(6151 * seed + k, max_flips=6, max_mmaps=4)
            if _mmap_outputs_feed_guards(src):
                break
        else:
            pytest.fail("no program in the window tests an mmap output in a guard")
        assert_matches_interpreter(src)


def _mmap_outputs_feed_guards(src) -> bool:
    """Some ``if`` of the expanded program tests a staged mmap output.

    Expanded names are unique, and a compound guard is first bound to an
    invented ``_g#<n>`` name, so reading the guard's own definition suffices.
    """
    outputs, reads, found = set(), {}, False

    def walk(stmts):
        nonlocal found
        for stmt in stmts:
            if isinstance(stmt, P.SMmap):
                outputs.update(stmt.outputs)
            elif isinstance(stmt, P.SAssign):
                reads[stmt.name] = term_vars(stmt.value)
            elif isinstance(stmt, P.SIf):
                g = stmt.guard.name
                found |= bool(({g} | reads.get(g, set())) & outputs)
                walk(stmt.then)
                walk(stmt.els)

    walk(expand(parse(src)).statements)
    return found


class TestDecidedConstants:
    """A decided mmap output, or any constant definition, folds where it is read."""

    def test_guard_on_a_decision_keeps_one_arm(self):
        # m is decided false: the join of y folds to the else version and is
        # that version's variable, where an indicator variable for m kept
        # both arms and m itself
        program, compiler = compile_source(
            "x = flip 0.5; m = mmap(x); if m { y = flip 0.2; } else { y = flip 0.7; } pr(y)"
        )
        assert compiler.env["y@3"] == compiler.env["y@2"]

    def test_nested_mmap_solves_stay_the_same_size(self):
        # with an indicator per decision, each solve also counted the arm
        # of every later guard that the decision rules out (75,896 nodes)
        out = run_program(gen_nested_mmap(80))
        assert out["stats"]["bdd_nodes"] < 30_000
        assert len({s["nodes_created"] for s in out["stats"]["mmap_solves"]}) == 1

    @pytest.mark.parametrize(
        "src",
        [
            # a decision read by later guards, both ways round
            "x = flip 0.8; m = mmap(x);\n"
            "if m { y = flip 0.2; } else { y = flip 0.7; }\n"
            "if !m { z = flip 0.4; } else { z = y; }\n"
            "pr(y) pr(z) pr(y && z)",
            "x = flip 0.3; m = mmap(x); if (m || x) { y = flip 0.2; } else { y = !x; } pr(y)",
            # a decision queried by a later staged mmap and a terminal one
            "x = flip 0.3; m = mmap(x); n = mmap(m); pr(n) mmap(m)",
            "x = flip 0.8; m = mmap(x); pr(m) pr(!m) pr(m && x) pr(m || !x)",
            # a decision queried beside a random variable
            "x = flip 0.8; m = mmap(x); y = flip 0.4; (a, b) = mmap(m, y);\n"
            "if b { z = flip 0.9; } else { z = m; }\n"
            "pr(z) mmap(m, y) mmap(m, y) with { y || x }",
            # one variable queried twice, both outputs decided
            "x = flip 0.6; (a, b) = mmap(x, x);\n"
            "if (a && b) { y = flip 0.1; } else { y = flip 0.9; }\n"
            "pr(y) pr(a || b) mmap(a, b)",
            # a deterministic variable queried
            "x = tt; m = mmap(x); if m { y = flip 0.3; } else { y = ff; } pr(y) pr(m)",
            "x = ff; m = mmap(x); if m { y = flip 0.3; } else { y = tt; } pr(y) mmap(m, x)",
            # a contradiction read by a guard
            "x = flip 0.5; y = x && !x; if y { z = flip 0.1; } else { z = flip 0.6; } pr(z)",
        ],
    )
    def test_decided_outputs_match_interpreter(self, src):
        assert_matches_interpreter(src)

    @pytest.mark.parametrize(
        "src",
        [
            "x = flip 0.5; y = x && !x; z = flip 0.4; pr(z) with { y }",
            "x = flip 0.5; y = x && !x; w = y || y; z = flip 0.4; pr(z) with { w }",
            "x = flip 0.5; y = x && !x; m = mmap(x) with { y }; pr(x)",
            "x = flip 0.5; y = x && !x; z = flip 0.4; mmap(z) with { y }",
        ],
    )
    def test_contradictory_evidence_is_still_rejected(self, src):
        with pytest.raises(OracleError):
            pineappl_interp(expand(parse(src)))
        with pytest.raises(PineapplRunError):
            run_program(src)


class TestDeadArms:
    """A guard that reads as a constant compiles only its live arm."""

    DECIDED = (
        # x ties, so m is decided false and the then arm is dead
        "x = flip 0.5; m = mmap(x);\n"
        "if m {{ y = flip 0.2; z = flip 0.3; w = y && z; }} else {{ y = flip 0.7; }}\n"
        "{rest}"
    )

    def _compile_both_arms(self, src, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(Compiler, "_skip", lambda self, dead: False)
            return compile_source(src)[1]

    def test_dead_arm_adds_no_variable_weight_or_definition(self, monkeypatch):
        src = self.DECIDED.format(rest="pr(y)")
        both = self._compile_both_arms(src, monkeypatch)
        program, compiler = compile_source(src)
        mgr = compiler.mgr
        dead = {"y", "z", "w", "f_0.2#2", "f_0.3#3"}
        assert dead <= set(both.mgr._labels)
        assert not dead & set(mgr._labels)
        assert not dead & {mgr.var_label(v) for v in compiler.weights}
        assert len(compiler._definitions) < len(both._definitions)
        assert mgr.num_nodes < both.mgr.num_nodes
        assert run_program(src)["queries"][0]["value"] == pytest.approx(0.7, abs=1e-12)

    def test_live_flips_keep_their_labels(self, monkeypatch):
        # the dead arm's flips are counted, before and after a live arm
        for src, live in [
            (self.DECIDED.format(rest="c = flip 0.9; mmap(c)"), ["f_0.7#4", "f_0.9#5"]),
            (
                "x = flip 0.6; m = mmap(x);\n"
                "if m { a = flip 0.2; } else { a = flip 0.7; b = flip 0.1; }\n"
                "c = flip 0.9; mmap(c)",
                ["f_0.2#2", "f_0.9#5"],
            ),
        ]:
            labels = compile_source(src)[1].mgr._labels
            both = self._compile_both_arms(src, monkeypatch).mgr._labels
            assert all(label in labels for label in live)
            # the labels left keep their order
            assert [label for label in both if label in labels] == labels
            assert_matches_interpreter(src)

    def test_dead_arm_with_an_mmap_still_reports_its_decision(self):
        src = (
            "x = flip 0.5; m = mmap(x);\n"
            "if m { y = flip 0.8; if y { n = mmap(y); } else { } } else { y = flip 0.3; }\n"
            "pr(y)"
        )
        out = run_program(src)
        assert out["decisions"] == {"m": False, "n": True}
        assert_matches_interpreter(src)

    def test_nested_mmap_compiles_one_arm_per_iteration(self):
        # both arms of every iteration made 64,009 nodes
        assert run_program(gen_nested_mmap(1280))["stats"]["bdd_nodes"] < 45_000

    @pytest.mark.parametrize("seed", range(30))
    def test_programs_with_dead_arms_match_interpreter(self, seed, monkeypatch):
        skipped = []
        skip = Compiler._skip

        def spy(compiler, dead):
            out = skip(compiler, dead)
            skipped.append(out)
            return out

        monkeypatch.setattr(Compiler, "_skip", spy)
        for k in range(1000):
            src = random_pineappl_program(4889 * seed + k, max_flips=6, max_mmaps=4)
            skipped.clear()
            try:
                compile_source(src)
            except PineapplRunError:
                continue
            if True in skipped:
                break
        else:
            pytest.fail("no program in the window skips a dead arm")
        assert_matches_interpreter(src)


class TestAliases:
    """A name that compiles to one variable is that variable."""

    def test_flips_and_copies_add_no_definition(self):
        program, compiler = compile_source("x = flip 0.5; y = x; z = y; pr(z)")
        assert compiler.env["z"] == compiler.env["y"] == compiler.env["x"]
        assert compiler.constraint == compiler.mgr.mk_true()

    def test_an_alias_sweeps_nothing(self, monkeypatch):
        swept = []
        support = BddManager.support

        def spy(mgr, a):
            swept.append(a)
            return support(mgr, a)

        monkeypatch.setattr(BddManager, "support", spy)
        compile_source("x = flip 0.5; y = x; z = y; pr(z)")
        assert swept == []

    def test_nested_mmap_defines_only_what_it_queries(self):
        # a definition per flip and per join point that folds to one
        # version made 22,349 nodes
        out = run_program(gen_nested_mmap(80))
        assert out["stats"]["bdd_nodes"] < 6_000
        assert out["queries"][0]["value"] == 0.5

    def test_queried_flip_sits_above_its_flip(self):
        # with each program variable just below its flip the search doubled
        # in size every two flips (56,860 nodes here)
        thetas = [0.3, 0.4, 0.6, 0.7] * 5
        names = [f"x{i}" for i in range(len(thetas))]
        src = "".join(f"{x} = flip {t};\n" for x, t in zip(names, thetas))
        out = run_program(src + f"mmap({', '.join(names)})")
        q = out["queries"][0]
        assert out["stats"]["bdd_nodes"] < 2_000
        assert q["assignment"] == {x: t > 0.5 for x, t in zip(names, thetas)}
        best = 1.0
        for t in thetas:
            best *= max(t, 1.0 - t)
        assert q["value"] == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize(
        "src",
        [
            # two aliases of one flip in one mmap
            "x = flip 0.3; y = x; mmap(x, y)",
            "x = flip 0.7; y = x; z = flip 0.4; (a, b) = mmap(y, x) with { x || z };\n"
            "pr(a && b) mmap(z, y, x)",
            # an alias queried after an earlier mmap defined its flip's variable
            "x = flip 0.3; m = mmap(x); y = x; z = flip 0.6; (n, k) = mmap(y, z);\n"
            "pr(n || k) mmap(y) with { z || y }",
            "g = flip 0.4; if g { z = flip 0.2; } else { z = g; } m = mmap(g);\n"
            "w = z; mmap(w, z, g)",
            # a flip queried with evidence on itself
            "x = flip 0.3; mmap(x) with { x }",
            "x = flip 0.3; y = flip 0.5; m = mmap(x) with { !x || y }; pr(y) mmap(x) with { !x }",
            # a negated copy is a definition, not an alias
            "x = flip 0.3; y = !x; mmap(y)",
            "x = flip 0.8; y = !x; (a, b) = mmap(x, y); pr(a || b) mmap(y) with { x }",
        ],
    )
    def test_aliases_match_interpreter(self, src):
        assert_matches_interpreter(src)


def _spy_bb(monkeypatch):
    """Record every search a staged solve runs."""
    calls = []
    search = compile_module.bb

    def spy(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(compile_module, "bb", spy)
    return calls


class TestStagedSolveReuse:
    """A staged solve whose problem repeats an earlier one's up to an
    order-preserving renaming reuses that answer instead of searching."""

    @pytest.mark.parametrize("n", range(5, 10))
    def test_nested_mmap_searches_each_shape_once(self, monkeypatch, n):
        # the first iteration's guard is the constant m = true; every later
        # one reads the same decision, so they all pose one shape
        calls = _spy_bb(monkeypatch)
        src = gen_nested_mmap(n)
        out = run_program(src)
        assert len(calls) == 2
        assert out["decisions"] == pineappl_interp(expand(parse(src)))[1]
        assert out["stats"]["mmap_cache_hits"] == n - 2
        assert len(out["stats"]["mmap_solves"]) == n

    def test_a_repeated_problem_is_searched_once(self, monkeypatch):
        calls = _spy_bb(monkeypatch)
        src = (
            "a = flip 0.3; b = flip 0.6; m = mmap(a) with { a || b }\n"
            "c = flip 0.3; d = flip 0.6; n = mmap(c) with { c || d }\n"
            "mmap(a) with { a || b }"
        )
        out = run_program(src)
        assert len(calls) == 1 and out["stats"]["mmap_cache_hits"] == 2
        solves = out["stats"]["mmap_solves"]
        assert len(solves) == 3 and solves[0] == solves[1] == solves[2]
        assert_matches_interpreter(src)

    @pytest.mark.parametrize(
        "src",
        [
            # two iterations that differ only in the theta of x's flip;
            # the first decides false and the second true
            "m = true; loop 2 { if m { x = flip 0.3; } else { x = flip 0.4; }\n"
            "y = flip 0.6; (m) = mmap(x) with { x || y } } pr(x)",
            # one tied problem queried as (a, b), then renamed as (d, c):
            # each tie resolves along its own query order
            "a = flip 0.5; b = flip 0.5; (p, q) = mmap(a, b) with { a || b }\n"
            "c = flip 0.5; d = flip 0.5; (r, s) = mmap(d, c) with { c || d }\n"
            "pr(p && r)",
            # the same definitions under different evidence
            "a = flip 0.3; b = flip 0.6; c = a || b; m = mmap(a) with { c }\n"
            "n = mmap(a) with { !b }\npr(tt)",
            # renamed copies under evidence whose diagrams have one size;
            # the first decides true and the second false
            "a = flip 0.3; b = flip 0.6; m = mmap(a) with { a || !b }\n"
            "c = flip 0.3; d = flip 0.6; n = mmap(c) with { c || d }\npr(tt)",
        ],
    )
    def test_near_misses_are_searched(self, monkeypatch, src):
        calls = _spy_bb(monkeypatch)
        out = run_program(src)
        assert len(calls) == 2 and out["stats"]["mmap_cache_hits"] == 0
        assert_matches_interpreter(src)

    def test_evidence_with_zero_mass_is_not_stored(self):
        # gamma is not FALSE, so the objective finds the mass is zero
        src = "a = flip 0.0; mmap(a) with { a }"
        program, compiler = compile_source(src)
        for _ in range(2):
            with pytest.raises(PineapplRunError):
                compiler.run_query(program.queries[0])
        assert compiler.mmap_cache_hits == 0 and compiler.solver_stats == []


class TestMmapTies:
    """Exact MMAP ties resolve to the smallest assignment in query order."""

    @pytest.mark.parametrize(
        "src, want",
        [
            # the query order is the reverse of the variable order
            ("x = flip 0.5; y = flip 0.5; mmap(y, x) with { x || y }", {"y": False, "x": True}),
            # y reads as a's variable, which sits above b's
            (
                "a = flip 0.5; b = flip 0.5; y = a; mmap(b, y) with { a || b }",
                {"b": False, "y": True},
            ),
        ],
    )
    def test_ties_follow_the_query_order(self, src, want):
        assert run_program(src)["queries"][0]["assignment"] == want
        assert_matches_interpreter(src)


class TestInternalNames:
    """Names the compiler and the expander make never equal a program's."""

    @pytest.mark.parametrize(
        "src, want",
        [
            # when decided outputs were indicator variables labelled k@<n>,
            # the second one shared the label of k's third binding
            ("x = flip 0.5; k = flip 0.3; k = !k; m = mmap(x); n = mmap(x); pr(k)", 0.7),
            # the second flip once shared the label of f_1's second binding
            ("f_1 = flip 0.5; f_1 = !f_1; y = flip 1; pr(f_1)", 0.5),
            # the second guard name once equalled _g's second binding
            (
                "_g = flip 0.5; if (_g && _g) { a = flip 0.2; } else { a = flip 0.7; }\n"
                "if (_g || a) { b = flip 0.2; } else { b = flip 0.7; }\n"
                "_g = !_g; pr(_g)",
                0.5,
            ),
        ],
    )
    def test_renamed_variables_keep_their_own_variable(self, src, want):
        assert_matches_interpreter(src)
        assert run_program(src)["queries"][-1]["value"] == pytest.approx(want, abs=1e-12)

    def test_internal_labels_are_not_identifiers(self):
        program, compiler = compile_source(
            "x = flip 0.5; x = !x; if (x && x) { y = flip 0.2; } else { y = ff; }\n"
            "m = mmap(x); pr(y)"
        )
        mgr = compiler.mgr
        labels = [mgr.var_label(v) for v in compiler.weights]
        internal = [label for label in labels if label.split("@")[0] not in ("x", "y", "m")]
        assert internal and all("#" in label for label in internal)


class TestSimulationInvariant:
    @pytest.mark.parametrize("seed", range(10))
    def test_trace_masses_factor_through_the_constraint(self, seed):
        # D(sigma) = prod of literal weights times the count of the
        # conditioned constraint, for every assignment in the support
        src = random_pineappl_program(seed * 31 + 2, max_flips=5, max_mmaps=1)
        try:
            program, compiler = compile_source(src)
            values, _ = pineappl_interp(program)
        except (PineapplRunError, OracleError):
            return
        mgr = compiler.mgr
        wm = compiler.weights
        constraint = compiler.constraint
        from optppl.oracle import Distribution, eval_term

        dist = Distribution()
        for stmt in _flat(program.statements):
            if isinstance(stmt, P.SFlip):
                dist = dist.flip(stmt.name, stmt.theta)
            elif isinstance(stmt, P.SAssign):
                dist = dist.extend(stmt.name, lambda env, e=stmt.value: eval_term(e, env))
            elif isinstance(stmt, P.SMmap):
                return  # handled by the end-to-end differential instead
        total = 0
        for sigma, mass in dist.items():
            assignment = {compiler.env[name]: value for name, value in sigma}
            # names that alias one variable carry one value
            assert all(assignment[compiler.env[name]] == value for name, value in sigma)
            conditioned = mgr.condition_all(constraint, assignment)
            keep = {v: w for v, w in wm.items() if v not in assignment}
            residual = mgr.amc(conditioned, keep, REAL)
            weight = 1.0
            for var, value in assignment.items():
                pos, neg = wm[var]
                weight *= pos if value else neg
            assert abs(mass - weight * residual) < 1e-9
            total += 1
        assert total > 0


def _flat(stmts):
    for s in stmts:
        if isinstance(s, P.SIf):
            yield from _flat(s.then)
            yield from _flat(s.els)
        else:
            yield s


@pytest.mark.parametrize("seed", range(40))
def test_random_programs_match_interpreter(seed):
    assert_matches_interpreter(random_pineappl_program(seed * 3 + 1))
