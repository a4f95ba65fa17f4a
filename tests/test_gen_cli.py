"""Benchmark generators and the command-line surface."""

import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

import optppl
from optppl.cli import USAGE_EXIT, _parse_range, main
from optppl.dappl import prepare, solve_compiled, solve_meu
from optppl.gen import GenError, gen_bn, gen_dr, gen_gridworld, gen_ladder, gen_nested_mmap, load_bn
from optppl.oracle import dappl_meu_enum

HERE = os.path.dirname(__file__)
ROOT = os.path.dirname(HERE)
EARTHQUAKE = os.path.join(ROOT, "data", "earthquake.json")
PROGRAMS = os.path.join(ROOT, "programs")


def oracle_equal(src):
    core, sites, compiled = prepare(src)
    out = solve_compiled(compiled)
    eu, _ = dappl_meu_enum(core, sites)
    assert abs(out["meu"] - eu) < 1e-6
    return out


class TestGenerators:
    def test_bn_deterministic(self):
        a = gen_bn(EARTHQUAKE, "existing", seed=7)
        b = gen_bn(EARTHQUAKE, "existing", seed=7)
        assert a == b

    @pytest.mark.parametrize("strategy", ["existing", "new_nodes"])
    def test_bn_solvable_and_oracle_equal(self, strategy):
        src = gen_bn(EARTHQUAKE, strategy, seed=7)
        out = oracle_equal(src)
        # the translation guarantees at least four decisions
        assert len(out["policy"]) >= 4

    def test_bn_degenerate_single_root(self):
        bn = {"variables": [
            {"name": "a", "states": ["true", "false"], "parents": [], "cpt": [[1.0, 0.0]]},
        ]}
        src = gen_bn(bn, "existing", seed=1)
        out = solve_meu(src)
        assert out["meu"] != float("-inf")

    def test_bn_cycle_rejected(self):
        bn = {"variables": [
            {"name": "a", "states": ["t", "f"], "parents": ["b"], "cpt": [[0.5, 0.5]] * 2},
            {"name": "b", "states": ["t", "f"], "parents": ["a"], "cpt": [[0.5, 0.5]] * 2},
        ]}
        with pytest.raises(GenError):
            gen_bn(bn, "existing", seed=1)

    def test_bn_multivalued_one_hot(self):
        bn = {"variables": [
            {"name": "w", "states": ["sun", "rain", "snow"], "parents": [],
             "cpt": [[0.6, 0.3, 0.1]]},
            {"name": "mud", "states": ["true", "false"], "parents": ["w"],
             "cpt": [[0.1, 0.9], [0.8, 0.2], [0.4, 0.6]]},
        ]}
        oracle_equal(gen_bn(bn, "existing", seed=3))

    def test_dr_family(self):
        assert gen_dr(2, seed=5) == gen_dr(2, seed=5)
        out = oracle_equal(gen_dr(1, seed=5))
        # one coin then a choice: the best arm's utility is taken when heads
        assert out["stats"]["prunes"] > 0

    @pytest.mark.parametrize("n, seed, digest", [
        (1, 0, "f91d2cd7b14386ca"),
        (2, 5, "4c5f55b753c95bb8"),
        (3, 41, "72bc6e9a5387104b"),
        (7, 1, "34440133ba29c03e"),
        (20, 7, "2f66b78a555496b3"),
        (64, 12345, "c304f740eed0e486"),
        (257, 3, "1f45ce96f7c21829"),
        (1000, 0, "f5d556716a9577c9"),
    ])
    def test_dr_text_is_unchanged(self, n, seed, digest):
        # the SHA-256 prefixes of the texts the recursive generator made;
        # perfbench's reference answers are keyed on the text's digest
        assert hashlib.sha256(gen_dr(n, seed=seed).encode()).hexdigest()[:16] == digest

    def test_dr_needs_no_frame_per_column(self):
        # the recursive generator took one frame per column
        code = (
            "import sys\n"
            "from optppl.gen import gen_dr\n"
            "sys.setrecursionlimit(1000)\n"
            "print(gen_dr(3000).count('<- flip'))\n"
        )
        src = os.path.dirname(os.path.dirname(optppl.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "3000"

    def test_ladder_families(self):
        oracle_equal(gen_ladder(2, 1, seed=7))
        oracle_equal(gen_ladder(2, 2, seed=7))
        with pytest.raises(GenError):
            gen_ladder(2, 9, seed=7)

    def test_gridworld(self):
        assert gen_gridworld(3, 1, 0.1, seed=1) == gen_gridworld(3, 1, 0.1, seed=1)
        oracle_equal(gen_gridworld(3, 1, 0.1, seed=1))
        with pytest.raises(GenError):
            gen_gridworld(1, 1, 0.1)

    def test_nested_template(self):
        from optppl.pineappl import run_program

        src = gen_nested_mmap(2)
        out = run_program(src)
        assert len(out["decisions"]) == 2
        assert abs(out["queries"][0]["value"] - 0.5) < 1e-9

    def test_load_bn_validates_rows(self):
        with pytest.raises(GenError):
            load_bn({"variables": [
                {"name": "a", "states": ["t", "f"], "parents": [], "cpt": [[0.7, 0.7]]},
            ]})


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "optppl.cli", *args],
        capture_output=True, text=True, timeout=120, **kwargs,
    )


class TestCli:
    def test_solve_dappl(self):
        proc = run_cli("solve", os.path.join(PROGRAMS, "umbrella.dappl"))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert abs(payload["meu"] - (-3.5)) < 1e-9
        assert payload["policy"] == {"c0": "Umb"}

    def test_solve_pineappl(self):
        proc = run_cli("solve", os.path.join(PROGRAMS, "diagnosis.pineappl"))
        payload = json.loads(proc.stdout)
        assert abs(payload["queries"][0]["value"] - 0.2) < 1e-9
        assert payload["decisions"] == {"diagnosis": True}

    def test_solve_with_oracle_cross_run(self, tmp_path):
        src = gen_dr(2, seed=9)
        path = tmp_path / "prog.dappl"
        path.write_text(src)
        proc = run_cli("solve", str(path), "--oracle", "--stats")
        payload = json.loads(proc.stdout)
        assert payload["delta"] < 1e-6
        assert payload["stats"]["bound_calls"] > 0

    def test_solve_stats_carry_bound_memo_entries(self, tmp_path):
        path = tmp_path / "dr4.dappl"
        path.write_text(gen_dr(4, seed=0))
        payload = json.loads(run_cli("solve", str(path), "--stats").stdout)
        assert payload["stats"]["bound_memo_entries"] > 0
        proc = run_cli("solve", os.path.join(PROGRAMS, "diagnosis.pineappl"), "--stats")
        solves = json.loads(proc.stdout)["stats"]["mmap_solves"]
        assert solves and all("bound_memo_entries" in s for s in solves)

    def test_solve_pineappl_with_oracle(self):
        proc = run_cli("solve", os.path.join(PROGRAMS, "diagnosis.pineappl"), "--oracle")
        payload = json.loads(proc.stdout)
        assert payload["delta"] < 1e-6
        assert payload["oracle"]["decisions"] == {"diagnosis": True}

    def test_lang_override_for_extensionless_file(self, tmp_path):
        path = tmp_path / "program.txt"
        path.write_text("x = flip 0.25; pr(x)")
        assert run_cli("solve", str(path)).returncode == 2  # undetectable
        payload = json.loads(run_cli("solve", str(path), "--lang", "pineappl").stdout)
        assert abs(payload["queries"][0]["value"] - 0.25) < 1e-9

    def test_solve_no_prune_flag(self, tmp_path):
        path = tmp_path / "prog.dappl"
        path.write_text(gen_dr(2, seed=9))
        with_p = json.loads(run_cli("solve", str(path)).stdout)
        without = json.loads(run_cli("solve", str(path), "--no-prune", "--stats").stdout)
        assert abs(with_p["meu"] - without["meu"]) < 1e-9
        assert without["stats"]["prunes"] == 0

    def test_dot_output(self, tmp_path):
        out = tmp_path / "graph.dot"
        proc = run_cli("dot", os.path.join(PROGRAMS, "umbrella.dappl"), "-o", str(out))
        assert proc.returncode == 0
        text = out.read_text()
        assert text.startswith("digraph") and "dashed" in text

    def test_solve_pineappl_dot(self, tmp_path):
        out = tmp_path / "defs.dot"
        proc = run_cli("solve", os.path.join(PROGRAMS, "diagnosis.pineappl"), "--dot", str(out))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["dot"] == str(out)
        assert payload["decisions"] == {"diagnosis": True}
        text = out.read_text()
        assert text.startswith("digraph") and "defs" in text

    def test_mmap_naming_a_variable_twice(self, tmp_path):
        path = tmp_path / "twice.pineappl"
        path.write_text("a = flip 0.5; (x, y) = mmap(a, a); pr(x || y)")
        proc = run_cli("solve", str(path))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["decisions"] == {"x": False, "y": False}

    def test_contradicting_observations_print_strict_json(self, tmp_path):
        # the library's -inf utility is written as null, never as -Infinity
        path = tmp_path / "contra.dappl"
        path.write_text("x <- flip 0.5; observe x; observe !x; reward 1")
        proc = run_cli("solve", str(path), "--oracle")
        assert proc.returncode == 0

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        payload = json.loads(proc.stdout, parse_constant=reject)
        assert payload["meu"] is None and payload["value"]["util"] is None
        assert payload["oracle"]["meu"] is None
        assert payload["warning"]
        assert solve_meu(path.read_text())["meu"] == float("-inf")

    def test_oracle_refusal_keeps_the_dappl_answer(self, tmp_path, capsys):
        # 108,000 policies are more than the enumeration oracle will try
        path = tmp_path / "dr8.dappl"
        path.write_text(gen_dr(8, seed=0))
        assert main(["solve", str(path), "--oracle"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meu"] == solve_meu(path.read_text())["meu"]
        assert payload["oracle"] == {
            "error": "policy space of size 108000 is too large to enumerate"
        }
        assert "delta" not in payload

    def test_oracle_refusal_keeps_the_pineappl_answer(self, monkeypatch, capsys):
        from optppl import oracle

        def refuse(program):
            raise oracle.OracleError("distribution support exceeds the interpreter limit")

        monkeypatch.setattr(oracle, "pineappl_interp", refuse)
        assert main(["solve", os.path.join(PROGRAMS, "diagnosis.pineappl"), "--oracle"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decisions"] == {"diagnosis": True}
        assert payload["oracle"] == {
            "error": "distribution support exceeds the interpreter limit"
        }
        assert "delta" not in payload

    def test_a_computed_choice_binding_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "computed.dappl"
        path.write_text(
            "x <- flip 0.5; y <- (if x then [A, B] else [A, B]); "
            "choose y | A -> reward 1 | B -> reward 2"
        )
        assert main(["solve", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "input"

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.dappl"
        path.write_text("choose |")
        proc = run_cli("solve", str(path))
        assert proc.returncode == 2
        assert "error" in json.loads(proc.stdout)

    @pytest.mark.parametrize("name, source, message", [
        ("bad.pineappl", "x = flip 1.2.3; pr(x)", "bad number '1.2.3' (line 1, column 10)"),
        # a literal too long for a finite double parsed as inf, and the
        # solve answered "meu": null
        ("big.dappl", f"x <- flip 0.5; if x then reward 1 else reward -{'9' * 400}",
         "number out of range (line 1, column 48)"),
    ], ids=["malformed", "out-of-range"])
    def test_malformed_number_exit_code(self, tmp_path, name, source, message):
        path = tmp_path / name
        path.write_text(source)
        proc = run_cli("solve", str(path))
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["message"] == message

    def test_usage_error_exit_code(self):
        proc = run_cli("solve")  # missing file argument
        assert proc.returncode == 1

    def test_missing_file_exit_code(self):
        proc = run_cli("solve", "/nonexistent/prog.dappl")
        assert proc.returncode == 2

    def test_gen_subcommand_deterministic(self):
        a = run_cli("gen", "dr", "--n", "2", "--seed", "5")
        b = run_cli("gen", "dr", "--n", "2", "--seed", "5")
        assert a.returncode == 0 and a.stdout == b.stdout

    def test_gen_bn_subcommand(self):
        proc = run_cli("gen", "bn", "--bn", EARTHQUAKE, "--seed", "3")
        assert proc.returncode == 0 and "choose" in proc.stdout

    def test_explicit_variable_order(self, tmp_path):
        order = tmp_path / "order.txt"
        order.write_text("c0.Umb\nc0.No_umb\nf_0.1#1\n")
        proc = run_cli(
            "solve", os.path.join(PROGRAMS, "umbrella.dappl"), "--order", str(order)
        )
        payload = json.loads(proc.stdout)
        assert abs(payload["meu"] - (-3.5)) < 1e-9

    def test_order_file_listing_a_label_twice_is_an_input_error(self, tmp_path):
        order = tmp_path / "order.txt"
        order.write_text("c0.Umb\nc0.Umb\n")
        proc = run_cli(
            "solve", os.path.join(PROGRAMS, "umbrella.dappl"), "--order", str(order)
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["kind"] == "input"

    def test_order_file_labels_stay_ahead_of_the_planned_order(self, tmp_path):
        from optppl.bdd import BddManager
        from optppl.cli import _load_order
        from optppl.dappl.compile import plan_variables

        src = gen_ladder(3, 1, seed=0)
        program = tmp_path / "ladder.dappl"
        program.write_text(src)
        pinned = ["r_6#3", "f_0.738895#5", "c0.pick0_1"]
        order = tmp_path / "order.txt"
        order.write_text("# pinned first\n" + "\n".join(pinned) + "\n")
        mgr = BddManager()
        _load_order(mgr, str(order))
        core, _, compiled = prepare(src, mgr)
        plan = plan_variables(core)
        rest = [plan.labels[i] for i in plan.order if plan.labels[i] not in pinned]
        assert [mgr.var_label(v) for v in range(len(plan.labels))] == pinned + rest
        proc = run_cli("solve", str(program), "--order", str(order))
        assert proc.returncode == 0
        want = solve_compiled(compiled)["meu"]
        assert abs(json.loads(proc.stdout)["meu"] - want) < 1e-9
        assert abs(want - solve_meu(src)["meu"]) < 1e-9


class TestBench:
    def test_bench_rows_and_columns(self, tmp_path):
        from optppl.bench import CSV_COLUMNS, run_bench

        out = tmp_path / "bench.csv"
        rows = run_bench("dr", range(1, 4), csv_path=str(out), seed=0)
        assert len(rows) == 3
        with open(out) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == CSV_COLUMNS
            parsed = list(reader)
        assert all(r["status"] == "ok" for r in parsed)
        assert all(int(r["prunes"]) >= 0 for r in parsed)

    def test_bench_empty_range_header_only(self, tmp_path):
        from optppl.bench import run_bench

        out = tmp_path / "empty.csv"
        rows = run_bench("dr", range(2, 2), csv_path=str(out), seed=0)
        assert rows == []
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1  # header only

    def test_bench_reproducible(self, tmp_path):
        from optppl.bench import run_bench

        a = run_bench("dr", range(1, 3), csv_path=str(tmp_path / "a.csv"), seed=4)
        b = run_bench("dr", range(1, 3), csv_path=str(tmp_path / "b.csv"), seed=4)
        for ra, rb in zip(a, b):
            assert ra["value"] == rb["value"]
            assert ra["policy_hash"] == rb["policy_hash"]

    def test_gridworld_rows_beyond_dim_2_are_real_solves(self, tmp_path):
        from optppl.bench import run_bench

        (row,) = run_bench("gridworld", [3], csv_path=str(tmp_path / "g.csv"), seed=0)
        assert row["status"] == "ok"
        assert row["value"] > 0 and row["nodes"] > 0

    def test_nested_mmap_nodes_are_the_solves_allocated_nodes(self, tmp_path):
        from optppl.bench import run_bench
        from optppl.pineappl import run_program

        (row,) = run_bench("nested-mmap", [4], csv_path=str(tmp_path / "n.csv"))
        assert row["nodes"] == run_program(gen_nested_mmap(4))["stats"]["bdd_nodes"]

    @pytest.mark.parametrize("flags", [
        ["--params", "5..3"],
        ["--params", "2", "--timeout", "0"],
        ["--params", "2", "--timeout", "-5"],
        ["--params", "2", "--jobs", "0"],
        ["--params", "2", "--jobs", "-3"],
    ])
    def test_bench_rejects_a_reversed_range_or_a_timeout_below_one(self, tmp_path, capsys, flags):
        out = tmp_path / "bench.csv"
        assert main(["bench", "dr", "--csv", str(out), *flags]) == USAGE_EXIT
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "usage"
        assert not out.exists()

    @pytest.mark.parametrize("text, want", [("4", (4, 4)), ("3..5", (3, 5)), ("2..2", (2, 2))])
    def test_parse_range_includes_both_ends(self, text, want):
        assert _parse_range(text) == want

    def test_quadratic_fit_helper(self):
        from helpers import fit_quadratic

        xs = list(range(2, 20))
        ys = [3 * x * x + 2 * x + 1 for x in xs]
        _, r2 = fit_quadratic(xs, ys)
        assert r2 > 0.999
