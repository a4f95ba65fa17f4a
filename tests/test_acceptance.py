"""Acceptance suite: one test per shipping criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Criterion 3's stated posterior constant is unattainable (see the analysis in
the failing test's message); it is kept red rather than weakened.
"""

import gc
import random
import time
from functools import partial

import pytest

from optppl import (
    EV,
    EXPECTATION,
    MeuObjective,
    bb,
    evaluate_objective,
    lb,
    ub,
)
from optppl.bdd import BddManager
from optppl.dappl import prepare, reduce, solve_compiled, solve_meu
from optppl.gen import gen_bn, gen_gridworld, gen_ladder, gen_nested_mmap
from optppl.oracle import (
    OracleError,
    brute_amc,
    dappl_meu_enum,
    pineappl_interp,
    policy_space,
    util_eu,
)
from optppl.pineappl import expand, parse as pparse, run_program
from optppl.pineappl.compile import PineapplRunError

from corpus import random_dappl_program, random_pineappl_program
from helpers import (
    all_assignments,
    fit_quadratic,
    mk_lit,
    random_bbir,
    random_meu_instance,
    rename_formula,
    substitute,
)

UMBRELLA = """
rainy <- flip 0.1;
choose [Umb, No_umb]
| Umb -> if rainy then reward 10 else reward -5
| No_umb -> if rainy then reward -100 else ()
"""
UMBRELLA_OBS = UMBRELLA.replace("rainy <- flip 0.1;", "rainy <- flip 0.1;\nobserve rainy;")

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

import os

EARTHQUAKE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data", "earthquake.json")


def verdict(number, text):
    print(f"\n[criterion {number:>2}] PASS  {text}")


def test_criterion_1_umbrella_worked_example():
    t0 = time.perf_counter()
    plain = solve_meu(UMBRELLA)
    observed = solve_meu(UMBRELLA_OBS)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    assert abs(plain["meu"] - (-3.5)) <= 1e-9
    assert plain["policy"] == {"c0": "Umb"}
    assert abs(observed["meu"] - 10.0) <= 1e-9
    assert observed["policy"] == {"c0": "Umb"}
    assert elapsed_ms < 50.0
    verdict(1, f"umbrella -3.5/Umb and 10/Umb in {elapsed_ms:.1f} ms")


def test_criterion_2_amc_and_upper_bound_worked_examples():
    mgr = BddManager()
    ids = [mgr.new_var(n) for n in ["r", "R10", "R-5", "R-100"]]
    r, r10, r5, r100 = ids
    lit = partial(mk_lit, mgr)
    phi_u = mgr.apply(
        "or",
        mgr.conjoin([lit(r, True), lit(r10, True), lit(r5, False), lit(r100, False)]),
        mgr.conjoin([lit(r, False), lit(r10, False), lit(r5, True), lit(r100, False)]),
    )
    weights = {
        r: (EV(0.1, 0), EV(0.9, 0)),
        r10: (EV(1, 10), EV(1, 0)),
        r5: (EV(1, -5), EV(1, 0)),
        r100: (EV(1, -100), EV(1, 0)),
    }
    counted = mgr.amc(phi_u, weights, EXPECTATION)
    assert EXPECTATION.isclose(counted, EV(1.0, -3.5), 1e-9)

    # the worked example's order puts the rain flip above the decision, as
    # an order file listing its label does; the planned order puts the
    # decision on top, where the root bound is already the exact MEU
    pinned = BddManager()
    pinned.new_var("f_0.1#1")
    for mgr, want in ((pinned, EV(1.0, 1.0)), (None, EV(1.0, -3.5))):
        _, _, compiled = prepare(UMBRELLA, mgr)
        problem = compiled.finalize()
        joined = problem.mgr.apply("and", *problem.formulas)
        bound = ub(problem, joined, {})
        assert EXPECTATION.isclose(bound, want, 1e-9)
    verdict(2, "AMC of the two-trace formula is (1, -3.5); root bound is (1, 1)")


def test_criterion_3_diagnosis_pins_true_and_complications():
    out = run_program(DIAGNOSIS)
    assert out["decisions"] == {"diagnosis": True}
    assert abs(out["queries"][0]["value"] - 0.2) <= 1e-9
    verdict(3, "staged query pins diagnosis=true; Pr(complications) = 0.2 (partial: see posterior test)")


def test_criterion_3_posterior_matches_stated_constant():
    """The stated posterior, 0.92 (exactly 0.35/0.38), is unattainable.

    Bayes' rule over the program's own model gives
    0.35 / (0.5*0.7 + 0.5*0.1) = 0.35/0.40 = 0.875: the stated 0.38
    denominator uses a 0.3*0.1 term where the false-disease branch
    contributes 0.5*0.1.  The compiled pipeline and the independent
    explicit-state interpreter both return 0.875 (asserted below), so the
    stated constant is kept as an honest failure rather than loosened.
    """
    out = run_program("""
        disease = flip 0.5;
        if disease { headache = flip 0.7; } else { headache = flip 0.1; }
        mmap(disease) with { headache }
    """)
    posterior = out["queries"][0]["value"]
    values, _ = pineappl_interp(expand(pparse(
        "disease = flip 0.5;"
        "if disease { headache = flip 0.7; } else { headache = flip 0.1; }"
        "mmap(disease) with { headache }"
    )))
    oracle_assignment, oracle_posterior = values[0]
    # both computation paths agree on the arithmetically correct value
    assert abs(posterior - 0.35 / 0.40) <= 1e-9
    assert abs(oracle_posterior - 0.35 / 0.40) <= 1e-9
    assert oracle_assignment == {"disease": True}
    # the criterion as stated (0.35/0.38 at 1e-9, 0.92 at 1e-2):
    assert abs(posterior - 0.35 / 0.38) <= 1e-9, (
        f"stated posterior 0.35/0.38 = {0.35 / 0.38:.6f} is not attainable: "
        f"both independent implementations compute {posterior:.6f} = 0.35/0.40 "
        "(a 0.3*0.1 denominator term where the model's false branch "
        "contributes 0.5*0.1); kept red deliberately"
    )


def test_criterion_4_compiler_correctness_differential():
    t0 = time.perf_counter()
    checked_policies = 0
    for seed in range(200):
        src = random_dappl_program(seed)
        core, sites, compiled = prepare(src)
        out = solve_compiled(compiled)
        problem = compiled.finalize()
        reference, _ = dappl_meu_enum(core, sites)
        if reference == float("-inf"):
            assert out["meu"] == float("-inf"), f"seed {seed}"
        else:
            assert abs(out["meu"] - reference) <= 1e-6, f"seed {seed}"
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
            expected = util_eu(reduce(core, policy))
            if expected == float("-inf"):
                assert value.util == float("-inf"), f"seed {seed} policy {policy}"
            else:
                assert abs(value.util - expected) <= 1e-6, f"seed {seed} policy {policy}"
            checked_policies += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    verdict(4, f"200 programs: search = enumeration; {checked_policies} per-policy ratios match in {elapsed:.1f} s")


def test_criterion_5_pineappl_differential():
    t0 = time.perf_counter()
    matched_queries = 0
    for seed in range(200):
        src = random_pineappl_program(seed)
        solver_err = oracle_err = None
        out = values = decisions = None
        try:
            out = run_program(src)
        except PineapplRunError as exc:
            solver_err = exc
        try:
            values, decisions = pineappl_interp(expand(pparse(src)))
        except OracleError as exc:
            oracle_err = exc
        assert (solver_err is None) == (oracle_err is None), f"seed {seed}"
        if solver_err is not None:
            continue
        assert out["decisions"] == decisions, f"seed {seed}"
        for got, want in zip(out["queries"], values):
            if isinstance(want, tuple):
                assert got["assignment"] == want[0], f"seed {seed}"
                assert abs(got["value"] - want[1]) <= 1e-6, f"seed {seed}"
            else:
                assert abs(got["value"] - want) <= 1e-6, f"seed {seed}"
            matched_queries += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    verdict(5, f"200 programs: {matched_queries} query values match the interpreter in {elapsed:.1f} s")


def test_criterion_6_bound_properties_exhaustive():
    rng = random.Random(606)
    completions = 0
    for _ in range(100):
        bbir, formula, var_of = random_bbir(
            rng, n_vars=rng.randint(4, 8), n_branch=rng.randint(1, 6)
        )
        mgr = bbir.mgr
        root = bbir.formulas[0]
        universe = sorted(mgr.support(root) | bbir.branch_set)
        masked = substitute(
            rename_formula(formula, var_of),
            {v: False for v in set(var_of.values()) - set(universe)},
        )
        upper = ub(bbir, root, {})
        lower = lb(bbir, root, {})
        for bits in all_assignments(bbir.branch_vars):
            T = dict(bits)
            value = brute_amc(
                substitute(masked, T),
                bbir.weights,
                [v for v in universe if v not in T],
                EXPECTATION,
            )
            pm = EXPECTATION.one
            for v in sorted(T):
                pos, neg = bbir.weights[v]
                pm = EXPECTATION.mul(pm, pos if T[v] else neg)
            value = EXPECTATION.mul(value, pm)
            completions += 1
            assert value.prob <= upper.prob + 1e-9 and value.util <= upper.util + 1e-9
            assert lower.prob <= value.prob + 1e-9 and lower.util <= value.util + 1e-9
            at_total_ub = ub(bbir, root, T)
            at_total_lb = lb(bbir, root, T)
            assert EXPECTATION.isclose(at_total_ub, value, 1e-9)
            assert EXPECTATION.isclose(at_total_lb, value, 1e-9)
    verdict(6, f"100 problems, {completions} completions: bounds dominate, boundaries exact")


def test_criterion_7_prune_soundness():
    # equality of the pruned and unpruned optimum across the same corpora
    for seed in range(200):
        src = random_dappl_program(seed)
        fast = solve_meu(src)
        slow = solve_meu(src, prune=False)
        assert (
            fast["meu"] == slow["meu"] or abs(fast["meu"] - slow["meu"]) <= 1e-9
        ), f"seed {seed}"
    rng = random.Random(707)
    meu_checked = 0
    while meu_checked < 50:
        inst = random_meu_instance(rng)
        if inst is None:
            continue
        meu_checked += 1
        objective = MeuObjective(inst)
        fast = bb(objective, inst, prune=True)
        slow = bb(objective, inst, prune=False)
        assert EXPECTATION.isclose(fast.value, slow.value, 1e-9)
    # network-derived instances prune on average
    prune_counts = []
    for seed in (3, 4, 5):
        for strategy in ("existing", "new_nodes"):
            out = solve_meu(gen_bn(EARTHQUAKE, strategy, seed=seed))
            prune_counts.append(out["stats"]["prunes"])
    average = sum(prune_counts) / len(prune_counts)
    assert average > 0.0
    verdict(7, f"prune = no-prune on all corpora; network instances prune {average:.1f}x on average")


def test_criterion_8_semiring_law_suite():
    rng = random.Random(808)
    checks = 0

    def rand_ev():
        return EV(rng.uniform(0.0, 3.0), rng.uniform(-50.0, 50.0))

    def close(a, b):
        return EXPECTATION.isclose(a, b, 1e-9)

    for _ in range(1500):
        a, b, c, d = (rand_ev() for _ in range(4))
        assert close(EXPECTATION.add(a, b), EXPECTATION.add(b, a)); checks += 1
        assert close(
            EXPECTATION.add(EXPECTATION.add(a, b), c),
            EXPECTATION.add(a, EXPECTATION.add(b, c)),
        ); checks += 1
        assert close(
            EXPECTATION.mul(EXPECTATION.mul(a, b), c),
            EXPECTATION.mul(a, EXPECTATION.mul(b, c)),
        ); checks += 1
        assert close(
            EXPECTATION.mul(a, EXPECTATION.add(b, c)),
            EXPECTATION.add(EXPECTATION.mul(a, b), EXPECTATION.mul(a, c)),
        ); checks += 1
        assert close(
            EXPECTATION.mul(EXPECTATION.add(b, c), a),
            EXPECTATION.add(EXPECTATION.mul(b, a), EXPECTATION.mul(c, a)),
        ); checks += 1
        assert EXPECTATION.mul(a, EXPECTATION.zero) == EXPECTATION.zero; checks += 1
        assert EXPECTATION.mul(EXPECTATION.zero, a) == EXPECTATION.zero; checks += 1
        # compatibility and lattice structure
        if EXPECTATION.cmp_le(a, b):
            assert EXPECTATION.total_le(a, b)
        checks += 1
        if EXPECTATION.cmp_le(a, b) and EXPECTATION.cmp_le(c, d):
            assert EXPECTATION.cmp_le(EXPECTATION.add(a, c), EXPECTATION.add(b, d))
        checks += 1
        j = EXPECTATION.join(a, b)
        assert EXPECTATION.cmp_le(a, j) and EXPECTATION.cmp_le(b, j); checks += 1
        m = EXPECTATION.meet(a, b)
        assert EXPECTATION.cmp_le(m, a) and EXPECTATION.cmp_le(m, b); checks += 1
    # commuting bound over random tables
    for _ in range(500):
        nx, ny = rng.randint(1, 4), rng.randint(1, 4)
        table = [[rand_ev() for _ in range(ny)] for _ in range(nx)]
        row_sums = []
        for x in range(nx):
            acc = EXPECTATION.zero
            for y in range(ny):
                acc = EXPECTATION.add(acc, table[x][y])
            row_sums.append(acc)
        left = row_sums[0]
        for v in row_sums[1:]:
            left = EXPECTATION.join(left, v)
        right = EXPECTATION.zero
        for y in range(ny):
            col = table[0][y]
            for x in range(1, nx):
                col = EXPECTATION.join(col, table[x][y])
            right = EXPECTATION.add(right, col)
        assert right.prob >= left.prob - 1e-9 and right.util >= left.util - 1e-9
        checks += 1
    assert checks >= 10000
    verdict(8, f"{checks} randomized algebraic checks, zero failures")


def test_criterion_9_loop_sugar_soundness():
    rng = random.Random(909)
    cases = 0
    for n in range(1, 6):
        for _ in range(10):
            k = round(rng.uniform(-100.0, 100.0), 6)
            out = solve_meu(f"loop {n} {{ reward {k} }}")
            assert abs(out["meu"] - n * k) <= 1e-9
            cases += 1
    verdict(9, f"{cases} bounded-loop instances hit n*k exactly")


def test_criterion_10_nested_query_scaling_shape():
    t0 = time.perf_counter()
    times = {}
    # best of 7 for every n, over 7 interleaved rounds: a slow spell of the
    # host then costs one round a band of n, not every run of that band.
    # Each solve starts from a collected heap with the cyclic GC off, as
    # timeit does, so no solve pays for garbage that earlier ones left.
    # A solve takes 1-10 ms, so it is timed in process CPU time: wall time
    # also counts the time other processes hold the CPU, which decided the
    # fit on a loaded host.
    for round_ in range(7):
        for n in range(2, 41):
            gc.collect()
            gc.disable()
            try:
                start = time.process_time()
                out = run_program(gen_nested_mmap(n))
                elapsed = time.process_time() - start
            finally:
                gc.enable()
            times[n] = min(times.get(n, elapsed), elapsed)
            if round_ == 0 and n <= 10:
                values, decisions = pineappl_interp(expand(pparse(gen_nested_mmap(n))))
                assert abs(out["queries"][0]["value"] - values[0]) <= 1e-9, f"n={n}"
                assert out["decisions"] == decisions, f"n={n}"
    _, r2 = fit_quadratic(list(times), [times[n] for n in times])
    assert r2 >= 0.9, f"quadratic fit r^2 = {r2:.4f}"
    worst_ratio = 0.0
    for n in range(2, 21):
        ratio = times[2 * n] / times[n]
        worst_ratio = max(worst_ratio, ratio)
        assert ratio <= 8.0, f"t({2 * n})/t({n}) = {ratio:.2f}"
    total = time.perf_counter() - t0
    assert total < 300.0
    verdict(
        10,
        f"n=2..40 staged solves: oracle-exact to n=10, fit r^2={r2:.3f}, "
        f"worst doubling ratio {worst_ratio:.2f}, total {total:.0f} s",
    )


def test_criterion_11_reduced_size_family_coverage():
    # absolute timing tables are explicitly not reproduced; correctness on
    # the same families is checked at desk scale against the oracles
    def check(src):
        core, sites, compiled = prepare(src)
        out = solve_compiled(compiled)
        reference, _ = dappl_meu_enum(core, sites)
        assert abs(out["meu"] - reference) <= 1e-6

    for n in (1, 2, 3):
        check(gen_ladder(n, 1, seed=n))
    check(gen_ladder(2, 2, seed=5))
    for dim, horizon in ((2, 1), (3, 1), (3, 2)):
        check(gen_gridworld(dim, horizon, 0.1, seed=dim + horizon))
    for strategy in ("existing", "new_nodes"):
        src = gen_bn(EARTHQUAKE, strategy, seed=11)
        check(src)
    verdict(11, "ladder n<=3, grid dim<=3 horizon<=2, 5-node network: all oracle-equal")
