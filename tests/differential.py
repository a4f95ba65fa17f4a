"""Differential dump of solver results over random and generated programs.

Run it at two revisions and compare the outputs::

    PYTHONPATH=src:tests python3 tests/differential.py > out.txt

Each case prints one line: its tag, then its result with every float in
``float.hex`` form (so two runs agree only when they are bit for bit equal),
or ``ERR <type> <message>``.  Timings and memo sizes are left out; every
other search statistic is printed.  The ``dappl-sugared`` cases solve the
sugared copies of ``random_sugared_dappl_program``.  The lines
``total bdd_nodes N`` and ``total mmap_cache_hits N`` sum those statistics
over every case before them but the ``dappl-sugared`` ones.  The last line,
``plans sha256 <hex>``, digests the labels and order that
``plan_variables`` gives every dappl case, so a changed variable order shows
even where the node totals agree.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import random

from optppl import EV, MeuObjective, MmapObjective, bb, lb, ub, ub_f
from optppl.dappl import desugar, parse, solve_meu
from optppl.dappl.compile import plan_variables
from optppl.gen import gen_dr, gen_gridworld, gen_ladder, gen_nested_mmap
from optppl.pineappl import run_program

from corpus import random_dappl_program, random_pineappl_program, random_sugared_dappl_program
from helpers import random_meu_instance, random_mmap_instance

# timings vary between runs; memo sizes are not results
LEFT_OUT = ("elapsed_ms", "bound_memo_entries")
# the statistics summed over every case on the last lines
SUMMED = ("bdd_nodes", "mmap_cache_hits")


def fmt(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, EV):
        return f"EV({fmt(value.prob)}, {fmt(value.util)})"
    if isinstance(value, dict):
        items = (f"{fmt(k)}: {fmt(v)}" for k, v in value.items() if k not in LEFT_OUT)
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(fmt(v) for v in value) + "]"
    return repr(value)


def case(tag: str, run) -> dict:
    """Print one case; return its ``stats``, or {} when it has none."""
    try:
        result = run()
        out = fmt(result)
    except Exception as exc:  # every failure is part of the output
        print(tag, f"ERR {type(exc).__name__} {exc}")
        return {}
    print(tag, out)
    return result.get("stats", {}) if isinstance(result, dict) else {}


def search(objective_class, inst, partial_rng, literal_order):
    objective = objective_class(inst)
    result = bb(objective, inst, literal_order=literal_order)
    stats = result.stats
    branch = list(inst.branch_vars)
    partial = {v: partial_rng.random() < 0.5
               for v in partial_rng.sample(branch, k=partial_rng.randint(0, len(branch)))}
    phi = inst.formulas[0]
    return (result.value, result.witness, stats.prunes, stats.bound_calls, stats.invalid,
            ub(inst, phi, partial), lb(inst, phi, partial), ub_f(objective, inst, partial))


def plan_digest(sources) -> str:
    """sha256 over each program's planned labels and order, or its error type."""
    digest = hashlib.sha256()
    for src in sources:
        try:
            plan = plan_variables(desugar(parse(src)))
            line = repr((plan.labels, plan.order))
        except Exception as exc:  # a program the front end refuses
            line = f"ERR {type(exc).__name__}"
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def main():
    stats, dappl = [], []

    def meu(tag, src):
        dappl.append(src)
        return case(tag, lambda: solve_meu(src))

    for seed in range(400):
        stats.append(meu(f"dappl-random {seed}", random_dappl_program(seed)))
    for seed in range(600):
        src = random_pineappl_program(seed, max_flips=6, max_mmaps=4)
        stats.append(case(f"pineappl-random {seed}", lambda: run_program(src)))
    for seed in range(300):
        inst = random_meu_instance(random.Random(seed))
        if inst is not None:
            stats.append(case(f"meu-instance {seed}", lambda: search(
                MeuObjective, inst, random.Random(10_000 + seed), (True, False))))
        out = random_mmap_instance(random.Random(seed))
        if out is not None:
            stats.append(case(f"mmap-instance {seed}", lambda: search(
                MmapObjective, out[0], random.Random(20_000 + seed), (False, True))))
    for n in range(3, 7):
        stats.append(meu(f"dr {n}", gen_dr(n, seed=0)))
        stats.append(meu(f"ladder {n}", gen_ladder(n, seed=0)))
    stats.append(meu("ladder 2 k=2 seed=5", gen_ladder(2, 2, seed=5)))
    stats.append(meu("gridworld 4 6", gen_gridworld(4, 6, 0.1, seed=0)))
    for n in (5, 9, 14, 20):
        stats.append(case(f"nested-mmap {n}", lambda: run_program(gen_nested_mmap(n))))
    for seed in range(200):
        meu(f"dappl-sugared {seed}", random_sugared_dappl_program(seed)[0])
    for name in SUMMED:
        print("total", name, sum(s.get(name, 0) for s in stats))
    print("plans sha256", plan_digest(dappl))


if __name__ == "__main__":
    main()
