"""Workload pools and the seeded draw of a run's instance list.

Each workload is a fixed pool of generated programs, split into strata by
size.  A run's instance list takes a seeded number of programs from every
stratum without replacement (cycling through the stratum when it asks for
more than the stratum holds) and shuffles the result, so two seeds solve
different programs in a different order while the size profile, and hence
the run's total work, stays the same.  The heaviest strata are drawn whole
and the others nearly so: a dr chain's solve time varies up to tenfold with
its generator seed, and a run of about a hundred solves would otherwise let
the draw, not the code, move ``wall_s`` and ``solve_ms_p90``.  The pools are
finite so the oracle references of every program can be committed
(``refs.json``); a seed never waits for the brute-force oracles.

Programs come from :mod:`optppl.gen` and are pinned by the SHA-256 of their
text: a change to a generator that alters a pooled program fails the run
and names the instance instead of silently changing the workload.

Left out on purpose:

* ``dr`` stops at n=6 because :func:`optppl.oracle.dappl_meu_enum` refuses
  policy spaces above 2^14, and ``dr`` n=7 seed 0 already has 18,000
  policies.
* ``dr`` starts at n=3, and n=5 and n=6 stay few, so that a run of about
  30 s holds at least 100 solves and ten of them lie beyond the p90.
* ``ladder`` k=1 starts at n=4, and n=6 stays few, for the same 100-solve
  budget; at these sizes compile takes about 40% of the traced self time
  and bound passes about half.
* ``ladder`` k=2 n=3 (42 branch variables) did not finish in 10 minutes;
  it is search-bound and belongs to a later capacity benchmark.  ``ladder``
  k=2 n=2 is also out of ``meu-search``: its solve time ranges 0.1 to 1.7 s
  with the weights alone, which made the p90 depend on the draw.
* ``nested-mmap`` stops at a loop bound of 20 for the same 100-solve budget;
  its solve time grows about quadratically with the bound.
* ``gridworld`` and ``bn`` solve in under 0.3 s with parsing as their
  largest share, so they would measure the front end, which the three
  workloads below already cover.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from optppl import gen


@dataclass(frozen=True)
class Instance:
    key: str  # family and generator arguments, e.g. "dr(n=5,seed=3)"
    kind: str  # "meu" (dappl.solve_meu) or "mmap" (pineappl.run_program)
    source: str
    sha256: str


@dataclass(frozen=True)
class Stratum:
    family: str
    pool: tuple  # generator keyword arguments, one dict per program
    count: int  # programs this stratum adds to every instance list


# family -> (generator, solver kind)
FAMILIES = {
    "dr": (gen.gen_dr, "meu"),
    "ladder": (gen.gen_ladder, "meu"),
    "nested-mmap": (gen.gen_nested_mmap, "mmap"),
}


def _seeds(family, count, pool_size, **fixed):
    pool = tuple(dict(fixed, seed=s) for s in range(pool_size))
    return Stratum(family, pool, count)


def _sizes(family, count, sizes):
    return Stratum(family, tuple({"n": n} for n in sizes), count)


WORKLOADS = {
    # bound passes dominate every dr solve; the pool sizes keep the heavy
    # n=5 and n=6 chains in every list so the tail is the same across seeds
    "meu-search": (
        _seeds("dr", 40, 48, n=3),
        _seeds("dr", 44, 48, n=4),
        _seeds("dr", 16, 16, n=5),
        _seeds("dr", 4, 4, n=6),
    ),
    # one choice site over a wide diagram: compile is about 40% of the
    # traced self time here, against 0.5% on meu-search
    "meu-compile": (
        _seeds("ladder", 44, 64, n=4, k=1),
        _seeds("ladder", 50, 64, n=5, k=1),
        _seeds("ladder", 6, 8, n=6, k=1),
    ),
    # staged MMAP against a growing constraint; the program depends on the
    # loop bound alone, so the seed draws bounds within each band
    "staged-mmap": (
        _sizes("nested-mmap", 60, range(5, 8)),
        _sizes("nested-mmap", 26, range(8, 12)),
        _sizes("nested-mmap", 10, range(12, 17)),
        _sizes("nested-mmap", 4, range(17, 21)),
    ),
}


def instance_key(family: str, args: dict) -> str:
    return f"{family}({','.join(f'{k}={v}' for k, v in sorted(args.items()))})"


def make_instance(family: str, args: dict) -> Instance:
    generator, kind = FAMILIES[family]
    source = generator(**args)
    digest = hashlib.sha256(source.encode()).hexdigest()
    return Instance(instance_key(family, args), kind, source, digest)


def pool(workload: str) -> list:
    """Every program a seed of ``workload`` can draw."""
    return [
        make_instance(s.family, args) for s in WORKLOADS[workload] for args in s.pool
    ]


def draw(workload: str, seed: int, half: bool = False) -> list:
    """The seed's instance list: a stratified draw from the pool, shuffled.

    ``half`` takes half of every stratum's count, rounded up, so the shorter
    list of a traced run keeps the same size profile.
    """
    rng = random.Random(f"{workload}/{seed}")
    picked = []
    for stratum in WORKLOADS[workload]:
        count = (stratum.count + 1) // 2 if half else stratum.count
        chosen = []
        while len(chosen) < count:
            order = list(stratum.pool)
            rng.shuffle(order)
            chosen.extend(order[: count - len(chosen)])
        picked.extend(make_instance(stratum.family, args) for args in chosen)
    rng.shuffle(picked)
    return picked
