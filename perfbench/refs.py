"""Oracle references: expected answers from the brute-force oracles.

References never come from the compiler: MEU values come from
:func:`optppl.oracle.dappl_meu_enum` (policy enumeration over the reference
interpreter) and staged-MMAP answers from
:func:`optppl.oracle.pineappl_interp` (explicit-distribution semantics).
They are stored keyed by the SHA-256 of the program text, next to the
instance key, so a changed generator is caught by name.

``refs.json`` holds the references of every program a seed can draw (the
pools of ``workloads.py``), so a run never waits for the oracles.  After a
deliberate pool change, add the new programs to the committed file with::

    python3 perfbench/refs.py --out perfbench/refs.json

A deliberate generator change also needs the stale entries deleted first,
since a changed program fails the lookup by name.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COMMITTED = os.path.join(HERE, "refs.json")

REL_TOL = 1e-9
ABS_TOL = 1e-12  # only matters for an expected value of exactly zero


class InputChanged(Exception):
    """A pooled program's text no longer matches its pinned hash."""


def oracle_answer(inst) -> dict:
    """Expected answer of one instance from the brute-force oracles."""
    from optppl import dappl, oracle, pineappl
    from optppl.dappl.ast import number_sites

    if inst.kind == "meu":
        tree = dappl.parse(inst.source)
        dappl.check_program(tree)
        core = dappl.desugar(tree)
        meu, _ = oracle.dappl_meu_enum(core, number_sites(core))
        return {"meu": meu}
    values, decisions = oracle.pineappl_interp(pineappl.expand(pineappl.parse(inst.source)))
    queries = []
    for v in values:
        if isinstance(v, tuple):  # mmap query: (assignment, mass)
            queries.append([v[0], v[1]])
        else:
            queries.append([None, v])
    return {"queries": queries, "decisions": decisions}


def solver_answer(kind: str, result: dict) -> dict:
    """The library result in the reference's shape."""
    if kind == "meu":
        return {"meu": result["meu"]}
    return {
        "queries": [[q.get("assignment"), q["value"]] for q in result["queries"]],
        "decisions": result["decisions"],
    }


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def mismatch(expected: dict, got: dict):
    """None when ``got`` matches ``expected``, else a one-line reason.

    MEU values and query probabilities agree within 1e-9 relative; staged
    decisions and MMAP assignments must be identical.
    """
    if "meu" in expected:
        if not _close(got["meu"], expected["meu"]):
            return f"meu {got['meu']!r} != oracle {expected['meu']!r}"
        return None
    if got["decisions"] != expected["decisions"]:
        return f"decisions {got['decisions']} != oracle {expected['decisions']}"
    if len(got["queries"]) != len(expected["queries"]):
        return "query count differs from the oracle"
    for i, ((ga, gv), (ea, ev)) in enumerate(zip(got["queries"], expected["queries"])):
        if ga != ea or not _close(gv, ev):
            return f"query {i}: {ga} {gv!r} != oracle {ea} {ev!r}"
    return None


def load() -> dict:
    """sha256 -> {"instance", "answer"}, the committed references."""
    with open(COMMITTED) as fh:
        return json.load(fh)


def lookup(instances, refs: dict):
    """Answers for ``instances`` and the instances that still need one.

    Raises :class:`InputChanged` naming the first instance whose program
    text differs from the one its reference was computed for.
    """
    pinned = {entry["instance"]: sha for sha, entry in refs.items()}
    answers, missing = {}, []
    for inst in instances:
        entry = refs.get(inst.sha256)
        if entry is not None and entry["instance"] == inst.key:
            answers[inst.sha256] = entry["answer"]
        elif inst.key in pinned:
            raise InputChanged(
                f"{inst.key}: generated program has sha256 {inst.sha256[:12]}, "
                f"pinned {pinned[inst.key][:12]}; the generator changed"
            )
        else:
            missing.append(inst)
    return answers, missing


def compute(instances, path: str):
    """Add oracle references for ``instances`` to the JSON file at ``path``."""
    stored = {}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    for inst in instances:
        if inst.sha256 not in stored:
            stored[inst.sha256] = {"instance": inst.key, "answer": oracle_answer(inst)}
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(dict(sorted(stored.items())), fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=COMMITTED)
    args = ap.parse_args(argv)
    instances = [inst for name in sorted(workloads.WORKLOADS) for inst in workloads.pool(name)]
    try:
        _, missing = lookup(instances, load())
    except InputChanged as exc:
        print(f"refs: {exc}", file=sys.stderr)
        return 3
    compute(missing, args.out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.exit(main())
