"""Command-line drivers: solve, gen, bench, dot.

Exit codes: 0 ok, 1 usage, 2 input error (parsing, typing, malformed
network), 3 solve error.  Errors are reported as a JSON object on stdout.
Output is strict JSON: a non-finite float (the library's ``-inf`` utility
of a program whose observations contradict every policy) is written as null.
All output is plain text; NO_COLOR needs no special handling.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bdd import BddError, BddManager
from . import dappl, pineappl
from .gen import GenError, gen_bn, gen_dr, gen_gridworld, gen_ladder, gen_nested_mmap

USAGE_EXIT = 1
INPUT_EXIT = 2
SOLVE_EXIT = 3

_INPUT_ERRORS = (
    dappl.DapplSyntaxError,
    dappl.DapplTypeError,
    dappl.DapplDesugarError,
    pineappl.PineapplSyntaxError,
    pineappl.PineapplExpandError,
    GenError,
    FileNotFoundError,
    json.JSONDecodeError,
)


def _finite(value):
    # strict JSON has no Infinity or NaN; a non-finite float is written as null
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _emit(payload):
    json.dump(_finite(payload), sys.stdout, indent=2, allow_nan=False)
    sys.stdout.write("\n")


def _fail(code, kind, message):
    _emit({"error": {"kind": kind, "message": str(message)}})
    return code


def _load_order(mgr: BddManager, path):
    with open(path) as fh:
        for line in fh:
            label = line.strip()
            if label and not label.startswith("#"):
                mgr.new_var(label)


def _detect_lang(path, override):
    if override:
        return override
    if path.endswith(".dappl"):
        return "dappl"
    if path.endswith(".pineappl"):
        return "pineappl"
    raise ValueError(f"cannot infer the language of {path!r}; pass --lang")


def cmd_solve(args) -> int:
    try:
        lang = _detect_lang(args.file, args.lang)
        with open(args.file) as fh:
            source = fh.read()
    except (ValueError, FileNotFoundError) as exc:
        return _fail(INPUT_EXIT, "input", exc)
    mgr = BddManager()
    if args.order:
        try:
            _load_order(mgr, args.order)
        except (OSError, BddError) as exc:  # unreadable, or a label listed twice
            return _fail(INPUT_EXIT, "input", exc)
    try:
        if lang == "dappl":
            return _solve_dappl(args, source, mgr)
        return _solve_pineappl(args, source, mgr)
    except _INPUT_ERRORS as exc:
        return _fail(INPUT_EXIT, "input", exc)
    except Exception as exc:
        return _fail(SOLVE_EXIT, "solve", exc)


def _solve_dappl(args, source, mgr) -> int:
    core, sites, compiled = dappl.prepare(source, mgr)
    out = dappl.solve_compiled(compiled, prune=not args.no_prune)
    if not args.stats:
        out.pop("stats", None)
    if args.oracle:
        from .oracle import OracleError, dappl_meu_enum

        try:
            eu, policy = dappl_meu_enum(core, sites)
        except OracleError as exc:  # too large to enumerate: keep the answer
            out["oracle"] = {"error": str(exc)}
        else:
            out["oracle"] = {"meu": eu, "policy": {f"c{s}": n for s, n in policy.items()}}
            out["delta"] = abs(out["meu"] - eu) if eu != float("-inf") else 0.0
    if args.dot:
        # finalizing again yields the same hash-consed handles the search used
        problem = compiled.finalize()
        text = mgr.to_dot(problem.formulas, names=["phi", "gamma"])
        with open(args.dot, "w") as fh:
            fh.write(text)
        out["dot"] = args.dot
    _emit(out)
    return 0


def _solve_pineappl(args, source, mgr) -> int:
    program, compiler = pineappl.compile_source(source, mgr)
    out = pineappl.run_compiled(program, compiler)
    if not args.stats:
        out.pop("stats", None)
    if args.oracle:
        from .oracle import OracleError, pineappl_interp

        try:
            vals, decisions = pineappl_interp(program)
        except OracleError as exc:  # too large to interpret: keep the answer
            out["oracle"] = {"error": str(exc)}
        else:
            # an mmap query's value is its (assignment, mass) pair
            queries = [{"assignment": v[0], "value": v[1]} if isinstance(v, tuple)
                       else {"value": v} for v in vals]
            out["oracle"] = {"queries": queries, "decisions": decisions}
            deltas = [abs(q["value"] - want["value"]) for q, want in zip(out["queries"], queries)]
            out["delta"] = max(deltas, default=0.0)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(mgr.to_dot([compiler.constraint], names=["defs"]))
        out["dot"] = args.dot
    _emit(out)
    return 0


def cmd_dot(args) -> int:
    args.oracle = False
    args.stats = False
    args.no_prune = False
    args.dot = args.out
    return cmd_solve(args)


def cmd_gen(args) -> int:
    try:
        if args.family == "bn":
            text = gen_bn(args.bn, args.strategy, args.seed)
        elif args.family == "dr":
            text = gen_dr(args.n, seed=args.seed)
        elif args.family == "ladder":
            text = gen_ladder(args.n, args.k, seed=args.seed)
        elif args.family == "gridworld":
            text = gen_gridworld(args.dim, args.horizon, args.slip, seed=args.seed)
        elif args.family == "nested-mmap":
            text = gen_nested_mmap(args.n)
        else:
            return _fail(USAGE_EXIT, "usage", f"unknown family {args.family!r}")
    except _INPUT_ERRORS as exc:
        return _fail(INPUT_EXIT, "input", exc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def cmd_bench(args) -> int:
    from .bench import run_bench

    try:
        lo, hi = _parse_range(args.params)
    except ValueError as exc:
        return _fail(USAGE_EXIT, "usage", exc)
    if args.timeout <= 0:
        return _fail(USAGE_EXIT, "usage", f"--timeout must be positive, got {args.timeout}")
    if args.jobs <= 0:
        return _fail(USAGE_EXIT, "usage", f"--jobs must be positive, got {args.jobs}")
    try:
        rows = run_bench(
            args.family,
            range(lo, hi + 1),
            csv_path=args.csv,
            seed=args.seed,
            timeout_ms=args.timeout,
            bn=args.bn,
            strategy=args.strategy,
            jobs=args.jobs,
        )
    except _INPUT_ERRORS as exc:
        return _fail(INPUT_EXIT, "input", exc)
    _emit({"rows": len(rows), "csv": args.csv})
    return 0


def _parse_range(text):
    """``N`` or ``LO..HI``, both ends included; a reversed range is an error."""
    lo, sep, hi = text.partition("..")
    lo, hi = int(lo), int(hi) if sep else int(lo)
    if lo > hi:
        raise ValueError(f"reversed parameter range {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optppl",
        description="Exact decision and marginal-MAP solving for discrete "
        "probabilistic programs via weighted decision diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a .dappl or .pineappl program")
    solve.add_argument("file")
    solve.add_argument("--lang", choices=["dappl", "pineappl"])
    solve.add_argument("--dot", metavar="PATH", help="write the compiled diagram")
    solve.add_argument("--oracle", action="store_true", help="also run brute force")
    solve.add_argument("--order", metavar="FILE", help="explicit variable order")
    solve.add_argument("--no-prune", action="store_true", help="disable pruning")
    solve.add_argument("--stats", action="store_true", help="include statistics")
    solve.set_defaults(run=cmd_solve)

    dot = sub.add_parser("dot", help="compile a program and write GraphViz text")
    dot.add_argument("file")
    dot.add_argument("--lang", choices=["dappl", "pineappl"])
    dot.add_argument("--order", metavar="FILE")
    dot.add_argument("-o", "--out", required=True)
    dot.set_defaults(run=cmd_dot)

    gen = sub.add_parser("gen", help="emit a benchmark-family program")
    gensub = gen.add_subparsers(dest="family", required=True)
    g_bn = gensub.add_parser("bn")
    g_bn.add_argument("--bn", required=True, help="network JSON file")
    g_bn.add_argument("--strategy", choices=["existing", "new_nodes"], default="existing")
    g_bn.add_argument("--seed", type=int, default=0)
    g_dr = gensub.add_parser("dr")
    g_dr.add_argument("--n", type=int, required=True)
    g_dr.add_argument("--seed", type=int, default=0)
    g_ladder = gensub.add_parser("ladder")
    g_ladder.add_argument("--n", type=int, required=True)
    g_ladder.add_argument("--k", type=int, default=1)
    g_ladder.add_argument("--seed", type=int, default=0)
    g_grid = gensub.add_parser("gridworld")
    g_grid.add_argument("--dim", type=int, required=True)
    g_grid.add_argument("--horizon", type=int, required=True)
    g_grid.add_argument("--slip", type=float, default=0.1)
    g_grid.add_argument("--seed", type=int, default=0)
    g_nested = gensub.add_parser("nested-mmap")
    g_nested.add_argument("--n", type=int, required=True)
    for g in (g_bn, g_dr, g_ladder, g_grid, g_nested):
        g.add_argument("-o", "--out")
        g.set_defaults(run=cmd_gen)

    bench = sub.add_parser("bench", help="run a family over a parameter range")
    bench.add_argument("family", choices=["dr", "ladder", "gridworld", "nested-mmap", "bn"])
    bench.add_argument("--params", required=True, help="N or LO..HI")
    bench.add_argument("--csv", required=True)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--timeout", type=int, default=60000, metavar="MS")
    bench.add_argument("--jobs", type=int, default=1, help="worker processes")
    bench.add_argument("--bn", help="network JSON (family bn)")
    bench.add_argument("--strategy", choices=["existing", "new_nodes"], default="existing")
    bench.set_defaults(run=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_EXIT
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
