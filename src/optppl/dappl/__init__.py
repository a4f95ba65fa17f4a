"""Decision language pipeline: parse, desugar (which type-checks), compile, solve."""

from __future__ import annotations

from .. import bbir as B
from ..bdd import BddManager
from .ast import number_sites
from .compile import CompiledDappl, DapplCompileError, compile_program
from .desugar import DapplDesugarError, check, check_program, desugar
from .parser import DapplSyntaxError, parse
from .reduce import DapplReduceError, reduce
from .types import DapplTypeError

__all__ = [
    "parse", "check", "check_program", "desugar", "number_sites", "reduce",
    "compile_program", "prepare", "solve_compiled", "solve_meu",
    "DapplSyntaxError", "DapplTypeError", "DapplDesugarError",
    "DapplReduceError", "DapplCompileError",
]


def prepare(source: str, mgr: BddManager | None = None):
    """parse -> desugar (which type-checks) -> compile.

    Compilation numbers the core's choice sites and registers the
    program's variables in the order planned from its structure (see
    :func:`compile_program`); labels already registered in ``mgr``, as the
    CLI's ``--order`` file does, keep their positions ahead of the rest.
    Returns ``(core AST, sites, CompiledDappl)``, where ``sites`` lists
    ``(site id, names)`` as :func:`number_sites` does.
    """
    core = desugar(parse(source))
    compiled = compile_program(core, mgr)
    return core, [(site.site, site.names) for site in compiled.sites], compiled


def solve_meu(
    source: str,
    *,
    prune: bool = True,
    mgr: BddManager | None = None,
) -> dict:
    """Solve a program for its maximum expected utility.

    Runs :func:`prepare` then :func:`solve_compiled`.
    """
    _, _, compiled = prepare(source, mgr)
    return solve_compiled(compiled, prune=prune)


def solve_compiled(compiled: CompiledDappl, *, prune: bool = True) -> dict:
    """Finalize a compiled program and search it for the optimal policy.

    Returns a JSON-ready dict with the scalar optimum, the chosen
    alternative per choice site, the semiring value, and search statistics.
    """
    problem = compiled.finalize()
    result = B.bb(B.MeuObjective(problem), problem, prune=prune)
    out = {
        "meu": result.scalar,
        "policy": _policy_names(compiled, result.witness),
        "value": {"prob": result.value.prob, "util": result.value.util},
        "stats": result.stats.to_dict(),
    }
    if result.scalar == float("-inf"):
        out["warning"] = "every policy contradicts the observations"
    return out


def _policy_names(compiled: CompiledDappl, witness: dict) -> dict:
    policy = {}
    for site in compiled.sites:
        chosen = [name for name, var in zip(site.names, site.vars) if witness.get(var)]
        # an unused site never enters the search; default to its first name
        policy[f"c{site.site}"] = chosen[0] if chosen else site.names[0]
    return policy
