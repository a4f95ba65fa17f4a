"""Exact solvers for decision making and marginal-MAP queries over discrete
probabilistic programs, via compilation to semiring-weighted binary decision
diagrams searched with a bound-pruned branch and bound."""

from .semiring import EV, EXPECTATION, REAL
from .bdd import BddError, BddManager, FALSE, TRUE
from .bbir import (
    Bbir,
    BbirError,
    MeuObjective,
    MmapObjective,
    SolveResult,
    SearchStats,
    bb,
    evaluate_objective,
    lb,
    ub,
    ub_f,
)

__version__ = "0.1.0"

__all__ = [
    "EV", "EXPECTATION", "REAL", "FALSE", "TRUE",
    "BddError", "BddManager",
    "Bbir", "BbirError", "MeuObjective", "MmapObjective",
    "SolveResult", "SearchStats",
    "bb", "evaluate_objective", "lb", "ub", "ub_f",
    "__version__",
]
