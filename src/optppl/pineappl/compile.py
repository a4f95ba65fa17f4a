"""Staged Boolean compilation: statements accumulate a definitional constraint,
mmap statements are solved against it mid-compilation, and queries evaluate
as ratios of real-semiring model counts over the finished constraint.

Every program variable ``x`` gets a BDD variable and a definition ``x <-> phi``;
the conjunction of all definitions is the global constraint.  A flip's
randomness lives in its own weighted variable, program variables carry unit
weights on both literals, and each solved mmap answer is baked in as a
deterministic indicator variable, so later statements and queries see the
decided value.
"""

from __future__ import annotations

import time

from ..bbir import Bbir, BbirError, MmapObjective, bb
from ..bdd import BddManager, WeightMap
from ..semiring import REAL
from . import ast as A
from .expand import expand
from .parser import parse


class PineapplCompileError(Exception):
    pass


class PineapplRunError(Exception):
    pass


class Compiler:
    def __init__(self, mgr: BddManager | None = None):
        self.mgr = mgr if mgr is not None else BddManager()
        self.weights = WeightMap()
        self.env = {}  # program name -> BDD variable
        self._constraint = self.mgr.mk_true()
        self._pending = []  # definition constraints not yet conjoined
        self.decisions = {}
        self.solver_stats = []
        self._flips = 0
        self._marks = 0
        self._started = time.perf_counter()

    @property
    def constraint(self) -> int:
        """Conjunction of all definitions; pending ones are folded in lazily.

        New definitions mention only recent variables, so conjoining them
        with each other first keeps the walks over the accumulated
        constraint down to one per staged query instead of one per
        statement.  The batch is folded newest first: each definition sits
        at the bottom of the variable order, so a left-to-right fold would
        rebuild the whole diagram above it at every step.
        """
        if self._pending:
            batch = self.mgr.conjoin(reversed(self._pending))
            self._pending = []
            self._constraint = self.mgr.apply("and", self._constraint, batch)
        return self._constraint

    # -- expression compilation -------------------------------------------------

    def compile_expr(self, e: A.Expr) -> int:
        mgr = self.mgr
        if isinstance(e, A.ELit):
            return mgr.mk_true() if e.value else mgr.mk_false()
        if isinstance(e, A.EVar):
            if e.name not in self.env:
                raise PineapplCompileError(f"unbound variable {e.name!r}")
            return mgr.mk_var(self.env[e.name])
        if isinstance(e, A.EAnd):
            return mgr.apply("and", self.compile_expr(e.left), self.compile_expr(e.right))
        if isinstance(e, A.EOr):
            return mgr.apply("or", self.compile_expr(e.left), self.compile_expr(e.right))
        if isinstance(e, A.ENot):
            return mgr.negate(self.compile_expr(e.operand))
        raise PineapplCompileError(f"bad expression {e!r}")

    # -- statement compilation ------------------------------------------------------

    def _define(self, name: str, definition: int):
        if name in self.env:
            raise PineapplCompileError(f"duplicate binding of {name!r} after renaming")
        var = self.mgr.ensure_var(name)
        self.weights.set(var, 1.0, 1.0)
        self.env[name] = var
        self._pending.append(self.mgr.apply("iff", self.mgr.mk_var(var), definition))
        return var

    def compile_stmt(self, stmt: A.Stmt):
        mgr = self.mgr
        if isinstance(stmt, A.SFlip):
            self._flips += 1
            f = mgr.ensure_var(f"f_{stmt.theta:g}@{self._flips}")
            self.weights.set(f, stmt.theta, 1.0 - stmt.theta)
            self._define(stmt.name, mgr.mk_var(f))
        elif isinstance(stmt, A.SAssign):
            self._define(stmt.name, self.compile_expr(stmt.value))
        elif isinstance(stmt, A.SIf):
            # branches bind disjoint names after expansion; join points are
            # ordinary assignments, so both sides extend the same state
            for inner in stmt.then:
                self.compile_stmt(inner)
            for inner in stmt.els:
                self.compile_stmt(inner)
        elif isinstance(stmt, A.SMmap):
            self.compile_mmap(stmt)
        else:
            raise PineapplCompileError(f"unexpected statement {stmt!r}")

    def compile_mmap(self, stmt: A.SMmap):
        assignment, _, result = self.solve_mmap(stmt.queried, stmt.evidence)
        for out_name, queried in zip(stmt.outputs, stmt.queried):
            decided = assignment[queried]
            self._marks += 1
            k = self.mgr.ensure_var(f"k@{self._marks}")
            self.weights.set(k, 1.0 if decided else 0.0, 0.0 if decided else 1.0)
            self._define(out_name, self.mgr.mk_var(k))
            self.decisions[out_name] = decided
        self.solver_stats.append(result.stats.to_dict())
        # one staged solve is done; its operation caches will not be re-hit
        self.mgr.drop_op_caches()

    def solve_mmap(self, queried, evidence):
        """Run the staged query against the constraint compiled so far."""
        mgr = self.mgr
        psi = mgr.mk_true() if evidence is None else self.compile_expr(evidence)
        for name in queried:
            if name not in self.env:
                raise PineapplCompileError(f"mmap over undefined variable {name!r}")
        # a name queried twice is one branch variable
        branch_vars = sorted({self.env[name] for name in queried})
        problem = Bbir(
            mgr=mgr,
            formulas=[self.constraint, mgr.apply("and", psi, self.constraint)],
            branch_vars=branch_vars,
            weights=self.weights,
            semiring=REAL,
        )
        try:
            objective = MmapObjective(problem)
        except BbirError as exc:
            raise PineapplRunError(f"mmap evidence is impossible: {exc}") from exc
        # false tried first: argmax ties resolve to the smallest assignment
        result = bb(objective, problem, literal_order=(False, True))
        by_name = {name: result.witness[self.env[name]] for name in queried}
        return by_name, result.scalar, result

    # -- queries -----------------------------------------------------------------

    def run_query(self, q) -> dict:
        mgr = self.mgr
        if isinstance(q, A.QPr):
            chi = self.compile_expr(q.expr)
            psi = mgr.mk_true() if q.evidence is None else self.compile_expr(q.evidence)
            den = mgr.amc(mgr.apply("and", psi, self.constraint), self.weights, REAL)
            if den == 0.0:
                raise PineapplRunError(f"query evidence has zero probability: {q.text}")
            num = mgr.amc(mgr.conjoin([chi, self.constraint, psi]), self.weights, REAL)
            return {"query": q.text, "value": num / den}
        if isinstance(q, A.QMmap):
            assignment, posterior, result = self.solve_mmap(q.queried, q.evidence)
            return {"query": q.text, "assignment": assignment, "value": posterior}
        raise PineapplCompileError(f"unexpected query {q!r}")


def compile_source(source: str, mgr: BddManager | None = None):
    """parse -> expand -> compile statements; queries are left to the caller."""
    compiler = Compiler(mgr)  # created first: its clock times the whole pipeline
    program = expand(parse(source))
    for stmt in program.statements:
        compiler.compile_stmt(stmt)
    return program, compiler


def run_compiled(program: A.Program, compiler: Compiler) -> dict:
    """Run the queries of a compiled program.

    Returns queries, staged decisions, and statistics; ``elapsed_ms`` counts
    from the compiler's creation.
    """
    results = [compiler.run_query(q) for q in program.queries]
    return {
        "queries": results,
        "decisions": dict(compiler.decisions),
        "stats": {
            "elapsed_ms": round((time.perf_counter() - compiler._started) * 1000.0, 3),
            "bdd_nodes": compiler.mgr.num_nodes,
            "mmap_solves": compiler.solver_stats,
        },
    }


def run_program(source: str, mgr: BddManager | None = None) -> dict:
    """Full pipeline: :func:`compile_source` then :func:`run_compiled`."""
    return run_compiled(*compile_source(source, mgr))
