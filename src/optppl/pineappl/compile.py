"""Staged Boolean compilation: statements accumulate definitions, mmap
statements are solved mid-compilation, and queries evaluate as ratios of
real-semiring model counts.

A flip's randomness lives in its own weighted variable, labelled
``f_<theta>#<n>`` (``#`` is in no program name).  A name whose definition
compiles to one variable is that variable, as Dice compiles a name to the
diagram it is bound to: a flip, and a copy ``y = x`` or a join point that
folds to one version, add no variable and no definition.  Every other name
gets its own BDD variable, with unit weights on both literals, and a
definition ``x <-> phi``.  An mmap sums over a flip's variable, so it
branches on the flip's program variable instead: that variable is
registered just above its flip, where an MMAP query variable belongs, and
gets its definition ``x <-> f`` when an mmap first branches on the flip.

A solved mmap answer is a known value, so each output is defined as the
constant it was decided to be.  A name whose definition compiles to a
constant (a decided output, ``m = tt``, or a contradiction such as
``x && !x``) compiles to that constant wherever it is read, as a partial
evaluator folds a known value into the rest of a program.  The name keeps
its own variable and definition ``x <-> const``, so ``mmap(x)`` still
branches on it and :attr:`Compiler.constraint` still defines it.  An ``if``
whose guard reads as a constant compiles only its live arm.  Every name the
dead arm binds reads as FALSE and adds no variable, weight or definition:
after expansion only the join points right after the ``if`` read it, under
the guard that rules it out.  The dead arm's flips still count, so every
live flip keeps its label ``f_<theta>#<n>``.  A dead arm that holds an
``mmap`` compiles all the same, since its decision is reported.

Each definition records its inputs, the variables it reads.  A staged
solve (an ``mmap`` statement or query, or a ``pr`` query) conjoins only the
definitions that its variables depend on: the closure of the queried
variables and the evidence through those inputs, down to flips.  Every
definition left out defines a variable that nothing in the closure reads,
with unit weights on both literals, so summed out newest first each one
contributes a factor of 1 to every count; flips outside the closure are
normalized.  This is barren-node removal (Shachter, *Evaluating Influence
Diagrams*, 1986), and it is exact: a staged solve costs what its own
dependencies cost, not what the whole program so far costs.  The
conjunction of all definitions, :attr:`Compiler.constraint`, is built only
on request.  Each closure is conjoined once: a later solve over the same
definitions, such as a ``pr`` query that reads what the last ``mmap``
queried, takes the stored conjunction.

An mmap, staged or a query, is answered by its shape up to an
order-preserving renaming of its variables: the universe (the scoped
diagram's support and the branch variables) with each variable replaced by
its rank, the weight pair at each rank, the branch ranks in query order,
and the diagram over those ranks.  Inside a loop every iteration poses one
shape over fresh variables, so the compiler keeps each solved shape and
answers a repeat from it without a search, as component caching does in
model counting (Sang, Bacchus, Beame, Kautz & Pitassi, SAT 2004).  A cheap
fingerprint picks the candidates and a lockstep walk against each stored
diagram confirms a match.  The answer is a function of the shape alone, so
the reuse is exact; a fresh search could differ only in the last bits,
where its frontier passes sum in node-handle order.
"""

from __future__ import annotations

import time

from ..bbir import Bbir, BbirError, MmapObjective, bb
from ..bdd import FALSE, TRUE, BddManager
from ..frontend import compile_term
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
        self.weights = {}  # var -> (positive, negative) literal weights
        # program name -> the variable it reads as: its flip's for a flip or
        # an alias of one, the aliased name's for a copy, else its own
        self.env = {}
        # program name -> what a read of it compiles to: TRUE/FALSE when its
        # definition is constant, else its env variable's node
        self._reads = {}
        # flip variable -> its flip's program variable, defined x <-> f once
        # an mmap branches on the flip
        self._flip_owner = {}
        self._definitions = []  # the definitions, oldest first
        # defined variable -> (index of its definition, the definition's support)
        self._inputs = {}
        # ascending definition indices -> their conjunction; handles are
        # canonical and nodes are never freed, so a closure is conjoined once
        self._conjunctions = {}
        # staged-solve fingerprint -> [(gamma, universe, witness in branch
        # order, posterior, search stats)], one entry per solved shape
        self._solved = {}
        self.decisions = {}
        self.solver_stats = []  # the search stats of each mmap, in solve order
        self.mmap_cache_hits = 0
        self._flips = 0
        self._started = time.perf_counter()

    @property
    def constraint(self) -> int:
        """Conjunction of all definitions, built on request; solves never need it."""
        return self._conjoin(range(len(self._definitions)))

    # -- scoping -------------------------------------------------------------------

    def _scoped(self, variables) -> int:
        """Conjunction of the definitions that ``variables`` depend on."""
        inputs, seen, indices = self._inputs, set(), []
        stack = list(variables)
        while stack:
            var = stack.pop()
            if var not in seen:
                seen.add(var)
                if var in inputs:
                    index, support = inputs[var]
                    indices.append(index)
                    stack.extend(support)
        key = tuple(sorted(indices))
        out = self._conjunctions.get(key)
        if out is None:
            out = self._conjunctions[key] = self._conjoin(key)
        return out

    def _conjoin(self, indices) -> int:
        """Conjunction of the definitions at ascending ``indices``, newest first.

        Each definition sits at the bottom of the variable order, so an
        oldest-first fold would rebuild the whole diagram above it at every
        step.
        """
        defs = self._definitions
        return self.mgr.conjoin(defs[i] for i in reversed(indices))

    # -- expression compilation -------------------------------------------------

    def _read(self, name: str) -> int:
        try:
            return self._reads[name]
        except KeyError:
            raise PineapplCompileError(f"unbound variable {name!r}") from None

    # -- statement compilation ------------------------------------------------------

    def _define(self, name: str, definition: int):
        if name in self.env:
            raise PineapplCompileError(f"duplicate binding of {name!r} after renaming")
        mgr = self.mgr
        u = mgr.literal_var(definition)
        if u is not None:
            # a positive literal: the name is an alias of u
            self.env[name] = u
            self._reads[name] = definition
            return
        var = mgr.ensure_var(name)
        self.env[name] = var
        self._reads[name] = definition if definition in (TRUE, FALSE) else mgr.mk_var(var)
        self._constrain(var, definition, mgr.support(definition))

    def _constrain(self, var: int, definition: int, support):
        """Define ``var <-> definition``, with unit weights on ``var``.

        ``support``, the variables the definition reads, is what
        :meth:`_scoped` follows.
        """
        self.weights[var] = (1.0, 1.0)
        self._inputs[var] = (len(self._definitions), support)
        self._definitions.append(self.mgr.apply("iff", self.mgr.mk_var(var), definition))

    def compile_stmt(self, stmt: A.Stmt):
        mgr = self.mgr
        if isinstance(stmt, A.SFlip):
            self._flips += 1
            var = mgr.ensure_var(stmt.name)  # first, so it sits just above its flip
            f = mgr.ensure_var(f"f_{stmt.theta:g}#{self._flips}")
            self.weights[f] = (stmt.theta, 1.0 - stmt.theta)
            self._flip_owner[f] = var
            self._define(stmt.name, mgr.mk_var(f))
        elif isinstance(stmt, A.SAssign):
            self._define(stmt.name, compile_term(mgr, stmt.value, self._read))
        elif isinstance(stmt, A.SIf):
            # branches bind disjoint names after expansion; join points are
            # ordinary assignments, so both sides extend the same state; a
            # guard that reads as a constant rules one arm out
            known = self._reads.get(stmt.guard.name)  # a name after expansion
            for arm, taken_on in ((stmt.then, TRUE), (stmt.els, FALSE)):
                if known in (TRUE, FALSE) and known != taken_on and self._skip(arm):
                    continue
                for inner in arm:
                    self.compile_stmt(inner)
        elif isinstance(stmt, A.SMmap):
            self.compile_mmap(stmt)
        else:
            raise PineapplCompileError(f"unexpected statement {stmt!r}")

    def _skip(self, dead: list) -> bool:
        """Read every name ``dead`` binds as FALSE, unless it holds an mmap.

        The names of a dead arm are read only by the join points after its
        ``if``, under the guard that rules them out.  Its flips still count,
        so every later flip keeps its label.  An arm that holds an mmap is
        not skipped: its decision is reported.
        """
        names, flips = [], 0
        stack = list(dead)
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, A.SIf):
                stack.extend(stmt.then)
                stack.extend(stmt.els)
            elif isinstance(stmt, (A.SFlip, A.SAssign)):
                names.append(stmt.name)
                flips += isinstance(stmt, A.SFlip)
            else:  # an mmap, or a statement compile_stmt rejects
                return False
        self._flips += flips
        for name in names:
            self._reads[name] = FALSE
        return True

    def compile_mmap(self, stmt: A.SMmap):
        assignment, _ = self.solve_mmap(stmt.queried, stmt.evidence)
        for out_name, queried in zip(stmt.outputs, stmt.queried):
            decided = assignment[queried]
            self._define(out_name, TRUE if decided else FALSE)
            self.decisions[out_name] = decided
        # one staged solve is done; its operation caches will not be re-hit
        self.mgr.drop_op_caches()

    def solve_mmap(self, queried, evidence):
        """Run the staged query against the definitions compiled so far.

        The search sees only the definitions that the queried variables and
        the evidence depend on; the rest sum to 1 and cancel out of the
        posterior.

        A problem whose shape repeats a solved one's up to an
        order-preserving renaming is not searched again.  The fingerprint
        (``gamma``'s node count, the weight pair at each universe rank and
        the branch ranks in query order) picks the stored candidates, a
        lockstep walk against each stored ``gamma`` confirms one, and its
        witness and posterior are read back onto this solve's variables.
        Returns the assignment by queried name and the posterior; the search
        stats, those of the reused search on a hit, go to
        :attr:`solver_stats`.
        """
        mgr = self.mgr
        psi = mgr.mk_true() if evidence is None else compile_term(mgr, evidence, self._read)
        # a name queried twice, or two aliases of one flip, is one branch
        # variable; they go in query order, so ties break along the query
        branch = {name: self._branch_var(name) for name in queried}
        branch_vars = list(dict.fromkeys(branch.values()))
        gamma = mgr.apply("and", psi, self._scoped(mgr.support(psi) | set(branch_vars)))
        if gamma == FALSE:
            # checked first: a FALSE formula would leave the branch variables out
            raise PineapplRunError("mmap evidence is impossible: evidence has zero mass")
        support, size = mgr.sweep(gamma)
        universe = sorted(support | set(branch_vars))
        rank = {v: i for i, v in enumerate(universe)}
        key = (size, tuple(self.weights[v] for v in universe), tuple(rank[v] for v in branch_vars))
        for seen, seen_universe, decided, posterior, stats in self._solved.get(key, ()):
            if mgr.is_renaming(seen, gamma, dict(zip(seen_universe, universe))):
                self.mmap_cache_hits += 1
                break
        else:
            # gamma holds the definitions, so it is also the model formula
            # and the objective's numerator phi & gamma is gamma, built here once
            problem = Bbir(
                mgr=mgr,
                formulas=[gamma, gamma],
                branch_vars=branch_vars,
                weights=self.weights,
                semiring=REAL,
                swept={gamma: support},
            )
            try:
                objective = MmapObjective(problem)
            except BbirError as exc:
                raise PineapplRunError(f"mmap evidence is impossible: {exc}") from exc
            # false tried first: argmax ties resolve to the smallest
            # assignment, read in query order as the interpreter reads it
            result = bb(objective, problem, literal_order=(False, True))
            decided = tuple(result.witness[v] for v in branch_vars)
            posterior, stats = result.scalar, result.stats.to_dict()
            self._solved.setdefault(key, []).append((gamma, universe, decided, posterior, stats))
        self.solver_stats.append(dict(stats))
        witness = dict(zip(branch_vars, decided))
        return {name: witness[branch[name]] for name in queried}, posterior

    def _branch_var(self, name: str) -> int:
        """The variable an mmap over ``name`` branches on.

        A flip's variable is summed over, so a name that reads as one
        branches on the flip's program variable, defined the first time an
        mmap needs it.
        """
        if name not in self.env:
            raise PineapplCompileError(f"mmap over undefined variable {name!r}")
        u = self.env[name]
        var = self._flip_owner.get(u)
        if var is None:
            return u
        if var not in self.weights:
            self._constrain(var, self.mgr.mk_var(u), (u,))
        return var

    # -- queries -----------------------------------------------------------------

    def run_query(self, q) -> dict:
        mgr = self.mgr
        if isinstance(q, A.QPr):
            chi = compile_term(mgr, q.expr, self._read)
            psi = mgr.mk_true()
            if q.evidence is not None:
                psi = compile_term(mgr, q.evidence, self._read)
            support = mgr.support(chi) | mgr.support(psi)
            den_root = mgr.apply("and", psi, self._scoped(support))
            # weights of variables outside the closure would count them free
            weights = {v: self.weights[v] for v in mgr.support(den_root) | support}
            den = mgr.amc(den_root, weights, REAL)
            if den == 0.0:
                raise PineapplRunError(f"query evidence has zero probability: {q.text}")
            num = mgr.amc(mgr.apply("and", chi, den_root), weights, REAL)
            return {"query": q.text, "value": num / den}
        if isinstance(q, A.QMmap):
            assignment, posterior = self.solve_mmap(q.queried, q.evidence)
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
            "mmap_cache_hits": compiler.mmap_cache_hits,
        },
    }


def run_program(source: str, mgr: BddManager | None = None) -> dict:
    """Full pipeline: :func:`compile_source` then :func:`run_compiled`."""
    return run_compiled(*compile_source(source, mgr))
