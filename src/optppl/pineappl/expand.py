"""Program normalization: loop unrolling, categorical sugar, hygienic renaming.

One walk over the statements in program order does all of it.  A loop's
body is renamed once per iteration; a categorical becomes its chain of
flips where it stands; every rebinding (which loops rely on) is made unique
by versioning, and later references are rewritten to the newest version.
Branches of an ``if`` version independently and are reconciled by
join-point assignments after the statement: a name bound in either branch
gets a fresh joined definition, the term ``Mux(guard, then-version,
else-version)`` (one ``ite`` when compiled), falling back to the pre-branch
version for the side that did not bind it.  A name bound on only one side
with no prior definition is poisoned: referencing it later is an error.  Observed expressions are
checked against the mmap outputs bound so far as the walk reaches them.

After expansion all names are unique, every reference is to the newest
version, and statements are flips, assignments, flat ifs, and mmaps only.
A rebinding is versioned ``x@<n>``; names the expander invents contain
``#``, which neither an identifier nor a versioned name can hold, so they
never equal a program's own names.
"""

from __future__ import annotations

from ..frontend import PositionedError, chain_biases, term_vars
from . import ast as A


class PineapplExpandError(PositionedError):
    pass


_POISON = object()
_MISSING = object()


class _Renamer:
    """Renames statements against one scope dict, changed in place.

    An ``if`` arm records the first earlier value of every name it sets, so
    the scope can be put back before the other arm and the join; the join
    then costs what the arms bind, not the size of the scope.  ``slot``
    numbers the names in the order they entered the scope, the order in
    which a join emits its assignments.
    """

    def __init__(self):
        self.versions = {}  # base name -> bind count
        self.counter = 0
        self.mmap_bound = set()
        self.slot = {}  # name -> when it last entered the scope
        self.entered = 0
        self.journal = None  # in an arm: name -> its value before the arm

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}#{self.counter}"

    def set(self, env: dict, name: str, value):
        journal = self.journal
        if journal is not None and name not in journal:
            journal[name] = env.get(name, _MISSING)
        if name not in env:
            self.entered += 1
            self.slot[name] = self.entered
        env[name] = value

    def bind(self, env: dict, name: str) -> str:
        seen = self.versions.get(name, 0)
        self.versions[name] = seen + 1
        new = name if seen == 0 else f"{name}@{seen + 1}"
        self.set(env, name, new)
        return new

    def lookup(self, env: dict, name: str, span) -> str:
        if name not in env:
            raise PineapplExpandError(f"unbound variable {name!r}", span)
        if env[name] is _POISON:
            raise PineapplExpandError(
                f"{name!r} is not defined on every path to this use", span
            )
        return env[name]

    def rename_expr(self, e: A.Term, env: dict) -> A.Term:
        if isinstance(e, A.Var):
            return A.Var(span=e.span, name=self.lookup(env, e.name, e.span))
        if isinstance(e, A.Lit):
            return e
        if isinstance(e, (A.And, A.Or)):
            return type(e)(
                span=e.span,
                left=self.rename_expr(e.left, env),
                right=self.rename_expr(e.right, env),
            )
        if isinstance(e, A.Not):
            return A.Not(span=e.span, operand=self.rename_expr(e.operand, env))
        if isinstance(e, A.EIs):
            mangled = f"{e.name}${e.outcome}"
            if mangled not in env:
                raise PineapplExpandError(
                    f"{e.name!r} is not a categorical with outcome {e.outcome!r}", e.span
                )
            return A.Var(span=e.span, name=self.lookup(env, mangled, e.span))
        raise PineapplExpandError(f"bad expression {e!r}")

    def rename_stmts(self, stmts: list, env: dict) -> list:
        """Rename ``stmts`` in ``env``, unrolling loops and expanding categoricals."""
        out = []
        for stmt in stmts:
            if isinstance(stmt, A.SFlip):
                out.append(
                    A.SFlip(span=stmt.span, name=self.bind(env, stmt.name), theta=stmt.theta)
                )
            elif isinstance(stmt, A.SAssign):
                value = self.rename_expr(stmt.value, env)
                out.append(A.SAssign(span=stmt.span, name=self.bind(env, stmt.name), value=value))
            elif isinstance(stmt, A.SIf):
                out.extend(self.rename_if(stmt, env))
            elif isinstance(stmt, A.SLoop):
                if stmt.count < 1:
                    raise PineapplExpandError(
                        f"loop bound must be at least 1, got {stmt.count}", stmt.span
                    )
                for _ in range(stmt.count):
                    out.extend(self.rename_stmts(stmt.body, env))
            elif isinstance(stmt, A.SMmap):
                queried = tuple(self.lookup(env, q, stmt.span) for q in stmt.queried)
                evidence = self.rename_observed(stmt.evidence, env, "mmap")
                outputs = tuple(self.bind(env, o) for o in stmt.outputs)
                self.mmap_bound.update(outputs)
                out.append(
                    A.SMmap(span=stmt.span, outputs=outputs, queried=queried, evidence=evidence)
                )
            elif isinstance(stmt, A.SDisc):
                out.extend(self.rename_disc(stmt, env))
            else:
                raise PineapplExpandError(f"unexpected statement {stmt!r}", stmt.span)
        return out

    def rename_observed(self, e, env: dict, where: str):
        """Rename evidence ``e`` (or None), which may not read an mmap output."""
        if e is None:
            return None
        e = self.rename_expr(e, env)
        bad = term_vars(e) & self.mmap_bound
        if bad:
            raise PineapplExpandError(
                f"observed expression in {where} references mmap-bound "
                f"variable(s): {', '.join(sorted(bad))}",
                e.span,
            )
        return e

    def rename_disc(self, stmt: A.SDisc, env: dict) -> list:
        """One-hot encode a categorical with a chain of flips.

        Outcome ``o`` of ``x`` is the name ``x$o``, and its flip ``x$o$flip``.
        """
        try:
            biases = chain_biases([p for _, p in stmt.pairs])
        except ValueError as exc:
            raise PineapplExpandError(f"{stmt.name!r}: {exc}", stmt.span) from None
        out, flips = [], []
        for (outcome, _), theta in zip(stmt.pairs, biases):
            flip = self.bind(env, f"{stmt.name}${outcome}$flip")
            out.append(A.SFlip(span=stmt.span, name=flip, theta=theta))
            flips.append(flip)
        prefix: A.Term | None = None
        for (outcome, _), flip in zip(stmt.pairs, flips):
            hit = A.Var(name=flip)
            indicator = hit if prefix is None else A.And(left=prefix, right=hit)
            name = self.bind(env, f"{stmt.name}${outcome}")
            out.append(A.SAssign(span=stmt.span, name=name, value=indicator))
            miss = A.Not(operand=A.Var(name=flip))
            prefix = miss if prefix is None else A.And(left=prefix, right=miss)
        name = self.bind(env, f"{stmt.name}${stmt.pairs[-1][0]}")
        value = prefix if prefix is not None else A.Lit(value=True)
        out.append(A.SAssign(span=stmt.span, name=name, value=value))
        return out

    def rename_arm(self, stmts: list, env: dict):
        """Rename an ``if`` arm in ``env``, then put ``env`` back as it was.

        Returns the renamed statements, the arm's values of the names it
        set, and the slots of the names it brought into the scope.
        """
        outer = self.journal
        self.journal = journal = {}
        try:
            out = self.rename_stmts(stmts, env)
        finally:
            self.journal = outer
        values, new = {}, {}
        for name, old in journal.items():
            values[name] = env[name]
            if old is _MISSING:
                new[name] = self.slot[name]
                del env[name]
            else:
                env[name] = old
        return out, values, new

    def rename_if(self, stmt: A.SIf, env: dict) -> list:
        out = []
        guard = self.rename_expr(stmt.guard, env)
        if not isinstance(guard, A.Var):
            # unique and never looked up, so it stays out of the scope
            gname = self.fresh("_g")
            out.append(A.SAssign(span=stmt.span, name=gname, value=guard))
            guard = A.Var(span=stmt.span, name=gname)
        then_stmts, then_set, then_new = self.rename_arm(stmt.then, env)
        else_stmts, else_set, else_new = self.rename_arm(stmt.els, env)
        out.append(A.SIf(span=stmt.span, guard=guard, then=then_stmts, els=else_stmts))
        rebound = []
        for name in then_set.keys() | else_set.keys():
            before = env.get(name)
            tv, ev = then_set.get(name, before), else_set.get(name, before)
            if tv != ev:
                # the names already in scope first, then those new in the
                # then arm, then those new in the else arm, in order of entry
                entered = then_new.get(name) or else_new.get(name) or self.slot[name]
                rebound.append((entered, name, tv, ev))
        rebound.sort()
        for _, name, tv, ev in rebound:
            if tv is None or ev is None or tv is _POISON or ev is _POISON:
                self.set(env, name, _POISON)
                continue
            joined = self.bind(env, name)
            value = A.Mux(guard=guard, then=A.Var(name=tv), els=A.Var(name=ev))
            out.append(A.SAssign(span=stmt.span, name=joined, value=value))
        return out


def expand(program: A.Program) -> A.Program:
    """Unroll loops, desugar categoricals, rename, insert join points.

    Also enforces that no observed expression references an mmap-bound
    variable, and rewrites queries to the final version of each name.  One
    walk does all of it, statements then queries in program order, so the
    error it raises is the program's first.
    """
    renamer = _Renamer()
    env: dict = {}
    stmts = renamer.rename_stmts(program.statements, env)
    queries = []
    for q in program.queries:
        if isinstance(q, A.QPr):
            expr = renamer.rename_expr(q.expr, env)
            evidence = renamer.rename_observed(q.evidence, env, "query")
            queries.append(A.QPr(span=q.span, expr=expr, evidence=evidence, text=q.text))
        else:
            queried = tuple(renamer.lookup(env, name, q.span) for name in q.queried)
            evidence = renamer.rename_observed(q.evidence, env, "query")
            queries.append(A.QMmap(span=q.span, queried=queried, evidence=evidence, text=q.text))
    return A.Program(statements=stmts, queries=queries)
