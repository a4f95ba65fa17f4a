"""Hash-consed reduced ordered BDDs with a semiring-generic model-count pass.

One :class:`BddManager` owns a variable order (fixed at registration time),
the unique table, and the operation caches.  Handles are plain ints; the
terminals are ``FALSE = 0`` and ``TRUE = 1``.  Handles from different
managers must never be mixed; a manager and everything derived from it is
confined to a single thread.

Conjunction and disjunction share one apply recursion: both are idempotent
and commutative, with an absorbing and a neutral terminal, so each keeps a
computed table keyed on the ordered operand pair packed into one int.
:meth:`BddManager.ite` is the if-then-else of Brace, Rudell & Bryant (DAC
1990): one recursion over the three operands with a computed table of its
own, whose degenerate cases go to the and/or kernel.  Every if-then-else
compiles with it, and so do xor and iff, as ``ite`` on one operand over the
other and its negation.  :meth:`BddManager.cube` builds a conjunction of
literals bottom-up, one node per literal, without apply.

One semiring walk, :meth:`BddManager.count`, sums literal-weight products
over all models of a formula in a given variable universe; at branch
variables a join or meet replaces the sum.  Literal weights are a plain
dict ``{var: (positive weight, negative weight)}``, the labelling function
of algebraic model counting (Kimmig, Van den Broeck & De Raedt, 2017).  The
algebraic model count (:meth:`BddManager.amc`, universe = the dict's
variables, one uncached walk per call) and the
branch-and-bound bounds of ``bbir`` are both runs of it.  Universe
variables skipped along a BDD edge (or missing from the diagram entirely)
contribute a gap factor ``w(v) + w(~v)`` each; this keeps the count exact
even when a variable's two literal weights do not sum to the unit.  A
:class:`CountSetup` holds a universe's positions, weights and gap factors.

The walk is bottom-up and starts from a :class:`Frontier`: weighted nodes
below a position, each weight the sum over its paths from the root above
it.  :meth:`BddManager.push` moves a frontier down (a downward, or
outside, pass) and :meth:`BddManager.fix` moves it past a variable fixed to
one value, so a search that fixes variables in order conditions no diagram
and builds no node: its counts all run from frontiers in one setup and one
memo (Darwiche, *A differential approach to inference in Bayesian
networks*, JACM 2003).

The walk does no semiring operation whose result it already knows: it
multiplies by no unit weight or unit gap (1 (x) x = x) and adds no dead
literal's zero (0 (+) x = x).  Only a join or a meet still sees a dead
literal's zero, since 0 is no identity for them.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Iterable, NamedTuple

FALSE = 0
TRUE = 1

# Low bits of a count memo key that hold the node handle; a manager holding
# 2**32 nodes would need far more memory than any host has.
_NODE_BITS = 32


class BddError(Exception):
    pass


class CountSetup:
    """The per-universe tables that :meth:`BddManager.count` walks with.

    Positions follow the sorted ``universe``.  ``levels[i]`` is (variable,
    positive weight, negative weight, in ``branch``), and ``gaps[i]`` is the
    position's gap factor: the sum of its two literal weights, or their
    ``combine`` (a join or a meet) at branch variables.  ``suffix[i]`` is
    the product of ``gaps[i:]``.  A literal weight that is the unit is None
    in ``levels``, and ``nonunit[i]`` is the first position from ``i`` on
    whose gap is not the unit (``n`` if none), so the walk multiplies
    neither in.
    """

    __slots__ = ("semiring", "combine", "pos_of", "levels", "gaps", "suffix", "nonunit")

    def __init__(self, universe, weights: dict, semiring, branch=frozenset(), combine=None):
        one, add, mul = semiring.one, semiring.add, semiring.mul
        self.semiring = semiring
        self.combine = combine
        self.pos_of = {v: i for i, v in enumerate(universe)}
        self.levels = []
        self.gaps = []
        for var in universe:
            wpos, wneg = weights[var]
            at_branch = var in branch
            self.gaps.append(combine(wpos, wneg) if at_branch else add(wpos, wneg))
            # a unit weight is None: the walk takes the child's value as it is
            self.levels.append(
                (var, None if wpos == one else wpos, None if wneg == one else wneg, at_branch)
            )
        n = len(universe)
        self.suffix = [one] * (n + 1)
        for i in range(n - 1, -1, -1):
            self.suffix[i] = mul(self.gaps[i], self.suffix[i + 1])
        # nonunit[i]: the first position from i on whose gap is not the unit
        self.nonunit = [n] * (n + 1)
        for i in range(n - 1, -1, -1):
            self.nonunit[i] = self.nonunit[i + 1] if self.gaps[i] == one else i


class Frontier(NamedTuple):
    """Weighted nodes at or below position ``start`` of a :class:`CountSetup`.

    ``pairs`` holds (node, weight) with distinct nodes, none FALSE, each
    testing no variable above ``start``.  The weight of a node is the sum,
    over the paths that reach it from the root, of the products of literal
    weights and skipped gap factors at the positions above ``start``; a
    position whose variable is fixed follows the fixed child and adds the
    unit.  The count of the frontier is the sum of its weights, each times
    its node's count from ``start`` on.  A frontier is hashable, so a search
    can key its tables on one.
    """

    start: int
    pairs: tuple

    @classmethod
    def of(cls, root: int, one) -> "Frontier":
        """The frontier of ``root`` at position 0: the root with the unit weight."""
        return cls(0, () if root == FALSE else ((root, one),))


class BddManager:
    """Unique-table BDD manager; the variable order is registration order."""

    def __init__(self):
        # node arrays; slots 0/1 are the terminals
        self._var = [-1, -1]
        self._lo = [-1, -1]
        self._hi = [-1, -1]
        self._unique = {}
        # the and/or computed tables, keyed on operand-ordered ints, and ite's
        self._apply_caches = {"and": {}, "or": {}}
        self._ite_cache = {}
        self._neg_cache = {}
        self._cond_cache = {}
        self._labels = []
        self._by_label = {}
        self.amc_visits = 0  # memo entries of the most recent amc call

    # -- variables ---------------------------------------------------------

    def new_var(self, label: str) -> int:
        """Register a fresh variable at the end of the order."""
        if label in self._by_label:
            raise BddError(f"duplicate variable label {label!r}")
        idx = len(self._labels)
        self._labels.append(label)
        self._by_label[label] = idx
        return idx

    def ensure_var(self, label: str) -> int:
        """Like :meth:`new_var`, but reuse a pre-registered label.

        Compilers register through this so an explicit order list (which
        pre-registers labels up front) pins those variables' positions.
        """
        existing = self._by_label.get(label)
        if existing is not None:
            return existing
        return self.new_var(label)

    def var_label(self, var: int) -> str:
        return self._labels[var]

    @property
    def num_nodes(self) -> int:
        return len(self._var)

    # -- node construction --------------------------------------------------

    def _mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(var)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
        return node

    def mk_true(self) -> int:
        return TRUE

    def mk_false(self) -> int:
        return FALSE

    def mk_var(self, var: int) -> int:
        if not 0 <= var < len(self._labels):
            raise BddError(f"unknown variable {var}")
        return self._mk(var, FALSE, TRUE)

    def literal_var(self, a: int):
        """The variable ``a`` is the positive literal of, else None (no sweep)."""
        if a > TRUE and self._lo[a] == FALSE and self._hi[a] == TRUE:
            return self._var[a]
        return None

    # -- boolean combinators -------------------------------------------------

    def cube(self, literals) -> int:
        """Conjunction of ``(var, value)`` literals, one node per literal.

        The chain is built bottom-up in descending variable order, so no
        apply runs.  A repeated literal counts once; a variable given both
        values makes the cube FALSE.
        """
        values = {}
        clash = False
        for var, value in literals:
            if not 0 <= var < len(self._labels):
                raise BddError(f"unknown variable {var}")
            value = bool(value)
            clash = clash or values.setdefault(var, value) != value
        if clash:
            return FALSE
        acc = TRUE
        for var in sorted(values, reverse=True):
            acc = self._mk(var, FALSE, acc) if values[var] else self._mk(var, acc, FALSE)
        return acc

    def apply(self, op: str, a: int, b: int) -> int:
        if op == "and":
            return self._and_or(a, b, FALSE, self._apply_caches["and"])
        if op == "or":
            return self._and_or(a, b, TRUE, self._apply_caches["or"])
        if op not in ("xor", "iff"):
            raise BddError(f"unknown operator {op!r}")
        # an ite on one operand over the other and its negation
        if a == b:
            return FALSE if op == "xor" else TRUE
        if a <= TRUE or b <= TRUE:
            const, other = (a, b) if a <= TRUE else (b, a)
            return other if (const == TRUE) == (op == "iff") else self.negate(other)
        if self._var[a] > self._var[b]:
            # branch on the operand whose top variable comes first and negate
            # the other: the other way builds more nodes (15,064 against
            # 16,159 over tests/differential.py)
            a, b = b, a
        not_b = self.negate(b)
        return self.ite(a, b, not_b) if op == "iff" else self.ite(a, not_b, b)

    def drop_op_caches(self):
        """Release the and/or/ite/negate/condition caches (nodes are kept)."""
        for cache in self._apply_caches.values():
            cache.clear()
        self._ite_cache.clear()
        self._neg_cache.clear()
        self._cond_cache.clear()

    def _and_or(self, a: int, b: int, absorbing: int, cache: dict) -> int:
        # conjunction (absorbing FALSE) or disjunction (absorbing TRUE); the
        # other terminal is neutral.  Both are commutative, so the cache key
        # orders the operands.
        if a <= TRUE:
            return a if a == absorbing else b
        if b <= TRUE:
            return b if b == absorbing else a
        if a == b:
            return a
        if a > b:
            a, b = b, a
        key = a << _NODE_BITS | b
        out = cache.get(key)
        if out is not None:
            return out
        var, lo_of, hi_of = self._var, self._lo, self._hi
        va, vb = var[a], var[b]
        if va == vb:
            top, alo, ahi, blo, bhi = va, lo_of[a], hi_of[a], lo_of[b], hi_of[b]
        elif va < vb:
            top, alo, ahi, blo, bhi = va, lo_of[a], hi_of[a], b, b
        else:
            top, alo, ahi, blo, bhi = vb, a, a, lo_of[b], hi_of[b]
        lo = self._and_or(alo, blo, absorbing, cache)
        hi = self._and_or(ahi, bhi, absorbing, cache)
        if lo == hi:
            out = lo
        else:
            # _mk, inlined
            node_key = (top, lo, hi)
            out = self._unique.get(node_key)
            if out is None:
                out = len(var)
                var.append(top)
                lo_of.append(lo)
                hi_of.append(hi)
                self._unique[node_key] = out
        cache[key] = out
        return out

    def ite(self, g: int, t: int, e: int) -> int:
        """If ``g`` then ``t`` else ``e``, in one recursion over the three.

        Terminal and degenerate triples return at once or go to the and/or
        kernel; the rest are cached on the triple.
        """
        if g <= TRUE:
            return t if g == TRUE else e
        if t == e:
            return t
        if t <= TRUE and e <= TRUE:
            return g if t == TRUE else self.negate(g)
        if t == TRUE or t == g:
            return self._and_or(g, e, TRUE, self._apply_caches["or"])
        if e == FALSE or e == g:
            return self._and_or(g, t, FALSE, self._apply_caches["and"])
        key = (g, t, e)
        out = self._ite_cache.get(key)
        if out is not None:
            return out
        var, lo_of, hi_of = self._var, self._lo, self._hi
        top = var[g]
        if t > TRUE and var[t] < top:
            top = var[t]
        if e > TRUE and var[e] < top:
            top = var[e]
        if var[g] == top:
            glo, ghi = lo_of[g], hi_of[g]
        else:
            glo = ghi = g
        if t > TRUE and var[t] == top:
            tlo, thi = lo_of[t], hi_of[t]
        else:
            tlo = thi = t
        if e > TRUE and var[e] == top:
            elo, ehi = lo_of[e], hi_of[e]
        else:
            elo = ehi = e
        out = self._mk(top, self.ite(glo, tlo, elo), self.ite(ghi, thi, ehi))
        self._ite_cache[key] = out
        return out

    def negate(self, a: int) -> int:
        if a <= TRUE:
            return TRUE - a
        hit = self._neg_cache.get(a)
        if hit is None:
            hit = self._mk(self._var[a], self.negate(self._lo[a]), self.negate(self._hi[a]))
            self._neg_cache[a] = hit
            self._neg_cache[hit] = a
        return hit

    def conjoin(self, nodes: Iterable[int]) -> int:
        acc, cache = TRUE, self._apply_caches["and"]
        for n in nodes:
            acc = self._and_or(acc, n, FALSE, cache)
        return acc

    def disjoin(self, nodes: Iterable[int]) -> int:
        acc, cache = FALSE, self._apply_caches["or"]
        for n in nodes:
            acc = self._and_or(acc, n, TRUE, cache)
        return acc

    # -- conditioning and structure -----------------------------------------

    def condition(self, a: int, var: int, value: bool) -> int:
        """Fix ``var`` to ``value``; conditioning on an absent variable is identity."""
        if a <= TRUE:
            return a
        v = self._var[a]
        if v > var:
            return a
        if v == var:
            return self._hi[a] if value else self._lo[a]
        key = (a, var, value)
        hit = self._cond_cache.get(key)
        if hit is None:
            hit = self._mk(
                v,
                self.condition(self._lo[a], var, value),
                self.condition(self._hi[a], var, value),
            )
            self._cond_cache[key] = hit
        return hit

    def condition_all(self, a: int, assignment) -> int:
        for var in sorted(assignment):
            a = self.condition(a, var, assignment[var])
        return a

    def support(self, a: int) -> set:
        """Variables the function actually depends on (one linear sweep)."""
        return self.sweep(a)[0]

    def sweep(self, a: int):
        """The support of ``a`` and its number of internal nodes, in one linear sweep."""
        nodes = self.reachable_nodes([a])
        var = self._var
        return {var[n] for n in nodes}, len(nodes)

    def is_renaming(self, a: int, b: int, rename: dict) -> bool:
        """Whether ``b`` is ``a`` with each variable ``v`` of ``a`` read as ``rename[v]``.

        One lockstep walk: every node of ``a`` must meet a node of ``b`` that
        tests its renamed variable and whose children are those of its own
        children, and terminals must meet themselves.  Each node of ``a`` is
        paired once, so the walk is linear in the size of ``a``.
        """
        var, lo, hi = self._var, self._lo, self._hi
        paired = {}
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            if x <= TRUE or y <= TRUE:
                if x != y:
                    return False
                continue
            got = paired.get(x)
            if got is not None:
                if got != y:
                    return False
                continue
            if rename.get(var[x]) != var[y]:
                return False
            paired[x] = y
            stack.append((lo[x], lo[y]))
            stack.append((hi[x], hi[y]))
        return True

    def reachable_nodes(self, roots) -> set:
        seen = set()
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n in seen or n <= TRUE:
                continue
            seen.add(n)
            stack.append(self._lo[n])
            stack.append(self._hi[n])
        return seen

    # -- exactly-one constraint ----------------------------------------------

    def exactly_one(self, variables) -> int:
        """BDD satisfied exactly when one of ``variables`` is true."""
        variables = list(variables)
        if not variables:
            raise BddError("exactly_one of an empty variable list")
        if len(set(variables)) != len(variables):
            raise BddError("exactly_one variables must be distinct")
        for v in variables:
            if not 0 <= v < len(self._labels):
                raise BddError(f"unknown variable {v}")
        order = sorted(variables)
        none_yet = TRUE  # all remaining false
        one_yet = FALSE  # exactly one of remaining true
        for v in reversed(order):
            one_yet = self._mk(v, one_yet, none_yet)
            none_yet = self._mk(v, none_yet, FALSE)
        return one_yet

    # -- algebraic model counting ---------------------------------------------

    def amc(self, root: int, weights: dict, semiring):
        """Semiring sum over all models of ``root`` in the universe ``weights``.

        ``weights`` maps each variable to its (positive literal, negative
        literal) weight pair.  Every variable in the support of ``root``
        must be weighted; weighted variables not tested on a path contribute
        their gap factor.  Each call is one :meth:`count` walk with its own
        setup and memo.
        """
        memo = {}
        setup = CountSetup(sorted(weights), weights, semiring)
        value = self.count(Frontier.of(root, semiring.one), TRUE, setup, memo)
        self.amc_visits = len(memo)
        return value

    def count(self, frontier: Frontier, validity, setup: CountSetup, memo):
        """Weighted count of ``frontier`` over the universe of ``setup``.

        Sums literal-weight products over the models of each frontier node
        from the frontier's start position on, times the node's weight,
        except that at the setup's branch variables the two literal values
        (and gap factors) are combined with its ``combine``, a join or a
        meet, which makes the count a branch-and-bound bound.  ``validity``
        is walked in lockstep from the same position; a literal whose
        validity child is FALSE contributes nothing.  The count of a diagram
        is that of ``Frontier.of(root, one)``.

        Values are memoized into ``memo``, keyed on the node and the
        validity handle, packed into one int that is the bare node when the
        validity is TRUE.  A node's value from its top position depends on
        the two handles and the weights at and below that position only, so
        one memo serves every count over one setup, whatever its frontier.

        Each node costs one recursive call: the gap factors of positions
        skipped above it are multiplied in by the same call.  Counts that
        share a walk run as one count over a product semiring (see
        ``semiring.EV_BOUND``), whose components each equal their own walk.

        No operation with a known result is done: a unit literal weight
        passes its child's value on unmultiplied, only the skipped gaps that
        are not the unit are multiplied (left to right, then into the node's
        value), a unit frontier weight multiplies nothing, and a dead
        literal (formula or validity child FALSE) adds no zero.  At a branch
        variable whose two validity children are both live, a literal with
        a FALSE formula child still enters the ``combine`` as ``zero``: the
        join or meet with zero is not the other value.  The skipped
        operations would only turn a ``-0.0`` component into ``0.0``, and no
        count value holds one unless a product underflows, so the count of
        ``Frontier.of(root, one)`` is that of the full recurrence bit for
        bit.
        """
        semiring = setup.semiring
        mul, add, combine = semiring.mul, semiring.add, setup.combine
        one, zero = semiring.one, semiring.zero
        var_of, lo_of, hi_of, labels = self._var, self._lo, self._hi, self._labels
        pos_of, levels, gaps = setup.pos_of, setup.levels, setup.gaps
        suffix, nonunit = setup.suffix, setup.nonunit
        n = len(levels)

        def rec(f: int, v: int, i: int):
            # value of (f, v) over the universe from position i on; neither is
            # FALSE.  j is the first position either diagram tests (n: none).
            try:
                j = pos_of[var_of[f]] if f > TRUE else n
                if v > TRUE:
                    jv = pos_of[var_of[v]]
                    if jv < j:
                        j = jv
            except KeyError as exc:  # the unweighted variable
                label = labels[exc.args[0]]
                raise BddError(f"unweighted variable in formula: {label}") from None
            if j == n:
                return suffix[i]
            # the bare node is an existing int object; a packed key is a new one
            key = f if v == TRUE else f | (v - TRUE) << _NODE_BITS
            out = memo.get(key)
            if out is None:
                var, wpos, wneg, at_branch = levels[j]
                if f > TRUE and var_of[f] == var:
                    flo, fhi = lo_of[f], hi_of[f]
                else:
                    flo = fhi = f
                if v > TRUE and var_of[v] == var:
                    vlo, vhi = lo_of[v], hi_of[v]
                else:
                    vlo = vhi = v
                # None marks a dead literal: its formula or validity child is FALSE
                hi = lo = None
                if fhi != FALSE and vhi != FALSE:
                    hi = rec(fhi, vhi, j + 1)
                    if wpos is not None:
                        hi = mul(wpos, hi)
                if flo != FALSE and vlo != FALSE:
                    lo = rec(flo, vlo, j + 1)
                    if wneg is not None:
                        lo = mul(wneg, lo)
                if at_branch and vhi != FALSE and vlo != FALSE:
                    # both literals have valid completions: a dead one is a
                    # zero that the join or meet must see
                    out = combine(zero if hi is None else hi, zero if lo is None else lo)
                elif hi is None:
                    out = zero if lo is None else lo
                elif lo is None:
                    out = hi
                else:
                    out = add(hi, lo)
                memo[key] = out
            # the positions i..j-1 that both diagrams skip each add their gap;
            # only the gaps that are not the unit are multiplied in
            k = nonunit[i]
            if k >= j:
                return out
            acc = gaps[k]
            k = nonunit[k + 1]
            while k < j:
                acc = mul(acc, gaps[k])
                k = nonunit[k + 1]
            return mul(acc, out)

        if validity == FALSE:
            return zero
        start = frontier.start
        total = None
        try:
            for node, weight in frontier.pairs:
                value = rec(node, validity, start)
                if weight != one:
                    value = mul(weight, value)
                total = value if total is None else add(total, value)
        finally:
            rec = None  # it refers to itself; break the cycle
        return zero if total is None else total

    def fix(self, frontier: Frontier, setup: CountSetup, value: bool) -> Frontier:
        """``frontier`` past its start position, whose variable is fixed to ``value``.

        A node that tests the variable hands its weight to its ``value``
        child (a FALSE child drops it); the other nodes keep theirs, since a
        fixed position adds the unit.
        """
        var_of, start = self._var, frontier.start
        var = setup.levels[start][0]
        add = setup.semiring.add
        child_of = self._hi if value else self._lo
        out = {}
        for node, weight in frontier.pairs:
            if node > TRUE and var_of[node] == var:
                node = child_of[node]
                if node == FALSE:
                    continue
            out[node] = add(out[node], weight) if node in out else weight
        return Frontier(start + 1, tuple(out.items()))

    def push(self, frontier: Frontier, setup: CountSetup, stop: int) -> Frontier:
        """``frontier`` moved down to position ``stop`` (a downward pass).

        Every node above ``stop`` hands its weight to its two children,
        times the literal weight and the gaps skipped on the way.  A node is
        made after its children, so handing on in descending node order
        passes each node the sum over all its paths before it hands it on.
        No position from the start to ``stop`` may be fixed or at a branch
        variable.  When no node lies above ``stop`` and every gap skipped is
        the unit, the pairs are handed on as they are.
        """
        start = frontier.start
        var_of, lo_of, hi_of = self._var, self._lo, self._hi
        pos_of, levels, gaps, nonunit = setup.pos_of, setup.levels, setup.gaps, setup.nonunit
        mul, add = setup.semiring.mul, setup.semiring.add
        n = len(levels)
        pairs = frontier.pairs
        if nonunit[start] >= stop and all(
            node == TRUE or pos_of[var_of[node]] >= stop for node, _ in pairs
        ):
            return Frontier(stop, pairs)
        weights = {}  # every node reached so far, with the sum over its paths
        above = []  # a heap of the nodes reached above stop, negated: parents first

        def land(node, weight, i):
            # the edge into ``node`` leaves from position i - 1
            j = pos_of[var_of[node]] if node > TRUE else n
            k = nonunit[i]
            if k < j and k < stop:
                end = j if j < stop else stop
                acc = gaps[k]
                k = nonunit[k + 1]
                while k < end:
                    acc = mul(acc, gaps[k])
                    k = nonunit[k + 1]
                weight = mul(weight, acc)
            if node in weights:
                weights[node] = add(weights[node], weight)
            else:
                weights[node] = weight
                if j < stop:
                    heappush(above, -node)

        for node, weight in pairs:
            land(node, weight, start)
        while above:
            node = -heappop(above)
            weight = weights.pop(node)
            j = pos_of[var_of[node]]
            _, wpos, wneg, _ = levels[j]
            hi, lo = hi_of[node], lo_of[node]
            if hi != FALSE:
                land(hi, weight if wpos is None else mul(weight, wpos), j + 1)
            if lo != FALSE:
                land(lo, weight if wneg is None else mul(weight, wneg), j + 1)
        return Frontier(stop, tuple(weights.items()))

    # -- export ----------------------------------------------------------------

    def to_dot(self, roots, names=None) -> str:
        """GraphViz text: solid high edges, dashed low edges, boxed terminals."""
        if isinstance(roots, int):
            roots = [roots]
        lines = ["digraph bdd {"]
        lines.append('  node [shape=circle];')
        lines.append('  n0 [label="0", shape=box];')
        lines.append('  n1 [label="1", shape=box];')
        for i, r in enumerate(roots):
            name = names[i] if names else f"root{i}"
            lines.append(f'  {name} [label="{name}", shape=plaintext];')
            lines.append(f"  {name} -> n{r};")
        for n in sorted(self.reachable_nodes(roots)):
            label = self._labels[self._var[n]].replace('"', "'")
            lines.append(f'  n{n} [label="{label}"];')
            lines.append(f"  n{n} -> n{self._hi[n]} [style=solid];")
            lines.append(f"  n{n} -> n{self._lo[n]} [style=dashed];")
        lines.append("}")
        return "\n".join(lines)


def _bump_recursion_limit():
    if sys.getrecursionlimit() < 100000:
        sys.setrecursionlimit(100000)


_bump_recursion_limit()
