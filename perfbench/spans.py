"""Span tracing of one solve at a time, installed from outside the library.

The tracer wraps the public functions of each layer where their callers
look them up (a module global imported by name, or a class attribute), so
the library itself carries no tracing code.  Every wrapped call records a
span: name, start, end, parent span and solve id.  Spans live in flat
arrays while the run goes on and are written out when it ends.  A layer's
self time is its spans' duration minus the part covered by child spans, so
the self times of one solve partition its root ``solve`` span.

``semiring`` operations get no span: they run millions of times per solve,
so a wrapper would mostly time itself.  Their cost lands in the self time
of ``bbir.bound`` and ``bdd.amc``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from array import array

import optppl.bbir as bbir
import optppl.bdd as bdd
import optppl.dappl as dappl
import optppl.dappl.compile as dappl_compile
import optppl.pineappl.compile as pineappl_compile

# Span names in the order they are reported; "solve" is the root span the
# benchmark opens around each public entry point, and "trace.measure" holds
# the tracer's own node counting so it is not charged to a layer.
SPAN_NAMES = (
    "solve",
    "trace.measure",
    "dappl.parse",
    "dappl.front",
    "dappl.compile",
    "dappl.finalize",
    "pineappl.parse",
    "pineappl.expand",
    "pineappl.stmt",
    "pineappl.fold",
    "pineappl.mmap",
    "pineappl.query",
    "bbir.objective",
    "bbir.bb",
    "bbir.bound",
    "bbir.leaf",
    "bdd.apply",
    "bdd.conjoin",
    "bdd.condition_all",
    "bdd.amc",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# The per-layer metrics, in the order they are reported.
LAYER_METRICS = (
    "dappl.parse.ms", "dappl.front.ms", "dappl.compile.ms", "dappl.compile.nodes",
    "dappl.finalize.ms",
    "pineappl.parse.ms", "pineappl.expand.ms", "pineappl.stmt.ms", "pineappl.fold.ms",
    "pineappl.mmap.calls", "pineappl.mmap.ms", "pineappl.query.ms",
    "bbir.objective.ms", "bbir.bb.ms", "bbir.bound.calls", "bbir.bound.ms",
    "bbir.leaf.calls", "bbir.leaf.ms", "bbir.prunes", "bbir.prune_ratio", "bbir.invalid",
    "bdd.apply.calls", "bdd.apply.ms", "bdd.conjoin.ms", "bdd.condition_all.calls",
    "bdd.condition_all.ms", "bdd.amc.calls", "bdd.amc.ms", "bdd.amc.visits",
    "bdd.nodes_allocated", "bdd.nodes_live", "bdd.live_ratio",
)

# Counters kept beside the spans; every one is summed over the run.
COUNTERS = (
    "dappl.compile.nodes",
    "bbir.prunes",
    "bbir.invalid",
    "bdd.amc.visits",
    "bdd.nodes_allocated",
    "bdd.nodes_live",
)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.solve = array("l")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._solve_id = -1
        self._live = 0  # largest live-node count seen in the current solve
        self._nodes_at_start = 0  # manager size when the current solve began
        self._patches = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.solve.append(self._solve_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, out)`` runs
        inside the span's own bookkeeping, outside every layer's time."""
        name_id = _ID[name]
        measure_id = _ID["trace.measure"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                j = self._open(measure_id)
                try:
                    after(args, out)
                finally:
                    self._close(j)
            return out

        return wrapper

    @contextlib.contextmanager
    def solve_span(self, solve_id: int, mgr):
        """Root span of one solve; ``mgr`` is the solve's own BDD manager."""
        self._solve_id = solve_id
        self._live = 0
        self._nodes_at_start = mgr.num_nodes
        i = self._open(_ID["solve"])
        try:
            yield
        finally:
            self._close(i)
            self.counts["bdd.nodes_allocated"] += mgr.num_nodes
            self.counts["bdd.nodes_live"] += self._live
            self._solve_id = -1

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, after=None):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        if isinstance(original, property):
            wrapped = property(self.span(name, original.fget, after))
        else:
            wrapped = self.span(name, original, after)
        setattr(owner, attr, wrapped)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        counts = self.counts

        def compile_nodes(args, compiled):
            # the front end allocates no nodes, so compile made all of them
            counts["dappl.compile.nodes"] += compiled.mgr.num_nodes - self._nodes_at_start

        def search_done(args, result):
            counts["bbir.prunes"] += result.stats.prunes
            counts["bbir.invalid"] += result.stats.invalid
            problem = args[1]
            roots = list(problem.formulas) + [problem.validity]
            self._live = max(self._live, len(problem.mgr.reachable_nodes(roots)))

        def amc_visits(args, out):
            counts["bdd.amc.visits"] += args[0].amc_visits

        # dappl.prepare and dappl.solve_meu look these up in the package module
        self._patch(dappl, "parse", "dappl.parse")
        self._patch(dappl, "check_program", "dappl.front")
        self._patch(dappl, "desugar", "dappl.front")
        self._patch(dappl, "number_sites", "dappl.front")
        self._patch(dappl, "compile_program", "dappl.compile", compile_nodes)
        self._patch(dappl_compile.CompiledDappl, "finalize", "dappl.finalize")
        # pineappl.compile imports parse, expand and bb by name
        self._patch(pineappl_compile, "parse", "pineappl.parse")
        self._patch(pineappl_compile, "expand", "pineappl.expand")
        self._patch(pineappl_compile.Compiler, "compile_stmt", "pineappl.stmt")
        self._patch(pineappl_compile.Compiler, "constraint", "pineappl.fold")
        self._patch(pineappl_compile.Compiler, "solve_mmap", "pineappl.mmap")
        self._patch(pineappl_compile.Compiler, "run_query", "pineappl.query")
        self._patch(pineappl_compile, "bb", "bbir.bb", search_done)
        # dappl.solve_meu calls bbir.bb through the module
        self._patch(bbir, "bb", "bbir.bb", search_done)
        for objective in (bbir.MeuObjective, bbir.MmapObjective):
            self._patch(objective, "__init__", "bbir.objective")
            self._patch(objective, "bound_conditioned", "bbir.bound")
            self._patch(objective, "evaluate_conditioned", "bbir.leaf")
        self._patch(bdd.BddManager, "apply", "bdd.apply")
        self._patch(bdd.BddManager, "conjoin", "bdd.conjoin")
        self._patch(bdd.BddManager, "condition_all", "bdd.condition_all")
        self._patch(bdd.BddManager, "amc", "bdd.amc", amc_visits)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    # -- results ----------------------------------------------------------------

    def self_times(self):
        """Per-span self time in seconds (duration minus child durations)."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def layer_metrics(self) -> dict:
        """Every name in ``LAYER_METRICS``, summed over the run.

        ``<span>.ms`` is the spans' summed self time and ``<span>.calls``
        their number; the other names are counters or ratios of them.
        """
        own = self.self_times()
        values = dict(self.counts)
        for name in SPAN_NAMES:
            values[name + ".ms"] = 0.0
            values[name + ".calls"] = 0
        for name_id, t in zip(self.name, own):
            values[SPAN_NAMES[name_id] + ".ms"] += t * 1000.0
            values[SPAN_NAMES[name_id] + ".calls"] += 1
        bound_calls = values["bbir.bound.calls"]
        allocated = values["bdd.nodes_allocated"]
        values["bbir.prune_ratio"] = values["bbir.prunes"] / bound_calls if bound_calls else 0.0
        values["bdd.live_ratio"] = values["bdd.nodes_live"] / allocated if allocated else 0.0
        return {name: values[name] for name in LAYER_METRICS}

    def per_solve_self_sums(self) -> dict:
        """Solve id -> (summed self time of its spans, root span duration), s."""
        own = self.self_times()
        sums = {}
        root = _ID["solve"]
        for i, sid in enumerate(self.solve):
            total, wall = sums.get(sid, (0.0, 0.0))
            if self.name[i] == root:
                wall = self.end[i] - self.start[i]
            sums[sid] = (total + own[i], wall)
        return sums

    def write(self, path: str):
        """Spans as gzip'd tab-separated rows: name, start, end, parent, solve."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\tsolve\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.name)):
                fh.write(
                    f"{SPAN_NAMES[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.solve[i]}\n"
                )
