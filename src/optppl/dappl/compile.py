"""Boolean compilation of core programs to the branch-and-bound IR.

An expression compiles to ``(phi, gamma, trace, pending)``: the formula
for true-returning executions, the accepting formula collecting
observations, the reward structure of ``phi`` over both return values, and
the rewards awaiting discharge.  Rewards are numbered in creation order, so
those a subexpression introduces are one run ``rewards[start:end]``.  A
conditional compiles each formula as one ``ite`` on its guard; each arm
discharges its branch's pending rewards and pins the other branch's run
false, so each model awards exactly the rewards of the trace it describes.
Finalization conjoins the remaining pending rewards onto ``phi``.

Each diagram is built once.  A branch's pinned rewards form a chain of
negated literals; an ``if`` leaves the chain of its own run for the ``if``
above it to take, built as the conjunction of its two branches' chains, so
a chain costs only the literals above the one it extends.  A pure binding
(``x <- return t``) binds ``x`` to its term and the bindings of the term's
names, and the term compiles when ``x`` is first read, so a binding nothing
reads builds nothing.  A ``choose`` whose arms observe nothing accepts on
its site's exactly-one constraint itself.  Both walks below keep one scope,
bound and restored in place by :func:`~optppl.dappl.desugar.rebind`.

The variable order comes from the program's structure.  A planning walk
(:func:`plan_variables`) labels every flip, reward and choice variable in
creation order, numbering each choice site as it labels it, and keeps that
order, except that inside each arm of an outermost choose the arm's choice
variable moves beside the variables the arm tests, and rewards under the
arm's ``if`` move beside the guard's variables.  A choice that tests chance
variables registered before it thus sits next to them instead of below all
of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bdd import TRUE, BddManager
from ..bbir import Bbir
from ..frontend import compile_term, term_vars
from ..semiring import EV, EXPECTATION
from . import ast as A
from .desugar import rebind


class DapplCompileError(Exception):
    pass


@dataclass
class ChoiceSite:
    site: int
    names: tuple
    vars: tuple  # in the planner, indexes into its labels
    eo: int  # exactly-one constraint handle; None in the planner


@dataclass
class CompiledDappl:
    mgr: BddManager
    phi: int
    gamma: int
    trace: int
    weights: dict
    pending: tuple
    sites: list = field(default_factory=list)

    def finalize(self) -> Bbir:
        """Conjoin pending rewards and package the search problem.

        The accepting formula is conjoined with the trace formula: an
        observation may test a bound value whose formula mentions reward
        variables, and only trace-consistent models weigh the acceptance
        mass correctly.  The unnormalized side already entails the trace
        structure, so its count is unchanged.

        The validity conjoins the exactly-one constraints of the sites the
        formulas use, newest first: a later site's constraint mostly lies
        below an earlier one's, so each conjunction builds only the new
        constraint's nodes.  Each formula's support is swept once, here,
        and handed to the :class:`Bbir`.
        """
        mgr = self.mgr
        phi = mgr.conjoin([mgr.cube((r, True) for r in self.pending), self.phi])
        gamma = mgr.apply("and", self.gamma, self.trace)
        supports = {phi: mgr.support(phi)}
        if gamma not in supports:
            supports[gamma] = mgr.support(gamma)
        used = set().union(*supports.values())
        sites = [site for site in self.sites if not used.isdisjoint(site.vars)]
        return Bbir(
            mgr=mgr,
            formulas=[phi, gamma],
            branch_vars=sorted(v for site in sites for v in site.vars),
            weights=self.weights,
            semiring=EXPECTATION,
            validity=mgr.conjoin(reversed([site.eo for site in sites])),
            swept=supports,
        )


class _BoolVal:
    """A Boolean binding: its handle, or until read a pure term and its names' bindings."""

    __slots__ = ("handle", "term", "env")

    def __init__(self, handle, term=None, env=None):
        self.handle = handle
        self.term = term
        self.env = env


def _reader(mgr, env):
    """What a pure term's names compile to under ``env``.

    A pure binding's term compiles on its first read, under its names'
    bindings from when it was bound, and keeps its handle for later reads.
    """

    def read(name):
        val = env.get(name)
        if not isinstance(val, _BoolVal):
            raise DapplCompileError(f"{name!r} is not a Boolean binding")
        if val.handle is None:
            val.handle = compile_term(mgr, val.term, _reader(mgr, val.env))
            val.term = val.env = None
        return val.handle

    return read


# -- variable order -----------------------------------------------------------

_ABOVE, _HERE, _BELOW = 0, 1, 2


@dataclass
class VarPlan:
    """Every variable a core program creates, and the order to register them in.

    ``labels`` holds the flip, reward and choice variables in the compiler's
    creation order; ``order`` is the planned registration order, as indexes
    into ``labels``.
    """

    labels: list
    order: list


class _Planner:
    """One walk of a core program, visiting it in the compiler's order.

    Each binding maps to the variables its formulas can mention.  Inside an
    arm of an outermost choose (one not inside another choose's arm), the
    walk collects what the arm references and notes two moves: the arm's
    choice variable goes just above the first earlier-registered variable
    the arm references, and a reward under an ``if`` of the arm, with no
    choose in between, goes just below the last variable the guard tests.
    The walk never raises: malformed programs are left to the compiler.
    """

    def __init__(self):
        self.labels = []
        self.moves = {}  # variable -> (side, anchor candidates)
        self.flips = self.rewards = self.sites = 0

    def _new(self, label) -> int:
        self.labels.append(label)
        return len(self.labels) - 1

    def _site(self, intro) -> ChoiceSite:
        """Number a choice introduction's site and label its variables."""
        intro.site = self.sites
        vars_ = tuple(self._new(f"c{self.sites}.{name}") for name in intro.names)
        self.sites += 1
        return ChoiceSite(intro.site, intro.names, vars_, None)

    def pure(self, p, env, out, refs):
        for name in term_vars(p):
            # a Boolean binding maps to a set, a choice binding to a site
            bound = env.get(name)
            if isinstance(bound, set):
                out |= bound
                if refs is not None:
                    refs |= bound

    def walk(self, e, env, out, refs=None, guard=None):
        """Add the variables ``e``'s formulas can mention to the set ``out``.

        ``refs`` collects the references of the enclosing outermost arm and
        is None outside one.  ``guard`` holds the variables the innermost
        ``if`` of that arm tests; it is None with no such ``if`` and False
        below a nested choose.
        """
        if isinstance(e, A.Return):
            self.pure(e.pure, env, out, refs)
        elif isinstance(e, A.Flip):
            self.flips += 1
            out.add(self._new(f"f_{e.theta:g}#{self.flips}"))
        elif isinstance(e, A.Reward):
            self.walk(e.body, env, out, refs, guard)
            self.rewards += 1
            r = self._new(f"r_{e.amount:g}#{self.rewards}")
            if guard:
                self.moves[r] = (_BELOW, guard)
            out.add(r)
        elif isinstance(e, A.Observe):
            self.pure(e.guard, env, out, refs)
            self.walk(e.body, env, out, refs, guard)
        elif isinstance(e, A.Ite):
            tested = set()
            self.pure(e.guard, env, tested, refs)
            out |= tested
            inner = guard if refs is None or guard is False else tested
            self.walk(e.then, env, out, refs, inner)
            self.walk(e.els, env, out, refs, inner)
        elif isinstance(e, A.Bind):
            if isinstance(e.value, A.ChoiceIntro):
                value = self._site(e.value)
            else:
                value = set()
                self.walk(e.value, env, value, refs, guard)
                out |= value
            saved = rebind(env, e.name, value)
            self.walk(e.body, env, out, refs, guard)
            rebind(env, e.name, saved)
        elif isinstance(e, A.ChoiceIntro):
            out.update(self._site(e).vars)
        elif isinstance(e, A.Choose):
            site = env.get(e.scrutinee.name) if isinstance(e.scrutinee, A.ScrutVar) else None
            by_name = dict(zip(site.names, site.vars)) if isinstance(site, ChoiceSite) else {}
            out.update(by_name.values())
            if refs is not None:
                refs.update(by_name.values())
            for name, body in e.arms:
                if refs is not None:
                    self.walk(body, env, out, refs, False)
                    continue
                arm_refs = set()
                self.walk(body, env, out, arm_refs)
                v = by_name.get(name)
                earlier = [x for x in arm_refs if x < site.vars[0]] if v is not None else ()
                if earlier:
                    self.moves.setdefault(v, (_ABOVE, earlier))

    def order(self) -> list:
        """Registration order with the noted moves applied.

        A moved variable's sort key extends its anchor's, so it lands
        beside the anchor's final position; variables moved to one side of
        one anchor keep their creation order.  Every anchor is created
        before the variable it anchors, so its key is already known.
        """
        keys = []
        for v in range(len(self.labels)):
            move = self.moves.get(v)
            if move is None:
                keys.append((v, _HERE))
                continue
            side, anchors = move
            pick = min if side == _ABOVE else max
            anchor = keys[pick(anchors, key=keys.__getitem__)]
            keys.append(anchor[:-1] + (side, v, _HERE))
        return sorted(range(len(keys)), key=keys.__getitem__)


def plan_variables(core: A.Expr) -> VarPlan:
    """Label a core program's variables and plan their registration order.

    Writes each choice introduction's site number into the core, in one
    walk whose bookkeeping is linear in it.  The plan is creation order
    except inside the arms of outermost choose sites, where choice and
    reward variables move beside the variables their arm and guard test
    (see :class:`_Planner`).
    """
    planner = _Planner()
    planner.walk(core, {}, set())
    return VarPlan(labels=planner.labels, order=planner.order())


class Compiler:
    def __init__(self, plan: VarPlan, mgr: BddManager | None = None):
        self.mgr = mgr if mgr is not None else BddManager()
        self.weights = {}  # var -> (positive, negative) literal weights
        self.sites = []
        self.rewards = []  # reward variables in creation order
        # (start, end) -> the negated chain of ``rewards[start:end]``, left
        # by an ``if`` for the ``if`` above it; an entry goes when it is read
        self._pins = {}
        handles = [0] * len(plan.labels)
        for i in plan.order:
            handles[i] = self.mgr.ensure_var(plan.labels[i])
        self._created = iter(handles)  # in creation order

    # -- variable creation ----------------------------------------------------

    def _fresh_flip(self, theta: float) -> int:
        v = next(self._created)
        self.weights[v] = (EV(theta, 0.0), EV(1.0 - theta, 0.0))
        return v

    def _fresh_reward(self, amount: float) -> int:
        v = next(self._created)
        self.weights[v] = (EV(1.0, amount), EV(1.0, 0.0))
        self.rewards.append(v)
        return v

    def _fresh_site(self, names) -> ChoiceSite:
        vars_ = tuple(next(self._created) for _ in names)
        for v in vars_:
            self.weights[v] = (EV(1.0, 0.0), EV(1.0, 0.0))
        site = ChoiceSite(len(self.sites), tuple(names), vars_, self.mgr.exactly_one(vars_))
        self.sites.append(site)
        return site

    def _pinned(self, start: int, end: int) -> int:
        """The conjunction of every reward of ``rewards[start:end]`` negated."""
        chain = self._pins.pop((start, end), None)
        if chain is None:
            chain = self.mgr.cube((r, False) for r in self.rewards[start:end])
        return chain

    # -- expressions ---------------------------------------------------------------

    def compile(self, e: A.Expr, env: dict):
        """Return (phi, gamma, trace, pending reward vars).

        ``trace`` mirrors the reward-discharge structure of ``phi`` but sums
        over both return values; a bind conjoins its value's trace so rewards
        discharged inside an unused binding still constrain every model.
        """
        mgr = self.mgr
        if isinstance(e, A.Return):
            return compile_term(mgr, e.pure, _reader(mgr, env)), TRUE, TRUE, ()
        if isinstance(e, A.Flip):
            return mgr.mk_var(self._fresh_flip(e.theta)), TRUE, TRUE, ()
        if isinstance(e, A.Reward):
            phi, gamma, trace, pending = self.compile(e.body, env)
            return phi, gamma, trace, pending + (self._fresh_reward(e.amount),)
        if isinstance(e, A.Observe):
            guard = compile_term(mgr, e.guard, _reader(mgr, env))
            phi, gamma, trace, pending = self.compile(e.body, env)
            return phi, mgr.apply("and", gamma, guard), trace, pending
        if isinstance(e, A.Ite):
            guard = compile_term(mgr, e.guard, _reader(mgr, env))
            start = len(self.rewards)
            t_phi, t_gam, t_tr, t_pend = self.compile(e.then, env)
            mid = len(self.rewards)
            e_phi, e_gam, e_tr, e_pend = self.compile(e.els, env)
            end = len(self.rewards)

            # each branch's discharged and pinned rewards go in as one cube:
            # conjoined one at a time below the core, every reward literal
            # would rebuild the whole diagram above it.  The pinned chains
            # come from the ``if``s below, and this ``if`` leaves its own.
            t_pin, e_pin = self._pinned(start, mid), self._pinned(mid, end)
            then_cube = mgr.apply("and", mgr.cube((r, True) for r in t_pend), e_pin)
            else_cube = mgr.apply("and", mgr.cube((r, True) for r in e_pend), t_pin)
            if start < end:
                self._pins[start, end] = mgr.apply("and", t_pin, e_pin)

            def mux(then_core, else_core):
                return mgr.ite(
                    guard,
                    mgr.apply("and", then_cube, then_core),
                    mgr.apply("and", else_cube, else_core),
                )

            phi = mux(t_phi, e_phi)
            trace = mux(t_tr, e_tr) if start < end else TRUE
            gamma = mgr.ite(guard, t_gam, e_gam)
            return phi, gamma, trace, ()
        if isinstance(e, A.Bind):
            value, head = e.value, None
            if isinstance(value, A.ChoiceIntro):
                bound = self._fresh_site(value.names)
            elif isinstance(value, A.Return):
                # a pure value has no trace, acceptance or reward of its own
                bound = _BoolVal(None, value.pure, {n: env.get(n) for n in term_vars(value.pure)})
            else:
                head = self.compile(value, env)
                bound = _BoolVal(head[0])
            saved = rebind(env, e.name, bound)
            body = self.compile(e.body, env)
            rebind(env, e.name, saved)
            if head is None:
                return body
            v_phi, v_gam, v_tr, v_pend = head
            b_phi, b_gam, b_tr, b_pend = body
            return (
                mgr.apply("and", v_tr, b_phi),
                mgr.apply("and", v_gam, b_gam),
                mgr.apply("and", v_tr, b_tr),
                v_pend + b_pend,
            )
        if isinstance(e, A.ChoiceIntro):
            return self._fresh_site(e.names).eo, TRUE, TRUE, ()
        if isinstance(e, A.Choose):
            if not isinstance(e.scrutinee, A.ScrutVar):
                raise DapplCompileError("choose scrutinee not a variable; desugar first")
            site = env.get(e.scrutinee.name)
            if not isinstance(site, ChoiceSite):
                raise DapplCompileError(f"{e.scrutinee.name!r} is not a bound choice")
            by_name = dict(zip(site.names, site.vars))
            start = len(self.rewards)
            compiled = []  # (choice var, its rewards' run, compiled arm) per arm
            for name, body in e.arms:
                if name not in by_name:
                    raise DapplCompileError(f"{name!r} is not an alternative of the choice")
                lo = len(self.rewards)
                arm = self.compile(body, env)
                compiled.append((by_name[name], lo, len(self.rewards), arm))
            end = len(self.rewards)
            # each arm sits on its site's one-hot cube (eo and its choice), so
            # the disjunction of the arms already implies eo; with every
            # alternative an arm that observes nothing, it is eo
            quiet = len({avar for avar, _, _, _ in compiled}) == len(site.vars) and all(
                a_gam == TRUE for _, _, _, (_, a_gam, _, _) in compiled
            )
            phi_arms, trace_arms, gam_arms = [], [], []
            for avar, lo, hi, (a_phi, a_gam, a_tr, a_pend) in compiled:
                one_hot = [(c, c == avar) for c in site.vars]
                others = self.rewards[start:lo] + self.rewards[hi:end]
                shared = mgr.cube(
                    one_hot + [(r, True) for r in a_pend] + [(r, False) for r in others]
                )
                phi_arms.append(mgr.apply("and", shared, a_phi))
                trace_arms.append(mgr.apply("and", shared, a_tr))
                if not quiet:
                    gam_arms.append(mgr.apply("and", mgr.cube(one_hot), a_gam))
            phi = mgr.disjoin(phi_arms)
            trace = mgr.disjoin(trace_arms) if start < end else TRUE
            gamma = site.eo if quiet else mgr.disjoin(gam_arms)
            return phi, gamma, trace, ()
        raise DapplCompileError(f"cannot compile {e!r}")


def compile_program(core: A.Expr, mgr: BddManager | None = None) -> CompiledDappl:
    """Compile a core program.

    :func:`plan_variables` labels every variable, numbers the core's choice
    sites as :func:`~optppl.dappl.ast.number_sites` would, and plans the order;
    the variables are registered in that order with ``ensure_var``, so
    labels already registered in ``mgr`` (an ``--order`` file) keep their
    positions and the rest follow in planned order.  The compiler walks the
    core once under one scope and reads each ``if``'s and ``choose``'s
    rewards as the run :attr:`Compiler.rewards` grew by while compiling it.
    """
    compiler = Compiler(plan_variables(core), mgr)
    phi, gamma, trace, pending = compiler.compile(core, {})
    return CompiledDappl(
        mgr=compiler.mgr,
        phi=phi,
        gamma=gamma,
        trace=trace,
        weights=compiler.weights,
        pending=pending,
        sites=compiler.sites,
    )
