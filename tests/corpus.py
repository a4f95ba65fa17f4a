"""Seeded random-program generators shared by the differential test suites."""

from __future__ import annotations

import random


def random_pure(rng: random.Random, names, depth=2) -> str:
    if not names:
        return rng.choice(["tt", "ff"])
    if depth == 0 or rng.random() < 0.45:
        name = rng.choice(names)
        return f"!{name}" if rng.random() < 0.3 else name
    op = rng.choice(["&&", "||"])
    left = random_pure(rng, names, depth - 1)
    right = random_pure(rng, names, depth - 1)
    return f"({left} {op} {right})"


class _DapplGen:
    def __init__(self, rng, max_flips, max_choices, observe_rate):
        self.rng = rng
        self.flips = max_flips
        self.choices = max_choices
        self.observe_rate = observe_rate
        self.names = []
        self.counter = 0

    def fresh(self, stem):
        self.counter += 1
        return f"{stem}{self.counter}"

    def reward(self):
        return round(self.rng.uniform(-100.0, 100.0), 3)

    def leaf(self):
        r = self.rng.random()
        if r < 0.5:
            return f"reward {self.reward()}"
        if r < 0.7 and self.names:
            return f"return {random_pure(self.rng, self.names)}"
        if r < 0.85:
            return "()"
        return "return tt"

    def expr(self, depth):
        rng = self.rng
        if depth <= 0:
            return self.leaf()
        roll = rng.random()
        if roll < 0.30 and self.flips > 0:
            self.flips -= 1
            name = self.fresh("f")
            theta = round(rng.uniform(0.1, 0.9), 3)
            self.names.append(name)
            inner = self.seq_tail(depth)
            self.names.pop()
            return f"{name} <- flip {theta}; {inner}"
        if roll < 0.45 and self.choices > 0:
            self.choices -= 1
            a, b = self.fresh("A"), self.fresh("B")
            left = self.expr(depth - 1)
            right = self.expr(depth - 1)
            return f"choose [{a}, {b}] | {a} -> ({left}) | {b} -> ({right})"
        if roll < 0.62 and self.names:
            guard = random_pure(self.rng, self.names)
            left = self.expr(depth - 1)
            right = self.expr(depth - 1)
            return f"if {guard} then ({left}) else ({right})"
        if roll < 0.75:
            return f"reward {self.reward()} ({self.expr(depth - 1)})"
        if roll < 0.85 and self.names:
            name = self.fresh("b")
            value = self.expr(depth - 1)
            self.names.append(name)
            inner = self.expr(depth - 1)
            self.names.pop()
            return f"{name} <- ({value}); {inner}"
        return self.leaf()

    def seq_tail(self, depth):
        if self.names and self.rng.random() < self.observe_rate:
            guard = random_pure(self.rng, self.names, depth=1)
            return f"observe {guard}; {self.expr(depth - 1)}"
        return self.expr(depth - 1)


def random_dappl_program(
    seed: int, max_flips=8, max_choices=4, observe_rate=0.3, depth=5
) -> str:
    """Random well-typed decision program with the criterion-4 shape limits."""
    rng = random.Random(seed)
    gen = _DapplGen(rng, max_flips, max_choices, observe_rate)
    return gen.expr(depth)


class _SugarGen:
    """A random decision program over every sugar form, as a tree.

    Nodes are tuples; pure terms hold source names.  A binding reuses a
    visible name a third of the time, whatever its type, so later reads
    must see the newest binding.  ``flips`` and ``policies`` bound the
    flips and the policy space counted over loop copies.
    """

    def __init__(self, rng, flips=8, policies=64):
        self.rng = rng
        self.flips = flips
        self.policies = policies
        self.counter = 0

    def fresh(self, stem):
        self.counter += 1
        return f"{stem}{self.counter}"

    def name(self, scope):
        if scope and self.rng.random() < 0.35:
            return self.rng.choice(sorted(scope))
        return self.fresh("n")

    def pure(self, names, depth=2):
        rng = self.rng
        if not names:
            return ("lit", rng.random() < 0.5)
        if depth == 0 or rng.random() < 0.5:
            var = ("var", rng.choice(names))
            return ("not", var) if rng.random() < 0.3 else var
        return ("op", rng.choice(["&&", "||"]), self.pure(names, depth - 1),
                self.pure(names, depth - 1))

    def weights(self):
        k = self.rng.randint(2, 3)
        outcomes = tuple(self.fresh("o") for _ in range(k))
        return outcomes, tuple(self.rng.randint(1, 4) for _ in range(k))

    def arms(self, alts, scope, depth, mult):
        order = list(alts)
        self.rng.shuffle(order)
        return tuple((a, self.expr(scope, depth - 1, mult)) for a in order)

    def site(self, k, mult) -> bool:
        """Spend the policy budget on a site of ``k`` alternatives, if it allows."""
        if self.policies < k ** mult:
            return False
        self.policies //= k ** mult
        return True

    def leaf(self, scope):
        rng = self.rng
        bools = [n for n, (kind, _) in sorted(scope.items()) if kind == "bool"]
        roll = rng.random()
        if roll < 0.4:
            return ("reward", round(rng.uniform(-20.0, 20.0), 2), None)
        if roll < 0.6 and bools:
            return ("return", self.pure(bools))
        if roll < 0.8:
            return ("unit",)
        return ("reward", round(rng.uniform(-20.0, 20.0), 2), ("unit",))

    def expr(self, scope, depth, mult=1):
        rng = self.rng
        if depth <= 0:
            return self.leaf(scope)
        bools = [n for n, (kind, _) in sorted(scope.items()) if kind == "bool"]
        sums = [n for n, (kind, _) in sorted(scope.items()) if kind != "bool"]
        roll = rng.random()
        if roll < 0.15 and self.flips >= mult:
            self.flips -= mult
            name = self.name(scope)
            theta = round(rng.uniform(0.1, 0.9), 2)
            body = self.expr({**scope, name: ("bool", None)}, depth - 1, mult)
            return ("flip", name, theta, body)
        if roll < 0.25 and self.flips >= 2 * mult:
            outcomes, weights = self.weights()
            self.flips -= (len(outcomes) - 1) * mult
            name = self.name(scope)
            body = self.expr({**scope, name: ("cat", outcomes)}, depth - 1, mult)
            return ("disc", name, outcomes, weights, body)
        if roll < 0.33 and self.site(2, mult):
            # half the time a choice shadows a categorical, over the same
            # patterns when the outcomes allow, so only the scope tells
            # the two apart
            cats = [n for n in sums if scope[n][0] == "cat"]
            name = rng.choice(cats) if cats and rng.random() < 0.5 else self.name(scope)
            old = scope.get(name)
            if old is not None and old[0] == "cat" and len(old[1]) == 2:
                alts = old[1]
            else:
                alts = (self.fresh("A"), self.fresh("B"))
            inner = {**scope, name: ("choice", alts)}
            if rng.random() < 0.5:
                body = ("choose", ("var", name), self.arms(alts, inner, depth - 1, mult))
            else:
                body = self.expr(inner, depth - 1, mult)
            return ("intro", name, alts, body)
        if roll < 0.45 and sums:
            name = rng.choice(sums)
            return ("choose", ("var", name), self.arms(scope[name][1], scope, depth, mult))
        if roll < 0.5 and self.flips >= 2 * mult:
            outcomes, weights = self.weights()
            self.flips -= (len(outcomes) - 1) * mult
            return ("choose", ("disc", outcomes, weights), self.arms(outcomes, scope, depth, mult))
        if roll < 0.55 and self.site(2, mult):
            alts = (self.fresh("A"), self.fresh("B"))
            return ("choose", ("intro", alts), self.arms(alts, scope, depth, mult))
        if roll < 0.65 and bools:
            then, els = self.expr(scope, depth - 1, mult), self.expr(scope, depth - 1, mult)
            return ("if", self.pure(bools), then, els)
        if roll < 0.7 and self.site(2, mult):
            then, els = self.expr(scope, depth - 1, mult), self.expr(scope, depth - 1, mult)
            return ("decide", self.fresh("D"), then, els)
        if roll < 0.77 and bools:
            return ("observe", self.pure(bools, depth=1), self.expr(scope, depth - 1, mult))
        if roll < 0.85:
            name = self.name(scope)
            value = self.expr(scope, depth - 1, mult)
            body = self.expr({**scope, name: ("bool", None)}, depth - 1, mult)
            return ("bind", name, value, body)
        if roll < 0.92:
            k = rng.randint(2, 3)
            return ("loop", k, self.expr(scope, depth - 1, mult * k))
        body = self.expr(scope, depth - 1, mult) if rng.random() < 0.5 else None
        return ("reward", round(rng.uniform(-20.0, 20.0), 2), body)


def _render_pure(t, rename) -> str:
    if t[0] == "lit":
        return "tt" if t[1] else "ff"
    if t[0] == "var":
        return rename(t[1])
    if t[0] == "not":
        return f"!{_render_pure(t[1], rename)}"
    return f"({_render_pure(t[2], rename)} {t[1]} {_render_pure(t[3], rename)})"


def _disc_text(outcomes, weights) -> str:
    total = sum(weights)
    return "disc[" + ", ".join(f"{o}: {w / total!r}" for o, w in zip(outcomes, weights)) + "]"


def _render_sugared(node) -> str:
    kind = node[0]
    if kind == "reward":
        body = node[2]
        if body is None:
            return f"reward {node[1]}"
        return f"reward {node[1]} ({_render_sugared(body)})"
    if kind == "unit":
        return "()"
    if kind == "return":
        return f"return {_render_pure(node[1], str)}"
    if kind == "flip":
        return f"{node[1]} <- flip {node[2]}; {_render_sugared(node[3])}"
    if kind == "disc":
        _, name, outcomes, weights, body = node
        return f"{name} <- {_disc_text(outcomes, weights)}; {_render_sugared(body)}"
    if kind == "intro":
        return f"{node[1]} <- [{', '.join(node[2])}]; {_render_sugared(node[3])}"
    if kind == "choose":
        scrut, arms = node[1], node[2]
        if scrut[0] == "var":
            head = scrut[1]
        elif scrut[0] == "disc":
            head = _disc_text(scrut[1], scrut[2])
        else:
            head = f"[{', '.join(scrut[1])}]"
        return f"choose {head}" + "".join(f" | {a} -> ({_render_sugared(e)})" for a, e in arms)
    if kind == "if":
        guard = _render_pure(node[1], str)
        return f"if {guard} then ({_render_sugared(node[2])}) else ({_render_sugared(node[3])})"
    if kind == "decide":
        then, els = _render_sugared(node[2]), _render_sugared(node[3])
        return f"if [{node[1]}] then ({then}) else ({els})"
    if kind == "observe":
        return f"observe {_render_pure(node[1], str)}; {_render_sugared(node[2])}"
    if kind == "bind":
        return f"{node[1]} <- ({_render_sugared(node[2])}); {_render_sugared(node[3])}"
    return f"loop {node[1]} {{ {_render_sugared(node[2])} }}"


class _HandRenderer:
    """Write a sugar tree out in the core forms, the way desugaring would.

    Every binding gets a fresh name, so the text rebinds nothing; a
    categorical becomes a chain of flips whose biases are computed here from
    the integer weights, and a choose on it nested ``if``s over the chain;
    a loop becomes its body repeated.
    """

    def __init__(self):
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"h{self.counter}"

    def chain(self, weights):
        """Fresh chain flips for a categorical, and their bindings."""
        flips, binds = [], []
        for i, w in enumerate(weights[:-1]):
            flip = self.fresh()
            flips.append(flip)
            binds.append(f"{flip} <- flip {w / sum(weights[i:])!r}; ")
        return flips, "".join(binds)

    def guard(self, t, env):
        """A guard as a variable name, and the binding a compound one needs."""
        if t[0] == "var":
            return env[t[1]][1], ""
        name = self.fresh()
        return name, f"{name} <- return {_render_pure(t, lambda n: env[n][1])}; "

    def select(self, flips, outcomes, arms, env) -> str:
        by_name = dict(arms)
        out = f"({self.render(by_name[outcomes[-1]], env)})"
        for flip, name in zip(reversed(flips), reversed(outcomes[:-1])):
            out = f"(if {flip} then ({self.render(by_name[name], env)}) else {out})"
        return out

    def choose(self, var, arms, env) -> str:
        return f"choose {var}" + "".join(f" | {a} -> ({self.render(e, env)})" for a, e in arms)

    def render(self, node, env) -> str:
        kind = node[0]
        if kind == "reward":
            body = "return tt" if node[2] is None else self.render(node[2], env)
            return f"reward {node[1]} ({body})"
        if kind == "unit":
            return "return tt"
        if kind == "return":
            return f"return {_render_pure(node[1], lambda n: env[n][1])}"
        if kind == "flip":
            name = self.fresh()
            body = self.render(node[3], {**env, node[1]: ("bool", name)})
            return f"{name} <- flip {node[2]}; {body}"
        if kind == "disc":
            _, name, outcomes, weights, body = node
            flips, binds = self.chain(weights)
            return binds + self.render(body, {**env, name: ("cat", flips, outcomes)})
        if kind == "intro":
            name = self.fresh()
            inner = {**env, node[1]: ("choice", name)}
            return f"{name} <- [{', '.join(node[2])}]; {self.render(node[3], inner)}"
        if kind == "choose":
            scrut, arms = node[1], node[2]
            if scrut[0] == "var":
                bound = env[scrut[1]]
                if bound[0] == "cat":
                    return self.select(bound[1], bound[2], arms, env)
                return self.choose(bound[1], arms, env)
            if scrut[0] == "disc":
                flips, binds = self.chain(scrut[2])
                return binds + self.select(flips, scrut[1], arms, env)
            name = self.fresh()
            return f"{name} <- [{', '.join(scrut[1])}]; {self.choose(name, arms, env)}"
        if kind == "if":
            var, bind = self.guard(node[1], env)
            then, els = self.render(node[2], env), self.render(node[3], env)
            return f"{bind}if {var} then ({then}) else ({els})"
        if kind == "decide":
            name, alt = self.fresh(), node[1]
            arms = ((alt, node[2]), (f"{alt}_not", node[3]))
            return f"{name} <- [{alt}, {alt}_not]; {self.choose(name, arms, env)}"
        if kind == "observe":
            var, bind = self.guard(node[1], env)
            return f"{bind}observe {var}; {self.render(node[2], env)}"
        if kind == "bind":
            name = self.fresh()
            value = self.render(node[2], env)
            return f"{name} <- ({value}); {self.render(node[3], {**env, node[1]: ('bool', name)})}"
        copies = [self.render(node[2], env) for _ in range(node[1])]
        return "".join(f"{self.fresh()} <- ({c}); " for c in copies[:-1]) + copies[-1]


def random_sugared_dappl_program(seed: int, depth=5) -> tuple:
    """A random program over every dappl sugar form, rendered twice.

    Returns ``(sugared, by_hand)``: the first uses ``disc``, ``loop``,
    ``()``, trailing rewards, decision guards, compound guards, inline
    choose scrutinees and rebound names; the second writes each of them out
    in the core forms with fresh names, so the two have one meaning.
    """
    tree = _SugarGen(random.Random(seed)).expr({}, depth)
    return _render_sugared(tree), _HandRenderer().render(tree, {})


class _PineGen:
    def __init__(self, rng, max_flips, max_mmaps, max_if_depth):
        self.rng = rng
        self.flips = max_flips
        self.mmaps = max_mmaps
        self.max_if_depth = max_if_depth
        self.plain = []  # names never bound by mmap (usable as evidence)
        self.all_names = []
        self.counter = 0

    def fresh(self, stem):
        self.counter += 1
        return f"{stem}{self.counter}"

    def stmts(self, budget, depth):
        rng = self.rng
        out = []
        while budget > 0:
            budget -= 1
            roll = rng.random()
            if roll < 0.35 and self.flips > 0:
                self.flips -= 1
                name = self.fresh("x") if rng.random() < 0.7 or not self.all_names \
                    else rng.choice(self.all_names)
                theta = round(rng.uniform(0.1, 0.9), 3)
                out.append(f"{name} = flip {theta};")
                self._bind(name)
            elif roll < 0.6 and self.all_names:
                name = self.fresh("y") if rng.random() < 0.6 \
                    else rng.choice(self.all_names)
                out.append(f"{name} = {random_pure(rng, self.all_names)};")
                self._bind(name)
            elif roll < 0.75 and self.all_names and depth < self.max_if_depth:
                guard = random_pure(rng, self.all_names, depth=1)
                before_plain, before_all = list(self.plain), list(self.all_names)
                then = self.stmts(rng.randint(1, 2), depth + 1)
                self.plain, self.all_names = list(before_plain), list(before_all)
                els = self.stmts(rng.randint(1, 2), depth + 1)
                self.plain, self.all_names = before_plain, before_all
                out.append(
                    "if %s { %s } else { %s }" % (guard, " ".join(then), " ".join(els))
                )
            elif roll < 0.85 and self.mmaps > 0 and self.plain:
                self.mmaps -= 1
                queried = self.rng.sample(self.plain, k=min(len(self.plain), rng.randint(1, 2)))
                outs = [self.fresh("m") for _ in queried]
                ev = ""
                if rng.random() < 0.4:
                    ev = f" with {{ {rng.choice(self.plain)} }}"
                lhs = outs[0] if len(outs) == 1 else "(" + ", ".join(outs) + ")"
                out.append(f"{lhs} = mmap({', '.join(queried)}){ev};")
                for o in outs:
                    self.all_names.append(o)  # mmap-bound: never evidence
        return out

    def _bind(self, name):
        if name not in self.all_names:
            self.all_names.append(name)
        if name not in self.plain:
            self.plain.append(name)


def random_pineappl_program(seed: int, max_flips=10, max_mmaps=2, max_if_depth=3) -> str:
    """Random program with the criterion-5 shape limits; >= 1 query."""
    rng = random.Random(seed)
    gen = _PineGen(rng, max_flips, max_mmaps, max_if_depth)
    body = gen.stmts(rng.randint(3, 9), 0)
    if not gen.all_names:
        body.append("x0 = flip 0.5;")
        gen._bind("x0")
    queries = []
    for _ in range(rng.randint(1, 3)):
        expr = random_pure(rng, gen.all_names)
        if gen.plain and rng.random() < 0.3:
            queries.append(f"pr({expr}) with {{ {rng.choice(gen.plain)} }}")
        else:
            queries.append(f"pr({expr})")
    if gen.plain and rng.random() < 0.25:
        queried = rng.sample(gen.plain, k=min(len(gen.plain), 2))
        queries.append(f"mmap({', '.join(queried)})")
    return "\n".join(body + queries)
