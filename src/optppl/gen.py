"""Seeded benchmark-family generators.

Each generator renders deterministic program text for a seed: Bayesian
networks become decision programs (root nodes turn into decisions, more
nodes are converted until at least four exist, and utilities attach by one
of two strategies); diminishing-returns chains, faulty-router ladders, and
finite gridworld unrollings exercise the decision solver; the nested-query
template exercises staged compilation.
"""

from __future__ import annotations

import json
import random


class GenError(Exception):
    pass


# ---------------------------------------------------------------------------
# Bayesian networks
# ---------------------------------------------------------------------------

def load_bn(path_or_dict):
    if isinstance(path_or_dict, dict):
        doc = path_or_dict
    else:
        with open(path_or_dict) as fh:
            doc = json.load(fh)
    variables = doc.get("variables")
    if not variables:
        raise GenError("a Bayesian network needs a nonempty 'variables' list")
    by_name = {}
    for node in variables:
        name = node["name"]
        if name in by_name:
            raise GenError(f"duplicate node {name!r}")
        states = node.get("states", ["true", "false"])
        by_name[name] = {
            "name": name,
            "states": list(states),
            "parents": list(node.get("parents", [])),
            "cpt": node["cpt"],
        }
    order = _topo_order(by_name)
    _validate_cpts(by_name, order)
    return by_name, order


def _topo_order(by_name):
    order, seen, visiting = [], set(), set()

    def visit(name):
        if name in seen:
            return
        if name in visiting:
            raise GenError(f"the network has a cycle through {name!r}")
        visiting.add(name)
        for p in by_name[name]["parents"]:
            if p not in by_name:
                raise GenError(f"unknown parent {p!r} of {name!r}")
            visit(p)
        visiting.discard(name)
        seen.add(name)
        order.append(name)

    for name in by_name:
        visit(name)
    return order


def _validate_cpts(by_name, order):
    for name in order:
        node = by_name[name]
        rows = node["cpt"]
        expected = 1
        for p in node["parents"]:
            expected *= len(by_name[p]["states"])
        if len(rows) != expected:
            raise GenError(
                f"{name!r} needs {expected} CPT rows, found {len(rows)}"
            )
        for row in rows:
            if len(row) != len(node["states"]):
                raise GenError(f"{name!r} has a CPT row of the wrong width")
            if abs(sum(row) - 1.0) > 1e-9:
                raise GenError(f"{name!r} has a CPT row that sums to {sum(row)}")


def _parent_combos(by_name, parents):
    combos = [()]
    for p in parents:
        states = range(len(by_name[p]["states"]))
        combos = [c + (s,) for c in combos for s in states]
    return combos


def _indicator(name, state_idx, n_states):
    if n_states == 2:
        return name if state_idx == 0 else f"(!{name})"
    return f"{name}_s{state_idx}"


def gen_bn(bn, strategy: str, seed: int) -> str:
    """Render a decision program from a Bayesian network.

    ``strategy`` is ``existing`` (utilities on node polarities) or
    ``new_nodes`` (five fresh reward nodes over random assignments).
    """
    if strategy not in ("existing", "new_nodes"):
        raise GenError(f"unknown utility strategy {strategy!r}")
    by_name, order = load_bn(bn)
    rng = random.Random(seed)

    decisions = {name for name in order if not by_name[name]["parents"]}
    pool = [n for n in order if n not in decisions]
    while len(decisions) < 4 and pool:
        keep = []
        for n in pool:
            if len(decisions) < 4 and rng.random() < 0.5:
                decisions.add(n)
            else:
                keep.append(n)
        pool = keep
    lines = [f"// network decision program (strategy={strategy}, seed={seed})"]

    for name in order:
        node = by_name[name]
        k = len(node["states"])
        if name in decisions:
            lines.extend(_emit_decision(name, k))
            continue
        lines.extend(_emit_cpt_node(by_name, node))

    reward_lines, guard_names = _emit_rewards(by_name, order, strategy, rng)
    lines.extend(reward_lines)
    lines.append("return tt")
    return "\n".join(lines)


def _emit_decision(name, k):
    lines = [f"d_{name} <- [{', '.join(f'{name}_pick{j}' for j in range(k))}];"]
    if k == 2:
        arms = f"| {name}_pick0 -> tt | {name}_pick1 -> ff"
        lines.append(f"{name} <- (choose d_{name} {arms});")
        return lines
    for j in range(k):
        arms = " ".join(
            f"| {name}_pick{i} -> {'tt' if i == j else 'ff'}" for i in range(k)
        )
        lines.append(f"{name}_s{j} <- (choose d_{name} {arms});")
    return lines


def _emit_cpt_node(by_name, node):
    name = node["name"]
    k = len(node["states"])
    parents = node["parents"]
    combos = _parent_combos(by_name, parents)

    def combo_guard(combo):
        parts = []
        for parent, s in zip(parents, combo):
            parts.append(_indicator(parent, s, len(by_name[parent]["states"])))
        return " && ".join(parts)

    def select(biases):
        # nested conditional over parent combos picking this chain bias
        if len(biases) == 1:
            return f"flip {biases[0]:.12g}"
        guard = combo_guard(combos[len(combos) - len(biases)])
        rest = select(biases[1:])
        return f"if {guard} then flip {biases[0]:.12g} else ({rest})"

    lines = []
    if k == 2:
        biases = [row[0] for row in node["cpt"]]
        lines.append(f"{name} <- ({select(biases)});")
        return lines
    # one-hot chain for a multi-valued node
    chain_flips = []
    for j in range(k - 1):
        biases = []
        for row in node["cpt"]:
            remaining = sum(row[j:])
            biases.append(0.0 if remaining <= 0 else min(1.0, row[j] / remaining))
        flip_name = f"{name}_h{j}"
        chain_flips.append(flip_name)
        lines.append(f"{flip_name} <- ({select(biases)});")
    for j in range(k):
        terms = [f"!{chain_flips[i]}" for i in range(j)]
        if j < k - 1:
            terms.append(chain_flips[j])
        lines.append(f"{name}_s{j} <- return ({' && '.join(terms)});")
    return lines


def _emit_rewards(by_name, order, strategy, rng):
    lines = []
    guards = []
    if strategy == "existing":
        for name in order:
            k = len(by_name[name]["states"])
            true_lit = _indicator(name, 0, k)
            false_lit = f"(!{true_lit})" if k == 2 else _indicator(name, 1, k)
            if rng.random() < 0.8:
                u = rng.randint(0, 100)
                lines.append(f"_u{len(lines)} <- (if {true_lit} then reward {u} else ());")
            if rng.random() < 0.3:
                u = rng.randint(0, 100)
                lines.append(f"_u{len(lines)} <- (if {false_lit} then reward {u} else ());")
        return lines, guards
    # five fresh reward nodes, true iff one of five random assignments holds
    names = list(order)
    for j in range(5):
        pats = []
        for _ in range(5):
            picked = rng.sample(names, k=min(3, len(names)))
            lits = []
            for p in picked:
                k = len(by_name[p]["states"])
                s = rng.randrange(k)
                lit = _indicator(p, s, k)
                if k == 2 and s == 1:
                    lit = f"(!{p})"
                lits.append(lit)
            pats.append("(" + " && ".join(lits) + ")")
        lines.append(f"rn{j} <- return ({' || '.join(pats)});")
        a, b = rng.randint(0, 100), rng.randint(0, 100)
        lines.append(f"_u{j} <- (if rn{j} then reward {a} else reward {b});")
    return lines, guards


# ---------------------------------------------------------------------------
# Diminishing returns
# ---------------------------------------------------------------------------

def gen_dr(n: int, seed: int = 0) -> str:
    """Coin chain: heads picks among 2-6 utilities, tails falls through."""
    if n < 1:
        raise GenError("the chain needs at least one column")
    rng = random.Random(seed)
    columns = []
    for i in range(n):
        k = rng.randint(2, 6)
        utils = [rng.randint(0, 100) for _ in range(k)]
        names = [f"take{i}_{j}" for j in range(k)]
        arms = " ".join(f"| {nm} -> reward {u}" for nm, u in zip(names, utils))
        columns.append(f"if f{i} then (choose [{', '.join(names)}] {arms}) else ")
    # the biases are drawn from the last column back to the first
    for i in range(n - 1, -1, -1):
        columns[i] = f"f{i} <- flip {rng.uniform(0.2, 0.8):.6g}; {columns[i]}"
    chain = "(".join(columns) + "()" + ")" * (n - 1)
    return "// diminishing returns, n=%d seed=%d\n%s" % (n, seed, chain)


# ---------------------------------------------------------------------------
# Faulty-router ladder
# ---------------------------------------------------------------------------

def gen_ladder(n: int, k: int = 1, seed: int = 0) -> str:
    """Ladder of 2n routers; diagnose a faulty one in up to k tries."""
    if n < 1:
        raise GenError("the ladder needs at least one column")
    if not 1 <= k <= 2 * n:
        raise GenError("tries must be between 1 and the router count")
    rng = random.Random(seed)
    fail = rng.uniform(0.05, 0.3)
    routers = 2 * n
    lines = [f"// ladder network, n={n} k={k} seed={seed}"]
    for i in range(routers):
        lines.append(f"w{i} <- flip {1 - fail:.6g};")
    alive = "tt"
    for col in range(n):
        alive = f"({alive} && (w{2 * col} || w{2 * col + 1}))"
    lines.append(f"arrived <- return {alive};")
    lines.append("observe !arrived;")
    utils = [rng.randint(1, 100) for _ in range(routers)]

    def attempt(t):
        names = [f"pick{t}_{i}" for i in range(routers)]
        arms = []
        for i, nm in enumerate(names):
            if t + 1 < k:
                miss = f"({attempt(t + 1)})"
            else:
                miss = "()"
            arms.append(f"| {nm} -> (if !w{i} then reward {utils[i]} else {miss})")
        return f"choose [{', '.join(names)}] {' '.join(arms)}"

    lines.append(attempt(0))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Gridworld (finite unrolling)
# ---------------------------------------------------------------------------

_DIRS = ("Up", "Down", "Left", "Right")
_MOVES = {"Up": (0, -1), "Down": (0, 1), "Left": (-1, 0), "Right": (1, 0)}


def gen_gridworld(dim: int, horizon: int, slip: float, seed: int = 0) -> str:
    """Unrolled grid walk: per-step 4-way choice, slips, traps, one goal.

    The robot starts at (0,0); traps and the goal absorb.  A single reward
    of 100 is granted when the final position is the goal.
    """
    if dim < 2:
        raise GenError("the grid needs dimension at least 2")
    if horizon < 1:
        raise GenError("the horizon must be at least 1")
    if not 0.0 <= slip <= 1.0:
        raise GenError("the slip probability must be in [0, 1]")
    rng = random.Random(seed)
    cells = [(x, y) for y in range(dim) for x in range(dim)]
    start = (0, 0)
    goal = rng.choice([c for c in cells if c != start])
    obstacles = set()
    traps = set()
    for c in cells:
        if c in (start, goal):
            continue
        r = rng.random()
        if r < 0.15:
            obstacles.add(c)
        elif r < 0.25:
            traps.add(c)

    def at(t, c):
        return f"at{t}_{c[0]}_{c[1]}"

    lines = [
        f"// gridworld dim={dim} horizon={horizon} slip={slip:g} seed={seed}",
        f"// goal={goal} obstacles={sorted(obstacles)} traps={sorted(traps)}",
    ]
    for c in cells:
        lines.append(f"{at(0, c)} <- return {'tt' if c == start else 'ff'};")

    for t in range(horizon):
        names = [f"{d}{t}" for d in _DIRS]
        lines.append(f"d{t} <- [{', '.join(names)}];")
        for d, nm in zip(_DIRS, names):
            arms = " ".join(
                f"| {other} -> {'tt' if other == nm else 'ff'}" for other in names
            )
            lines.append(f"sel{t}_{d} <- (choose d{t} {arms});")
        lines.append(f"slip{t} <- flip {slip:.6g};")
        lines.append(f"wa{t} <- flip {1.0 / 3.0:.12g};")
        lines.append(f"wb{t} <- flip 0.5;")
        # actual heading: chosen unless slipping, else one of the other three
        windex = {0: f"wa{t}", 1: f"(!wa{t} && wb{t})", 2: f"(!wa{t} && !wb{t})"}
        for d in _DIRS:
            wrong_cases = []
            for chosen in _DIRS:
                if chosen == d:
                    continue
                # position of d among the three non-chosen directions
                slot = [x for x in _DIRS if x != chosen].index(d)
                wrong_cases.append(f"(sel{t}_{chosen} && {windex[slot]})")
            wrong = " || ".join(wrong_cases)
            lines.append(
                f"go{t}_{d} <- return ((!slip{t} && sel{t}_{d}) || (slip{t} && ({wrong})));"
            )
        for c in cells:
            if c in obstacles:
                lines.append(f"{at(t + 1, c)} <- return ff;")
                continue
            sources = []
            if c in traps or c == goal:
                sources.append(f"{at(t, c)}")  # absorbing
            else:
                stays = []
                for d in _DIRS:
                    dx, dy = _MOVES[d]
                    tgt = (c[0] + dx, c[1] + dy)
                    blocked = (
                        tgt[0] < 0 or tgt[0] >= dim or tgt[1] < 0 or tgt[1] >= dim
                        or tgt in obstacles
                    )
                    if blocked:
                        stays.append(f"go{t}_{d}")
                if stays:
                    sources.append(f"({at(t, c)} && ({' || '.join(stays)}))")
            for c2 in cells:
                if c2 in traps or c2 == goal or c2 in obstacles:
                    continue
                for d in _DIRS:
                    dx, dy = _MOVES[d]
                    if (c2[0] + dx, c2[1] + dy) == c:
                        sources.append(f"({at(t, c2)} && go{t}_{d})")
            value = " || ".join(sources) if sources else "ff"
            lines.append(f"{at(t + 1, c)} <- return ({value});")
    lines.append(f"_goal <- (if {at(horizon, goal)} then reward 100 else ());")
    lines.append("return tt")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Nested staged queries
# ---------------------------------------------------------------------------

def gen_nested_mmap(n: int) -> str:
    """The staged-query stress template with ``n`` loop iterations."""
    if n < 1:
        raise GenError("the loop bound must be at least 1")
    return f"""m = true;
loop {n} {{
  if m {{
    x = flip 0.5; y = flip 0.5;
    if x && y {{ z = flip 0.5; }} else {{ z = flip 0.5; }}
  }} else {{
    x = flip 0.5; y = flip 0.5;
    if !x && !y {{ z = flip 0.5; }} else {{ z = flip 0.5; }}
  }}
  (m) = mmap(z);
}}
pr(z)
"""
