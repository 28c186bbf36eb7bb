"""Answer-preserving edge replacements and seeded instance generators.

The replacement gadget turns an edge uv into a four-cycle u, w1, v, w2
through two fresh vertices. It never creates or destroys a matching cut,
and applying it to every edge at once doubles the length of every cycle,
which is how `girth_blowup` pushes all long induced cycles past a chosen
pattern size.
"""

from __future__ import annotations

import itertools
import random

from .graphs import (
    Graph,
    contains_induced,
    cycle_graph,
    girth,
    is_connected,
)


class TransformNotApplicable(ValueError):
    """The transform's precondition fails for this input or pattern."""


def k22_replace(g: Graph, edge) -> tuple[Graph, dict]:
    """Replace a single edge by the two-midpoint gadget.

    Returns the new graph (n + 2 vertices, m + 3 edges) together with a
    provenance record naming the replaced edge and the fresh midpoints.
    """
    u, v = sorted(edge)
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
    w1, w2 = g.n, g.n + 1
    edges = [e for e in g.edges if e != (u, v)]
    edges += [(u, w1), (u, w2), (v, w1), (v, w2)]
    return Graph(g.n + 2, edges), {"replaced": (u, v), "midpoints": (w1, w2)}


def blowup_round(g: Graph) -> Graph:
    """Apply the gadget to every edge simultaneously (n + 2m vertices, 4m edges)."""
    edges = []
    for i, (u, v) in enumerate(g.edges):
        w1, w2 = g.n + 2 * i, g.n + 2 * i + 1
        edges += [(u, w1), (u, w2), (v, w1), (v, w2)]
    return Graph(g.n + 2 * g.m, edges)


def blowup_rounds_needed(g: Graph, pattern: Graph) -> int:
    """Fewest rounds after which every non-C4 cycle outgrows the pattern.

    One round doubles each existing cycle and adds fresh four-cycles, so
    after k rounds the non-C4 cycle lengths are 4 * 2**i for 1 <= i < k
    together with 2**k times each original cycle length. The minimum is
    2 * girth after one round and 8 from the second round on, so either a
    single round works or the pattern must have at most 7 vertices.
    """
    target = pattern.n + 1
    base = girth(g)
    if base is None or 2 * base >= target:
        return 1
    if 8 >= target:
        return 2
    raise TransformNotApplicable(
        f"cycles of length up to {pattern.n} survive every round count"
    )


def girth_blowup(g: Graph, pattern: Graph) -> tuple[Graph, int]:
    """Blow the graph up until it has no induced copy of `pattern`.

    Works only for cyclic patterns without an induced four-cycle: blow-ups
    are full of induced C4s, and an acyclic pattern cannot be excluded by
    stretching cycles. The result has a matching cut exactly when the
    input does. Returns the blown-up graph and the number of rounds.

    The output is checked for the pattern before it is returned. Each
    round joins old vertices only to new ones, so the output is
    bipartite, and for a pattern with an odd cycle `contains_induced`
    answers after one 2-colouring BFS instead of a backtracking search.
    """
    if girth(pattern) is None:
        raise TransformNotApplicable("pattern has no cycle; stretching cycles cannot exclude it")
    if contains_induced(pattern, cycle_graph(4)):
        raise TransformNotApplicable("pattern contains an induced four-cycle, which every blow-up keeps")
    rounds = blowup_rounds_needed(g, pattern)
    out = g
    for _ in range(rounds):
        out = blowup_round(out)
    if contains_induced(out, pattern):
        raise RuntimeError("blow-up left an induced pattern copy; construction bug")
    return out, rounds


# Samples drawn before the rejection samplers below give up.
_GNP_ATTEMPTS = 300
_PATTERN_FREE_ATTEMPTS = 500


def _check_sample(n: int, p: float) -> None:
    """Refuse fewer than two vertices, or an edge probability outside
    [0, 1]; NaN fails the range test too."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], not {p}")


def random_gnp(n: int, p: float, seed: int = 0) -> Graph:
    """Connected uniform random graph by rejection; deterministic in seed."""
    _check_sample(n, p)
    rng = random.Random(seed)
    for _ in range(_GNP_ATTEMPTS):
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        g = Graph(n, edges)
        if is_connected(g):
            return g
    raise ValueError(f"no connected sample within {_GNP_ATTEMPTS} attempts at p={p}")


def random_radius2(n: int, extra_p: float = 0.15, seed: int = 0) -> Graph:
    """Random connected graph whose vertex 0 has eccentricity at most 2.

    Vertex 0 gets a random neighbourhood, every remaining vertex hangs off
    one of those neighbours, and extra edges are sprinkled between the
    non-hub vertices. Extra edges only shrink distances, so the radius
    bound survives them.
    """
    _check_sample(n, extra_p)
    rng = random.Random(seed)
    near = sorted(rng.sample(range(1, n), max(1, (n - 1) // 3)))
    edges = {(0, w) for w in near}
    for z in range(1, n):
        if z not in near:
            edges.add(tuple(sorted((z, rng.choice(near)))))
    for u, v in itertools.combinations(range(1, n), 2):
        if rng.random() < extra_p:
            edges.add((u, v))
    return Graph(n, sorted(edges))


def random_pattern_free(n: int, p: float, pattern: Graph, seed: int = 0) -> Graph:
    """Connected random graph with no induced copy of `pattern`."""
    _check_sample(n, p)
    rng = random.Random(seed)
    for _ in range(_PATTERN_FREE_ATTEMPTS):
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        g = Graph(n, edges)
        if is_connected(g) and not contains_induced(g, pattern):
            return g
    raise ValueError(
        f"no connected pattern-free sample within {_PATTERN_FREE_ATTEMPTS} attempts at p={p}"
    )
