"""Seeded benchmark corpora, one per workload.

A corpus is an endless sequence: entry i depends only on the workload,
the seed and i, and is made when a run first needs it, so every timed
operation has an input of its own however fast the package is. Entry i
takes stratum i mod len(strata), so any prefix of a corpus holds the
families and sizes in fixed proportions and only the random structure
and vertex labels depend on the seed. That keeps a run's figures
comparable across seeds while no two seeds share inputs.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

WORKLOADS = ("solve-dense", "solve-sparse", "cli-large")


def _interleave(*families):
    """Round-robin over the families until every stratum is used once."""
    out = []
    for group in itertools.zip_longest(*families):
        out.extend(s for s in group if s is not None)
    return out


# (family, size) strata. Sizes are chosen so that no single operation runs
# for more than a few seconds on the parent commit: the dispatcher has no
# time limit and nothing can be interrupted without a thread. Sizes step
# finely and, on solve-sparse, cubic graphs stop at n = 32 and the lift
# sizes appear three times, so that the middle of each latency
# distribution has no gaps between strata and its median stays steady
# from seed to seed.
STRATA = {
    "solve-dense": _interleave(
        [("gnp", n) for n in range(20, 33)],
        [("radius2", n) for n in range(20, 39, 2)],
    ),
    "solve-sparse": _interleave(
        [("gnp-min2", n) for n in range(14, 21)],
        [("cubic", n) for n in range(20, 33, 2)],
        [("blowup", base) for base in ("K4", "C5", "K3,3", "petersen")] + [("fig1", 14)],
        [("lift", n) for n in (10, 11, 12, 13) * 3],
    ),
    "cli-large": _interleave(
        [("cycle", n) for n in (400, 450, 500, 550, 600)],
        [("grid", side) for side in (16, 17, 18, 19, 20)],
        [("cubic", 500)],
        [("cograph", n) for n in (20, 21, 22)],
    ),
}

GNP_DENSITY = 0.3
SPARSE_DENSITY = 0.2


@dataclass
class Entry:
    """One input graph on vertices 0..n-1."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    graph: object = None  # the matchcut Graph, for in-process solve workloads
    labels: tuple[int, ...] = ()  # edge-file label of each vertex (cli-large)
    path: str | None = None  # edge file (cli-large)
    blue_side: int | None = None  # expected answer: blue side of a matching cut


def _relabel(edges, perm):
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def random_cubic(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Connected simple 3-regular graph from the pairing model, by rejection."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for u, v in zip(points[::2], points[1::2]):
            e = (min(u, v), max(u, v))
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            if _connected(n, edges):
                return sorted(edges)


def random_cograph(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Connected cograph from a random cotree whose root is a join.

    Unions and joins alternate down the tree and every split is within one
    of the middle, so cographs of one size have about the same number of
    edges and cost about the same to analyze; fully random splits made
    single commands differ threefold.
    """

    def build(lo: int, hi: int, join: bool) -> list[tuple[int, int]]:
        if hi - lo == 1:
            return []
        mid = lo + max(1, min(hi - lo - 1, (hi - lo) // 2 + rng.randint(-1, 1)))
        edges = build(lo, mid, not join) + build(mid, hi, not join)
        if join:
            edges += [(u, v) for u in range(lo, mid) for v in range(mid, hi)]
        return edges

    return sorted(build(0, n, True))


def grid(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def _connected(n: int, edges) -> bool:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _blowup_base(mc, name: str):
    if name == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        return mc.Graph(10, outer + inner + spokes)
    return mc.pattern_from_name(name)


def _reaches_lift_branching(mc, g) -> bool:
    """Whether `solve` leaves g to the (P3 + P6)-free lift's branching:
    radius above 2, no matching cut of size 2 or less, an induced P6 and
    no induced P3 + P6."""
    p6 = mc.path_graph(6)
    return (
        mc.distance_profile(g).radius > 2
        and mc.strategies.small_matching_cut(g, 2) is None
        and mc.contains_induced(g, p6)
        and not mc.contains_induced(g, mc.disjoint_union(p6, mc.path_graph(3)))
    )


def random_lift_graph(mc, n: int, rng: random.Random):
    """An n-cycle with n/2 to n-2 random chords that reaches the lift's
    branching, by rejection (about one try in 7 to 16 is kept for n = 10-13)."""
    while True:
        edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
        for _ in range(rng.randint(n // 2, n - 2)):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        g = mc.Graph(n, sorted(edges))
        if _reaches_lift_branching(mc, g):
            return g


def _solve_graph(mc, family: str, size, rng: random.Random, fixture: str):
    """(n, edges) of one solve-workload input, built with the package's
    own generators where it has them."""
    if family == "gnp":
        g = mc.random_gnp(size, GNP_DENSITY, rng.randrange(1 << 30))
    elif family == "radius2":
        g = mc.random_radius2(size, seed=rng.randrange(1 << 30))
    elif family == "gnp-min2":
        while True:
            g = mc.random_gnp(size, SPARSE_DENSITY, rng.randrange(1 << 30))
            if min(map(len, g.adj)) >= 2:
                break
    elif family == "cubic":
        return size, random_cubic(size, rng)
    elif family == "lift":
        g = random_lift_graph(mc, size, rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        return g.n, _relabel(g.edges, perm)
    else:
        g = mc.blowup_round(_blowup_base(mc, size)) if family == "blowup" else mc.load_edge_file(fixture)[0]
        perm = list(range(g.n))
        rng.shuffle(perm)
        return g.n, _relabel(g.edges, perm)
    return g.n, list(g.edges)


def _cli_graph(family: str, size, rng: random.Random):
    """(n, edges) of one cli-large input. Cycle lengths and grid widths are
    drawn within their stratum, so command times spread evenly instead of
    sitting at a few fixed values that the median jumps between."""
    if family == "cycle":
        n = size + rng.randrange(50)
        return n, [(i, (i + 1) % n) for i in range(n)]
    if family == "grid":
        cols = size + rng.randrange(2)
        return size * cols, grid(size, cols)
    if family == "cubic":
        return size, random_cubic(size, rng)
    return size, random_cograph(size, rng)


def entry(workload: str, seed: int, i: int, mc, fixture: str) -> Entry:
    """Entry i of the corpus of `workload` for `seed`; `mc` is the
    imported package."""
    strata = STRATA[workload]
    family, size = strata[i % len(strata)]
    rng = random.Random(f"{workload}:{seed}:{i}")
    name = f"{family}-{size}"
    if workload == "cli-large":
        n, edges = _cli_graph(family, size, rng)
        labels = list(range(n))
        rng.shuffle(labels)
        return Entry(name, n, tuple(sorted(edges)), labels=tuple(labels))
    n, edges = _solve_graph(mc, family, size, rng, fixture)
    return Entry(name, n, tuple(edges), graph=mc.Graph(n, edges))


def write_edge_file(e: Entry, i: int, directory: str) -> None:
    """Write entry i as an edge file in its own labels."""
    e.path = os.path.join(directory, f"{i:04d}-{e.name}.edges")
    lab = e.labels
    with open(e.path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{lab[u]} {lab[v]}\n" for u, v in e.edges))
