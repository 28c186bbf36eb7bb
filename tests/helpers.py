"""Shared test utilities: small-graph corpora, random cographs, an
independent cut check, all-sources reference girth and distance profile,
a reference component search within a vertex set, a per-edge reference
small-cut scan, and brute-force enumeration of valid colourings and
their interfaces.

The removal-based oracle here deliberately avoids the colouring machinery
under test: it enumerates matchings edge by edge and checks disconnection
directly, so agreement with the package oracle is meaningful evidence.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from matchcut import (
    Colouring,
    FourTuple,
    Graph,
    MatchingCut,
    NotConnectedError,
    OracleBoundError,
    bfs_distances,
    connected_components,
    is_connected,
)
from matchcut.graphs import DistanceProfile, mask_of
from matchcut.oracle import DEFAULT_BOUND


def all_connected_graphs(n: int):
    """Every labelled connected graph on vertex set {0..n-1}."""
    if n == 1:
        yield Graph(1)
        return
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        if mask.bit_count() < n - 1:
            continue
        g = Graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))
        if is_connected(g):
            yield g


def random_connected_graph(n: int, rng: random.Random, p: float | None = None) -> Graph:
    """Rejection-sample one connected G(n, p); p defaults to a random density."""
    while True:
        q = p if p is not None else rng.uniform(0.25, 0.75)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < q]
        g = Graph(n, edges)
        if is_connected(g):
            return g


def random_cograph(n: int, rng: random.Random) -> Graph:
    """A random cograph on 0..n-1: the vertices, shuffled, are the leaves
    of a random binary cotree whose nodes each join or disjointly unite
    their two subtrees."""

    def build(vertices: list[int]) -> list[tuple[int, int]]:
        if len(vertices) == 1:
            return []
        cut = rng.randint(1, len(vertices) - 1)
        left, right = vertices[:cut], vertices[cut:]
        edges = build(left) + build(right)
        if rng.random() < 0.5:
            edges += [(u, v) for u in left for v in right]
        return edges

    order = list(range(n))
    rng.shuffle(order)
    return Graph(n, build(order))


def girth_all_sources(g: Graph) -> int | None:
    """Reference girth: an unpruned BFS from every vertex, O(n * m).

    The minimum over all sources of dist[u] + dist[w] + 1 across non-tree
    edges uw is exactly the girth; `matchcut.girth` must agree with it.
    """
    best = None
    for src in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = dist[u] + dist[w] + 1
                    if best is None or cand < best:
                        best = cand
    return best


def distance_profile_all_sources(g: Graph) -> DistanceProfile:
    """Reference profile: a BFS from every vertex, O(n * m).

    The eccentricity of v is the largest BFS distance from v; an
    unreachable vertex means the graph is not connected.
    `matchcut.distance_profile` must agree with it, errors included.
    """
    if g.n == 0:
        raise NotConnectedError("graph is empty")
    ecc = []
    for v in range(g.n):
        dist = bfs_distances(g, v)
        if min(dist) < 0:
            raise NotConnectedError("graph not connected")
        ecc.append(max(dist))
    radius = min(ecc)
    return DistanceProfile(
        radius=radius,
        diameter=max(ecc),
        center=frozenset(v for v in range(g.n) if ecc[v] == radius),
    )


def component_within(g: Graph, part: int, complement: bool) -> int:
    """Reference for `graphs._component`: a plain BFS from the least
    vertex of the mask `part` that steps only to vertices of `part`, along
    g's adjacency lists, or along its non-edges with `complement`. The
    reached vertices, as a mask.
    """
    members = [v for v in range(g.n) if part >> v & 1]
    seen = {members[0]}
    queue = deque([members[0]])
    while queue:
        u = queue.popleft()
        for w in members:
            if w not in seen and w != u and (w in g.adj[u]) != complement:
                seen.add(w)
                queue.append(w)
    return mask_of(seen)


def small_matching_cut_pairwise(g: Graph, k: int = 2) -> MatchingCut | None:
    """Reference small-cut scan: a component search per edge, then per
    disjoint edge pair in `itertools.combinations(g.edges, 2)` order.

    The first disconnecting edge, else (k = 2) the first disconnecting
    pair. `matchcut.small_matching_cut` must agree with it on connected
    graphs.
    """
    for e in g.edges:
        if len(connected_components(g, removed_edges=[e])) > 1:
            return MatchingCut.from_edges([e])
    if k == 2:
        for e, f in itertools.combinations(g.edges, 2):
            if e[0] in f or e[1] in f:
                continue
            if len(connected_components(g, removed_edges=[e, f])) > 1:
                return MatchingCut.from_edges([e, f])
    return None


def _disconnected_without(g: Graph, removed: frozenset) -> bool:
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            key = (v, w) if v < w else (w, v)
            if key in removed or seen >> w & 1:
                continue
            seen |= 1 << w
            stack.append(w)
    return seen != (1 << g.n) - 1


def has_cut_by_matching_removal(g: Graph) -> bool:
    """Ground truth by definition: some matching disconnects the graph.

    Enumerates matchings recursively (bounded by the Hosoya index, small
    for n <= 8) and BFS-checks connectivity of the leftover graph.
    """
    if g.n < 2 or not is_connected(g):
        return False
    edges = g.edges

    def rec(i: int, used: int, removed: tuple) -> bool:
        if i == len(edges):
            return bool(removed) and _disconnected_without(g, frozenset(removed))
        u, v = edges[i]
        if not (used >> u & 1 or used >> v & 1):
            if rec(i + 1, used | 1 << u | 1 << v, removed + (edges[i],)):
                return True
        return rec(i + 1, used, removed)

    return rec(0, 0, ())


def valid_blue_masks(g: Graph) -> list[int]:
    """Blue-side bitmasks of every valid colouring, ascending."""
    full = (1 << g.n) - 1
    out = []
    for blue in range(1, full):
        ok = True
        for v in range(g.n):
            own = blue if blue >> v & 1 else full ^ blue
            if (g.adj_bits[v] & ~own & full).bit_count() > 1:
                ok = False
                break
        if ok:
            out.append(blue)
    return out


def enumerate_valid_colourings(
    g: Graph, constraints: FourTuple | None = None, bound: int = DEFAULT_BOUND
) -> list[Colouring]:
    """All valid colourings, in ascending order of their blue-set bitmask.

    With `constraints` set, keeps only colourings whose red side contains
    x, blue side contains y, red interface contains s and blue interface
    contains t.
    """
    if g.n > bound:
        raise OracleBoundError(f"n={g.n} exceeds the oracle bound {bound}")
    out = []
    for blue in valid_blue_masks(g):
        if constraints is not None:
            if mask_of(constraints.x) & blue or mask_of(constraints.y) & ~blue:
                continue
            if any((g.adj_bits[v] & blue).bit_count() != 1 for v in constraints.s):
                continue
            if any((g.adj_bits[v] & ~blue).bit_count() != 1 for v in constraints.t):
                continue
        out.append(Colouring(g.n, frozenset(v for v in range(g.n) if blue >> v & 1)))
    return out


def red_interface(g: Graph, c: Colouring) -> frozenset[int]:
    """Red vertices with a (necessarily unique, if valid) blue neighbour."""
    bm = c.blue_mask
    return frozenset(
        v for v in range(g.n) if not (bm >> v & 1) and g.adj_bits[v] & bm
    )


def blue_interface(g: Graph, c: Colouring) -> frozenset[int]:
    full = (1 << g.n) - 1
    rm = full ^ c.blue_mask
    return frozenset(
        v for v in range(g.n) if c.blue_mask >> v & 1 and g.adj_bits[v] & rm
    )
