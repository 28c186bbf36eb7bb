"""Immutable simple graphs and the structural toolkit built on them.

Vertices are dense integers 0..n-1. Adjacency is kept twice: as sorted
tuples for iteration and as bitmasks for the enumeration-heavy callers
(the oracle, the propagation engine with the backstop that runs it,
`induced_copies` and its P4-free host test `_p4_free`, and
`distance_profile`'s ball growth). `_component` is the one component
search on masks: `_p4_free`, the edge-pair sweep of
`strategies.small_matching_cut` and the P6-free structure search all
call it. Everything here is pure; Graph values are immutable and
hashable.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass


class GraphFormatError(ValueError):
    """Malformed graph input: self-loops, bad tokens, unusable vertex ids."""


class NotConnectedError(ValueError):
    """The operation is only defined on connected graphs."""


def mask_of(vertices) -> int:
    """Bitmask with one bit per vertex in `vertices`."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int):
    """Yield the set bits of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A simple undirected graph on vertices 0..n-1.

    Instances are value-like: immutable after construction, hashable, and
    equal exactly when vertex count and edge set agree. `adj[v]` is the
    sorted neighbour tuple of v, `adj_bits[v]` the same set as a bitmask,
    and `edges` the lexicographically sorted (u, v) pairs with u < v.
    """

    __slots__ = ("n", "m", "adj", "adj_bits", "edges")

    def __init__(self, n: int, edges=()) -> None:
        if n < 0:
            raise GraphFormatError("vertex count must be non-negative")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.adj = tuple(tuple(sorted(s)) for s in nbrs)
        self.adj_bits = tuple(mask_of(s) for s in nbrs)
        self.edges = tuple((u, v) for u in range(n) for v in self.adj[u] if u < v)
        self.n = n
        self.m = len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_bits[u] >> v & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def parse_edge_text(text: str) -> tuple[Graph, tuple[int, ...]]:
    """Parse the whitespace edge-list format: one `u v` pair per line.

    Blank lines and lines starting with `#` are ignored and duplicate
    edges collapse. Errors carry the offending line number. Vertex ids may
    be arbitrary non-negative integers; they are remapped to 0..n-1 in
    ascending order. Returns (graph, labels) where labels[i] is the
    original id of internal vertex i, so the mapping is the identity
    whenever the input ids are already 0..n-1.
    """
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected two vertex ids, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex id")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        pairs.append((u, v))
    if not pairs:
        raise GraphFormatError("no edges found")
    ids = sorted({x for e in pairs for x in e})
    index = {orig: i for i, orig in enumerate(ids)}
    return Graph(len(ids), [(index[u], index[v]) for u, v in pairs]), tuple(ids)


def load_edge_file(path) -> tuple[Graph, tuple[int, ...]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_text(fh.read())


def format_edge_text(g: Graph, labels=None) -> str:
    """Render a graph in the edge-list format, using `labels` if given."""
    if labels is None:
        labels = tuple(range(g.n))
    lines = [f"{labels[u]} {labels[v]}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Distances from `source`; unreachable vertices get -1."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


@dataclass(frozen=True)
class DistanceProfile:
    """Radius, diameter and center, from the per-vertex eccentricities."""

    radius: int
    diameter: int
    center: frozenset[int]


def distance_profile(g: Graph) -> DistanceProfile:
    """Radius, diameter and center from one lock-step ball growth.

    ball[v] is the set of vertices within distance r of v after round r,
    as a mask, and the eccentricity of v is the round in which its ball
    fills. Round 1 gives every vertex its closed neighbourhood. In each
    later round, every ball that is not yet full becomes the OR of its
    neighbours' balls from the previous round (reading them in place
    would over-grow it); a vertex with a neighbour lies in that
    neighbour's ball, so its own ball adds nothing. A ball that stops
    growing before it is full is a whole component. No ball fills in a
    disconnected graph, so watching one ball for that stall is enough:
    the ball of a vertex of least degree, which catches an isolated
    vertex in round 2.

    Cost: at most diameter * 2m ORs of n-bit masks, and two lists of n
    masks. Graphs whose diameter is close to n are the slow case, since
    the bit work then grows as n**3 against n**2 BFS steps: on one core
    with Python 3.11, `cycle_graph(5000)` takes about as long as a BFS
    from every vertex (4-6 s) and `cycle_graph(8000)` longer (23 s
    against 13 s). Raises NotConnectedError on empty or disconnected
    input.
    """
    n = g.n
    if n == 0:
        raise NotConnectedError("graph is empty")
    adj = g.adj
    full = (1 << n) - 1
    watched = min(range(n), key=g.degree)
    first = [nbrs[0] if nbrs else v for v, nbrs in enumerate(adj)]
    rest = [nbrs[1:] for nbrs in adj]
    ball = [1 << v | g.adj_bits[v] for v in range(n)]
    ecc = [1] * n if n > 1 else [0]  # K1's one ball is full at radius 0
    live = [v for v in range(n) if ball[v] != full]
    r = 1
    while live:
        r += 1
        prev = ball[:]
        grown = []
        for v in live:
            b = prev[first[v]]
            for w in rest[v]:
                b |= prev[w]
            ball[v] = b
            if b == full:
                ecc[v] = r
            else:
                grown.append(v)
        if ball[watched] == prev[watched] != full:
            raise NotConnectedError("graph not connected")
        live = grown
    radius = min(ecc)
    return DistanceProfile(
        radius=radius,
        diameter=max(ecc),
        center=frozenset(v for v in range(g.n) if ecc[v] == radius),
    )


def connected_components(g: Graph, removed_vertices=(), removed_edges=()) -> list[frozenset[int]]:
    """Components of g after deleting vertices/edges, ordered by smallest member.

    `removed_edges` takes unordered pairs; orientation does not matter.
    """
    gone = set(removed_vertices)
    cut = {(u, v) if u < v else (v, u) for u, v in removed_edges}
    seen = set(gone)
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if w in seen:
                    continue
                if cut and ((u, w) if u < w else (w, u)) in cut:
                    continue
                seen.add(w)
                comp.add(w)
                queue.append(w)
        comps.append(frozenset(comp))
    return comps


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return min(bfs_distances(g, 0)) >= 0


def is_dominating(g: Graph, d) -> bool:
    """True when every vertex outside `d` has a neighbour in `d`."""
    dm = mask_of(d)
    for v in range(g.n):
        if not (dm >> v & 1) and not (g.adj_bits[v] & dm):
            return False
    return True


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for acyclic graphs.

    Searches the 2-core only: vertices left with fewer than two live
    neighbours are peeled away. A BFS runs from each live vertex in id
    order over live vertices, and then its source is deleted and the core
    peeled again. A shortest cycle stays live until its least vertex is
    the source, and the BFS from a vertex on a shortest cycle finds its
    length. Every candidate closes a walk through one non-tree edge, so
    it is never below the girth. A BFS stops at the first depth d with
    2d + 1 >= best: a non-tree edge from depth d closes at least 2d + 1,
    and the 2d ones (back to depth d - 1) were already seen from there.
    """
    live = [True] * g.n
    deg = [len(nbrs) for nbrs in g.adj]
    doomed = [v for v in range(g.n) if deg[v] < 2]
    best = g.n + 1
    for src in range(g.n):
        while doomed:
            v = doomed.pop()
            live[v] = False
            for w in g.adj[v]:
                if live[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        doomed.append(w)
        if not live[src]:
            continue
        dist = {src: 0}
        parent = {src: -1}
        queue = deque([src])
        while queue and 2 * dist[queue[0]] + 1 < best:
            u = queue.popleft()
            for w in g.adj[u]:
                if not live[w]:
                    continue
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    # Non-tree edge: closes a cycle through the BFS tree.
                    best = min(best, dist[u] + dist[w] + 1)
        doomed.append(src)
    return best if best <= g.n else None


def _bipartite(g: Graph) -> bool:
    """True when g has no odd cycle: a BFS 2-colours each component."""
    side = [-1] * g.n
    for src in range(g.n):
        if side[src] >= 0:
            continue
        side[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if side[w] < 0:
                    side[w] = side[u] ^ 1
                    queue.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def _component(adj_bits, part: int, complement: bool) -> int:
    """The component of the least vertex of `part` in the subgraph that
    `part` induces in g, or in g's complement, as a mask.

    The search expands one vertex at a time and stops as soon as all of
    `part` is reached. It serves `_p4_free`, the edge-pair sweep of
    `strategies.small_matching_cut` and the connectivity and co-component
    tests of `strategies.find_dominating_structure_p6free`. It stays
    private, so a tracer that wraps public functions never wraps the
    sweep's up to m^2 / 2 calls. `connected_components` and
    `is_connected` stay on adjacency lists: a mask operation costs
    O(n / 64) words, so on a sparse graph a mask search is O(n^2 / 64)
    against O(n + m): on `cycle_graph(20000)` one search took 60-74 ms on
    masks and 6 ms on lists (Python 3.11.7, a shared 2-core machine).
    """
    start = part & -part
    rest, todo = part ^ start, start
    while todo and rest:
        low = todo & -todo
        todo ^= low
        nbrs = adj_bits[low.bit_length() - 1]
        new = rest & ~nbrs if complement else rest & nbrs
        rest ^= new
        todo |= new
    return part ^ rest


def _p4_free(g: Graph) -> bool:
    """True when g has no induced P4, that is, g is a cograph.

    Seinsche's theorem: g is P4-free exactly when every induced subgraph
    on two or more vertices is disconnected or has a disconnected
    complement. So split the vertex set by components, in g where g is
    disconnected and in the complement where it is not, and split each
    part the same way. A part of two or more vertices that is connected
    both ways holds an induced P4. Each part costs O(|part|) operations
    on n-bit masks, and there are fewer than 2n parts. A host connected
    both ways, such as a long cycle, ends at the first part after O(n)
    mask operations: `cycle_graph(20000)` takes about 0.09 s on one core
    with Python 3.11.
    """
    parts = [(1 << g.n) - 1]
    while parts:
        part = parts.pop()
        if part & (part - 1) == 0:
            continue
        for complement in (False, True):
            comp = _component(g.adj_bits, part, complement)
            if comp != part:
                # one component, and the rest to be split in turn
                parts += (comp, part ^ comp)
                break
        else:
            return False
    return True


def induced_copies(host: Graph, pattern: Graph):
    """Yield every induced embedding of `pattern` in `host`.

    An embedding maps pattern vertex i to image[i]. Pattern vertices are
    assigned in id order with host candidates scanned ascending, so the
    embeddings come in ascending lexicographic order.

    With n = host.n and k = pattern.n, the search holds at most n**i
    partial embeddings of length i and tests at most n candidates for
    each, so it makes O(n**k) candidate tests: polynomial of degree
    pattern.n. Two exact rules prune it, each testing the host only when
    the pattern breaks the rule's class. A pattern with an odd cycle has
    no copy in a bipartite host, so such a pair yields nothing after one
    2-colouring BFS of each graph, O(n + m) in all. A pattern with an
    induced P4 has no copy in a P4-free host (a cograph), so such a pair
    yields nothing after `_p4_free`, O(n) mask operations per level of
    the host's split.
    """
    k = pattern.n
    if (
        k > host.n
        or (not _bipartite(pattern) and _bipartite(host))
        or (not _p4_free(pattern) and _p4_free(host))
    ):
        return
    anchors = [[j for j in range(i) if pattern.has_edge(i, j)] for i in range(k)]
    image = [-1] * k
    used = [False] * host.n
    adj_bits = host.adj_bits

    def extend(i: int, placed: int):
        # `placed` is the mask of image[:i] (`used` holds the same set, as
        # a list, since shifting a wide mask is slow on large hosts); a
        # candidate fits when its neighbours among those are exactly the
        # images of i's anchors.
        if i == k:
            yield tuple(image)
            return
        need = 0
        for j in anchors[i]:
            need |= 1 << image[j]
        candidates = host.adj[image[anchors[i][0]]] if anchors[i] else range(host.n)
        for w in candidates:
            if not used[w] and (adj_bits[w] & placed) == need:
                image[i] = w
                used[w] = True
                yield from extend(i + 1, placed | 1 << w)
                used[w] = False

    yield from extend(0, 0)


def find_induced(host: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """First induced embedding of `pattern` in `host`, or None.

    The result maps pattern vertex i to result[i]; it is the
    lexicographically first image tuple (see induced_copies).
    """
    return next(induced_copies(host, pattern), None)


def contains_induced(host: Graph, pattern: Graph) -> bool:
    return find_induced(host, pattern) is not None


# --- pattern catalog -------------------------------------------------------


def path_graph(r: int) -> Graph:
    if r < 1:
        raise ValueError("paths need at least one vertex")
    return Graph(r, [(i, i + 1) for i in range(r - 1)])


def cycle_graph(s: int) -> Graph:
    if s < 3:
        raise ValueError("cycles need at least three vertices")
    return Graph(s, [(i, (i + 1) % s) for i in range(s)])


def complete_graph(k: int) -> Graph:
    if k < 1:
        raise ValueError("complete graphs need at least one vertex")
    return Graph(k, itertools.combinations(range(k), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both parts must be non-empty")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    return complete_bipartite(1, leaves)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shifted = [(u + g.n, v + g.n) for u, v in h.edges]
    return Graph(g.n + h.n, list(g.edges) + shifted)


def pattern_from_name(name: str) -> Graph:
    """Parse catalog names such as P6, C5, K4, K2,3 or unions like 2P3+P6.

    A leading multiplier repeats a term; `+` joins terms disjointly.
    """
    cleaned = name.replace(" ", "")
    if not cleaned:
        raise ValueError("empty pattern name")
    n, edges = 0, []
    for term in cleaned.split("+"):
        i = 0
        while i < len(term) and term[i].isdigit():
            i += 1
        count = int(term[:i]) if i else 1
        body = term[i:].upper()
        if count < 1 or not body:
            raise ValueError(f"bad pattern term {term!r}")
        kind, size = body[0], body[1:]
        try:
            if kind == "P":
                piece = path_graph(int(size))
            elif kind == "C":
                piece = cycle_graph(int(size))
            elif kind == "K" and "," in size:
                a, b = size.split(",")
                piece = complete_bipartite(int(a), int(b))
            elif kind == "K":
                piece = complete_graph(int(size))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"unknown pattern term {term!r}") from None
        for _ in range(count):  # one Graph for the union, not one per term
            edges += [(u + n, v + n) for u, v in piece.edges]
            n += piece.n
    return Graph(n, edges)
