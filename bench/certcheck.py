"""Independent correctness checks for benchmark outputs.

Nothing here imports `matchcut`: graphs are plain vertex counts and edge
lists, so a bug shared by the package and its own verifier cannot hide.
"""

from __future__ import annotations

from collections import deque


def adjacency(n: int, edges) -> list[int]:
    """Neighbour bitmask of each vertex 0..n-1."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _reachable(n: int, edges, removed: set) -> int:
    """Number of vertices reachable from vertex 0 once `removed` is deleted."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if (min(u, v), max(u, v)) not in removed:
            nbrs[u].append(v)
            nbrs[v].append(u)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        for w in nbrs[queue.popleft()]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count


def _cut_edges(edges, cut) -> set | str:
    """The cut as a set of sorted pairs, or a message naming its first fault."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    removed = set()
    touched = set()
    for u, v in cut:
        e = (min(u, v), max(u, v))
        if e not in edge_set:
            return f"cut pair {u}-{v} is not an edge"
        if u in touched or v in touched:
            return f"cut pair {u}-{v} shares an endpoint with another cut edge"
        touched.update(e)
        removed.add(e)
    return removed if removed else "empty cut"


def is_matching_cut(n: int, edges, cut) -> bool:
    """True when `cut` is a non-empty matching of edges of the graph whose
    removal disconnects it."""
    removed = _cut_edges(edges, cut)
    return not isinstance(removed, str) and _reachable(n, edges, removed) < n


def cut_problem(n: int, edges, cut, blue) -> str | None:
    """None when (`cut`, `blue`) certifies a matching cut of the graph.

    `cut` is a list of vertex pairs and `blue` one side of the bipartition.
    The cut must be a non-empty matching of real edges, both sides must be
    non-empty, the cut must be exactly the set of edges between the sides,
    and removing it must disconnect the graph.
    """
    removed = _cut_edges(edges, cut)
    if isinstance(removed, str):
        return removed
    blue = set(blue)
    if not blue or len(blue) >= n or not blue <= set(range(n)):
        return "a side of the bipartition is empty"
    crossing = {
        (min(u, v), max(u, v)) for u, v in edges if (u in blue) != (v in blue)
    }
    if crossing != removed:
        return "cut differs from the edges between the two sides"
    if _reachable(n, edges, removed) == n:
        return "removing the cut leaves the graph connected"
    return None


def find_blue_side(n: int, edges) -> int | None:
    """Blue side (as a bitmask) of some matching cut, or None when none exists.

    Exhaustive search over red/blue colourings: a connected graph has a
    matching cut exactly when its vertices can be coloured with both
    colours used and no vertex having two neighbours of the other colour.
    Vertex 0 is fixed red and the others are coloured in breadth-first
    order, so every colouring is enumerated except those whose prefix
    already breaks the rule.
    """
    adj = adjacency(n, edges)
    order = []
    seen = 1
    queue = deque([0])
    while queue:
        u = queue.popleft()
        order.append(u)
        fresh = adj[u] & ~seen
        seen |= fresh
        while fresh:
            low = fresh & -fresh
            queue.append(low.bit_length() - 1)
            fresh ^= low
    if len(order) != n:
        raise ValueError("graph is not connected")

    # Iterative depth-first search; choice[i] is the next colour to try at
    # depth i (0 = red, 1 = blue, 2 = both tried).
    blue = 0
    done = 1 << order[0]
    choice = [0] * n
    i = 1
    while i > 0:
        if i == n:
            if blue:
                return blue
            i -= 1
            continue
        v = order[i]
        bit = 1 << v
        blue &= ~bit
        done &= ~bit
        placed = False
        while choice[i] < 2 and not placed:
            colour_blue = choice[i] == 1
            choice[i] += 1
            new_blue = blue | bit if colour_blue else blue
            red = (done | bit) & ~new_blue
            mine, other = (new_blue, red) if colour_blue else (red, new_blue)
            across = adj[v] & other
            if across.bit_count() > 1:
                continue
            # the one neighbour across, if any, now sees v across as well
            if across and (adj[across.bit_length() - 1] & mine).bit_count() > 1:
                continue
            blue = new_blue
            done |= bit
            placed = True
        if placed:
            i += 1
            if i < n:
                choice[i] = 0
        else:
            i -= 1
    return None


def dominates(n: int, edges, vertices) -> bool:
    """True when every vertex is in `vertices` or adjacent to one of them."""
    chosen = set(vertices)
    covered = set(chosen)
    for u, v in edges:
        if u in chosen:
            covered.add(v)
        if v in chosen:
            covered.add(u)
    return len(covered) == n
