"""Red-blue colourings, matching cuts, and the conversions between them.

A colouring is valid when every vertex has at most one neighbour of the
opposite colour and both colours occur. On a connected graph that is
exactly the certificate language for matching cuts: the bichromatic edges
of a valid colouring form a matching whose removal disconnects the graph,
and conversely a matching cut induces a valid colouring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, connected_components, mask_of


@dataclass(frozen=True)
class Colouring:
    """Total red/blue assignment on 0..n-1, stored as the blue set."""

    n: int
    blue: frozenset[int]
    blue_mask: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for v in self.blue:
            if not 0 <= v < self.n:
                raise ValueError(f"blue vertex {v} outside 0..{self.n - 1}")
        object.__setattr__(self, "blue_mask", mask_of(self.blue))

    @property
    def red(self) -> frozenset[int]:
        return frozenset(v for v in range(self.n) if v not in self.blue)


@dataclass(frozen=True)
class MatchingCut:
    """A matching whose removal disconnects the graph; edges are sorted (u, v) pairs."""

    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, pairs) -> "MatchingCut":
        return cls(tuple(sorted((u, v) if u < v else (v, u) for u, v in pairs)))

    def __len__(self) -> int:
        return len(self.edges)


def first_violation(g: Graph, c: Colouring) -> str | None:
    """None when valid, else a message naming the first offence.

    Vertex-level offences are reported for the lexicographically smallest
    offending vertex.
    """
    if c.n != g.n:
        raise ValueError("colouring size does not match graph")
    full = (1 << g.n) - 1
    bm = c.blue_mask
    rm = full ^ bm
    if g.n and bm == 0:
        return "no blue vertex"
    if g.n and rm == 0:
        return "no red vertex"
    for v in range(g.n):
        if bm >> v & 1:
            opposite = g.adj_bits[v] & rm
            side, other = "blue", "red"
        else:
            opposite = g.adj_bits[v] & bm
            side, other = "red", "blue"
        k = opposite.bit_count()
        if k > 1:
            return f"{side} vertex {v} has {k} {other} neighbours"
    return None


def is_valid_colouring(g: Graph, c: Colouring) -> bool:
    return first_violation(g, c) is None


def bichromatic_edges(g: Graph, c: Colouring) -> tuple[tuple[int, int], ...]:
    bm = c.blue_mask
    return tuple((u, v) for u, v in g.edges if (bm >> u & 1) != (bm >> v & 1))


def is_matching_cut(g: Graph, edges) -> bool:
    """True when `edges` is a non-empty matching in g whose removal disconnects g."""
    pairs = [tuple(e) for e in (edges.edges if isinstance(edges, MatchingCut) else edges)]
    if not pairs:
        return False
    touched = set()
    for u, v in pairs:
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            return False
        if u in touched or v in touched:
            return False
        touched.update((u, v))
    return len(connected_components(g, removed_edges=pairs)) > 1


def cut_from_colouring(g: Graph, c: Colouring) -> MatchingCut:
    """Bichromatic edge set of a valid colouring, as a MatchingCut."""
    reason = first_violation(g, c)
    if reason is not None:
        raise ValueError(f"not a valid colouring: {reason}")
    return MatchingCut.from_edges(bichromatic_edges(g, c))


def colouring_from_cut(g: Graph, cut) -> Colouring:
    """Valid colouring induced by a matching cut.

    The component of the transformed graph containing the smallest vertex
    id is coloured red; every other component is blue.
    """
    pairs = [tuple(e) for e in (cut.edges if isinstance(cut, MatchingCut) else cut)]
    if not is_matching_cut(g, pairs):
        raise ValueError("not a matching cut")
    comps = connected_components(g, removed_edges=pairs)
    blue = set()
    for comp in comps[1:]:
        blue |= comp
    return Colouring(g.n, frozenset(blue))
