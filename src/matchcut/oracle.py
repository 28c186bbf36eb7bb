"""Exhaustive ground truth.

Every polynomial strategy in this package is validated against the
bipartition enumeration implemented here. Deliberately dumb and bounded:
anything past the size bound is refused loudly rather than attempted.
"""

from __future__ import annotations

from .graphs import Graph, NotConnectedError, is_connected
from .redblue import Colouring, MatchingCut, bichromatic_edges

DEFAULT_BOUND = 22


class OracleBoundError(ValueError):
    """The instance exceeds the configured brute-force size bound."""


def _valid_mask(g: Graph, blue: int, full: int) -> bool:
    red = full ^ blue
    for v, nb in enumerate(g.adj_bits):
        opposite = nb & (red if blue >> v & 1 else blue)
        if opposite.bit_count() > 1:
            return False
    return True


def has_matching_cut_bruteforce(g: Graph, bound: int = DEFAULT_BOUND) -> MatchingCut | None:
    """First matching cut under lexicographic bipartition order, or None.

    Enumerates the 2^(n-1) red/blue bipartitions with vertex 0 pinned red;
    the witness comes from the first valid colouring found.
    """
    if not is_connected(g):
        raise NotConnectedError("graph not connected")
    if g.n > bound:
        raise OracleBoundError(
            f"n={g.n} exceeds the oracle bound {bound}; raise the bound explicitly"
        )
    full = (1 << g.n) - 1
    for blue in range(2, 1 << g.n, 2):
        if _valid_mask(g, blue, full):
            c = Colouring(g.n, frozenset(v for v in range(g.n) if blue >> v & 1))
            return MatchingCut.from_edges(bichromatic_edges(g, c))
    return None
