"""Starting pairs and the forcing engine.

`close_colouring` is the one rule engine: `propagate` and the backstop
both run it. Seeding a red set against a blue one and closing either
refutes the seed (no valid colouring extends it) or yields a 4-tuple
(S, T, X, Y): X/Y are the forced red/blue sides, S ⊆ X and T ⊆ Y the
interfaces, and only the residual Z = V - (X u Y) stays undecided.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bits, mask_of


@dataclass(frozen=True)
class StartingPair:
    """A seed for propagation.

    `s_prime`/`t_prime` are the sets forced red/blue; the cores
    `s_core`/`t_core` are the members with exactly one cross-neighbour,
    which therefore sit on the interface. In the classic single-cross-edge
    form the cores equal the whole sets.
    """

    s_prime: frozenset[int]
    t_prime: frozenset[int]
    s_core: frozenset[int]
    t_core: frozenset[int]


@dataclass(frozen=True)
class FourTuple:
    """Propagation fixpoint: interfaces s/t inside forced sides x/y."""

    s: frozenset[int]
    t: frozenset[int]
    x: frozenset[int]
    y: frozenset[int]


def make_pair(g: Graph, s_prime, t_prime) -> StartingPair:
    """Validate a starting pair and compute its core.

    Requirements: both sets non-empty and disjoint, every vertex has at
    most one neighbour across, and at least one cross edge exists. The
    cross edges then form a matching between the cores, so the cores have
    equal size.
    """
    s_set = frozenset(s_prime)
    t_set = frozenset(t_prime)
    for v in s_set | t_set:
        if not 0 <= v < g.n:
            raise ValueError(f"not a starting pair: vertex {v} outside graph")
    if not s_set or not t_set:
        raise ValueError("not a starting pair: both sides must be non-empty")
    if s_set & t_set:
        raise ValueError("not a starting pair: sides overlap")
    tm = mask_of(t_set)
    sm = mask_of(s_set)
    s_core = set()
    for v in s_set:
        k = (g.adj_bits[v] & tm).bit_count()
        if k > 1:
            raise ValueError(f"not a starting pair: vertex {v} has {k} cross-neighbours")
        if k == 1:
            s_core.add(v)
    t_core = set()
    for v in t_set:
        k = (g.adj_bits[v] & sm).bit_count()
        if k > 1:
            raise ValueError(f"not a starting pair: vertex {v} has {k} cross-neighbours")
        if k == 1:
            t_core.add(v)
    if not s_core:
        raise ValueError("not a starting pair: no edge between the sides")
    assert len(s_core) == len(t_core)
    return StartingPair(s_set, t_set, frozenset(s_core), frozenset(t_core))


def close_colouring(adj: tuple[int, ...], col: list[int], due: list[int]) -> bool:
    """Close a partial red/blue colouring in place under the forcing rules.

    `adj` is `Graph.adj_bits`; `col[c]` and `due[c]` are the masks of the
    vertices that have and that must take colour c (0 red, 1 blue). Rules:
    an uncoloured vertex with two neighbours of one colour takes that
    colour; a coloured vertex with one opposite-coloured neighbour gives
    its colour to its other neighbours. False on a conflict: a vertex due
    both colours, or a vertex with two opposite-coloured neighbours.
    """
    while due[0] | due[1]:
        c = 0 if due[0] else 1
        bit = due[c] & -due[c]
        due[c] ^= bit
        w = bit.bit_length() - 1
        opposite = adj[w] & col[1 - c]
        if col[1 - c] & bit or opposite & (opposite - 1):
            return False
        col[c] |= bit
        mine, theirs = col[c], col[1 - c]
        due[c] |= (adj[w] ^ opposite if opposite else 0) & ~mine
        for x in bits(adj[w] & ~mine):
            seen = adj[x] & mine
            if theirs >> x & 1:  # w is an opposite neighbour of x
                if seen & (seen - 1):
                    return False
                due[1 - c] |= adj[x] & ~mine & ~theirs
            elif seen & (seen - 1):
                due[c] |= 1 << x
    return True


def propagate(g: Graph, pair: StartingPair) -> FourTuple | None:
    """Close from `s_prime` red and `t_prime` blue; None is the refusal
    ("no-answer") result, which certifies that no valid colouring extends
    the pair. Otherwise X/Y are the forced red/blue sides and the
    interfaces are S = X n N(Y), T = Y n N(X).
    """
    adj = g.adj_bits
    col = [0, 0]
    if not close_colouring(adj, col, [mask_of(pair.s_prime), mask_of(pair.t_prime)]):
        return None
    X, Y = col
    S = T = 0
    for v in bits(Y):
        S |= adj[v] & X
    for v in bits(X):
        T |= adj[v] & Y
    return FourTuple(*(frozenset(bits(mask)) for mask in (S, T, X, Y)))


def _consistent(g: Graph, S: int, T: int, X: int, Y: int) -> bool:
    # Every interface vertex has exactly one placed opposite neighbour (its
    # partner, on the opposite interface); non-interface placed vertices
    # have none.
    adj = g.adj_bits
    for v in bits(S):
        yn = adj[v] & Y
        if yn.bit_count() != 1 or not yn & T:
            return False
    for v in bits(X & ~S):
        if adj[v] & Y:
            return False
    for v in bits(T):
        xn = adj[v] & X
        if xn.bit_count() != 1 or not xn & S:
            return False
    for v in bits(Y & ~T):
        if adj[v] & X:
            return False
    return True


def check_fixpoint(g: Graph, four: FourTuple) -> None:
    """Raise ValueError unless `four` has every property a propagation
    fixpoint guarantees (containments, partner consistency, residual caps)."""
    S = mask_of(four.s)
    T = mask_of(four.t)
    X = mask_of(four.x)
    Y = mask_of(four.y)
    full = (1 << g.n) - 1
    if S | T | X | Y != (S | T | X | Y) & full:
        raise ValueError("tuple mentions vertices outside the graph")
    if not (S and T):
        raise ValueError("interface sets must be non-empty")
    if S & ~X or T & ~Y:
        raise ValueError("interfaces must sit inside their sides")
    if X & Y:
        raise ValueError("the red and blue sides overlap")
    if not _consistent(g, S, T, X, Y):
        raise ValueError("tuple is not partner-consistent")
    for v in bits(full & ~X & ~Y):
        nb = g.adj_bits[v]
        if nb & (S | T):
            raise ValueError(f"residual vertex {v} touches an interface")
        if (nb & X & ~S).bit_count() > 1 or (nb & Y & ~T).bit_count() > 1:
            raise ValueError(f"residual vertex {v} has two placed neighbours on one side")
