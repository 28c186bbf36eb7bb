"""Starting pairs and the three-rule forcing engine.

Seeding a red interface set against a blue one and exhausting the rules
either refutes the seed (no valid colouring extends it) or yields a
4-tuple (S, T, X, Y): S/T are the forced interface sides, X/Y the forced
red/blue sides, and only the residual Z = V - (X u Y) stays undecided.
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


def propagate(g: Graph, pair: StartingPair) -> FourTuple | None:
    """Exhaust the forcing rules; None is the refusal ("no-answer") result.

    Starting from S = s_core, X = s_prime, T = t_core, Y = t_prime, scan
    the unplaced vertices in ascending id order until a full pass makes no
    move. For each unplaced v (N = its neighbourhood):

    * refuse if N meets S and T, or N meets S plus two of Y-T, or N meets
      T plus two of X-S, or N has two of X-S and two of Y-T (v would need
      two opposite-coloured neighbours either way);
    * if N meets S or has two vertices of X-S, move v to X; when v also
      has exactly one neighbour w in Y, record the interface pair (v into
      S, w into T);
    * symmetrically for T / Y-T moves into Y.

    A refusal, or a final tuple that fails the partner-consistency check,
    certifies that no valid colouring extends the pair.
    """
    n = g.n
    adj = g.adj_bits
    full = (1 << n) - 1
    S = mask_of(pair.s_core)
    X = mask_of(pair.s_prime)
    T = mask_of(pair.t_core)
    Y = mask_of(pair.t_prime)
    assert X & Y == 0
    moves = 0
    while True:
        progressed = False
        for v in bits(full & ~X & ~Y):
            nb = adj[v]
            in_s = nb & S
            in_t = nb & T
            xs = (nb & X & ~S).bit_count()
            ys = (nb & Y & ~T).bit_count()
            if (in_s and in_t) or (in_s and ys >= 2) or (in_t and xs >= 2) or (xs >= 2 and ys >= 2):
                return None
            if in_s or xs >= 2:
                X |= 1 << v
                yn = nb & Y
                if yn.bit_count() == 1:
                    S |= 1 << v
                    T |= yn
                moves += 1
                progressed = True
            elif in_t or ys >= 2:
                Y |= 1 << v
                xn = nb & X
                if xn.bit_count() == 1:
                    T |= 1 << v
                    S |= xn
                moves += 1
                progressed = True
        if not progressed:
            break
    assert moves <= n
    if not _consistent(g, S, T, X, Y):
        return None
    four = FourTuple(
        frozenset(bits(S)), frozenset(bits(T)), frozenset(bits(X)), frozenset(bits(Y))
    )
    return four


def _consistent(g: Graph, S: int, T: int, X: int, Y: int) -> bool:
    # Every interface vertex has exactly one placed opposite neighbour (its
    # partner, on the opposite interface); non-interface placed vertices
    # have none. Rule exhaustion should guarantee this; the check is the
    # final gate turning a contradictory tuple into a refusal.
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
