"""Fixpoint propagation: seeding, rules, determinism, safety."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcut import (
    FourTuple,
    Graph,
    check_fixpoint,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    make_pair,
    path_graph,
    propagate,
)
from .helpers import enumerate_valid_colourings, random_connected_graph, valid_blue_masks


class TestMakePair:
    def test_classic_edge_pair(self):
        g = path_graph(4)
        pair = make_pair(g, {1}, {2})
        assert pair.s_core == frozenset({1}) and pair.t_core == frozenset({2})

    def test_core_keeps_single_cross_neighbour_vertices(self):
        # 1-2 is the only cross edge; 0 and 3 stay outside the core
        g = path_graph(4)
        pair = make_pair(g, {0, 1}, {2, 3})
        assert pair.s_core == frozenset({1})
        assert pair.t_core == frozenset({2})

    def test_rejects_two_cross_neighbours(self):
        g = complete_bipartite(2, 2)
        with pytest.raises(ValueError):
            make_pair(g, {0}, {2, 3})  # 0 sees both of 2, 3

    def test_rejects_overlap(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            make_pair(g, {0, 1}, {1, 2})

    def test_rejects_no_cross_edge(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            make_pair(g, {0}, {3})

    def test_rejects_empty_side(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            make_pair(g, set(), {1})


class TestPropagateSmall:
    def test_p4_places_everything(self):
        g = path_graph(4)
        four = propagate(g, make_pair(g, {1}, {2}))
        assert four == FourTuple(
            s=frozenset({1}), t=frozenset({2}),
            x=frozenset({0, 1}), y=frozenset({2, 3}),
        )

    def test_complete_bipartite_23_refuses_every_edge(self):
        g = complete_bipartite(2, 3)
        for u, v in g.edges:
            assert propagate(g, make_pair(g, {u}, {v})) is None
            assert propagate(g, make_pair(g, {v}, {u})) is None

    def test_c6_edge_pair_fixpoint(self):
        g = cycle_graph(6)
        four = propagate(g, make_pair(g, {0}, {1}))
        assert four == FourTuple(
            s=frozenset({0}), t=frozenset({1}),
            x=frozenset({0, 5}), y=frozenset({1, 2}),
        )

    def test_triangle_refuses(self):
        g = complete_graph(3)
        assert propagate(g, make_pair(g, {0}, {1})) is None


class TestFixtureTraces:
    """Propagation on the 14-vertex fixture, in its 1-based labels."""

    @staticmethod
    def _lab(g, labels, four):
        z = set(range(g.n)) - set(four.x) - set(four.y)
        name = lambda vs: sorted(labels[v] for v in vs)
        return name(four.s), name(four.t), name(four.x), name(four.y), name(z)

    def test_classic_pair_stalls_on_far_vertices(self, fig1):
        g, labels = fig1
        back = {lab: v for v, lab in enumerate(labels)}
        four = propagate(g, make_pair(g, {back[4]}, {back[8]}))
        s, t, x, y, z = self._lab(g, labels, four)
        assert s == [4, 6] and t == [8, 9]
        assert x == [1, 2, 3, 4, 6] and y == [8, 9, 10, 13, 14]
        assert z == [5, 7, 11, 12]

    def test_generalized_pair_places_all_vertices(self, fig1):
        g, labels = fig1
        back = {lab: v for v, lab in enumerate(labels)}
        pair = make_pair(g, {back[4], back[5]}, {back[7], back[8]})
        assert sorted(labels[v] for v in pair.s_core) == [4]
        assert sorted(labels[v] for v in pair.t_core) == [8]
        four = propagate(g, pair)
        s, t, x, y, z = self._lab(g, labels, four)
        assert z == []
        assert s == [3, 4, 5, 6] and t == [7, 8, 9, 10]
        assert x == [1, 2, 3, 4, 5, 6] and y == [7, 8, 9, 10, 11, 12, 13, 14]


def _propagate_random_order(g, pair, rng):
    """Rule reimplementation that scans undecided vertices in random order."""
    s, x = set(pair.s_core), set(pair.s_prime)
    t, y = set(pair.t_core), set(pair.t_prime)
    z = set(range(g.n)) - x - y
    changed = True
    while changed:
        changed = False
        order = sorted(z)
        rng.shuffle(order)
        for v in order:
            nb = set(g.adj[v])
            in_s, in_t = nb & s, nb & t
            in_x, in_y = nb & (x - s), nb & (y - t)
            if (in_s and in_t) or (in_s and len(in_y) >= 2) \
                    or (in_t and len(in_x) >= 2) \
                    or (len(in_x) >= 2 and len(in_y) >= 2):
                return None
            if in_s or len(in_x) >= 2:
                z.discard(v)
                x.add(v)
                if nb & y:
                    (w,) = nb & y
                    s.add(v)
                    t.add(w)
                changed = True
            elif in_t or len(in_y) >= 2:
                z.discard(v)
                y.add(v)
                if nb & x:
                    (w,) = nb & x
                    t.add(v)
                    s.add(w)
                changed = True
    return FourTuple(frozenset(s), frozenset(t), frozenset(x), frozenset(y))


@given(st.integers(3, 7), st.randoms(use_true_random=False), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_outcome_is_scan_order_independent(n, rnd, shuffle_seed):
    g = random_connected_graph(n, rnd)
    u, v = g.edges[rnd.randrange(g.m)]
    pair = make_pair(g, {u}, {v})
    expected = propagate(g, pair)
    shuffled = _propagate_random_order(g, pair, random.Random(shuffle_seed))
    assert shuffled == expected


def _random_pair(g, rng):
    """A starting pair from random disjoint vertex sets, as the lift seeds
    them; draws again until make_pair accepts one."""
    while True:
        order = rng.sample(range(g.n), g.n)
        k = rng.randint(2, g.n)
        cut = rng.randint(1, k - 1)
        try:
            return make_pair(g, order[:cut], order[cut:k])
        except ValueError:
            pass


@given(st.integers(3, 9), st.randoms(use_true_random=False), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_multi_vertex_seeds_are_scan_order_independent(n, rnd, seed):
    g = random_connected_graph(n, rnd)
    rng = random.Random(seed)
    pair = _random_pair(g, rng)
    assert propagate(g, pair) == _propagate_random_order(g, pair, rng)


def test_an_unrefused_seed_may_extend_to_no_colouring():
    """Refusals are sound but not complete: the finisher decides the rest."""
    g = Graph(6, [(0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4)])
    assert propagate(g, make_pair(g, {1}, {5})) is not None
    assert not [blue for blue in valid_blue_masks(g) if not blue >> 1 & 1 and blue >> 5 & 1]


@given(st.integers(3, 7), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_propagation_never_loses_colourings(n, rnd):
    """Whatever the rules force agrees with every compatible colouring."""
    g = random_connected_graph(n, rnd)
    for u, v in g.edges:
        compatible = [
            blue for blue in valid_blue_masks(g)
            if not blue >> u & 1 and blue >> v & 1
            and (g.adj_bits[u] & blue).bit_count() == 1
            and (g.adj_bits[v] & ~blue).bit_count() == 1
        ]
        four = propagate(g, make_pair(g, {u}, {v}))
        if four is None:
            assert not compatible
            continue
        for blue in compatible:
            assert all(not blue >> w & 1 for w in four.x)
            assert all(blue >> w & 1 for w in four.y)


def test_result_passes_fixpoint_check(fig1):
    g, _ = fig1
    for u, v in g.edges:
        four = propagate(g, make_pair(g, {u}, {v}))
        if four is not None:
            check_fixpoint(g, four)  # raises on violation


def test_fixpoint_check_rejects_non_fixpoint():
    g = path_graph(4)
    bad = FourTuple(frozenset({1}), frozenset({2}), frozenset({1}), frozenset({2}))
    with pytest.raises(ValueError, match="residual vertex 0"):
        check_fixpoint(g, bad)  # vertex 0 is adjacent to S but unplaced


def test_tuple_constrains_enumeration(fig1):
    g, labels = fig1
    back = {lab: v for v, lab in enumerate(labels)}
    pair = make_pair(g, {back[4], back[5]}, {back[7], back[8]})
    four = propagate(g, pair)
    cs = enumerate_valid_colourings(g, four)
    assert len(cs) == 1
    assert sorted(labels[v] for v in cs[0].blue) == list(range(7, 15))
