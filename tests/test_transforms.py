import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcut import (
    Graph,
    TransformNotApplicable,
    blowup_round,
    blowup_rounds_needed,
    complete_graph,
    contains_induced,
    cycle_graph,
    distance_profile,
    girth,
    girth_blowup,
    has_matching_cut_bruteforce,
    is_connected,
    k22_replace,
    path_graph,
    pattern_from_name,
    random_gnp,
    random_pattern_free,
    random_radius2,
    star_graph,
)
from .helpers import random_connected_graph


def double_star() -> Graph:
    """Hubs 0-1, three leaves on 0, four leaves on 1."""
    return Graph(9, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7), (1, 8)])


class TestK22Replace:
    def test_size_arithmetic(self):
        g = cycle_graph(3)
        out, provenance = k22_replace(g, (0, 1))
        assert (out.n, out.m) == (g.n + 2, g.m + 3)
        assert provenance["replaced"] == (0, 1)
        assert provenance["midpoints"] == (3, 4)

    def test_replaced_edge_becomes_a_four_cycle(self):
        g = cycle_graph(3)
        out, _ = k22_replace(g, (1, 0))
        assert not out.has_edge(0, 1)
        for w in (3, 4):
            assert out.has_edge(0, w) and out.has_edge(1, w)

    def test_rejects_non_edges(self):
        with pytest.raises(ValueError, match="not an edge"):
            k22_replace(path_graph(4), (0, 3))

    def test_double_star_gains_a_cut_midpoint_path(self):
        g = double_star()
        out, _ = k22_replace(g, (0, 1))
        assert (out.n, out.m) == (11, 11)
        assert has_matching_cut_bruteforce(g) is not None
        assert has_matching_cut_bruteforce(out) is not None

    @given(st.integers(3, 7), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_preserves_the_answer_on_every_edge(self, n, rnd):
        g = random_connected_graph(n, rnd)
        want = has_matching_cut_bruteforce(g) is not None
        for e in g.edges:
            out, _ = k22_replace(g, e)
            assert is_connected(out)
            assert (has_matching_cut_bruteforce(out) is not None) == want


class TestBlowupRound:
    def test_size_arithmetic(self):
        g = cycle_graph(5)
        out = blowup_round(g)
        assert (out.n, out.m) == (g.n + 2 * g.m, 4 * g.m)

    def test_doubles_cycle_lengths(self):
        assert girth(blowup_round(cycle_graph(3))) == 4  # every edge gadget is a C4
        out = blowup_round(cycle_graph(3))
        # original triangle stretches to a C6
        assert contains_induced(out, cycle_graph(6))

    def test_tree_becomes_c4_chain(self):
        out = blowup_round(path_graph(3))
        assert (out.n, out.m) == (7, 8)
        assert girth(out) == 4


class TestRoundsNeeded:
    def test_one_round_kills_c5_in_a_triangle(self):
        assert blowup_rounds_needed(cycle_graph(3), pattern_from_name("C5")) == 1

    def test_two_rounds_for_c6_over_a_triangle(self):
        # one round leaves 6-cycles, a second stretches them past 6
        assert blowup_rounds_needed(cycle_graph(3), pattern_from_name("C6")) == 2

    def test_acyclic_input_needs_one_round(self):
        assert blowup_rounds_needed(path_graph(4), pattern_from_name("C6")) == 1

    def test_large_patterns_are_refused(self):
        with pytest.raises(TransformNotApplicable):
            blowup_rounds_needed(cycle_graph(3), cycle_graph(8))


class TestGirthBlowup:
    def test_output_is_pattern_free(self):
        out, rounds = girth_blowup(cycle_graph(3), pattern_from_name("C5"))
        assert rounds == 1
        assert not contains_induced(out, pattern_from_name("C5"))

    def test_two_round_output_is_pattern_free(self):
        out, rounds = girth_blowup(cycle_graph(3), pattern_from_name("C6"))
        assert rounds == 2
        assert (out.n, out.m) == (33, 48)
        assert not contains_induced(out, pattern_from_name("C6"))

    def test_rejects_acyclic_patterns(self):
        with pytest.raises(TransformNotApplicable, match="no cycle"):
            girth_blowup(cycle_graph(3), path_graph(4))

    def test_rejects_patterns_with_an_induced_four_cycle(self):
        with pytest.raises(TransformNotApplicable, match="four-cycle"):
            girth_blowup(cycle_graph(3), cycle_graph(4))

    def test_preserves_the_answer(self):
        for g in (cycle_graph(3), complete_graph(4), star_graph(3)):
            want = has_matching_cut_bruteforce(g) is not None
            out, _ = girth_blowup(g, pattern_from_name("C5"))
            assert (has_matching_cut_bruteforce(out) is not None) == want

    @given(st.integers(3, 4), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_answer_preserved_on_random_inputs(self, n, rnd):
        # n <= 4 keeps the blown-up graph inside the oracle bound
        g = random_connected_graph(n, rnd)
        out, _ = girth_blowup(g, pattern_from_name("C5"))
        assert not contains_induced(out, pattern_from_name("C5"))
        assert (has_matching_cut_bruteforce(out) is not None) == (
            has_matching_cut_bruteforce(g) is not None
        )


class TestGenerators:
    def test_gnp_is_connected_and_deterministic(self):
        a = random_gnp(10, 0.3, seed=5)
        b = random_gnp(10, 0.3, seed=5)
        assert a.edges == b.edges
        assert is_connected(a)

    def test_gnp_distinct_seeds_differ(self):
        assert random_gnp(12, 0.3, seed=1).edges != random_gnp(12, 0.3, seed=2).edges

    def test_radius2_family(self):
        for seed in range(5):
            g = random_radius2(9, seed=seed)
            assert is_connected(g)
            assert distance_profile(g).radius <= 2

    def test_edge_probability_bounds_are_inclusive(self):
        assert random_gnp(4, 1, seed=0) == complete_graph(4)
        assert random_radius2(6, 0, seed=0).n == 6

    def test_pattern_free_family(self):
        p6 = pattern_from_name("P6")
        for seed in range(5):
            g = random_pattern_free(9, 0.25, p6, seed=seed)
            assert is_connected(g)
            assert not contains_induced(g, p6)
