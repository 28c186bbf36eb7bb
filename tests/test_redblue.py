import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcut import (
    Colouring,
    bichromatic_edges,
    colouring_from_cut,
    complete_graph,
    cut_from_colouring,
    cycle_graph,
    first_violation,
    is_matching_cut,
    is_valid_colouring,
    path_graph,
    star_graph,
)
from .helpers import blue_interface, random_connected_graph, red_interface, valid_blue_masks


def test_colouring_partition():
    c = Colouring(4, frozenset({1, 3}))
    assert c.red == frozenset({0, 2})
    assert 3 in c.blue and 0 not in c.blue
    assert Colouring(c.n, c.red).blue == frozenset({0, 2})


def test_path_split_is_valid():
    g = path_graph(4)
    c = Colouring(4, frozenset({2, 3}))
    assert is_valid_colouring(g, c)
    assert bichromatic_edges(g, c) == ((1, 2),)


def test_all_one_colour_is_invalid():
    g = path_graph(3)
    assert not is_valid_colouring(g, Colouring(3, frozenset()))
    assert first_violation(g, Colouring(3, frozenset())) is not None


def test_two_opposite_neighbours_is_invalid():
    g = star_graph(2)
    c = Colouring(3, frozenset({1, 2}))
    assert not is_valid_colouring(g, c)
    assert first_violation(g, c) == "red vertex 0 has 2 blue neighbours"


def test_triangle_has_no_valid_colouring():
    g = complete_graph(3)
    assert not any(
        is_valid_colouring(g, Colouring(3, frozenset(s)))
        for s in [{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}]
    )


class TestCutChecks:
    def test_cycle_cut(self):
        g = cycle_graph(6)
        assert is_matching_cut(g, [(0, 1), (3, 4)])

    def test_adjacent_edges_are_not_a_matching(self):
        g = cycle_graph(6)
        assert not is_matching_cut(g, [(0, 1), (1, 2)])

    def test_non_disconnecting_matching(self):
        g = complete_graph(4)
        assert not is_matching_cut(g, [(0, 1), (2, 3)])

    def test_empty_cut_rejected(self):
        assert not is_matching_cut(cycle_graph(4), [])

    def test_cut_from_invalid_colouring_raises(self):
        g = star_graph(2)
        with pytest.raises(ValueError):
            cut_from_colouring(g, Colouring(3, frozenset({1, 2})))

    def test_colouring_from_bad_cut_raises(self):
        g = cycle_graph(6)
        with pytest.raises(ValueError):
            colouring_from_cut(g, [(0, 1)])  # removal keeps the cycle connected


@given(st.integers(2, 7), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_cut_colouring_roundtrip(n, rnd):
    """A cut extracted from a valid colouring reconstructs a valid witness."""
    g = random_connected_graph(n, rnd)
    for blue in valid_blue_masks(g):
        c = Colouring(n, frozenset(v for v in range(n) if blue >> v & 1))
        cut = cut_from_colouring(g, c)
        assert is_matching_cut(g, cut.edges)
        back = colouring_from_cut(g, cut.edges)
        assert is_valid_colouring(g, back)
        # back keeps one component red, so it may drop cut edges that ran
        # between two blue components, but never invents new ones
        survivors = set(bichromatic_edges(g, back))
        assert survivors and survivors <= set(cut.edges)


@given(st.integers(3, 7), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_interfaces_carry_the_cut(n, rnd):
    g = random_connected_graph(n, rnd)
    for blue in valid_blue_masks(g):
        c = Colouring(n, frozenset(v for v in range(n) if blue >> v & 1))
        cut = bichromatic_edges(g, c)
        ends = {v for e in cut for v in e}
        assert ends == red_interface(g, c) | blue_interface(g, c)
