import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcut import (
    OracleBoundError,
    complete_graph,
    cycle_graph,
    has_matching_cut_bruteforce,
    is_matching_cut,
    is_valid_colouring,
    make_pair,
    path_graph,
    propagate,
    star_graph,
)
from .helpers import (
    enumerate_valid_colourings,
    has_cut_by_matching_removal,
    random_connected_graph,
    valid_blue_masks,
)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_complete_graphs_have_no_cut(k):
    assert has_matching_cut_bruteforce(complete_graph(k)) is None


@pytest.mark.parametrize("n", [4, 5, 6, 9])
def test_cycles_of_length_at_least_four_have_a_cut(n):
    cut = has_matching_cut_bruteforce(cycle_graph(n))
    assert cut is not None
    assert is_matching_cut(cycle_graph(n), cut.edges)


def test_star_cut_is_a_single_edge(s=4):
    cut = has_matching_cut_bruteforce(star_graph(s))
    assert cut is not None and len(cut.edges) == 1


def test_bound_refusal():
    g = path_graph(8)
    with pytest.raises(OracleBoundError):
        has_matching_cut_bruteforce(g, bound=7)
    with pytest.raises(OracleBoundError):
        enumerate_valid_colourings(g, bound=7)


def test_result_is_deterministic():
    g = cycle_graph(8)
    assert has_matching_cut_bruteforce(g) == has_matching_cut_bruteforce(g)


def test_enumeration_matches_direct_scan():
    g = cycle_graph(5)
    got = {c.blue for c in enumerate_valid_colourings(g)}
    want = {
        frozenset(v for v in range(5) if blue >> v & 1)
        for blue in valid_blue_masks(g)
    }
    assert got == want
    assert all(is_valid_colouring(g, c) for c in enumerate_valid_colourings(g))


@given(st.integers(2, 8), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_agrees_with_matching_removal(n, rnd):
    """Cut search over colourings = cut search over matchings."""
    g = random_connected_graph(n, rnd)
    cut = has_matching_cut_bruteforce(g)
    assert (cut is not None) == has_cut_by_matching_removal(g)
    if cut is not None:
        assert is_matching_cut(g, cut.edges)


def test_constrained_enumeration_is_a_sublist():
    g = cycle_graph(6)
    four = propagate(g, make_pair(g, {0}, {1}))
    constrained = enumerate_valid_colourings(g, four)
    universe = {c.blue for c in enumerate_valid_colourings(g)}
    assert constrained
    for c in constrained:
        assert c.blue in universe
        assert set(four.y) <= c.blue and not set(four.x) & c.blue
