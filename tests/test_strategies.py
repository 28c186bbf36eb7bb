import itertools
import random
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchcut.strategies
from matchcut import (
    BranchBudgetError,
    Graph,
    NotConnectedError,
    StructureSearchError,
    complete_bipartite,
    complete_graph,
    contains_induced,
    cut_from_colouring,
    cycle_graph,
    disjoint_union,
    distance_profile,
    find_dominating_structure_p6free,
    find_induced,
    has_matching_cut_bruteforce,
    is_dominating,
    is_matching_cut,
    is_valid_colouring,
    lift_h_plus_p3,
    load_edge_file,
    path_graph,
    pattern_from_name,
    pendant_cut,
    run_strategy,
    small_matching_cut,
    solve,
    solve_backstop,
    solve_monochromatic_dominating,
    solve_p6_free,
    solve_radius_le2,
    solve_sp3_p6,
    solve_with_dominating_set,
    star_graph,
)
from matchcut.cli import main
from matchcut.graphs import induced_copies
from matchcut.strategies import GraphFacts
from .helpers import (
    all_connected_graphs,
    has_cut_by_matching_removal,
    random_connected_graph,
    small_matching_cut_pairwise,
    valid_blue_masks,
)
from .test_golden import ROOT, seeded_graph
from .test_graphs import PETERSEN


def wheel5() -> Graph:
    return Graph(6, [(5, i) for i in range(5)] + [(i, (i + 1) % 5) for i in range(5)])


def dodecahedron() -> Graph:
    edges = (
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        + [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
        + [(5, 10), (10, 6), (6, 11), (11, 7), (7, 12),
           (12, 8), (8, 13), (13, 9), (9, 14), (14, 5)]
        + [(10, 15), (11, 16), (12, 17), (13, 18), (14, 19),
           (15, 16), (16, 17), (17, 18), (18, 19), (19, 15)]
    )
    return Graph(20, edges)


def _k66_with(hung, n: int, relabel: list[int]) -> Graph:
    """K6,6 on A = 0-5 and B = 6-11, the `hung` edges added, every edge
    (x, y) relabelled (relabel[x], relabel[y])."""
    k66 = [(a, b) for a in range(6) for b in range(6, 12)]
    return Graph(n, [(relabel[x], relabel[y]) for x, y in k66 + hung])


def k66_with_triangles() -> Graph:
    """Each K6,6 vertex v in a triangle with new vertices 12+2v and 13+2v:
    minimum degree 2, radius 3, no cut of at most two edges."""
    hung = [e for v in range(12) for e in ((v, 12 + 2 * v), (v, 13 + 2 * v), (12 + 2 * v, 13 + 2 * v))]
    relabel = [26, 21, 34, 22, 13, 24, 31, 4, 25, 20, 14, 18, 3, 19, 32, 8, 15, 2,
               12, 27, 33, 5, 11, 6, 9, 1, 7, 29, 35, 10, 30, 23, 16, 0, 28, 17]
    return _k66_with(hung, 36, relabel)


def k66_with_pendants() -> Graph:
    """Each K6,6 vertex v with a pendant vertex 12+v."""
    relabel = [20, 13, 12, 21, 15, 17, 22, 19, 16, 7, 14, 18, 0, 2, 6, 3, 9, 1, 23, 10, 8, 5, 11, 4]
    return _k66_with([(v, 12 + v) for v in range(12)], 24, relabel)


def grown_petersen(rng: random.Random, extra: int) -> Graph:
    """The Petersen graph with `extra` vertices added one at a time, each
    joined to the first of up to 20 random vertex subsets that forms no
    induced P6, then randomly relabelled."""
    n, edges = 10, list(PETERSEN.edges)
    for _ in range(extra):
        for _ in range(20):
            hood = [(v, n) for v in range(n) if rng.random() < 0.4]
            if hood and not contains_induced(Graph(n + 1, edges + hood), path_graph(6)):
                edges += hood
                n += 1
                break
    relabel = rng.sample(range(n), n)
    return Graph(n, [(relabel[u], relabel[v]) for u, v in edges])


def assert_dominating_structure(g: Graph, s) -> None:
    """A dominating induced C6 in cycle order, or two disjoint non-empty
    completely joined parts whose union dominates."""
    if s.kind == "cycle6":
        c = s.cycle
        assert len(set(c)) == 6 and is_dominating(g, c)
        assert all(g.has_edge(c[i], c[j]) == ((i - j) % 6 in (1, 5))
                   for i in range(6) for j in range(i + 1, 6))
    else:
        assert s.kind == "biclique" and s.part_a and s.part_b
        assert not s.part_a & s.part_b and is_dominating(g, s.part_a | s.part_b)
        assert all(g.has_edge(x, y) for x in s.part_a for y in s.part_b)


def lift_graph() -> Graph:
    """Radius 3, no matching cut of at most two edges, an induced P6 and
    no induced P3 + P6, so `solve` decides it in the (P3 + P6)-free lift."""
    edges = [(0, 4), (0, 7), (0, 10), (1, 2), (1, 6), (2, 7), (2, 8), (2, 10),
             (3, 6), (3, 7), (4, 5), (4, 6), (5, 8), (5, 9), (5, 10), (9, 10)]
    return Graph(11, edges)


def substitute_cliques(g: Graph, sizes: list[int]) -> Graph:
    """g with vertex v replaced by a clique of sizes[v] vertices, the
    cliques of adjacent vertices completely joined."""
    bags, n = [], 0
    for size in sizes:
        bags.append(range(n, n + size))
        n += size
    edges = [e for bag in bags for e in itertools.combinations(bag, 2)]
    edges += [(x, y) for u, v in g.edges for x in bags[u] for y in bags[v]]
    return Graph(n, edges)


def _check_yes(g, out):
    assert out.answer == "yes"
    assert is_valid_colouring(g, out.colouring)
    assert is_matching_cut(g, cut_from_colouring(g, out.colouring).edges)


class TestCheapCertificates:
    def test_pendant_cut_splits_a_leaf(self):
        g = star_graph(3)
        c = pendant_cut(g)
        assert c is not None and is_valid_colouring(g, c)
        assert min(len(c.red), len(c.blue)) == 1

    def test_pendant_cut_none_without_leaves(self):
        assert pendant_cut(cycle_graph(4)) is None
        assert pendant_cut(Graph(1)) is None

    def test_small_cut_finds_a_bridge(self):
        # two triangles joined by a single edge; no leaves
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        assert pendant_cut(g) is None
        cut = small_matching_cut(g)
        assert cut is not None and is_matching_cut(g, cut.edges)
        assert cut.edges == ((0, 3),)

    def test_small_cut_finds_an_edge_pair(self):
        cut = small_matching_cut(cycle_graph(6))
        assert cut is not None and is_matching_cut(cycle_graph(6), cut.edges)
        assert len(cut.edges) <= 2

    def test_small_cut_none_on_k4(self):
        assert small_matching_cut(complete_graph(4)) is None

    def test_small_cut_rejects_bad_k(self):
        with pytest.raises(ValueError):
            small_matching_cut(cycle_graph(4), k=3)

    def test_small_cut_takes_the_least_bridge_in_edge_order(self):
        # the DFS from 0 finishes (3, 4) before (2, 3)
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert small_matching_cut(g, 1).edges == ((2, 3),)
        assert small_matching_cut(g).edges == ((2, 3),)

    def test_small_cut_needs_no_component_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("connected_components called")

        monkeypatch.setattr(matchcut.strategies, "connected_components", refuse)
        assert small_matching_cut(cycle_graph(20000)).edges == ((0, 1), (2, 3))
        assert small_matching_cut(path_graph(20000), 1).edges == ((0, 1),)

    @pytest.mark.parametrize(
        "g",
        [Graph(2), Graph(4, [(0, 1), (2, 3)]), disjoint_union(cycle_graph(5), path_graph(1))],
    )
    def test_small_cut_rejects_disconnected(self, g):
        for k in (1, 2):
            with pytest.raises(NotConnectedError, match="^graph not connected$"):
                small_matching_cut(g, k)

    def test_small_cut_none_below_two_vertices(self):
        assert small_matching_cut(Graph(0)) is None
        assert small_matching_cut(Graph(1), 1) is None


@st.composite
def small_cut_graphs(draw):
    """Connected graphs with n <= 14, relabelled at random: G(n, p) edges
    over a spanning tree, a Hamiltonian cycle, or a tree of cycles and
    cliques joined by bridges, where one-vertex blocks make pendant trees
    and chains of bridges. p = 0 keeps the skeleton as it is."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 14))
    p = draw(st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5, 0.9]))
    edges = {e for e in itertools.combinations(range(n), 2) if rnd.random() < p}
    family = draw(st.sampled_from(["tree", "cycle", "blocks"]))
    if family == "tree":
        edges |= {(rnd.randrange(v), v) for v in range(1, n)}
    elif family == "cycle":
        edges |= {(v - 1, v) for v in range(1, n)} | ({(0, n - 1)} if n > 2 else set())
    else:
        start = 0
        while start < n:
            block = range(start, start + rnd.randint(1, min(5, n - start)))
            if len(block) >= 3 and rnd.random() < 0.5:
                edges |= {(u, u + 1) for u in block[:-1]} | {(block[0], block[-1])}
            else:
                edges |= set(itertools.combinations(block, 2))
            if start:
                edges.add((rnd.randrange(start), rnd.choice(block)))
            start = block[-1] + 1
    perm = list(range(n))
    rnd.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@given(small_cut_graphs())
@settings(max_examples=300, deadline=None)
def test_small_cut_matches_the_pairwise_scan(g):
    for k in (1, 2):
        got = small_matching_cut(g, k)
        want = small_matching_cut_pairwise(g, k)
        assert (got and got.edges) == (want and want.edges)


class TestDominationSolvers:
    def test_flipping_a_component_works_on_c6(self):
        g = cycle_graph(6)
        out = solve_monochromatic_dominating(g, frozenset({0, 3}))
        _check_yes(g, out)

    def test_k33_has_no_cut(self):
        g = complete_bipartite(3, 3)
        out = solve_monochromatic_dominating(g, frozenset({0, 3}))
        assert out.answer == "no"

    def test_requires_a_dominating_set(self):
        with pytest.raises(ValueError):
            solve_monochromatic_dominating(path_graph(5), frozenset({0}))

    def test_general_domination_on_c6(self):
        g = cycle_graph(6)
        out = solve_with_dominating_set(g, frozenset({0, 3}))
        _check_yes(g, out)

    def test_general_domination_on_k4(self):
        out = solve_with_dominating_set(complete_graph(4), frozenset({0}))
        assert out.answer == "no"

    @given(st.integers(4, 8), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_oracle_given_any_dominating_set(self, n, rnd):
        g = random_connected_graph(n, rnd)
        small = (c for k in (1, 2, 3) for c in itertools.combinations(range(n), k))
        d = next((c for c in small if is_dominating(g, c)), None)
        if d is None:
            return
        out = solve_with_dominating_set(g, d)
        assert (out.answer == "yes") == (has_matching_cut_bruteforce(g) is not None)


class TestRadiusTwo:
    def test_star_yes_via_leaf(self):
        out = solve_radius_le2(star_graph(4))
        _check_yes(star_graph(4), out)
        assert out.trace["case"] == 1

    def test_k4_no(self):
        assert solve_radius_le2(complete_graph(4)).answer == "no"

    def test_c5_yes(self):
        out = solve_radius_le2(cycle_graph(5))
        _check_yes(cycle_graph(5), out)
        # the center's closed neighbourhood dominates C5, so the
        # monochromatic-flip subcase answers before pair propagation
        assert out.trace == {"flips_tried": 1}

    def test_large_radius_is_inapplicable(self):
        out = solve_radius_le2(path_graph(7))
        assert out.answer == "inapplicable"

    def test_disconnected_raises(self):
        with pytest.raises(NotConnectedError):
            solve_radius_le2(Graph(3, [(0, 1)]))

    @given(st.integers(4, 8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_oracle(self, n, rnd):
        g = random_connected_graph(n, rnd)
        if distance_profile(g).radius > 2:
            return
        out = solve_radius_le2(g)
        assert (out.answer == "yes") == (has_matching_cut_bruteforce(g) is not None)
        if out.answer == "yes":
            _check_yes(g, out)


class TestDominatingStructure:
    def test_c6_is_found(self):
        structure = find_dominating_structure_p6free(cycle_graph(6))
        assert structure.kind == "cycle6"
        assert len(structure.cycle) == 6

    def test_biclique_in_k33(self):
        structure = find_dominating_structure_p6free(complete_bipartite(3, 3))
        assert structure.kind == "biclique"
        assert {len(structure.part_a), len(structure.part_b)} == {3}

    def test_star_is_a_one_sided_biclique(self):
        structure = find_dominating_structure_p6free(star_graph(4))
        assert structure.kind == "biclique"
        assert 1 in (len(structure.part_a), len(structure.part_b))

    def test_rejects_long_paths(self):
        with pytest.raises(ValueError):
            find_dominating_structure_p6free(path_graph(6))

    def test_least_dominating_c6_of_two(self):
        g, labels = load_edge_file(str(ROOT / "fixtures" / "two-c6.edges"))
        assert labels == tuple(range(8))
        structure = find_dominating_structure_p6free(g)
        assert structure.kind == "cycle6"
        assert structure.cycle == (0, 1, 6, 4, 2, 3)
        # the first dominating copy the search meets is another 6-set
        first = next(c for c in induced_copies(g, cycle_graph(6)) if is_dominating(g, c))
        assert first == (0, 1, 5, 4, 7, 3)

    def test_biclique_without_a_c6_scan(self, monkeypatch):
        calls = []
        check = matchcut.strategies.is_dominating
        monkeypatch.setattr(matchcut.strategies, "is_dominating", lambda *a: calls.append(a) or check(*a))
        structure = find_dominating_structure_p6free(complete_bipartite(11, 11))
        assert len(calls) < 10
        assert {structure.part_a, structure.part_b} == {frozenset(range(11)), frozenset(range(11, 22))}

    def test_each_c6_is_checked_once(self, monkeypatch):
        # C6 with each vertex blown up into 4 twins: 4^6 induced 6-cycles,
        # each met in 12 embeddings, and the first one dominates
        g = Graph(24, [(4 * i + a, 4 * ((i + 1) % 6) + b)
                       for i in range(6) for a in range(4) for b in range(4)])
        calls = []
        check = matchcut.strategies.is_dominating
        monkeypatch.setattr(matchcut.strategies, "is_dominating", lambda *a: calls.append(a) or check(*a))
        structure = find_dominating_structure_p6free(g)
        assert len(calls) < 10
        assert structure.cycle == (0, 4, 8, 12, 16, 20)

    def test_biclique_of_k66_with_pendants(self):
        structure = find_dominating_structure_p6free(k66_with_pendants())
        assert structure.kind == "biclique"
        assert (len(structure.part_a), len(structure.part_b)) == (6, 6)

    def test_every_p6_free_graph_up_to_six_vertices(self):
        graphs = 0
        for n in range(2, 7):
            for g in all_connected_graphs(n):
                facts = GraphFacts(g)
                if facts.witness(path_graph(6)) is not None:
                    continue
                graphs += 1
                assert_dominating_structure(g, find_dominating_structure_p6free(facts))
        assert graphs == 27_115

    def test_petersen_takes_a_centres_star(self):
        # the minimal connected dominating set is the inner 5-cycle, no join
        # and with no common neighbour; radius 2 gives the star of vertex 0
        structure = find_dominating_structure_p6free(PETERSEN)
        assert (structure.part_a, structure.part_b) == (frozenset([0]), frozenset([1, 4, 5]))
        assert_dominating_structure(PETERSEN, structure)

    def test_grown_petersen_graphs(self):
        rng = random.Random(7)
        stars = 0
        for _ in range(100):
            g = grown_petersen(rng, rng.randint(1, 3))
            facts = GraphFacts(g)
            assert_dominating_structure(g, find_dominating_structure_p6free(facts))
            stars += "profile" in vars(facts)  # only the star fallback reads the radius
        assert stars >= 3


class TestP6Free:
    def test_c6_yes(self):
        out = solve_p6_free(cycle_graph(6))
        _check_yes(cycle_graph(6), out)

    def test_k33_no(self):
        assert solve_p6_free(complete_bipartite(3, 3)).answer == "no"

    def test_k23_no(self):
        assert solve_p6_free(complete_bipartite(2, 3)).answer == "no"

    def test_p6_is_inapplicable(self):
        assert solve_p6_free(path_graph(6)).answer == "inapplicable"

    def test_k66_with_triangles_is_decided_by_p6free(self):
        g = k66_with_triangles()
        out = solve(g)
        assert (out.answer, out.strategy, out.trace["structure"]) == ("no", "sp3p6(s=1)>p6free", 12)
        assert run_strategy(g, "backstop").answer == "no"

    @given(st.integers(4, 8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_oracle(self, n, rnd):
        g = random_connected_graph(n, rnd)
        if contains_induced(g, path_graph(6)):
            return
        out = solve_p6_free(g)
        assert (out.answer == "yes") == (has_matching_cut_bruteforce(g) is not None)


class TestLift:
    def test_c7_yes(self):
        out = solve_sp3_p6(cycle_graph(7), 1)
        _check_yes(cycle_graph(7), out)

    def test_pattern_in_graph_is_inapplicable(self):
        # P10 = P6 and P3 with a spare vertex between them
        assert solve_sp3_p6(path_graph(10), 1).answer == "inapplicable"

    def test_delegates_when_pattern_is_absent(self):
        out = solve_sp3_p6(complete_bipartite(3, 3), 1)
        assert out.answer == "no"
        assert out.trace.get("delegated") == 1

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            solve_sp3_p6(cycle_graph(5), -1)

    def test_s_zero_is_plain_p6(self):
        out = solve_sp3_p6(cycle_graph(6), 0)
        _check_yes(cycle_graph(6), out)

    def test_branch_budget_is_enforced(self):
        with pytest.raises(BranchBudgetError):
            lift_h_plus_p3(wheel5(), path_graph(3), solve, branch_budget=1)

    def test_wheel_has_no_cut(self):
        out = lift_h_plus_p3(wheel5(), path_graph(3), solve)
        assert out.answer == "no"

    @given(st.integers(4, 8), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_oracle(self, n, rnd):
        g = random_connected_graph(n, rnd)
        if contains_induced(g, pattern_from_name("P3+P6")):
            return
        out = solve_sp3_p6(g, 1)
        assert (out.answer == "yes") == (has_matching_cut_bruteforce(g) is not None)

    def test_agrees_with_oracle_where_the_lift_branches(self):
        # seeded cycles with chords, n = 10-13, kept when the lift walks
        # its regions (the trace has "options") rather than finding a
        # small cut, delegating or declining
        answers = []
        seed = 0
        while len(answers) < 150:
            rng = random.Random(seed)
            seed += 1
            n = rng.randint(10, 13)
            edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
            for _ in range(rng.randint(n // 2, n - 2)):
                edges.add(tuple(sorted(rng.sample(range(n), 2))))
            g = Graph(n, edges)
            out = solve_sp3_p6(g, 1)
            if "options" not in out.trace:
                continue
            answers.append(out.answer)
            assert (out.answer == "yes") == (has_matching_cut_bruteforce(g) is not None), g.edges
            if out.answer == "yes":
                _check_yes(g, out)
        assert {"yes", "no"} <= set(answers)

    def test_only_the_guessed_edge_finds_the_cut(self):
        # P6 0-5, then 6, 7 and 8 in N(P6), and a triangle 9, 10, 11 joined
        # to them by a matching. The one matching cut, blue side {9, 10, 11},
        # gives N[D] = {0..8} one colour for the first P6 copy D, so no
        # region has an edge across and only the guessed edge 6-9 finds it.
        g = Graph(12, [(0, 1), (0, 6), (0, 7), (0, 8), (1, 2), (1, 8), (2, 3), (3, 4),
                       (3, 7), (3, 8), (4, 5), (4, 6), (4, 7), (5, 8), (6, 7), (6, 8),
                       (6, 9), (7, 10), (8, 11), (9, 10), (9, 11), (10, 11)])
        assert not contains_induced(g, pattern_from_name("P3+P6"))
        assert small_matching_cut(g) is None
        assert find_induced(g, path_graph(6)) == (0, 1, 2, 3, 4, 5)
        triangle = 0b111 << 9
        assert valid_blue_masks(g) == [(1 << 12) - 1 ^ triangle, triangle]
        out = solve_sp3_p6(g, 1)
        _check_yes(g, out)
        assert out.trace == {"options": 1, "seeds_propagated": 1}
        assert out.cut.edges == ((6, 9), (7, 10), (8, 11))

    def test_lift_walks_each_region_once(self):
        # seeded graph 637 of the golden corpus: a "no" the lift decides
        # after walking the regions around its P6 copy once
        g = Graph(13, [(0, 2), (0, 5), (0, 7), (1, 5), (1, 11), (1, 12), (2, 4), (2, 8),
                       (2, 10), (2, 11), (3, 6), (3, 7), (4, 6), (4, 7), (4, 9), (4, 10),
                       (4, 11), (5, 8), (5, 12), (6, 12), (7, 9), (9, 11), (9, 12), (11, 12)])
        out = solve_sp3_p6(g, 1)
        assert out.answer == "no"
        assert out.trace["options"] <= 48


class TestBackstop:
    def test_exhaustive_small_graphs(self):
        for n in range(1, 7):
            for g in all_connected_graphs(n):
                out = run_strategy(g, "backstop")
                assert (out.answer == "yes") == (has_matching_cut_bruteforce(g) is not None), g.edges
                if out.answer == "yes":
                    _check_yes(g, out)

    @given(st.integers(7, 15), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_both_oracles(self, n, rnd):
        # a random spanning tree plus up to 2n more edges: sparse enough
        # that the search branches and the matching enumeration stays fast
        edges = {(rnd.randrange(v), v) for v in range(1, n)}
        for _ in range(rnd.randint(0, 2 * n)):
            a, b = sorted(rnd.sample(range(n), 2))
            edges.add((a, b))
        g = Graph(n, edges)
        out = solve_backstop(g)
        assert (out.answer == "yes") == has_cut_by_matching_removal(g)
        assert (out.answer == "yes") == (has_matching_cut_bruteforce(g) is not None)
        if out.answer == "yes":
            _check_yes(g, out)

    def test_long_cycle_needs_no_recursion(self):
        g = cycle_graph(1500)
        _check_yes(g, solve_backstop(g))

    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(4),
            complete_bipartite(5, 5),
            Graph(160, [(i, (i + d) % 160) for i in range(160) for d in (1, 2)]),  # C160(1,2)
        ],
        ids=["K4", "K5,5", "C160(1,2)"],
    )
    def test_refutes_dense_graphs_in_one_search(self, g):
        # the all-red path spreads vertex 0's colour by the two-neighbour
        # rule, so a dense "no" takes a few nodes
        out = solve_backstop(g)
        assert out.answer == "no"
        assert out.trace["nodes"] <= 5


class TestDispatcher:
    def test_exhaustive_small_graphs(self):
        for n in range(2, 6):
            for g in all_connected_graphs(n):
                out = solve(g)
                want = has_matching_cut_bruteforce(g) is not None
                assert (out.answer == "yes") == want, g.edges
                if out.answer == "yes":
                    _check_yes(g, out)

    @given(st.integers(6, 9), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_random_agreement(self, n, rnd):
        g = random_connected_graph(n, rnd)
        out = solve(g)
        assert (out.answer == "yes") == (has_matching_cut_bruteforce(g) is not None)

    def test_stage_trace_is_recorded(self):
        out = solve(cycle_graph(4))
        assert out.trace.get("stages")

    def test_fall_through_when_everything_is_barred(self):
        with pytest.raises(BranchBudgetError):
            run_strategy(dodecahedron(), "backstop", branch_budget=1)
        out = solve(dodecahedron(), branch_budget=1)
        assert out.answer == "inapplicable"
        assert out.strategy == "dispatch"

    def test_oracle_backstop_decides_the_dodecahedron(self):
        out = solve(dodecahedron())
        assert out.strategy == "backstop"
        _check_yes(dodecahedron(), out)

    def test_disconnected_raises(self):
        with pytest.raises(NotConnectedError):
            solve(Graph(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("seed", [637, 1070])
    def test_lift_past_its_budget_passes_on(self, seed):
        g = seeded_graph(seed)
        budget = run_strategy(g, "backstop").trace["nodes"]
        with pytest.raises(BranchBudgetError):
            run_strategy(g, "sp3p6", budget)
        out = solve(g, budget)
        assert out.strategy == "backstop"
        assert (out.answer == "yes") == (has_matching_cut_bruteforce(g) is not None)
        if out.answer == "yes":
            _check_yes(g, out)

    def test_one_small_cut_search_per_solve(self, monkeypatch):
        calls = []
        search = matchcut.strategies.small_matching_cut
        monkeypatch.setattr(matchcut.strategies, "small_matching_cut", lambda *a: calls.append(a) or search(*a))
        out = solve(lift_graph())
        assert out.strategy == "sp3p6(s=1)" and out.answer == "yes"
        assert len(calls) == 1

    def test_differential_fuzz_against_both_oracles(self):
        # seeded: sparse graphs with n up to 14, and mixed densities up to
        # n = 9, where enumerating every matching stays cheap
        rng = random.Random(2026)
        for _ in range(400):
            n = rng.randint(3, 14)
            g = random_connected_graph(n, rng, rng.choice([2.5 / n, 4 / n] + [None] * (n <= 9)))
            want = has_matching_cut_bruteforce(g) is not None
            assert has_cut_by_matching_removal(g) == want, g.edges
            outs = [solve(g)]
            for name in matchcut.strategies.STAGES:
                try:
                    outs.append(run_strategy(g, name))
                except BranchBudgetError:
                    continue
            for out in outs:
                if out.answer == "inapplicable":
                    continue
                assert (out.answer == "yes") == want, (out.strategy, g.edges)
                if out.answer == "yes":
                    assert is_matching_cut(g, out.cut.edges)

    def test_yes_is_rechecked_under_python_O(self):
        code = (
            "import matchcut.strategies as s\n"
            "s.is_matching_cut = lambda g, edges: False\n"
            "try:\n"
            "    s.solve(s.path_graph(3))\n"
            "except RuntimeError as exc:\n"
            "    print('refused:', exc)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.stdout.startswith("refused: smallcut"), proc.stderr

    def test_pendant_and_p6_free_graphs_end_in_smallcut_and_the_lift(self):
        # seeded: a degree-1 vertex's edge is a bridge, so smallcut takes
        # every such graph; a P6-free graph without a small cut reaches
        # the lift, which hands it to solve_p6_free unchanged
        rng = random.Random(20)
        graphs = [g for n in range(2, 6) for g in all_connected_graphs(n)]
        graphs += [random_connected_graph(rng.randint(3, 12), rng, rng.choice([0.15, 0.25, 0.4]))
                   for _ in range(300)]
        pendant = [g for g in graphs if any(g.degree(v) == 1 for v in range(g.n))]
        assert len(pendant) > 300
        for g in pendant:
            out = solve(g)
            assert (out.strategy, out.trace["stages"], len(out.cut.edges)) == ("smallcut", 1, 1), g.edges
        # C6 with cliques put in for its vertices is P6-free: P6 has no
        # module, so substituting P6-free graphs keeps a graph P6-free
        p6_free = [seeded_graph(86315), seeded_graph(233874)]
        p6_free += [substitute_cliques(cycle_graph(6), [rng.randint(1, 4) for _ in range(6)]) for _ in range(40)]
        answers = set()
        for g in p6_free:
            if small_matching_cut(g) is not None:
                assert solve(g).strategy == "smallcut"
                continue
            want = solve_p6_free(g)
            want = replace(want, strategy="sp3p6(s=1)>p6free", trace={**want.trace, "delegated": 1, "stages": 3})
            assert solve(g) == want, g.edges
            answers.add(want.answer)
        assert answers == {"yes", "no"}


class TestRunStrategy:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            run_strategy(cycle_graph(4), "bogus")

    def test_removed_stage_names_are_unknown(self, capsys, fig1_path):
        for name in ("degree1", "p6free"):
            with pytest.raises(ValueError, match=f"^unknown strategy '{name}'$"):
                run_strategy(star_graph(3), name)
        with pytest.raises(SystemExit) as exc:
            main(["solve", fig1_path, "--strategy", "p6free"])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_certificate_scans_report_inapplicable(self):
        out = run_strategy(complete_graph(4), "smallcut")
        assert out.answer == "inapplicable"

    def test_each_applicable_name(self, fig1):
        g, _ = fig1
        assert run_strategy(g, "smallcut").answer == "yes"
        assert run_strategy(star_graph(3), "radius2").answer == "yes"
        assert run_strategy(cycle_graph(7), "sp3p6").answer == "yes"
        assert run_strategy(cycle_graph(6), "backstop").answer == "yes"
        assert run_strategy(complete_graph(4), "backstop").answer == "no"

    @pytest.mark.parametrize("name", [*matchcut.strategies.STAGES, "auto"])
    def test_empty_graph_is_refused_like_solve(self, name):
        with pytest.raises(NotConnectedError, match="^graph is empty$"):
            solve(Graph(0)) if name == "auto" else run_strategy(Graph(0), name)

    def test_forced_radius2_on_wide_graph(self, fig1):
        g, _ = fig1
        assert run_strategy(g, "radius2").answer == "inapplicable"


class TestStructureSearchGuard:
    def test_error_type_exists(self):
        assert issubclass(StructureSearchError, RuntimeError)
