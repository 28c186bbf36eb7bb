import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchcut.graphs
from matchcut import (
    Graph,
    GraphFormatError,
    NotConnectedError,
    bfs_distances,
    complete_bipartite,
    complete_graph,
    connected_components,
    contains_induced,
    cycle_graph,
    disjoint_union,
    distance_profile,
    find_induced,
    format_edge_text,
    girth,
    is_connected,
    is_dominating,
    parse_edge_text,
    path_graph,
    pattern_from_name,
    star_graph,
)
from matchcut.graphs import _component, _p4_free, induced_copies
from .helpers import (
    component_within,
    distance_profile_all_sources,
    girth_all_sources,
    random_cograph,
    random_connected_graph,
)


class TestGraphConstruction:
    def test_edges_are_normalized_and_deduplicated(self):
        g = Graph(4, [(2, 3), (1, 0), (2, 1), (0, 1)])
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert g.m == 3

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(GraphFormatError, match="outside vertex range"):
            Graph(3, [(0, 3)])

    def test_degree_and_neighbours(self):
        g = star_graph(4)
        assert g.degree(0) == 4
        assert sorted(g.adj[0]) == [1, 2, 3, 4]
        assert g.adj_bits[1] == 1  # leaf sees only the hub

    def test_has_edge_is_symmetric(self):
        g = path_graph(3)
        assert g.has_edge(1, 0) and g.has_edge(0, 1)
        assert not g.has_edge(0, 2)


class TestEdgeListFormat:
    def test_parse_compacts_labels(self):
        g, labels = parse_edge_text("# comment\n3 5\n5 7\n7 3\n")
        assert (g.n, g.m) == (3, 3)
        assert labels == (3, 5, 7)

    def test_parse_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_text("0 1\nx y\n")

    def test_roundtrip(self):
        g = cycle_graph(5)
        h, labels = parse_edge_text(format_edge_text(g))
        assert h.edges == g.edges and labels == tuple(range(5))

    @given(st.integers(2, 7), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_random(self, n, rnd):
        g = random_connected_graph(n, rnd)
        h, _ = parse_edge_text(format_edge_text(g))
        assert h.edges == g.edges


class TestTraversal:
    def test_bfs_distances_on_path(self):
        assert bfs_distances(path_graph(5), 0) == [0, 1, 2, 3, 4]

    def test_bfs_unreachable_is_minus_one(self):
        g = Graph(3, [(0, 1)])
        assert bfs_distances(g, 0)[2] == -1

    def test_components_with_removed_edges(self):
        g = path_graph(4)
        comps = connected_components(g, removed_edges=[(1, 2)])
        assert sorted(map(sorted, comps)) == [[0, 1], [2, 3]]

    def test_components_with_removed_vertices(self):
        g = star_graph(3)
        comps = connected_components(g, removed_vertices=[0])
        assert len(comps) == 3

    def test_is_connected(self):
        assert is_connected(cycle_graph(4))
        assert not is_connected(Graph(2))

    @pytest.mark.parametrize("complement", [False, True], ids=["graph", "complement"])
    @given(st.integers(1, 16), st.floats(0, 1), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_mask_component_matches_a_bfs_within_the_part(self, complement, n, p, rnd):
        # G(n, p), connected or not, and a random non-empty part
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < p])
        part = rnd.randrange(1, 1 << n)
        assert _component(g.adj_bits, part, complement) == component_within(g, part, complement)


class TestDistanceProfile:
    @pytest.fixture(autouse=True)
    def no_per_source_bfs(self, monkeypatch):
        """The profile must come from the ball growth, not a BFS per source."""

        def refuse(g, source):
            raise AssertionError("distance_profile ran a per-source BFS")

        monkeypatch.setattr(matchcut.graphs, "bfs_distances", refuse)

    def test_star_has_radius_one(self):
        prof = distance_profile(star_graph(5))
        assert (prof.radius, prof.diameter) == (1, 2)
        assert prof.center == frozenset({0})

    def test_path_five(self):
        prof = distance_profile(path_graph(5))
        assert (prof.radius, prof.diameter) == (2, 4)
        assert prof.center == frozenset({2})

    def test_subdivided_star_has_radius_two(self):
        # hub 0, spokes 1..4, pendants 5..8
        edges = [(0, i) for i in range(1, 5)] + [(i, i + 4) for i in range(1, 5)]
        prof = distance_profile(Graph(9, edges))
        assert prof.radius == 2 and 0 in prof.center

    @pytest.mark.parametrize("n", [3, 4, 7, 10, 101, 150])
    def test_cycles_are_self_centred(self, n):
        prof = distance_profile(cycle_graph(n))
        assert (prof.radius, prof.diameter) == (n // 2, n // 2)
        assert prof.center == frozenset(range(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 120])
    def test_paths(self, n):
        # P1 is K1: radius and diameter 0
        prof = distance_profile(path_graph(n))
        assert (prof.radius, prof.diameter) == (n // 2, n - 1)
        assert prof.center == frozenset({(n - 1) // 2, n // 2})

    @pytest.mark.parametrize("rows,cols", [(1, 5), (2, 2), (4, 7), (30, 31)])
    def test_grids(self, rows, cols):
        def reach(i, size):
            return max(i, size - 1 - i)

        mid_r = min(reach(i, rows) for i in range(rows))
        mid_c = min(reach(j, cols) for j in range(cols))
        prof = distance_profile(_grid(rows, cols))
        assert (prof.radius, prof.diameter) == (mid_r + mid_c, rows + cols - 2)
        assert prof.center == frozenset(
            i * cols + j
            for i in range(rows)
            for j in range(cols)
            if reach(i, rows) == mid_r and reach(j, cols) == mid_c
        )

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 4), (2, 2), (3, 5)])
    def test_complete_bipartite(self, a, b):
        prof = distance_profile(complete_bipartite(a, b))
        if max(a, b) == 1:
            assert (prof.radius, prof.diameter, prof.center) == (1, 1, frozenset({0, 1}))
        elif a == 1:
            assert (prof.radius, prof.diameter, prof.center) == (1, 2, frozenset({0}))
        else:
            assert (prof.radius, prof.diameter, prof.center) == (2, 2, frozenset(range(a + b)))

    @pytest.mark.parametrize(
        "g,message",
        [
            (Graph(0), "graph is empty"),
            (Graph(2), "graph not connected"),
            (disjoint_union(cycle_graph(40), path_graph(1)), "graph not connected"),
            (disjoint_union(path_graph(30), path_graph(30)), "graph not connected"),
        ],
    )
    def test_rejects_empty_and_disconnected(self, g, message):
        with pytest.raises(NotConnectedError, match=f"^{message}$"):
            distance_profile(g)


@given(st.integers(0, 16), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_distance_profile_matches_all_sources_bfs(n, p, rnd):
    g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < p])
    try:
        want = distance_profile_all_sources(g)
    except NotConnectedError as exc:
        with pytest.raises(NotConnectedError) as got:
            distance_profile(g)
        assert str(got.value) == str(exc)
    else:
        assert distance_profile(g) == want


def _grid(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


PETERSEN = Graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


def _girth_test_graph(family: str, n: int, rng: random.Random) -> Graph:
    """One random graph on n <= 40 vertices from the named family."""
    if family == "gnp":  # often disconnected, a forest when sparse
        p = rng.choice([0.02, 0.05, 0.1, 0.3, 0.7])
        return Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
    if family == "forest":
        return Graph(n, [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.9])
    if family == "union":
        k = rng.randint(0, n)
        left = _girth_test_graph(rng.choice(["forest", "pendant-cycle", "chorded-cycle"]), k, rng)
        right = _girth_test_graph(rng.choice(["gnp", "pendant-cycle", "chorded-cycle"]), n - k, rng)
        return disjoint_union(left, right)
    if n < 3:
        return Graph(n)
    k = rng.randint(3, n)
    order = rng.sample(range(n), n)  # relabel so the cycle's least vertex varies
    edges = [(order[i], order[(i + 1) % k]) for i in range(k)]
    if family == "pendant-cycle":  # trees hung on one cycle
        edges += [(order[rng.randrange(i)], order[i]) for i in range(k, n)]
    else:  # a long cycle with a few chords, the rest a path hanging off it
        edges += [(order[i - 1], order[i]) for i in range(k, n)]
        edges += [tuple(rng.sample(order[:k], 2)) for _ in range(rng.randint(0, 3))]
    return Graph(n, edges)


class TestGirth:
    @pytest.mark.parametrize("s", [3, 4, 5, 8])
    def test_cycles(self, s):
        assert girth(cycle_graph(s)) == s

    def test_forest_has_none(self):
        assert girth(path_graph(6)) is None

    def test_complete_bipartite(self):
        assert girth(complete_bipartite(2, 3)) == 4

    @pytest.mark.parametrize(
        "g, expected",
        [
            (PETERSEN, 5),
            (complete_graph(4), 3),
            (complete_bipartite(3, 3), 4),
            (disjoint_union(cycle_graph(7), cycle_graph(5)), 5),
            (Graph(6), None),
            (Graph(0), None),
        ],
        ids=["petersen", "K4", "K3,3", "C7+C5", "edgeless", "empty"],
    )
    def test_named_graphs(self, g, expected):
        assert girth(g) == expected == girth_all_sources(g)

    @given(
        st.sampled_from(["gnp", "forest", "pendant-cycle", "chorded-cycle", "union"]),
        st.integers(1, 40),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_all_sources_reference(self, family, n, rng):
        g = _girth_test_graph(family, n, rng)
        assert girth(g) == girth_all_sources(g)

    @pytest.mark.parametrize(
        "g, expected", [(cycle_graph(2000), 2000), (_grid(30, 30), 4)], ids=["C2000", "grid30x30"]
    )
    def test_work_is_linear_on_cycles_and_grids(self, g, expected, monkeypatch):
        pops = []

        class CountingDeque(deque):
            def popleft(self):
                pops.append(None)
                return super().popleft()

        monkeypatch.setattr(matchcut.graphs, "deque", CountingDeque)
        assert girth(g) == expected
        assert len(pops) <= 3 * g.n


class TestInducedSubgraph:
    def test_p4_inside_c5(self):
        hit = find_induced(cycle_graph(5), path_graph(4))
        assert hit is not None and len(hit) == 4

    def test_c4_not_inside_k4(self):
        # every 4-subset of K4 spans extra chords
        assert not contains_induced(complete_graph(4), cycle_graph(4))

    def test_claw_inside_star(self):
        assert contains_induced(star_graph(4), star_graph(3))

    def test_embedding_is_induced(self):
        g = random_connected_graph(8, random.Random(5))
        hit = find_induced(g, path_graph(4))
        if hit is not None:
            a, b, c, d = hit
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
            assert not (g.has_edge(a, c) or g.has_edge(a, d) or g.has_edge(b, d))

    @given(st.integers(4, 7), st.integers(2, 4), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_matches_subset_enumeration(self, n, k, rnd):
        host = random_connected_graph(n, rnd)
        pattern = path_graph(k)
        naive = any(
            Graph(k, [(i, j) for i, j in itertools.combinations(range(k), 2)
                      if host.has_edge(sub[i], sub[j])]).edges == pattern.edges
            for sub in itertools.permutations(range(n), k)
        )
        assert contains_induced(host, pattern) == naive

    def test_copies_of_c6_in_c6(self):
        copies = list(induced_copies(cycle_graph(6), cycle_graph(6)))
        assert len(copies) == 12  # six rotations times two directions
        assert copies == sorted(set(copies))
        assert copies[0] == find_induced(cycle_graph(6), cycle_graph(6))

    def test_no_copies_of_p3_in_a_triangle(self):
        assert list(induced_copies(complete_graph(3), path_graph(3))) == []

    @given(
        st.integers(4, 7),
        st.sampled_from(["P3", "P4", "C4", "K1,3", "2P2", "K3", "C5", "P2+K3"]),
        st.sampled_from(["connected", "bipartite", "cograph"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_copies_match_permutation_enumeration(self, n, name, host_kind, rnd):
        host = random_connected_graph(n, rnd)
        if host_kind == "bipartite":
            # odd and even vertex ids form the two sides; odd-cycle
            # patterns then have no copy, and the search prunes them
            host = Graph(n, [(u, v) for u, v in host.edges if (u ^ v) & 1])
        elif host_kind == "cograph":
            # P4 and C5 contain an induced P4, so the search prunes them
            host = random_cograph(n, rnd)
        pattern = pattern_from_name(name)
        k = pattern.n
        naive = [
            sub for sub in itertools.permutations(range(n), k)
            if all(host.has_edge(sub[i], sub[j]) == pattern.has_edge(i, j)
                   for i, j in itertools.combinations(range(k), 2))
        ]
        assert list(induced_copies(host, pattern)) == naive

    def test_odd_cycle_search_in_a_bipartite_host_is_one_bfs(self, monkeypatch):
        pops = []

        class CountingDeque(deque):
            def popleft(self):
                pops.append(None)
                return super().popleft()

        monkeypatch.setattr(matchcut.graphs, "deque", CountingDeque)
        host, pattern = complete_bipartite(40, 40), cycle_graph(5)
        assert find_induced(host, pattern) is None
        # 2-colouring the pattern stops at its odd cycle, 2-colouring the
        # host pops each of its vertices once, and no backtracking runs
        assert host.n <= len(pops) <= host.n + pattern.n

    def test_p4_free_matches_a_subset_search_on_every_small_graph(self):
        def has_p4(g):
            # a 4-vertex graph is P4 exactly when its degrees are 1, 1, 2, 2
            for sub in itertools.combinations(range(g.n), 4):
                degrees = sorted(sum(g.has_edge(v, w) for w in sub) for v in sub)
                if degrees == [1, 1, 2, 2]:
                    return True
            return False

        for n in range(7):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):  # disconnected graphs too
                g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
                assert _p4_free(g) == (not has_p4(g)), g.edges

    @pytest.mark.parametrize("pattern", [path_graph(6), cycle_graph(6)], ids=["P6", "C6"])
    def test_search_in_a_cograph_ends_at_the_p4_test(self, pattern):
        reads = {"adj": 0, "adj_bits": 0}

        def counting(table, name):
            class CountingTuple(tuple):
                def __getitem__(self, i):
                    reads[name] += 1
                    return super().__getitem__(i)

            return CountingTuple(table)

        host = random_cograph(40, random.Random(4))
        if not is_connected(host):  # a cograph's complement is one too
            host = Graph(40, [e for e in itertools.combinations(range(40), 2) if not host.has_edge(*e)])
        assert is_connected(host) and contains_induced(host, path_graph(3))
        host.adj, host.adj_bits = counting(host.adj, "adj"), counting(host.adj_bits, "adj_bits")
        assert find_induced(host, pattern) is None
        # the split reads each vertex's mask at most twice per part that
        # holds it, so at most n(n + 1) times, and no backtracking reads a
        # neighbour list
        assert reads["adj"] == 0
        assert 0 < reads["adj_bits"] <= host.n * (host.n + 1)

class TestDomination:
    def test_is_dominating(self):
        g = cycle_graph(6)
        assert is_dominating(g, {0, 3})
        assert not is_dominating(g, {0})


class TestCatalog:
    @pytest.mark.parametrize(
        "name,n,m",
        [("P6", 6, 5), ("C5", 5, 5), ("K4", 4, 6), ("K2,3", 5, 6),
         ("K1,3", 4, 3), ("2P3", 6, 4), ("P3+P6", 9, 7)],
    )
    def test_names(self, name, n, m):
        g = pattern_from_name(name)
        assert (g.n, g.m) == (n, m)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            pattern_from_name("Q7")

    def test_union_of_terms_is_built_once(self, monkeypatch):
        want = path_graph(3)
        for piece in [path_graph(3)] * 199 + [path_graph(6)]:
            want = disjoint_union(want, piece)
        built = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        g = pattern_from_name("200P3+P6")
        # one Graph per distinct term, plus the union
        assert len(built) <= 3
        assert g == want and (g.n, g.m) == (606, 405)

    def test_disjoint_union_offsets_labels(self):
        g = disjoint_union(path_graph(3), path_graph(3))
        assert g.n == 6 and g.m == 4
        assert not is_connected(g)
