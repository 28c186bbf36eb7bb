"""Monochromatic-extension decision on top of the 2-SAT solver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcut import (
    FourTuple,
    Graph,
    build_extension_instance,
    connected_components,
    cycle_graph,
    decide_monochromatic_extension,
    is_valid_colouring,
    make_pair,
    path_graph,
    propagate,
    solve_2sat,
)
from matchcut.finisher import TwoSatInstance

from .helpers import enumerate_valid_colourings, random_connected_graph


class TestTwoSat:
    def test_empty_instance(self):
        assert solve_2sat(TwoSatInstance(0, ())) == ()

    def test_unit_clauses(self):
        inst = TwoSatInstance(2, ((1, 1), (-2, -2)))
        assert solve_2sat(inst) == (True, False)

    def test_implication_chain(self):
        # x1 -> x2 -> x3 with x1 forced true
        inst = TwoSatInstance(3, ((1, 1), (-1, 2), (-2, 3)))
        assert solve_2sat(inst) == (True, True, True)

    def test_contradiction(self):
        inst = TwoSatInstance(1, ((1, 1), (-1, -1)))
        assert solve_2sat(inst) is None

    def test_xor_style_instance(self):
        inst = TwoSatInstance(2, ((1, 2), (-1, -2)))
        model = solve_2sat(inst)
        assert model is not None and model[0] != model[1]

    @given(
        st.integers(1, 6),
        st.lists(st.tuples(st.integers(1, 6), st.booleans(),
                           st.integers(1, 6), st.booleans()), max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_truth_table(self, num_vars, raw):
        clauses = tuple(
            (a if pa else -a, b if pb else -b)
            for a, pa, b, pb in raw
            if a <= num_vars and b <= num_vars
        )
        inst = TwoSatInstance(num_vars, clauses)
        model = solve_2sat(inst)
        satisfiable = any(
            all(
                (assign >> abs(l1) - 1 & 1 if l1 > 0 else not assign >> abs(l1) - 1 & 1)
                or (assign >> abs(l2) - 1 & 1 if l2 > 0 else not assign >> abs(l2) - 1 & 1)
                for l1, l2 in clauses
            )
            for assign in range(1 << num_vars)
        )
        assert (model is not None) == satisfiable
        if model is not None:
            for l1, l2 in clauses:
                v1 = model[abs(l1) - 1] == (l1 > 0)
                v2 = model[abs(l2) - 1] == (l2 > 0)
                assert v1 or v2


def _mono_restricted_masks(g, four):
    """Valid (S,T,X,Y)-colourings whose residual components are one colour."""
    comps = connected_components(g, removed_vertices=four.x | four.y)
    out = []
    for c in enumerate_valid_colourings(g, four):
        if all(comp <= c.blue or not comp & c.blue for comp in comps):
            out.append(c)
    return out


class TestExtension:
    def test_two_anchored_vertices_cannot_agree(self):
        # residual pair {4,5} is pulled red by 2 and blue by 3, both doubly
        g = Graph(6, [(0, 1), (0, 2), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
        four = FourTuple(
            s=frozenset({0}), t=frozenset({1}),
            x=frozenset({0, 2}), y=frozenset({1, 3}),
        )
        assert not _mono_restricted_masks(g, four)
        assert decide_monochromatic_extension(g, four) is None

    def test_free_component_gets_a_colour(self, fig1):
        g, labels = fig1
        back = {lab: v for v, lab in enumerate(labels)}
        four = propagate(g, make_pair(g, {back[4]}, {back[8]}))
        c = decide_monochromatic_extension(g, four)
        assert c is not None
        assert is_valid_colouring(g, c)
        assert set(four.x) <= c.red and set(four.y) <= c.blue

    def test_empty_residual_is_immediate(self, fig1):
        g, labels = fig1
        back = {lab: v for v, lab in enumerate(labels)}
        four = propagate(g, make_pair(g, {back[4], back[5]}, {back[7], back[8]}))
        assert four.x | four.y == set(range(g.n))
        c = decide_monochromatic_extension(g, four)
        assert c is not None and c.blue == frozenset(four.y)

    def test_path_endpoints_stall_then_complete(self):
        # the middle pair of P6 pins only its neighbours; the endpoints are
        # free singleton components the 2-SAT step colours afterwards
        g = path_graph(6)
        four = propagate(g, make_pair(g, {2}, {3}))
        assert four.x == frozenset({1, 2}) and four.y == frozenset({3, 4})
        c = decide_monochromatic_extension(g, four)
        assert c is not None and is_valid_colouring(g, c)

    def test_instance_has_one_variable_per_component(self):
        g = Graph(6, [(0, 1), (0, 2), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
        four = FourTuple(
            s=frozenset({0}), t=frozenset({1}),
            x=frozenset({0, 2}), y=frozenset({1, 3}),
        )
        inst, comps = build_extension_instance(g, four)
        assert comps == [frozenset({4, 5})]
        assert inst.num_vars == 1
        assert solve_2sat(inst) is None

    def test_rejects_inconsistent_tuple(self):
        g = cycle_graph(4)
        bad = FourTuple(frozenset({0}), frozenset({1}), frozenset({0}), frozenset({1}))
        with pytest.raises(ValueError):
            decide_monochromatic_extension(g, bad)


@given(st.integers(3, 7), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_matches_restricted_enumeration(n, rnd):
    g = random_connected_graph(n, rnd)
    for u, v in g.edges:
        four = propagate(g, make_pair(g, {u}, {v}))
        if four is None:
            continue
        got = decide_monochromatic_extension(g, four)
        want = _mono_restricted_masks(g, four)
        assert (got is not None) == bool(want)
        if got is not None:
            assert is_valid_colouring(g, got)
            comps = connected_components(g, removed_vertices=four.x | four.y)
            assert all(comp <= got.blue or not comp & got.blue for comp in comps)
