import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pathideal import (
    facet_complex,
    has_leaf_order,
    is_leaf,
    is_properly_connected,
    is_pure,
    is_simplicial_forest,
    is_simplicial_tree,
    make_complex,
    path_ideal,
    proper_distance,
)
from pathideal.corpus import line, triangle_boundary, twelve_vertex_tree

from oracles import (
    leaf_order_by_search,
    maximal_sets_by_scan,
    proper_distances_by_scan,
    properly_connected_by_scan,
    simplicial_forest_by_scan,
)

# a leaf order exists, yet the first three facets have no leaf
QUASI_FOREST = make_complex([{1, 2, 5}, {2, 3, 6}, {1, 3, 7}, {1, 2, 3, 8}])


class TestFacetComplex:
    def test_line5_t3(self):
        cx = facet_complex(path_ideal(line(5), 3))
        assert cx.facets == {frozenset({1, 2, 3}), frozenset({2, 3, 4}), frozenset({3, 4, 5})}

    def test_principal(self):
        cx = facet_complex(path_ideal(line(4), 4))
        assert len(cx.facets) == 1

    def test_twelve_vertex(self):
        assert len(facet_complex(path_ideal(twelve_vertex_tree(), 3)).facets) == 9

    def test_antichain_enforced(self):
        with pytest.raises(ValueError):
            from pathideal.simplicial import Complex

            Complex(frozenset({1, 2, 3}), frozenset({frozenset({1}), frozenset({1, 2})}))
        with pytest.raises(ValueError):
            Complex(frozenset({1}), frozenset({frozenset(), frozenset({1})}))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.integers(1, 8)), max_size=12))
def test_make_complex_keeps_the_maximal_faces(faces):
    assert make_complex(faces).facets == maximal_sets_by_scan(faces)


class TestLeaves:
    def test_sole_facet(self):
        cx = make_complex([{1, 2, 3}])
        ok, witness = is_leaf(cx, {1, 2, 3})
        assert ok and witness is None

    def test_leaf_ending_facet(self):
        cx = facet_complex(path_ideal(twelve_vertex_tree(), 3))
        ok, witness = is_leaf(cx, {2, 4, 8})
        assert ok and witness is not None

    def test_triangle_edge_not_leaf(self):
        ok, pair = is_leaf(triangle_boundary(), {1, 2})
        assert not ok
        assert len(pair) == 2

    def test_non_facet_rejected(self):
        with pytest.raises(ValueError):
            is_leaf(triangle_boundary(), {1})


class TestForest:
    def test_twelve_vertex_is_tree(self):
        for t in (2, 3, 4):
            cx = facet_complex(path_ideal(twelve_vertex_tree(), t))
            ok, witness = is_simplicial_tree(cx)
            assert ok and witness is None

    def test_triangle_fails_with_counterexample(self):
        ok, witness = is_simplicial_forest(triangle_boundary())
        assert not ok
        assert set(witness) == triangle_boundary().facets

    def test_empty_complex_is_tree(self):
        cx = facet_complex(path_ideal(line(3), 4))
        assert cx.is_void
        assert is_simplicial_tree(cx) == (True, None)

    def test_disconnected_is_forest_not_tree(self):
        cx = make_complex([{1, 2}, {3, 4}])
        assert is_simplicial_forest(cx)[0]
        assert not is_simplicial_tree(cx)[0]


class TestLeafOrder:
    def test_forest_has_order(self):
        for t in (2, 3):
            cx = facet_complex(path_ideal(twelve_vertex_tree(), t))
            assert is_simplicial_forest(cx)[0]
            assert has_leaf_order(cx)

    def test_triangle_has_no_order(self):
        assert not has_leaf_order(triangle_boundary())

    def test_single_facet(self):
        assert has_leaf_order(make_complex([{1, 2, 3}]))

    def test_quasi_forest_that_is_not_a_forest(self):
        ok, witness = is_simplicial_forest(QUASI_FOREST)
        assert not ok
        assert set(witness) == {frozenset({1, 2, 5}), frozenset({2, 3, 6}), frozenset({1, 3, 7})}
        assert has_leaf_order(QUASI_FOREST)

    def test_long_line_needs_no_deep_recursion(self):
        cx = facet_complex(path_ideal(line(300), 3))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            assert is_simplicial_tree(cx) == (True, None)
            assert has_leaf_order(cx)
        finally:
            sys.setrecursionlimit(limit)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.integers(1, 8), min_size=1), min_size=1, max_size=9))
def test_leaf_questions_match_the_oracles(faces):
    cx = make_complex(faces)
    ok, witness = is_simplicial_forest(cx)
    assert ok == simplicial_forest_by_scan(cx)[0]
    assert has_leaf_order(cx) == leaf_order_by_search(cx)
    if ok:
        assert witness is None
    else:
        sub = make_complex(witness)
        assert not simplicial_forest_by_scan(sub)[0]
        assert not any(is_leaf(sub, f)[0] for f in witness)


class TestProperDistance:
    def test_adjacent(self):
        cx = facet_complex(path_ideal(line(6), 3))
        assert proper_distance(cx, {1, 2, 3}, {2, 3, 4}) == 1

    def test_two_steps(self):
        cx = facet_complex(path_ideal(line(6), 3))
        assert proper_distance(cx, {1, 2, 3}, {3, 4, 5}) == 2

    def test_same_facet(self):
        cx = facet_complex(path_ideal(line(6), 3))
        assert proper_distance(cx, {1, 2, 3}, {1, 2, 3}) == 0

    def test_unreachable(self):
        cx = make_complex([{1, 2, 3}, {3, 4, 5}])
        assert proper_distance(cx, {1, 2, 3}, {3, 4, 5}) == math.inf

    def test_nonpure_rejected(self):
        cx = make_complex([{1, 2}, {3, 4, 5}])
        with pytest.raises(ValueError):
            proper_distance(cx, {1, 2}, {3, 4, 5})


class TestProperlyConnected:
    def test_lines(self):
        for t in (2, 3, 4):
            for n in range(t, 11):
                cx = facet_complex(path_ideal(line(n), t))
                assert is_properly_connected(cx)[0], (n, t)

    def test_every_graph_case(self):
        # any edge set: facet size 2, intersecting pairs are adjacent
        cx = facet_complex(path_ideal(twelve_vertex_tree(), 2))
        assert is_properly_connected(cx)[0]

    def test_gap_pair_fails(self):
        cx = make_complex([{1, 2, 3}, {3, 4, 5}])
        ok, pair = is_properly_connected(cx)
        assert not ok
        assert set(pair) == {frozenset({1, 2, 3}), frozenset({3, 4, 5})}

    def test_twelve_vertex_t3_fails(self):
        cx = facet_complex(path_ideal(twelve_vertex_tree(), 3))
        ok, pair = is_properly_connected(cx)
        assert not ok and pair is not None

    def test_purity_of_path_complexes(self):
        for t in (2, 3, 4):
            cx = facet_complex(path_ideal(twelve_vertex_tree(), t))
            assert is_pure(cx)
            assert all(len(f) == t for f in cx.facets)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(st.frozensets(st.integers(1, 8), min_size=d, max_size=d), min_size=1, max_size=9)
    )
)
def test_proper_chains_match_the_scan(faces):
    cx = make_complex(faces)
    assert is_properly_connected(cx) == properly_connected_by_scan(cx)
    facets = cx.sorted_facets()
    for F in facets:
        dist = proper_distances_by_scan(facets, F)
        for G in facets:
            assert proper_distance(cx, F, G) == dist.get(G, math.inf)
