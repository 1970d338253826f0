import dataclasses
import random
import sys

import pytest

from oracles import ahu_nested_key, delete_vertices_by_rebuild, pd_trace_by_rebuild
from pathideal import (
    NotProperlyConnectedError,
    leaf_generator,
    make_ideal,
    path_ideal,
    pd_auto,
    pd_line_closed_form,
    pd_quotient_hochster,
    pd_recursive,
    splitting_data,
    verify_betti_splitting,
    QQ,
    gf,
)
from pathideal import pd
from pathideal.corpus import corpus_trees, line, random_tree, reroot, twelve_vertex_tree
from pathideal.pd import line_order
from pathideal.simplicial import facet_complex, is_properly_connected
from pathideal.trees import Forest, RootedTree, component_trees, delete_vertices, enumerate_paths


def shifted(tree, by):
    return RootedTree.from_edges(((u + by, v + by) for u, v in tree.edges()), root=tree.root + by)


def relabelled(tree, rng):
    """``tree`` under random ids, gapped so that the id order says nothing
    about the shape."""
    label = dict(zip(tree.vertices, rng.sample(range(1, 4 * tree.n), tree.n)))
    return RootedTree.from_edges(((label[u], label[v]) for u, v in tree.edges()), root=label[tree.root])


def relabelled_trees(count, seed):
    """``random_tree`` shapes on 2..60 vertices, relabelled."""
    rng = random.Random(seed)
    for k in range(count):
        yield relabelled(random_tree(seed + k, 2 + (13 * k) % 59), rng)


class TestClosedForm:
    def test_principal_case(self):
        for t in (2, 3, 4, 5):
            assert pd_line_closed_form(t, t) == 1

    def test_examples(self):
        assert pd_line_closed_form(8, 3) == 4
        assert pd_line_closed_form(7, 3) == 3
        assert pd_line_closed_form(5, 2) == 3
        assert pd_line_closed_form(9, 4) == 3

    def test_zero_ideal(self):
        assert pd_line_closed_form(2, 3) == 0
        assert pd_line_closed_form(0, 2) == 0

    def test_t_below_two_rejected(self):
        with pytest.raises(ValueError):
            pd_line_closed_form(5, 1)

    def test_mod3_three_cases_for_edges(self):
        # the t=2 specialization in its three-residue form
        def edge_formula(n):
            d = n % 3
            if d in (0, 1):
                return 2 * (n - d) // 3
            return (2 * n - 1) // 3

        for n in range(2, 13):
            assert pd_line_closed_form(n, 2) == edge_formula(n)


class TestLeafGenerator:
    def test_line(self):
        for n, t in ((8, 3), (5, 2), (4, 4)):
            assert leaf_generator(line(n), t) == tuple(range(n - t + 1, n + 1))

    def test_twelve_vertex(self):
        assert leaf_generator(twelve_vertex_tree(), 3) == (4, 9, 12)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError):
            leaf_generator(line(3), 4)

    def test_matches_the_scan_of_all_paths(self):
        for seed in range(60):
            tree = random_tree(seed, 3 + seed % 10)
            for t in (2, 3, 4, 5):
                paths = enumerate_paths(tree, t)
                if not paths:
                    continue
                deepest = max(tree.level(p[-1]) for p in paths)
                expected = min(p for p in paths if tree.level(p[-1]) == deepest)
                assert leaf_generator(tree, t) == expected, (seed, t)


class TestSplittingData:
    def test_line_generic(self):
        n, t = 9, 3
        sd = splitting_data(line(n), t)
        assert sd.off_path == frozenset({n - t})
        assert sd.removed == frozenset(range(n - t, n + 1))
        assert sd.minus_leaf.components[0] == line(n - 1)
        assert sd.minus_zone.components[0] == line(n - t - 1)

    def test_line_principal(self):
        sd = splitting_data(line(3), 3)
        assert sd.off_path == frozenset()
        assert sd.off_path_count == 0
        assert sd.minus_zone.is_empty

    def test_twelve_vertex(self):
        # facets sharing two vertices with {4,9,12}: only {2,4,9}
        sd = splitting_data(twelve_vertex_tree(), 3)
        assert sd.path == (4, 9, 12)
        assert sd.off_path == frozenset({2})
        assert sd.removed == frozenset({2, 4, 9, 12})

    def test_non_leaf_path_rejected(self):
        with pytest.raises(ValueError):
            splitting_data(line(8), 3, (1, 2, 3))

    def test_off_path_matches_the_scan_of_all_paths(self):
        """off_path is every vertex outside the split facet of every facet
        sharing t-1 vertices with it, for the path in either order."""
        for seed in range(60):
            tree = random_tree(seed, 3 + seed % 10)
            for t in (2, 3, 4, 5):
                facets = [frozenset(p) for p in enumerate_paths(tree, t)]
                for p in enumerate_paths(tree, t):
                    facet = frozenset(p)
                    expected = frozenset().union(
                        *(G - facet for G in facets if G != facet and len(G & facet) == t - 1)
                    )
                    for order in (p, p[::-1]):
                        if tree.degree(order[-1]) == 1:
                            assert splitting_data(tree, t, order).off_path == expected, (seed, t, order)


class TestRecursion:
    def test_small_line(self):
        assert pd_recursive(line(4), 2) == 2

    def test_matches_closed_form(self):
        for n in range(2, 13):
            for t in (2, 3, 4):
                if n < t:
                    continue
                assert pd_recursive(line(n), t) == pd_line_closed_form(n, t), (n, t)

    def test_not_properly_connected_raises(self):
        with pytest.raises(NotProperlyConnectedError):
            pd_recursive(twelve_vertex_tree(), 3)

    def test_edge_case_always_applies(self):
        tree = twelve_vertex_tree()
        assert pd_recursive(tree, 2) == pd_quotient_hochster(path_ideal(tree, 2))

    def test_forest_additivity(self):
        # two separated segments of the line: quotient pds add
        forest = delete_vertices(line(9), {4})
        expected = pd_line_closed_form(3, 2) + pd_line_closed_form(5, 2)
        assert pd_recursive(forest, 2) == expected
        ideal = path_ideal(forest, 2)
        assert pd_quotient_hochster(ideal) == expected

    def test_zero_ideal(self):
        assert pd_recursive(line(3), 4) == 0

    def test_long_line(self):
        assert pd_recursive(line(200), 3) == pd_line_closed_form(200, 3)

    def test_long_line_needs_no_deep_recursion(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            assert pd_recursive(line(1000), 3) == pd_line_closed_form(1000, 3)
        finally:
            sys.setrecursionlimit(limit)

    def test_isomorphic_components_split_once(self):
        alone, trace = [], []
        value = pd_recursive(line(5), 2, trace=alone)
        assert pd_recursive(Forest((line(5), shifted(line(5), 100))), 2, trace=trace) == 2 * value
        assert trace == alone

    def test_non_isomorphic_components_share_the_memo(self):
        other = shifted(random_tree(3, 6), 100)
        trace = []
        value = pd_recursive(Forest((line(7), other)), 2, trace=trace)
        assert value == pd_recursive(line(7), 2) + pd_recursive(other, 2) == 7
        # the trace of the recursive implementation: the second component
        # stops splitting where its pieces are lines already memoized
        assert [(s.path, s.tree_vertices) for s in trace] == [
            ((6, 7), (1, 2, 3, 4, 5, 6, 7)),
            ((5, 6), (1, 2, 3, 4, 5, 6)),
            ((4, 5), (1, 2, 3, 4, 5)),
            ((3, 4), (1, 2, 3, 4)),
            ((2, 3), (1, 2, 3)),
            ((1, 2), (1, 2)),
            ((105, 103), (101, 102, 103, 104, 105, 106)),
            ((105, 104), (101, 102, 104, 105, 106)),
            ((102, 105), (101, 102, 105, 106)),
        ]

    def test_trace_records_steps(self):
        trace = []
        pd_recursive(line(6), 2, trace=trace)
        assert trace and trace[0].path == (5, 6)

    def test_one_check_per_input_component(self, monkeypatch):
        calls = []

        def counting(cx):
            calls.append(cx)
            return is_properly_connected(cx)

        monkeypatch.setattr(pd, "is_properly_connected", counting)
        assert pd_recursive(line(30), 3) == pd_line_closed_form(30, 3)
        assert len(calls) == 1
        calls.clear()
        pd_recursive(delete_vertices(line(20), {7}), 3)
        assert len(calls) == 2

    def test_pieces_are_cut_without_building_forests(self, monkeypatch):
        """The recursion cuts its pieces as id maps over the input tree, so
        it answers with ``delete_vertices`` out of reach."""

        def refuse(g, remove):
            raise AssertionError("the recursion built a forest")

        answered = 0
        expected = {}
        for name, tree in corpus_trees():
            for t in (2, 3, 4):
                try:
                    expected[name, t] = pd_trace_by_rebuild(tree, t)[0]
                except ValueError:
                    pass
        monkeypatch.setattr(pd, "delete_vertices", refuse)
        for n in range(2, 40):
            for t in (2, 3, 4):
                assert pd_recursive(line(n), t) == pd_line_closed_form(n, t)
        for name, tree in corpus_trees():
            for t in (2, 3, 4):
                if (name, t) in expected:
                    assert pd_recursive(tree, t) == expected[name, t], (name, t)
                    answered += 1
        assert answered > 60

    def test_forest_fails_before_any_split(self):
        forest = Forest((line(6), shifted(twelve_vertex_tree(), 100)))
        trace = []
        with pytest.raises(NotProperlyConnectedError):
            pd_recursive(forest, 3, trace=trace)
        assert trace == []


class TestRecursionOracle:
    """Values and split traces equal the recursion that rebuilds every
    piece and keys it by its nested encoding, and both refuse the same
    inputs."""

    @staticmethod
    def agrees(g, t):
        try:
            expected = pd_trace_by_rebuild(g, t)
        except ValueError:
            with pytest.raises(NotProperlyConnectedError):
                pd_recursive(g, t)
            return False
        trace = []
        value = pd_recursive(g, t, trace=trace)
        assert (value, [dataclasses.astuple(step) for step in trace]) == expected, (g.vertices, t)
        return True

    def test_lines(self):
        for n in range(2, 61):
            for t in (2, 3, 4, 5):
                assert self.agrees(line(n), t)

    def test_relabelled_random_trees(self):
        checked = refused = 0
        for tree in relabelled_trees(60, 2200):
            for t in (2, 3, 4, 5):
                if self.agrees(tree, t):
                    checked += 1
                else:
                    refused += 1
        assert checked > 60 and refused > 20

    def test_forests(self):
        """Random and rerooted trees less one to three vertices."""
        rng = random.Random(29)
        checked = forests = 0
        for seed in range(150):
            tree = random_tree(seed, rng.randint(4, 30))
            g = reroot(tree, rng.choice(tree.vertices)) if seed % 2 else tree
            g = delete_vertices_by_rebuild(g, rng.sample(g.vertices, rng.randint(1, 3)))
            forests += len(g.components) > 1
            for t in (2, 3, 4):
                checked += self.agrees(g, t)
        assert forests > 80 and checked > 150

    def test_the_benchmark_bushy_shapes(self):
        rng = random.Random(41)
        for seed, n in ((4000, 40), (5002, 50), (6001, 60)):
            assert self.agrees(relabelled(random_tree(seed, n), rng), 2)


class TestShapeIds:
    def test_ids_agree_with_the_nested_encoding(self):
        """Under one table, two trees get equal shape ids iff their nested
        AHU encodings are equal, across relabelled and rerooted copies."""
        rng = random.Random(23)
        trees = []
        for seed in range(80):
            tree = random_tree(seed, 2 + seed % 9)
            ids = list(tree.vertices)
            rng.shuffle(ids)
            label = dict(zip(tree.vertices, ids))
            relabelled = RootedTree.from_edges(((label[u], label[v]) for u, v in tree.edges()), root=label[tree.root])
            trees += [tree, relabelled, reroot(tree, rng.choice(tree.vertices))]
        memo: dict = {}
        ids = [pd._shape_ids(tree, memo)[tree.root] for tree in trees]
        codes = [ahu_nested_key(tree) for tree in trees]
        for i in range(len(trees)):
            for j in range(len(trees)):
                assert (ids[i] == ids[j]) == (codes[i] == codes[j]), (i, j)
        assert len(set(codes)) < len(trees) // 2

    def test_every_piece_gets_its_from_scratch_id(self, monkeypatch):
        """Each piece ``_cut`` returns maps exactly the vertices of the same
        piece rebuilt by ``delete_vertices_by_rebuild``, each to the id that
        ``_shape_ids`` interns from scratch in the same table."""
        real = pd._cut
        pieces = 0

        def checked(tree, root, ids, removed, t, memo):
            nonlocal pieces
            out = real(tree, root, ids, removed, t, memo)
            gone = (set(tree.vertices) - ids.keys()) | removed
            rebuilt = delete_vertices_by_rebuild(tree, gone).components
            rebuilt = [c for c in rebuilt if c.root in ids and c.height() >= t - 1]
            assert [r for r, _ in out] == [c.root for c in rebuilt]
            for (_, sub), c in zip(out, rebuilt):
                assert sub == pd._shape_ids(c, memo)
                pieces += 1
            return out

        monkeypatch.setattr(pd, "_cut", checked)
        trees = [line(n) for n in range(2, 41)] + list(relabelled_trees(40, 2300))
        for tree in trees:
            for t in (2, 3, 4):
                if tree.height() >= t - 1:
                    pd._pd_tree(tree, t, {}, None)
        assert pieces > 5000


class TestInheritance:
    def test_pieces_inherit_properly_connected(self):
        """Every component of every vertex-deletion subforest of a
        properly-connected tree is properly-connected, which is why
        pd_recursive checks its input once."""

        def properly_connected(g, t):
            return is_properly_connected(facet_complex(path_ideal(g, t)))[0]

        checked = 0
        for seed in range(120):
            tree = random_tree(seed, 3 + seed % 6)
            vertices = tree.vertices
            for t in (2, 3, 4, 5):
                if not properly_connected(tree, t):
                    continue
                for mask in range((1 << len(vertices)) - 1):
                    removed = {v for i, v in enumerate(vertices) if mask >> i & 1}
                    for piece in component_trees(delete_vertices(tree, removed)):
                        assert properly_connected(piece, t), (seed, t, sorted(removed))
                        checked += 1
        assert checked > 60_000


class TestBettiSplitting:
    def test_leaf_split_line6_t2(self):
        amb = frozenset(range(1, 7))
        J = make_ideal([{5, 6}], ambient=amb)
        K = path_ideal(line(5), 2).with_ambient(amb)
        assert verify_betti_splitting(J, K, QQ)

    def test_disjoint_variables(self):
        J = make_ideal([{1, 2}], ambient={1, 2, 3, 4})
        K = make_ideal([{3, 4}], ambient={1, 2, 3, 4})
        assert verify_betti_splitting(J, K, QQ)
        assert verify_betti_splitting(J, K, gf(2))

    def test_twelve_vertex_leaf_split(self):
        tree = twelve_vertex_tree()
        ideal = path_ideal(tree, 3)
        w = frozenset(leaf_generator(tree, 3))
        J = make_ideal([w], ambient=ideal.ambient)
        K = make_ideal([g for g in ideal.gens if g != w], ambient=ideal.ambient)
        assert verify_betti_splitting(J, K, QQ)

    def test_overlap_rejected(self):
        J = make_ideal([{1, 2}], ambient={1, 2})
        with pytest.raises(ValueError):
            verify_betti_splitting(J, J, QQ)


class TestPdAuto:
    def test_line_uses_closed_form(self):
        report = pd_auto(line(9), 4)
        assert report.value == 3
        assert report.method == "closed-form"

    def test_branching_tree_t3_falls_back(self):
        report = pd_auto(twelve_vertex_tree(), 3)
        assert report.method == "hochster"
        assert report.value == pd_quotient_hochster(path_ideal(twelve_vertex_tree(), 3))
        assert report.notes

    def test_random_tree_recursion_agrees(self):
        tree = random_tree(5, 8)
        report = pd_auto(tree, 2, verify=True)
        assert report.values["recursion"] == report.values["hochster"]

    def test_zero_ideal(self):
        assert pd_auto(line(3), 4).value == 0

    def test_unknown_method_rejected_on_zero_ideal(self):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            pd_auto(line(3), 4, method="bogus")
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            pd_auto(line(5), 2, method="bogus")

    def test_line_rooted_inside_uses_closed_form(self):
        tree = reroot(line(9), 4)
        report = pd_auto(tree, 2, verify=True)
        assert report.method == "closed-form"
        assert report.value == pd_line_closed_form(9, 2)
        assert report.values["closed-form"] == report.values["recursion"] == report.values["hochster"]
        assert pd_auto(tree, 2, method="closed-form").value == report.value

    def test_verify_mode_line(self):
        report = pd_auto(line(8), 3, verify=True)
        assert report.values["closed-form"] == report.values["recursion"] == report.values["hochster"] == 4

    def test_verify_runs_each_route_once(self, monkeypatch):
        calls = []

        def counting(cx):
            calls.append(cx)
            return is_properly_connected(cx)

        monkeypatch.setattr(pd, "is_properly_connected", counting)
        report = pd_auto(random_tree(0, 7), 3, verify=True)
        assert report.method == "hochster"
        assert len(report.notes) == 1 and report.notes[0].startswith("recursion inapplicable")
        assert len(calls) == 1

    def test_verify_catches_a_wrong_first_split(self, monkeypatch):
        """A prescribed first split that drops its off-path vertices gives
        another value, and verify must say so."""
        real = pd._split

        def no_off_path(tree, t, piece, chain=None):
            path, off_path = real(tree, t, piece, chain)
            return (path, set()) if chain is not None else (path, off_path)

        monkeypatch.setattr(pd, "_split", no_off_path)
        assert pd_auto(line(8), 3).value == 4
        with pytest.raises(RuntimeError, match="depends on the split choice"):
            pd_auto(line(8), 3, verify=True)

    def test_verify_evaluates_every_first_split(self, monkeypatch):
        """Every leaf-ending first split is evaluated, also after earlier
        ones left their pieces in the shared memo: a clean run makes all
        six prescribed splits, and a wrong third split of six is caught."""
        tree = twelve_vertex_tree()
        real = pd._split
        prescribed = []
        wrong = set()

        def recording(tree, t, piece, chain=None):
            path, off_path = real(tree, t, piece, chain)
            if chain is not None:
                prescribed.append(chain)
            return (path, set()) if chain in wrong else (path, off_path)

        monkeypatch.setattr(pd, "_split", recording)
        assert pd_auto(tree, 2, verify=True).value == pd_quotient_hochster(path_ideal(tree, 2))
        assert prescribed == [(3, 5), (3, 7), (4, 8), (6, 10), (6, 11), (9, 12)]
        wrong.add((4, 8))
        with pytest.raises(RuntimeError, match=r"depends on the split choice: \(4, 8\)"):
            pd_auto(tree, 2, verify=True)

    def test_verify_over_the_corpus_builds_no_forests(self, monkeypatch):
        """``verify`` re-checks the split choice on the recursion's own
        pieces, so it answers on every corpus pair with ``delete_vertices``
        out of reach."""

        def refuse(g, remove):
            raise AssertionError("verify built a forest")

        monkeypatch.setattr(pd, "delete_vertices", refuse)
        recursed = 0
        for name, tree in corpus_trees():
            for t in (2, 3, 4, 5):
                report = pd_auto(tree, t, verify=True)
                assert report.value == pd_quotient_hochster(path_ideal(tree, t)), (name, t)
                recursed += "recursion" in report.values
        assert recursed > 100

    def test_line_order_only_where_the_closed_form_can_run(self, monkeypatch):
        calls = []

        def counting(ideal):
            calls.append(ideal)
            return line_order(ideal)

        monkeypatch.setattr(pd, "line_order", counting)
        for method in ("recursion", "hochster"):
            assert pd_auto(line(8), 3, method=method).value == 4
        assert calls == []
        assert pd_auto(line(8), 3, method="recursion", verify=True).values["closed-form"] == 4
        assert pd_auto(line(8), 3).method == pd_auto(line(8), 3, method="closed-form").method
        assert len(calls) == 3

    def test_line_order(self):
        assert line_order(path_ideal(line(7), 3)) == (3, list(range(1, 8)))
        assert line_order(path_ideal(twelve_vertex_tree(), 3)) is None
