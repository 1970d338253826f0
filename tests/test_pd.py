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
    verify_intersection_lemma,
    QQ,
    gf,
)
from pathideal import pd
from pathideal.corpus import corpus_trees, line, random_tree, reroot, twelve_vertex_tree
from pathideal.pd import line_order
from pathideal.simplicial import facet_complex, is_properly_connected
from pathideal.trees import RootedTree, enumerate_paths


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
        assert sd.path == (n - 2, n - 1, n)
        assert sd.facet == frozenset(sd.path)
        assert sd.off_path == frozenset({n - t})
        assert sd.removed == frozenset(range(n - t, n + 1))
        assert sd.vertices == frozenset(range(1, n + 1))

    def test_line_principal(self):
        sd = splitting_data(line(3), 3)
        assert sd.off_path == frozenset()
        assert sd.off_path_count == 0
        assert sd.removed == frozenset({1, 2, 3})

    def test_twelve_vertex(self):
        # facets sharing two vertices with {4,9,12}: only {2,4,9}
        sd = splitting_data(twelve_vertex_tree(), 3)
        assert sd.path == (4, 9, 12)
        assert sd.off_path == frozenset({2})
        assert sd.removed == frozenset({2, 4, 9, 12})

    def test_non_leaf_path_rejected(self):
        with pytest.raises(ValueError):
            splitting_data(line(8), 3, (1, 2, 3))

    def test_the_leaf_is_the_lowest_vertex(self):
        """A path given bottom-up splits at its lowest vertex, never at a
        root with one child, and a chain whose lowest vertex has children
        is refused in either order."""
        tree = RootedTree.from_edges([(1, 2), (2, 3), (2, 4)])
        sd = splitting_data(tree, 3, (3, 2, 1))
        assert sd.path == (1, 2, 3)
        assert sd.off_path == frozenset({4})
        assert verify_intersection_lemma(path_ideal(tree, 3), sd)
        for order in ((3, 2, 1), (1, 2, 3)):
            with pytest.raises(ValueError, match="leaf"):
                splitting_data(line(5), 3, order)

    def test_off_path_matches_the_scan_of_all_paths(self):
        """off_path is every vertex outside the split facet of every facet
        sharing t-1 vertices with it, for the path in either order."""
        for seed in range(60):
            tree = random_tree(seed, 3 + seed % 10)
            for t in (2, 3, 4, 5):
                facets = [frozenset(p) for p in enumerate_paths(tree, t)]
                for p in enumerate_paths(tree, t):
                    if tree.children[p[-1]]:
                        continue
                    facet = frozenset(p)
                    expected = frozenset().union(
                        *(G - facet for G in facets if G != facet and len(G & facet) == t - 1)
                    )
                    for order in (p, p[::-1]):
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

    def test_forest_fails_before_any_split(self):
        """A line of six with the twelve-vertex tree hung below its end: the
        line could be split first, but the whole tree is refused before
        any split is taken."""
        twelve = twelve_vertex_tree()
        edges = [(i, i + 1) for i in range(1, 6)] + [(6, 100 + twelve.root)]
        edges += [(u + 100, v + 100) for u, v in twelve.edges()]
        trace = []
        with pytest.raises(NotProperlyConnectedError):
            pd_recursive(RootedTree.from_edges(edges, root=1), 3, trace=trace)
        assert trace == []

    def test_edge_case_always_applies(self):
        tree = twelve_vertex_tree()
        assert pd_recursive(tree, 2) == pd_quotient_hochster(path_ideal(tree, 2))

    def test_forest_additivity(self):
        # two separated segments of the line: quotient pds add
        pieces = delete_vertices_by_rebuild(line(9), {4})
        expected = pd_line_closed_form(3, 2) + pd_line_closed_form(5, 2)
        assert sum(pd_recursive(piece, 2) for piece in pieces) == expected
        union = make_ideal(
            [g for piece in pieces for g in path_ideal(piece, 2).gens],
            ambient=[v for piece in pieces for v in piece.vertices],
        )
        assert pd_quotient_hochster(union) == expected

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
        """One memo serves every piece, so the trace splits no two pieces
        of one rooted shape: isomorphic components of the cuts, here the
        two arms of the root, are split once."""
        arms = [(1, 2), (1, 102)] + [(i, i + 1) for i in (*range(2, 6), *range(102, 106))]
        trees = [RootedTree.from_edges(arms)] + [tree for _, tree in corpus_trees()]
        splits = 0
        for tree in trees:
            for t in (2, 3, 4):
                trace = []
                try:
                    pd_recursive(tree, t, trace=trace)
                except NotProperlyConnectedError:
                    continue
                shapes = []
                for step in trace:
                    (piece,) = delete_vertices_by_rebuild(tree, set(tree.vertices) - step.vertices)
                    shapes.append(ahu_nested_key(piece))
                assert len(set(shapes)) == len(shapes), (tree.vertices, t)
                splits += len(trace)
        assert splits > 400

    def test_a_map_is_built_only_for_a_piece_that_is_split(self, monkeypatch):
        """Sub-pieces wait on the stack unbuilt, and a memo hit builds
        nothing, so every split but the first builds exactly one id map:
        on lines, where each piece less its zone is a hit, and on the
        benchmark's bushy shapes."""
        real = pd._build
        built = 0

        def counting(*args):
            nonlocal built
            built += 1
            return real(*args)

        monkeypatch.setattr(pd, "_build", counting)
        shapes = [(line(n), t) for n in range(2, 70) for t in (2, 3, 4, 5) if n >= t]
        shapes += [(random_tree(s, n), 2) for s, n in ((4000, 40), (5002, 50), (6001, 60))]
        for tree, t in shapes:
            built, trace = 0, []
            pd_recursive(tree, t, trace=trace)
            assert built == len(trace) - 1, (tree.n, t)

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

    def test_pieces_are_cut_without_building_forests(self):
        """The recursion cuts its pieces as id maps over the input tree and
        gives the values of the recursion over rebuilt pieces."""
        answered = 0
        expected = {}
        for name, tree in corpus_trees():
            for t in (2, 3, 4):
                try:
                    expected[name, t] = pd_trace_by_rebuild(tree, t)[0]
                except ValueError:
                    pass
        for n in range(2, 40):
            for t in (2, 3, 4):
                assert pd_recursive(line(n), t) == pd_line_closed_form(n, t)
        for name, tree in corpus_trees():
            for t in (2, 3, 4):
                if (name, t) in expected:
                    assert pd_recursive(tree, t) == expected[name, t], (name, t)
                    answered += 1
        assert answered > 60


class TestRecursionOracle:
    """Values and split traces equal the recursion that rebuilds every
    piece and keys it by its nested encoding, and both refuse the same
    inputs."""

    @staticmethod
    def agrees(tree, t):
        try:
            expected = pd_trace_by_rebuild(tree, t)
        except ValueError:
            with pytest.raises(NotProperlyConnectedError):
                pd_recursive(tree, t)
            return False
        trace = []
        value = pd_recursive(tree, t, trace=trace)
        assert (value, [(s.vertices, s.path, s.off_path) for s in trace]) == expected, (tree.vertices, t)
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
        """Each component of random and rerooted trees less one to three
        vertices."""
        rng = random.Random(29)
        checked = forests = 0
        for seed in range(150):
            tree = random_tree(seed, rng.randint(4, 30))
            g = reroot(tree, rng.choice(tree.vertices)) if seed % 2 else tree
            pieces = delete_vertices_by_rebuild(g, rng.sample(g.vertices, rng.randint(1, 3)))
            forests += len(pieces) > 1
            for t in (2, 3, 4):
                checked += sum(self.agrees(piece, t) for piece in pieces)
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

    @staticmethod
    def rebuilt(tree, ids, gone, root):
        """The piece at ``root`` of the piece ``ids`` less ``gone``, rebuilt
        by ``delete_vertices_by_rebuild``."""
        outside = set(tree.vertices) - ids.keys()
        (piece,) = [c for c in delete_vertices_by_rebuild(tree, outside | set(gone)) if c.root == root]
        return piece

    @staticmethod
    def subtree(tree, ids, v):
        """The vertices of the piece ``ids`` at or below ``v``."""
        below, stack = set(), [v]
        while stack:
            u = stack.pop()
            below.add(u)
            stack.extend(c for c in tree.children[u] if c in ids)
        return below

    def checked_cuts(self, monkeypatch, check, count=40):
        """Run the recursion on lines and ``count`` relabelled random trees with
        ``_walk`` and ``_build`` wrapped.  Each piece they cut from a piece
        ``ids`` is rebuilt by ``delete_vertices_by_rebuild`` and handed to
        ``check(piece, got, memo)`` with ``got``, the ids they gave its
        vertices: the leaf's ancestors and the zone's root for ``_walk``,
        every vertex for ``_build``.  Neither may touch ``ids``.  Returns
        the number of pieces checked."""
        real_walk, real_build = pd._walk, pd._build
        seen = 0

        def walk(tree, ids, leaf, high, memo):
            nonlocal seen
            before = dict(ids)
            pairs, zone_key = real_walk(tree, ids, leaf, high, memo)
            assert ids == before
            up = [tree.parent[leaf]]
            while tree.parent.get(up[-1]) in ids:
                up.append(tree.parent[up[-1]])
            assert [u for u, _ in pairs] == up
            root = up[-1]
            check(self.rebuilt(tree, ids, {leaf}, root), dict(pairs), memo)
            assert (zone_key is None) == (high == root)
            if zone_key is not None:
                check(self.rebuilt(tree, ids, self.subtree(tree, ids, high), root), {root: zone_key}, memo)
            seen += 1 + (zone_key is not None)
            return pairs, zone_key

        def build(tree, ids, root, high, pairs, memo):
            nonlocal seen
            before = dict(ids)
            sub = real_build(tree, ids, root, high, pairs, memo)
            assert ids == before
            gone = {high} if tree.parent.get(root) == high else self.subtree(tree, ids, high)
            piece = self.rebuilt(tree, ids, gone, root)
            assert sub.keys() == set(piece.vertices)
            check(piece, sub, memo)
            seen += 1
            return sub

        monkeypatch.setattr(pd, "_walk", walk)
        monkeypatch.setattr(pd, "_build", build)
        trees = [line(n) for n in range(2, 41)] + list(relabelled_trees(count, 2300))
        for tree in trees:
            for t in (2, 3, 4):
                if tree.height() >= t - 1:
                    pd._pd_tree(tree, t, {}, None)
        return seen

    def test_every_piece_gets_its_from_scratch_id(self, monkeypatch):
        """Each piece cut in the recursion, by ``_walk`` as the ids of the
        ancestors of the leaf and the key of the zone's root component, and
        by ``_build`` as an id map, has the ids that ``_shape_ids`` interns
        from scratch in the same table for the same piece rebuilt by
        ``delete_vertices_by_rebuild``."""

        def check(piece, got, memo):
            want = pd._shape_ids(piece, memo)
            assert got == {u: want[u] for u in got}

        assert self.checked_cuts(monkeypatch, check) > 5000

    def test_every_interned_height_is_the_rebuilt_height(self, monkeypatch):
        """The height recorded with each shape id of a piece cut in the
        recursion is the height of that vertex's subtree in the rebuilt
        piece."""

        def check(piece, got, memo):
            height = {}
            for v in sorted(piece.vertices, key=piece.levels.__getitem__, reverse=True):
                height[v] = max((height[c] + 1 for c in piece.children[v]), default=0)
            heights = memo[pd._HEIGHTS]
            assert {u: heights[i] for u, i in got.items()} == {u: height[u] for u in got}

        assert self.checked_cuts(monkeypatch, check, count=10) > 5000


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
                    for piece in delete_vertices_by_rebuild(tree, removed):
                        assert properly_connected(piece, t), (seed, t, sorted(removed))
                        checked += 1
        assert checked > 60_000


class TestIntersectionLemma:
    @staticmethod
    def pairs():
        """Every corpus tree and ``random_tree(s, 3 + s % 14)``, s < 300, at
        t = 2..5, with its path ideal and default leaf split, where the
        ideal is not zero."""
        trees = [tree for _, tree in corpus_trees()] + [random_tree(s, 3 + s % 14) for s in range(300)]
        for tree in trees:
            for t in (2, 3, 4, 5):
                ideal = path_ideal(tree, t)
                if not ideal.is_zero:
                    yield tree, t, ideal, splitting_data(tree, t)

    def test_avoiding_generators_are_the_path_ideals_of_the_pieces(self):
        """I_t(T - S) is read as the generators of I_t(T) that avoid S: for
        S the leaf and the removed zone, they are the generators of the
        path ideals of the components left by deleting S."""
        checked = 0
        for tree, t, ideal, sd in self.pairs():
            for gone in ({sd.path[-1]}, sd.removed):
                pieces = delete_vertices_by_rebuild(tree, gone)
                expected = set().union(*(path_ideal(piece, t).gens for piece in pieces))
                assert {g for g in ideal.gens if not g & gone} == expected, (tree.vertices, t, gone)
            checked += 1
        assert checked > 1000

    def test_an_off_path_vertex_dropped_breaks_it(self):
        """Negative control: with any one off-path vertex dropped, the
        lemma no longer holds."""
        dropped = 0
        for tree, t, ideal, sd in self.pairs():
            if is_properly_connected(facet_complex(ideal))[0]:
                assert verify_intersection_lemma(ideal, sd), (tree.vertices, t)
            for y in sd.off_path:
                wrong = dataclasses.replace(sd, off_path=sd.off_path - {y})
                assert not verify_intersection_lemma(ideal, wrong), (tree.vertices, t, y)
                dropped += 1
        assert dropped > 1000


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

    def test_verify_over_the_corpus_builds_no_forests(self):
        """``verify`` re-checks the split choice on the recursion's own
        pieces, and answers with the Hochster value on every corpus pair."""
        recursed = 0
        for name, tree in corpus_trees():
            for t in (2, 3, 4, 5):
                report = pd_auto(tree, t, verify=True)
                assert report.value == pd_quotient_hochster(path_ideal(tree, t)), (name, t)
                recursed += "recursion" in report.values
        assert recursed > 100

    def test_the_path_ideal_is_built_once(self, monkeypatch):
        """The recursion's precondition check reads the ideal ``pd_auto``
        already built."""
        tree = random_tree(3, 12)
        expected = pd_recursive(tree, 2)
        calls = []
        real = pd.path_ideal

        def counting(tree, t):
            calls.append(t)
            return real(tree, t)

        monkeypatch.setattr(pd, "path_ideal", counting)
        for method in ("recursion", "auto"):
            calls.clear()
            report = pd_auto(tree, 2, method=method)
            assert (report.method, report.value, calls) == ("recursion", expected, [2])

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
