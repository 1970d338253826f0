import copy
import random

import pytest

from oracles import delete_vertices_by_rebuild
from pathideal import (
    Forest,
    TreeError,
    delete_vertices,
    enumerate_paths,
    parse_tree,
    path_ideal,
)
from pathideal.corpus import line, random_tree, reroot, twelve_vertex_tree, twelve_vertex_tree_rerooted
from pathideal.pd import splitting_data
from pathideal.trees import RootedTree, format_tree, tree_from_json, tree_to_json


def monomials(paths):
    return {frozenset(p) for p in paths}


class TestParse:
    def test_basic_edges(self):
        tree = parse_tree("1 2\n1 3\n2 4\n")
        assert tree.root == 1
        assert tree.children[1] == (2, 3)
        assert tree.children[2] == (4,)

    def test_comments_and_root_line(self):
        tree = parse_tree("# a comment\nroot 2\n2 1\n2 3\n")
        assert tree.root == 2
        assert tree.n == 3

    def test_single_vertex(self):
        tree = parse_tree("root 7\n")
        assert tree.n == 1 and tree.root == 7 and tree.height() == 0

    def test_cycle(self):
        with pytest.raises(TreeError, match="cycle"):
            parse_tree("1 2\n2 1\n")

    def test_self_loop(self):
        with pytest.raises(TreeError, match="cycle"):
            parse_tree("1 1\n")

    def test_duplicate_edge(self):
        with pytest.raises(TreeError, match="duplicate"):
            parse_tree("1 2\n1 2\n")

    def test_two_parents(self):
        with pytest.raises(TreeError, match="two parents"):
            parse_tree("1 3\n2 3\n")

    def test_multiple_roots(self):
        with pytest.raises(TreeError, match="multiple roots"):
            parse_tree("1 2\n3 4\n")

    def test_disconnected_with_declared_root(self):
        with pytest.raises(TreeError):
            parse_tree("root 1\n1 2\n3 4\n")

    def test_empty(self):
        with pytest.raises(TreeError):
            parse_tree("# nothing\n")

    def test_twelve_vertex_example(self):
        tree = parse_tree(format_tree(twelve_vertex_tree()))
        assert tree == twelve_vertex_tree()
        assert tree.root == 1
        assert sorted(tree.leaves()) == [5, 7, 8, 10, 11, 12]


class TestLevelsHeightLeaves:
    def test_level_of_root(self):
        assert line(5).level(1) == 0

    def test_levels_on_example(self):
        tree = twelve_vertex_tree()
        assert tree.level(12) == 4
        assert tree.height() == 4

    def test_rerooted_levels(self):
        tree = twelve_vertex_tree_rerooted()
        assert tree.root == 4
        assert tree.level(10) == 5
        assert tree.height() == 5

    def test_unknown_vertex(self):
        with pytest.raises(TreeError, match="unknown"):
            line(3).level(99)

    def test_height_single_vertex(self):
        assert line(1).height() == 0

    def test_leaves_line(self):
        assert sorted(line(6).leaves()) == [1, 6]

    def test_leaves_two_vertices(self):
        assert sorted(line(2).leaves()) == [1, 2]

    def test_leaves_single_vertex_rejected(self):
        with pytest.raises(TreeError):
            line(1).leaves()


class TestPaths:
    def test_twelve_vertex_t3(self):
        paths = enumerate_paths(twelve_vertex_tree(), 3)
        assert monomials(paths) == {
            frozenset(s)
            for s in [
                {1, 2, 4}, {2, 4, 8}, {2, 4, 9}, {4, 9, 12},
                {1, 3, 5}, {1, 3, 6}, {1, 3, 7}, {3, 6, 10}, {3, 6, 11},
            ]
        }
        # canonical order: sorted by end vertex
        assert [p[-1] for p in paths] == sorted(p[-1] for p in paths)

    def test_rerooted_t3(self):
        paths = enumerate_paths(twelve_vertex_tree_rerooted(), 3)
        assert monomials(paths) == {
            frozenset(s)
            for s in [
                {4, 9, 12}, {4, 2, 1}, {2, 1, 3}, {1, 3, 5},
                {1, 3, 6}, {1, 3, 7}, {3, 6, 10}, {3, 6, 11},
            ]
        }

    def test_too_short_line(self):
        assert enumerate_paths(line(5), 6) == []

    def test_t_below_two_rejected(self):
        with pytest.raises(ValueError):
            enumerate_paths(line(5), 1)

    def test_path_count_formula(self):
        for tree in (twelve_vertex_tree(), line(9)):
            for t in (2, 3, 4):
                expect = sum(1 for v in tree.vertices if tree.level(v) >= t - 1)
                assert len(enumerate_paths(tree, t)) == expect

    def test_paths_step_one_level(self):
        tree = twelve_vertex_tree()
        for p in enumerate_paths(tree, 4):
            levels = [tree.level(v) for v in p]
            assert levels == list(range(levels[0], levels[0] + 4))


class TestPathIdeal:
    def test_principal_when_n_equals_t(self):
        ideal = path_ideal(line(4), 4)
        assert ideal.gens == frozenset({frozenset({1, 2, 3, 4})})

    def test_twelve_vertex_has_nine_generators(self):
        assert len(path_ideal(twelve_vertex_tree(), 3).gens) == 9

    def test_forest_union(self):
        forest = delete_vertices(line(7), {4})
        ideal = path_ideal(forest, 2)
        assert len(ideal.gens) == 4
        assert ideal.ambient == frozenset({1, 2, 3, 5, 6, 7})

    def test_zero_ideal(self):
        assert path_ideal(line(3), 4).is_zero


class TestDeleteVertices:
    def test_delete_last(self):
        forest = delete_vertices(line(8), {8})
        assert len(forest.components) == 1
        assert forest.components[0] == line(7)

    def test_delete_middle(self):
        forest = delete_vertices(line(8), {4})
        sizes = sorted(c.n for c in forest.components)
        assert sizes == [3, 4]
        roots = sorted(c.root for c in forest.components)
        assert roots == [1, 5]

    def test_delete_zone(self):
        # removing the top t+1 vertices of the line leaves a shorter line
        n, t = 9, 3
        forest = delete_vertices(line(n), set(range(n - t, n + 1)))
        assert len(forest.components) == 1
        assert forest.components[0] == line(n - t - 1)

    def test_everything_deleted(self):
        forest = delete_vertices(line(3), {1, 2, 3})
        assert forest.is_empty

    def test_parent_relation_preserved(self):
        tree = twelve_vertex_tree()
        forest = delete_vertices(tree, {2})
        for comp in forest.components:
            for child, parent in comp.parent.items():
                assert tree.parent[child] == parent

    def test_restriction_matches_the_rebuild(self):
        """Every field of every component, and the component order, agree
        with rebuilding each component through from_edges, on trees and on
        multi-component forests."""
        rng = random.Random(17)
        forests = 0
        for seed in range(400):
            tree = random_tree(seed, rng.randint(2, 16))
            g = reroot(tree, rng.choice(tree.vertices)) if seed % 2 else tree
            if seed % 3 == 0:
                g = delete_vertices_by_rebuild(g, rng.sample(g.vertices, rng.randint(1, min(3, g.n - 1))))
                forests += len(g.components) > 1
            for _ in range(3):
                gone = rng.sample(g.vertices, rng.randint(0, len(g.vertices)))
                assert delete_vertices(g, gone) == delete_vertices_by_rebuild(g, gone), (seed, gone)
        assert forests > 50

    @staticmethod
    def patched_like_the_rebuild(g, gone):
        """The result equals the rebuild's, and the input keeps every map
        it had: a component either is an input tree, untouched, or shares
        no map with one."""
        before = copy.deepcopy(g)
        forest = delete_vertices(g, gone)
        assert forest == delete_vertices_by_rebuild(g, gone)
        assert g == before
        inputs = (g,) if isinstance(g, RootedTree) else g.components
        for comp in forest.components:
            for tree in inputs:
                if comp is not tree:
                    for name in ("parent", "children", "levels"):
                        assert getattr(comp, name) is not getattr(tree, name), name
        return forest

    # root 1 with a side branch 10 -> 11, and the chain 2 -> 3 -> 4 -> 5 whose
    # vertices 2 and 3 carry subtrees at 20 and 30 and 4 a second leaf 6
    BRANCHED = RootedTree.from_edges(
        [(1, 2), (1, 10), (10, 11), (2, 3), (2, 20), (20, 21), (20, 22), (3, 4), (3, 30), (30, 31), (4, 5), (4, 6)]
    )

    def test_the_root(self):
        forest = self.patched_like_the_rebuild(self.BRANCHED, {1})
        assert [c.root for c in forest.components] == [2, 10]
        assert forest.components[0].levels[5] == 3

    def test_a_root_with_one_child(self):
        forest = self.patched_like_the_rebuild(line(6), {1})
        assert forest.components[0] == RootedTree.from_edges([(i, i + 1) for i in range(2, 6)])
        tree = RootedTree.from_edges([(7, 1), (1, 2), (1, 3), (3, 4)])
        assert [c.root for c in self.patched_like_the_rebuild(tree, {7}).components] == [1]

    def test_a_deepest_leaf(self):
        forest = self.patched_like_the_rebuild(self.BRANCHED, {5})
        assert forest.components[0].children[4] == (6,)
        self.patched_like_the_rebuild(line(9), {9})

    def test_a_split_zone_that_cuts_off_several_subtrees(self):
        sd = splitting_data(self.BRANCHED, 3, (3, 4, 5))
        assert sd.removed == {2, 3, 4, 5, 6}
        forest = self.patched_like_the_rebuild(self.BRANCHED, sd.removed)
        assert [c.vertices for c in forest.components] == [(1, 10, 11), (20, 21, 22), (30, 31)]
        assert forest.components[0].children[1] == (10,)
        assert forest.components[1].levels == {20: 0, 21: 1, 22: 1}
        assert sd.minus_zone == forest

    def test_an_absent_vertex(self):
        forest = self.patched_like_the_rebuild(self.BRANCHED, {999})
        assert forest.components == (self.BRANCHED,)
        self.patched_like_the_rebuild(self.BRANCHED, {5, 999})

    def test_every_vertex(self):
        assert self.patched_like_the_rebuild(self.BRANCHED, self.BRANCHED.vertices).is_empty
        assert self.patched_like_the_rebuild(line(1), {1}).is_empty

    def test_vertices_of_a_forest(self):
        g = delete_vertices_by_rebuild(self.BRANCHED, {3})
        forest = self.patched_like_the_rebuild(g, {2, 30, 5})
        assert [c.root for c in forest.components] == [1, 4, 20, 31]
        self.patched_like_the_rebuild(g, {4, 999})
        self.patched_like_the_rebuild(g, g.vertices)

    def test_forest_disjointness_enforced(self):
        with pytest.raises(TreeError):
            Forest((line(3), line(4)))


class TestSerialization:
    def test_json_roundtrip(self):
        for tree in (line(6), twelve_vertex_tree(), twelve_vertex_tree_rerooted()):
            assert tree_from_json(tree_to_json(tree)) == tree

    def test_file_roundtrip(self):
        for tree in (line(6), twelve_vertex_tree_rerooted()):
            assert parse_tree(format_tree(tree)) == tree
