import random

import pytest

from oracles import delete_vertices_by_rebuild
from pathideal import (
    TreeError,
    enumerate_paths,
    parse_tree,
    path_ideal,
)
from pathideal import pd
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
        """The paths of the forest left by deleting a vertex are the paths
        of the tree that avoid it."""
        pieces = delete_vertices_by_rebuild(line(7), {4})
        gens = set().union(*(path_ideal(piece, 2).gens for piece in pieces))
        assert len(gens) == 4
        assert gens == {g for g in path_ideal(line(7), 2).gens if 4 not in g}

    def test_zero_ideal(self):
        assert path_ideal(line(3), 4).is_zero


class TestDeleteVertices:
    """Vertex deletion as the pd recursion does it: ``pd._build`` cuts a
    piece of a tree, given as its root and its vertices' shape ids, at a
    vertex v, either into the subtree at a child of v or into the piece
    less the subtree at v.  Deleting a vertex set is those cuts made at its
    vertices from the top down.  Each component with an edge that is left
    must be the one ``delete_vertices_by_rebuild`` rebuilds, under the ids
    ``_shape_ids`` interns for it from scratch and with the heights of its
    shapes, and each piece's ids must stay as they were, since the
    recursion cuts a piece several times."""

    @staticmethod
    def cut(tree, gone, piece=None):
        """The vertex sets that cutting ``piece`` (default: all of ``tree``)
        at the vertices of ``gone`` leaves, checked against the rebuild."""
        outside = set(tree.vertices) - set(piece or tree.vertices)
        (whole,) = delete_vertices_by_rebuild(tree, outside)
        memo: dict = {}
        pieces = {whole.root: pd._shape_ids(whole, memo)}
        for v in sorted(gone, key=tree.levels.__getitem__):
            (root,) = [r for r, ids in pieces.items() if v in ids]
            ids = pieces.pop(root)
            before = dict(ids)
            pieces.update((c, pd._build(tree, ids, c, v, None, memo)) for c in tree.children[v] if c in ids)
            if root != v:
                pieces[root] = pd._build(tree, ids, root, v, None, memo)
            assert ids == before
        heights = memo[pd._HEIGHTS]
        out = sorted((r, sub) for r, sub in pieces.items() if heights[sub[r]] >= 1)
        rebuilt = [c for c in delete_vertices_by_rebuild(tree, outside | set(gone)) if c.height() >= 1]
        assert [r for r, _ in out] == [c.root for c in rebuilt]
        for (_, sub), c in zip(out, rebuilt):
            assert sub == pd._shape_ids(c, memo)
            assert heights[sub[c.root]] == c.height()
        return [tuple(sorted(sub)) for _, sub in out]

    def test_delete_last(self):
        assert self.cut(line(8), {8}) == [tuple(range(1, 8))]

    def test_delete_middle(self):
        assert self.cut(line(8), {4}) == [(1, 2, 3), (5, 6, 7, 8)]

    def test_delete_zone(self):
        # removing the top t+1 vertices of the line leaves a shorter line
        n, t = 9, 3
        assert self.cut(line(n), set(range(n - t, n + 1))) == [tuple(range(1, n - t))]

    def test_everything_deleted(self):
        assert self.cut(line(3), {1, 2, 3}) == []

    def test_parent_relation_preserved(self):
        """Each piece holds the tree parent of every vertex but its root."""
        tree = twelve_vertex_tree()
        pieces = self.cut(tree, {2})
        assert len(pieces) == 2
        for piece in pieces:
            assert sum(tree.parent.get(v) not in piece for v in piece) == 1

    def test_restriction_matches_the_rebuild(self):
        """Random vertex sets deleted from random and rerooted trees, and
        from pieces of them left by an earlier deletion."""
        rng = random.Random(17)
        pieces = 0
        for seed in range(400):
            tree = random_tree(seed, rng.randint(2, 16))
            g = reroot(tree, rng.choice(tree.vertices)) if seed % 2 else tree
            piece = g.vertices
            if seed % 3 == 0:
                rest = delete_vertices_by_rebuild(g, rng.sample(g.vertices, rng.randint(1, min(3, g.n - 1))))
                piece = max(rest, key=lambda c: c.n).vertices
                pieces += len(piece) < g.n
            for _ in range(3):
                self.cut(g, rng.sample(piece, rng.randint(0, len(piece))), piece)
        assert pieces > 100

    # root 1 with a side branch 10 -> 11, and the chain 2 -> 3 -> 4 -> 5 whose
    # vertices 2 and 3 carry subtrees at 20 and 30 and 4 a second leaf 6
    BRANCHED = RootedTree.from_edges(
        [(1, 2), (1, 10), (10, 11), (2, 3), (2, 20), (20, 21), (20, 22), (3, 4), (3, 30), (30, 31), (4, 5), (4, 6)]
    )

    def test_the_root(self):
        assert self.cut(self.BRANCHED, {1}) == [(2, 3, 4, 5, 6, 20, 21, 22, 30, 31), (10, 11)]

    def test_a_root_with_one_child(self):
        assert self.cut(line(6), {1}) == [(2, 3, 4, 5, 6)]
        tree = RootedTree.from_edges([(7, 1), (1, 2), (1, 3), (3, 4)])
        assert self.cut(tree, {7}) == [(1, 2, 3, 4)]

    def test_a_deepest_leaf(self):
        assert self.cut(self.BRANCHED, {5}) == [tuple(v for v in self.BRANCHED.vertices if v != 5)]
        assert self.cut(line(9), {9}) == [tuple(range(1, 9))]

    def test_a_split_zone_that_cuts_off_several_subtrees(self):
        sd = splitting_data(self.BRANCHED, 3, (3, 4, 5))
        assert sd.removed == {2, 3, 4, 5, 6}
        assert self.cut(self.BRANCHED, sd.removed) == [(1, 10, 11), (20, 21, 22), (30, 31)]

    def test_every_vertex(self):
        assert self.cut(self.BRANCHED, self.BRANCHED.vertices) == []
        assert self.cut(line(1), {1}) == []

    def test_vertices_of_a_forest(self):
        """Deletions from the pieces left by deleting 3."""
        top = (1, 2, 10, 11, 20, 21, 22)
        assert self.cut(self.BRANCHED, {2}, top) == [(1, 10, 11), (20, 21, 22)]
        assert self.cut(self.BRANCHED, {5}, (4, 5, 6)) == [(4, 6)]
        assert self.cut(self.BRANCHED, top, top) == []


class TestSerialization:
    def test_json_roundtrip(self):
        for tree in (line(6), twelve_vertex_tree(), twelve_vertex_tree_rerooted()):
            assert tree_from_json(tree_to_json(tree)) == tree

    def test_file_roundtrip(self):
        for tree in (line(6), twelve_vertex_tree_rerooted()):
            assert parse_tree(format_tree(tree)) == tree
