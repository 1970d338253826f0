"""Bundled corpus: line graphs, a branching 12-vertex example in two
rootings, fixed-seed random trees, and negative-control fixtures."""
from __future__ import annotations

import heapq
import random
from itertools import combinations
from typing import Iterable, Mapping

from .ideals import SquarefreeIdeal, make_ideal
from .simplicial import Complex
from .trees import RootedTree, path_ideal

# the 12-vertex tree used throughout the golden tests, rooted at vertex 1
_TWELVE_EDGES = [
    (1, 2), (1, 3), (2, 4), (4, 8), (4, 9), (9, 12),
    (3, 5), (3, 6), (3, 7), (6, 10), (6, 11),
]


def line(n: int) -> RootedTree:
    """The line graph on vertices 1..n, directed 1 -> 2 -> ... -> n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return RootedTree.from_edges([(i, i + 1) for i in range(1, n)], root=1)


def twelve_vertex_tree() -> RootedTree:
    return RootedTree.from_edges(_TWELVE_EDGES, root=1)


def _orient(adj: Mapping[int, Iterable[int]], root: int) -> RootedTree:
    """Direct every edge of an undirected adjacency away from ``root`` (depth first)."""
    edges = []
    seen = {root}
    queue = [root]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                edges.append((u, v))
                queue.append(v)
    return RootedTree.from_edges(edges, root=root)


def reroot(tree: RootedTree, new_root: int) -> RootedTree:
    """Reorient every edge away from the chosen root."""
    if new_root not in tree.levels:
        raise ValueError(f"unknown vertex {new_root}")
    adj: dict[int, set[int]] = {v: set(tree.children[v]) for v in tree.vertices}
    for child, parent in tree.parent.items():
        adj[child].add(parent)
    return _orient(adj, new_root)


def twelve_vertex_tree_rerooted() -> RootedTree:
    return reroot(twelve_vertex_tree(), 4)


def random_tree(seed: int, n: int) -> RootedTree:
    """Uniform random labeled tree on vertices 1..n (decoded from a random
    parent sequence in Pruefer form), rooted at vertex 1.  Deterministic
    for a fixed seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return RootedTree.from_edges([], root=1)
    rng = random.Random(seed)
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    undirected = []
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        undirected.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    last = sorted(leaves)[:2]
    undirected.append((last[0], last[1]))

    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in undirected:
        adj[u].append(v)
        adj[v].append(u)
    return _orient(adj, 1)


CORPUS_RANDOM_COUNT = 20
CORPUS_LINE_MAX = 13


def corpus_trees() -> list[tuple[str, RootedTree]]:
    """The bundled tree corpus: the 12-vertex example in both rootings, all
    line graphs up to 13 vertices, and 20 fixed-seed random trees."""
    out: list[tuple[str, RootedTree]] = [
        ("T12", twelve_vertex_tree()),
        ("T12@4", twelve_vertex_tree_rerooted()),
    ]
    out.extend((f"L{n}", line(n)) for n in range(2, CORPUS_LINE_MAX + 1))
    for seed in range(1, CORPUS_RANDOM_COUNT + 1):
        n = 5 + seed % 6
        out.append((f"R{seed}(n={n})", random_tree(seed, n)))
    return out


def corpus_ideals(ts: Iterable[int] = (2, 3, 4), skip_zero: bool = False):
    """All (name, tree, t, path ideal) combinations over the corpus."""
    for name, tree in corpus_trees():
        for t in ts:
            ideal = path_ideal(tree, t)
            if skip_zero and ideal.is_zero:
                continue
            yield (f"{name},t={t}", tree, t, ideal)


def triangle_boundary() -> Complex:
    """The hollow triangle: the smallest complex that is not a forest."""
    return Complex(
        frozenset({1, 2, 3}),
        frozenset({frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})}),
    )


# minimal 6-vertex triangulation of the real projective plane: ten
# triangles, every edge in exactly two of them
_RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def projective_plane_complex() -> Complex:
    return Complex(frozenset(range(1, 7)), frozenset(frozenset(f) for f in _RP2_FACETS))


def projective_plane_ideal() -> SquarefreeIdeal:
    """Stanley-Reisner ideal of the 6-vertex projective plane; its Betti
    numbers differ between GF(2) and the rationals."""
    facets = {frozenset(f) for f in _RP2_FACETS}
    nonfaces = [
        frozenset(c) for c in combinations(range(1, 7), 3) if frozenset(c) not in facets
    ]
    return make_ideal(nonfaces, ambient=range(1, 7))


def four_cycle_edge_ideal() -> SquarefreeIdeal:
    """Edge ideal of the 4-cycle; R/I is not sequentially Cohen-Macaulay."""
    return make_ideal(
        [{1, 2}, {2, 3}, {3, 4}, {1, 4}],
        ambient={1, 2, 3, 4},
    )
