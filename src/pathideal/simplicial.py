"""Simplicial complexes in facet representation.

Covers leaf detection, the simplicial-forest/tree test (every nonempty
subcollection of facets has a leaf), leaf orders, proper chain distance,
and the properly-connected test for pure complexes.  Both leaf questions
are decided greedily in polynomial time: forests are the complexes whose
facets form a beta-acyclic hypergraph (Herzog-Hibi-Trung-Zheng 2008), and
complexes with a leaf order are the quasi-forests (Herzog-Hibi-Zheng 2004).

Proper chains look only at the facets near the one they start from.  Two
facets of size d are neighbours when they share d-1 vertices; every facet
is filed under each of its d maximal proper subsets, so one dict finds all
neighbours in O(q*d) work for q facets.  The properly-connected test
judges only intersecting pairs, whose chains need at most d-1 steps, so
each search stops at depth d-1 and never leaves the facets that meet its
source.

The complex with no facets at all is the empty complex; by convention it
is connected and a simplicial tree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable

from .ideals import SquarefreeIdeal, hypergraph_components


@dataclass(frozen=True)
class Complex:
    ambient: frozenset
    facets: frozenset

    def __post_init__(self):
        for f in self.facets:
            if not f <= self.ambient:
                raise ValueError(f"facet {sorted(f)} lies outside the ambient universe")
        if len(_maximal_sets(self.facets)) != len(self.facets):
            raise ValueError("facets must form an antichain")

    @property
    def is_void(self) -> bool:
        return not self.facets

    def sorted_facets(self) -> list[frozenset]:
        return sorted(self.facets, key=lambda f: (len(f), sorted(f)))


def _maximal_sets(sets) -> list[frozenset]:
    """The maximal ones among distinct frozensets.  Distinct sets of one
    size never contain each other, so each set is compared only with the
    larger sets kept so far, and only with those through its rarest vertex;
    the empty set, coming last, lies in any of them."""
    kept: list[frozenset] = []
    through: dict = {}  # vertex -> the kept sets containing it
    indexed = 0
    for _, group in groupby(sorted(sets, key=len, reverse=True), key=len):
        if not kept:
            kept.extend(group)
            continue
        for g in kept[indexed:]:
            for v in g:
                through.setdefault(v, []).append(g)
        indexed = len(kept)
        kept.extend([
            f for f in group
            if f and not any(f <= g for g in min([through.get(v, ()) for v in f], key=len))
        ])
    return kept


def make_complex(faces: Iterable[Iterable[int]], ambient: Iterable[int] | None = None) -> Complex:
    """Build a complex from a face collection, keeping the maximal ones."""
    facets = _maximal_sets({frozenset(f) for f in faces})
    amb = frozenset().union(*facets) if ambient is None else frozenset(ambient)
    return Complex(amb, frozenset(facets))


def facet_complex(ideal: SquarefreeIdeal) -> Complex:
    """Facets are the supports of the minimal generators."""
    return Complex(ideal.ambient, ideal.gens)


def is_pure(cx: Complex) -> bool:
    return len({len(f) for f in cx.facets}) <= 1


def is_connected(cx: Complex) -> bool:
    """Connected through chains of facets with nonempty intersections."""
    return len(hypergraph_components(cx.facets)) <= 1


def _branch(F: frozenset, others) -> frozenset | None:
    """The first G among ``others`` with F & F' <= F & G for every F' in
    ``others``, or None.  F is a leaf beside ``others`` iff G exists."""
    needed = frozenset().union(*(F & G for G in others))
    return next((G for G in others if needed <= G), None)


def is_leaf(cx: Complex, facet: Iterable[int]) -> tuple[bool, object]:
    """Whether ``facet`` is a leaf: either the only facet, or it has a joint
    witness G != F with F & F' <= F & G for every other facet F'.

    Returns (True, witness) or (False, (best_candidate, violating_facet)).
    """
    F = frozenset(facet)
    if F not in cx.facets:
        raise ValueError(f"{sorted(F)} is not a facet")
    others = [G for G in cx.sorted_facets() if G != F]
    if not others:
        return True, None
    ranked = sorted(others, key=lambda g: (-len(F & g), sorted(g)))
    G = _branch(F, ranked)
    if G is not None:
        return True, G
    violator = next(Fp for Fp in others if not (F & Fp <= F & ranked[0]))
    return False, (ranked[0], violator)


def _eliminates_nest_points(facets: Iterable[frozenset]) -> bool:
    """Whether deleting nest points empties every facet.  A nest point is a
    vertex whose facets, restricted to the vertices left, form a chain under
    inclusion.  It stays one as other vertices go, and v can become one only
    when a vertex sharing a facet with v goes, so a worklist suffices."""
    rest = [set(f) for f in facets]
    holders: dict = {}
    for i, f in enumerate(rest):
        for v in f:
            holders.setdefault(v, []).append(i)
    todo = list(holders)
    while todo:
        v = todo.pop()
        if v not in holders:
            continue
        chain = sorted((rest[i] for i in holders[v]), key=len)
        if all(a <= b for a, b in zip(chain, chain[1:])):
            del holders[v]
            for f in chain:
                f.discard(v)
                todo.extend(f)
    return not holders


def is_simplicial_forest(cx: Complex) -> tuple[bool, tuple | None]:
    """Forest test: every nonempty subcollection of facets has a leaf.  That
    holds iff there is no special cycle of length >= 3 (Herzog-Hibi-Trung-
    Zheng 2008, Trans. AMS 360), iff the facets form a beta-acyclic
    hypergraph, iff deleting nest points deletes every vertex (Duris 2012).

    On failure returns a leafless subcollection S: each facet is dropped in
    turn and kept out if the rest still fails.  So S - F is a forest for
    every F in S, and a leafless subcollection of S must be S itself."""
    facets = cx.sorted_facets()
    if _eliminates_nest_points(facets):
        return True, None
    for F in cx.sorted_facets():
        rest = [G for G in facets if G != F]
        if not _eliminates_nest_points(rest):
            facets = rest
    return False, tuple(facets)


def is_simplicial_tree(cx: Complex) -> tuple[bool, tuple | None]:
    """Forest test plus connectedness.  The empty complex counts as a tree."""
    if cx.is_void:
        return True, None
    if not is_connected(cx):
        return False, None
    return is_simplicial_forest(cx)


def has_leaf_order(cx: Complex) -> bool:
    """Whether the facets admit an order F_1,...,F_q with F_i a leaf of
    <F_i,...,F_q>, that is, whether the complex is a quasi-forest: the
    clique complex of a chordal graph (Herzog-Hibi-Zheng 2004).

    Removing any leaf F, with branch G, keeps that: the vertices of F - G
    lie in no other facet, so the rest is the clique complex of an induced,
    hence chordal, subgraph.  Only facets meeting F can be its branch (any
    is, if none meets F) or change status when F goes; only they are
    examined again."""
    holders: dict = {}
    for F in cx.facets:
        for v in F:
            holders.setdefault(v, set()).add(F)
    active = set(cx.facets)
    todo = cx.sorted_facets()
    while len(active) > 1 and todo:
        F = todo.pop()
        near = {G for v in F for G in holders[v] if G != F}
        if F in active and (not near or _branch(F, near) is not None):
            active.remove(F)
            for v in F:
                holders[v].remove(F)
            todo.extend(near)
    return len(active) <= 1


def _proper_neighbours(facets: Iterable[frozenset]) -> dict:
    """Each facet's proper-chain neighbours: the facets of its size that
    share all but one of its vertices.  Every facet is filed under each of
    its maximal proper subsets, so neighbours are the facets filed under a
    shared set.  One-vertex facets share no vertex, so they are filed under
    nothing and have no chain at all."""
    filed: dict = {}
    for F in facets:
        if len(F) > 1:
            for v in F:
                filed.setdefault(F - {v}, []).append(F)
    neighbours: dict = {F: [] for F in facets}
    for shared in filed.values():
        for F in shared:
            neighbours[F] += [G for G in shared if G != F]
    return neighbours


def _proper_distances(neighbours: dict, source: frozenset, limit=math.inf) -> dict:
    """Breadth-first proper-chain distances from ``source`` to every facet
    it reaches in at most ``limit`` steps."""
    dist = {source: 0}
    queue = [source]
    depth = 0
    while queue and depth < limit:
        depth += 1
        nxt = []
        for cur in queue:
            for other in neighbours[cur]:
                if other not in dist:
                    dist[other] = depth
                    nxt.append(other)
        queue = nxt
    return dist


def proper_distance(cx: Complex, f: Iterable[int], g: Iterable[int]):
    """Length of the shortest proper chain between two facets of a pure
    complex: consecutive facets must share exactly (facet size - 1)
    vertices.  Returns math.inf when no proper chain exists.

    Shortest proper chains are automatically irredundant, so breadth-first
    search suffices.
    """
    if not is_pure(cx):
        raise ValueError("proper distance requires a pure complex")
    F, G = frozenset(f), frozenset(g)
    if F not in cx.facets or G not in cx.facets:
        raise ValueError("both arguments must be facets")
    return _proper_distances(_proper_neighbours(cx.facets), F).get(G, math.inf)


def is_properly_connected(cx: Complex) -> tuple[bool, tuple | None]:
    """A pure complex with facet size d is properly-connected when every
    facet pair with nonempty intersection is joined by a proper chain of
    length exactly d - |intersection|.  On failure returns the first such
    pair (F, G) without that chain, in the order of ``sorted_facets``.

    Each step of a proper chain swaps one vertex, so a chain from F to G is
    at least d - |F & G| <= d - 1 steps long.  The search from F therefore
    stops at depth d - 1, and a pair not reached by then fails.  After
    k <= d - 1 steps a facet still shares d - k >= 1 vertices with F, so
    the search from F visits only facets that meet F, and the pairs to
    judge are found through the facets holding each vertex of F."""
    if cx.is_void:
        return True, None
    if not is_pure(cx):
        raise ValueError("properly-connected is defined for pure complexes")
    facets = cx.sorted_facets()
    size = len(facets[0])
    neighbours = _proper_neighbours(facets)
    holders: dict = {}
    for j, G in enumerate(facets):
        for v in G:
            holders.setdefault(v, []).append(j)
    for i, F in enumerate(facets):
        later = sorted({j for v in F for j in holders[v] if j > i})
        dist = _proper_distances(neighbours, F, size - 1)
        for j in later:
            G = facets[j]
            if dist.get(G, math.inf) != size - len(F & G):
                return False, (F, G)
    return True, None
