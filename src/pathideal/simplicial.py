"""Simplicial complexes in facet representation.

Covers leaf detection, the exact simplicial-forest/tree test (every
nonempty subcollection of facets has a leaf), leaf orders, proper chain
distance, and the properly-connected test for pure complexes.

The complex with no facets at all is the empty complex; by convention it
is connected and a simplicial tree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .bits import bit_index, to_mask
from .errors import BoundExceededError
from .ideals import SquarefreeIdeal, hypergraph_components

DEFAULT_MAX_FACETS = 20


@dataclass(frozen=True)
class Complex:
    ambient: frozenset
    facets: frozenset

    def __post_init__(self):
        for f in self.facets:
            if not f <= self.ambient:
                raise ValueError(f"facet {sorted(f)} lies outside the ambient universe")
        by_size = sorted(self.facets, key=len)
        for i, small in enumerate(by_size):
            for big in by_size[i + 1:]:
                if small < big:
                    raise ValueError("facets must form an antichain")

    @property
    def is_void(self) -> bool:
        return not self.facets

    def sorted_facets(self) -> list[frozenset]:
        return sorted(self.facets, key=lambda f: (len(f), sorted(f)))


def make_complex(faces: Iterable[Iterable[int]], ambient: Iterable[int] | None = None) -> Complex:
    """Build a complex from a face collection, keeping the maximal ones."""
    sets = sorted({frozenset(f) for f in faces}, key=len, reverse=True)
    facets: list[frozenset] = []
    for f in sets:
        if not any(f <= kept for kept in facets):
            facets.append(f)
    if ambient is None:
        amb = frozenset().union(*facets) if facets else frozenset()
    else:
        amb = frozenset(ambient)
    return Complex(amb, frozenset(facets))


def facet_complex(ideal: SquarefreeIdeal) -> Complex:
    """Facets are the supports of the minimal generators."""
    return Complex(ideal.ambient, ideal.gens)


def is_pure(cx: Complex) -> bool:
    return len({len(f) for f in cx.facets}) <= 1


def is_connected(cx: Complex) -> bool:
    """Connected through chains of facets with nonempty intersections."""
    return len(hypergraph_components(cx.facets)) <= 1


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
    needed = frozenset().union(*(F & G for G in others))
    ranked = sorted(others, key=lambda g: (-len(F & g), sorted(g)))
    for G in ranked:
        if needed <= G:
            return True, G
    best = ranked[0]
    violator = next(Fp for Fp in others if not (F & Fp <= F & best))
    return False, (best, violator)


def _facet_masks(cx: Complex) -> tuple[list[frozenset], list[int]]:
    facets = cx.sorted_facets()
    idx = bit_index(cx.ambient)
    return facets, [to_mask(f, idx) for f in facets]


def is_simplicial_forest(cx: Complex, max_facets: int = DEFAULT_MAX_FACETS) -> tuple[bool, tuple | None]:
    """Exact forest test: every nonempty subcollection of facets has a leaf.

    Exponential in the facet count, hence the configurable bound.  On
    failure returns a leafless subcollection as counterexample.
    """
    facets, masks = _facet_masks(cx)
    q = len(facets)
    if q > max_facets:
        raise BoundExceededError(f"{q} facets exceeds the bound {max_facets}")
    if q <= 1:
        return True, None
    inter = [[masks[i] & masks[j] for j in range(q)] for i in range(q)]
    for sub in range(1, 1 << q):
        idxs = [i for i in range(q) if sub >> i & 1]
        if len(idxs) == 1:
            continue
        has_leaf = False
        for i in idxs:
            union = 0
            for j in idxs:
                if j != i:
                    union |= inter[i][j]
            if any(inter[i][j] == union for j in idxs if j != i):
                has_leaf = True
                break
        if not has_leaf:
            return False, tuple(facets[i] for i in idxs)
    return True, None


def is_simplicial_tree(cx: Complex, max_facets: int = DEFAULT_MAX_FACETS) -> tuple[bool, tuple | None]:
    """Forest test plus connectedness.  The empty complex counts as a tree."""
    if cx.is_void:
        return True, None
    if not is_connected(cx):
        return False, None
    return is_simplicial_forest(cx, max_facets)


def has_leaf_order(cx: Complex) -> bool:
    """Whether the facets admit an order F_1,...,F_q with F_i a leaf of
    <F_i,...,F_q>.  Greedy removal with backtracking and memoized failures."""
    facets, masks = _facet_masks(cx)
    q = len(facets)
    if q <= 1:
        return True
    inter = [[masks[i] & masks[j] for j in range(q)] for i in range(q)]
    failed: set[frozenset] = set()

    def leaves_of(active: frozenset) -> list[int]:
        out = []
        for i in active:
            union = 0
            for j in active:
                if j != i:
                    union |= inter[i][j]
            if any(inter[i][j] == union for j in active if j != i):
                out.append(i)
        return out

    def solvable(active: frozenset) -> bool:
        if len(active) <= 1:
            return True
        if active in failed:
            return False
        for i in leaves_of(active):
            if solvable(active - {i}):
                return True
        failed.add(active)
        return False

    return solvable(frozenset(range(q)))


def _proper_distances(facets: list[frozenset], source: frozenset) -> dict:
    """Breadth-first proper-chain distances from ``source`` to every facet
    it reaches: consecutive facets share all but one vertex."""
    size = len(source)
    dist = {source: 0}
    queue = [source]
    while queue and size > 1:
        nxt = []
        for cur in queue:
            for other in facets:
                if other not in dist and len(cur & other) == size - 1:
                    dist[other] = dist[cur] + 1
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
    return _proper_distances(cx.sorted_facets(), F).get(G, math.inf)


def is_properly_connected(cx: Complex) -> tuple[bool, tuple | None]:
    """A pure complex with facet size d+1 is properly-connected when every
    facet pair with nonempty intersection is joined by a proper chain of
    length exactly (d+1) - |intersection|."""
    if cx.is_void:
        return True, None
    if not is_pure(cx):
        raise ValueError("properly-connected is defined for pure complexes")
    facets = cx.sorted_facets()
    size = len(facets[0])
    for i, F in enumerate(facets):
        dist = _proper_distances(facets, F)
        for G in facets[i + 1:]:
            common = F & G
            if not common:
                continue
            if dist.get(G, math.inf) != size - len(common):
                return False, (F, G)
    return True, None
