"""Independent oracles used by the tests.

These deliberately avoid the library's computation paths: Betti numbers
come from the Taylor complex (Tor of the generators' lcm strands), ranks
from dense Fraction/mod-p elimination, ideal equality from brute-force
membership over all squarefree monomials, the simplicial-forest test from
a scan of all 2^q subcollections of the q facets, leaf orders from a
backtracking search, proper-chain distances from a search that scans
every facet at every step, vertex deletion from a rebuild of each
component's edge list through ``RootedTree.from_edges``, rooted shapes
from the recursive nested-tuple AHU encoding, sequential
Cohen-Macaulayness from Reisner's test on every pure skeleton at every
face (through ``is_cohen_macaulay``, which test_homology checks against
Reisner's definition), the 0/1-point test of Schmitt-Vogel witnesses
from a scan of all 2^n points, the facets of a face collection from a
comparison of every pair of faces, the key of a collection of
generating faces from its definition, vertex by vertex, the faces of a
complex given by its facets or its minimal non-faces from a scan of
every subset, and the subsets Hochster's formula sums over from the
Boolean sweep of all 2^n subsets.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from pathideal.bits import bit_index, to_mask
from pathideal.homology import is_cohen_macaulay
from pathideal.simplicial import Complex, is_pure, make_complex
from pathideal.trees import Forest, RootedTree, TreeOrForest, component_trees


def dense_rank(matrix, p=None):
    if not matrix or not matrix[0]:
        return 0
    if p is None:
        m = [[Fraction(x) for x in row] for row in matrix]
    else:
        m = [[x % p for x in row] for row in matrix]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        if p is None:
            for i in range(r + 1, nrows):
                f = m[i][c] / m[r][c]
                if f:
                    for j in range(c, ncols):
                        m[i][j] -= f * m[r][j]
        else:
            inv = pow(m[r][c], -1, p)
            for i in range(r + 1, nrows):
                f = m[i][c] * inv % p
                if f:
                    for j in range(c, ncols):
                        m[i][j] = (m[i][j] - f * m[r][j]) % p
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def taylor_betti(ideal, p=None):
    """Graded Betti numbers of a squarefree monomial ideal from the Taylor
    complex: beta_{i,j}(I) = dim H_i of the lcm-degree-j strands, where the
    chain group in homological degree i is spanned by the (i+1)-subsets of
    the generators and the differential keeps only the lcm-preserving
    deletions."""
    gens = sorted(ideal.gens, key=sorted)
    r = len(gens)
    if r == 0:
        return {}
    lcm = {}
    for size in range(1, r + 1):
        for subset in combinations(range(r), size):
            support = frozenset().union(*(gens[k] for k in subset))
            lcm[subset] = support

    strands = {}
    for subset, support in lcm.items():
        strands.setdefault(support, {}).setdefault(len(subset) - 1, []).append(subset)

    betti = {}
    for support, by_degree in strands.items():
        j = len(support)
        index = {
            deg: {s: k for k, s in enumerate(sorted(subsets))}
            for deg, subsets in by_degree.items()
        }
        ranks = {}
        for deg, subsets in sorted(by_degree.items()):
            if deg == 0:
                ranks[deg] = 0
                continue
            prev = index.get(deg - 1, {})
            rows = []
            for s in sorted(subsets):
                row = [0] * len(prev)
                for pos in range(len(s)):
                    smaller = s[:pos] + s[pos + 1:]
                    if lcm[smaller] == support and smaller in prev:
                        row[prev[smaller]] = (-1) ** pos
                rows.append(row)
            # columns of the boundary map are the deg-subsets
            matrix = [list(col) for col in zip(*rows)] if rows and prev else []
            ranks[deg] = dense_rank(matrix, p)
        for deg, subsets in by_degree.items():
            dim = len(subsets) - ranks.get(deg, 0) - ranks.get(deg + 1, 0)
            if dim:
                betti[(deg, j)] = betti.get((deg, j), 0) + dim
    return betti


def ideal_equals_bruteforce(a, b) -> bool:
    universe = sorted(a.ambient | b.ambient)
    assert len(universe) <= 14, "brute-force oracle limited to 14 variables"
    for mask in range(1 << len(universe)):
        m = {universe[k] for k in range(len(universe)) if mask >> k & 1}
        if a.contains(m) != b.contains(m):
            return False
    return True


def simple_homology(faces, p=None):
    """Reduced homology of a small complex given as an iterable of faces
    (iterables of vertices), via dense boundary matrices."""
    face_sets = {frozenset(f) for f in faces}
    closure = set()
    for f in face_sets:
        for size in range(len(f) + 1):
            closure.update(map(frozenset, combinations(sorted(f), size)))
    if not closure:
        return {}
    by_dim = {}
    for f in closure:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for k in by_dim:
        by_dim[k].sort()
    top = max(by_dim)
    ranks = {k: 0 for k in range(top + 2)}
    for k in range(0, top + 1):
        prev = {f: i for i, f in enumerate(by_dim[k - 1])}
        matrix = [[0] * len(by_dim[k]) for _ in prev] if prev else []
        for col, f in enumerate(by_dim[k]):
            for pos in range(len(f)):
                smaller = f[:pos] + f[pos + 1:]
                matrix[prev[smaller]][col] = (-1) ** pos
        ranks[k] = dense_rank(matrix, p)
    dims = {}
    counts = {k: len(by_dim.get(k, ())) for k in range(-1, top + 1)}
    h = counts[-1] - ranks[0]
    if h:
        dims[-1] = h
    for k in range(0, top + 1):
        h = counts[k] - ranks[k] - ranks[k + 1]
        if h:
            dims[k] = h
    return dims


def _facet_masks(cx):
    facets = cx.sorted_facets()
    idx = bit_index(cx.ambient)
    return facets, [to_mask(f, idx) for f in facets]


def simplicial_forest_by_scan(cx):
    """Exact forest test: every nonempty subcollection of facets has a leaf.

    Exponential in the facet count.  On failure returns a leafless
    subcollection as counterexample.
    """
    facets, masks = _facet_masks(cx)
    q = len(facets)
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


def leaf_order_by_search(cx):
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


def proper_distances_by_scan(facets: list[frozenset], source: frozenset) -> dict:
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


def properly_connected_by_scan(cx: Complex) -> tuple[bool, tuple | None]:
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
        dist = proper_distances_by_scan(facets, F)
        for G in facets[i + 1:]:
            common = F & G
            if not common:
                continue
            if dist.get(G, math.inf) != size - len(common):
                return False, (F, G)
    return True, None


def delete_vertices_by_rebuild(g: TreeOrForest, remove: Iterable[int]) -> Forest:
    """Remove the given vertices and all incident edges; each surviving
    component is rooted at its unique vertex without a surviving parent."""
    gone = set(remove)
    survivors: list[int] = []
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {}
    for tree in component_trees(g):
        for v in tree.vertices:
            if v in gone:
                continue
            survivors.append(v)
            children.setdefault(v, [])
            p = tree.parent.get(v)
            if p is not None and p not in gone:
                parent[v] = p
                children.setdefault(p, []).append(v)

    roots = sorted(v for v in survivors if v not in parent)
    comps = []
    for r in roots:
        comp_edges: list[tuple[int, int]] = []
        stack = [r]
        while stack:
            u = stack.pop()
            for c in children[u]:
                comp_edges.append((u, c))
                stack.append(c)
        comps.append(RootedTree.from_edges(comp_edges, root=r))
    return Forest(tuple(comps))


def ahu_nested_key(tree: RootedTree) -> tuple:
    """Canonical encoding of the rooted shape; path ideals of isomorphic
    rooted trees differ only by relabeling, so pd may be memoized on it."""

    def encode(v: int) -> tuple:
        return tuple(sorted(encode(c) for c in tree.children[v]))

    return encode(tree.root)


def sequentially_cm_by_all_skeleta(ideal, field) -> bool:
    """Duval's criterion checked in full: the Stanley-Reisner complex's
    faces come from a scan of every subset of the ambient universe, and
    every pure i-skeleton, i from the top down to 0, must pass
    ``is_cohen_macaulay``, which applies Reisner's test at every face."""
    universe = sorted(ideal.ambient)
    faces = []
    for mask in range(1 << len(universe)):
        m = frozenset(universe[k] for k in range(len(universe)) if mask >> k & 1)
        if not ideal.contains(m):
            faces.append(m)
    if not faces:
        return True
    top = max(len(f) for f in faces) - 1
    for i in range(top, -1, -1):
        skeleton = make_complex((f for f in faces if len(f) == i + 1), ambient=universe)
        if not is_cohen_macaulay(skeleton, field):
            return False
    return True


def radical_point_check_by_scan(partition, ideal) -> bool:
    """Evaluate the witness sums (one per part) and the generators at all
    2^n 0/1 points with integer arithmetic: wherever every witness
    vanishes, every generator must vanish too."""
    index = bit_index(ideal.ambient)
    gen_masks = [to_mask(g, index) for g in ideal.gens]
    witness_masks = [[to_mask(m, index) for m in part] for part in partition.parts]
    for point in range(1 << len(ideal.ambient)):
        all_zero = all(sum(1 for m in terms if m & point == m) == 0 for terms in witness_masks)
        if all_zero and any(g & point == g for g in gen_masks):
            return False
    return True


def maximal_sets_by_scan(faces) -> frozenset:
    """The inclusion-maximal sets among ``faces``, each compared with every
    other one."""
    sets = {frozenset(f) for f in faces}
    return frozenset(f for f in sets if not any(f < g for g in sets))


def canonical_faces_by_spec(masks) -> tuple:
    """The key of a collection of generating faces, from its definition:
    number the vertices used by any mask 0..w-1 in increasing order, read
    each mask as the set of its vertices' numbers, once as they are and
    once mirrored (i -> w-1-i), and take the smaller of the two sorted
    tuples of masks."""
    vertex_sets = [{b for b in range(m.bit_length()) if m >> b & 1} for m in masks]
    used = sorted(set().union(*vertex_sets))
    w = len(used)
    forward = tuple(sorted(sum(2 ** used.index(b) for b in s) for s in vertex_sets))
    mirrored = tuple(sorted(sum(2 ** (w - 1 - used.index(b)) for b in s) for s in vertex_sets))
    return min(forward, mirrored)


def faces_from_facets(masks) -> set[int]:
    """Every face of the complex generated by the masks: each subset, as a
    bitmask, of the masks' union that lies inside one of them."""
    union = 0
    for m in masks:
        union |= m
    return {s for s in range(union + 1) if any(s | m == m for m in masks)}


def faces_from_non_faces(masks) -> set[int]:
    """Every face of the complex on the masks' union whose minimal
    non-faces are the masks: each subset of the union that contains none
    of them."""
    union = 0
    for m in masks:
        union |= m
    return {
        s for s in range(union + 1)
        if s | union == union and not any(s & m == m for m in masks)
    }


def hochster_subsets_by_scan(gen_masks, n: int) -> set[int]:
    """The subsets Y of bits 0..n-1 that Hochster's formula sums over, by
    the Boolean sweep: every one of the 2^n subsets, kept when the
    generators inside Y cover it.  Y = 0 is kept only when a generator is
    inside it (the unit ideal); with none, its restriction {{}} has
    homology in degree -1 only, which lands in no Betti number."""
    kept = set()
    for Y in range(1 << n):
        inside = [g for g in gen_masks if g & Y == g]
        covered = 0
        for g in inside:
            covered |= g
        if inside and covered == Y:
            kept.add(Y)
    return kept
