"""Independent oracles used by the tests.

These deliberately avoid the library's computation paths: Betti numbers
come from the Taylor complex (Tor of the generators' lcm strands), ranks
from dense Fraction/mod-p elimination, ideal equality from brute-force
membership over all squarefree monomials, the simplicial-forest test from
a scan of all 2^q subcollections of the q facets, leaf orders from a
backtracking search, proper-chain distances from a search that scans
every facet at every step, vertex deletion from a rebuild of each
component's edge list through ``RootedTree.from_edges``, rooted shapes
from the recursive nested-tuple AHU encoding, the leaf-split recursion
for pd from a recursive descent over rebuilt pieces keyed by that
encoding, the pd of a tree's edge ideal from its largest minimal vertex
cover by a dynamic program over the tree, sequential
Cohen-Macaulayness from Reisner's test on every pure skeleton at every
face (through ``is_cohen_macaulay``, which test_homology checks against
Reisner's definition), the links a sequential-CM sweep reads homology
from by a scan of every subset and every facet, the 0/1-point test of Schmitt-Vogel witnesses
from a scan of all 2^n points, the facets of a face collection from a
comparison of every pair of faces, the key of a collection of
generating faces from its definition, vertex by vertex, the faces of a
complex given by its facets or its minimal non-faces from a scan of
every subset, the subsets Hochster's formula sums over from the
Boolean sweep of all 2^n subsets, and the homology kernel, the sparse
rank and the bit scan from their earlier, plainer loops.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

from pathideal.bits import bit_index, to_mask
from pathideal.errors import CheckFailedError
from pathideal.homology import is_cohen_macaulay
from pathideal.linalg import bareiss_rank
from pathideal.simplicial import Complex, is_pure, make_complex
from pathideal.trees import RootedTree


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


def delete_vertices_by_rebuild(tree: RootedTree, remove: Iterable[int]) -> tuple[RootedTree, ...]:
    """Remove the given vertices and all incident edges, as the tuple of
    the surviving components sorted by root; each is rooted at its unique
    vertex without a surviving parent."""
    gone = set(remove)
    survivors: list[int] = []
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {}
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
    return tuple(comps)


def ahu_nested_key(tree: RootedTree) -> tuple:
    """Canonical encoding of the rooted shape; path ideals of isomorphic
    rooted trees differ only by relabeling, so pd may be memoized on it."""

    def encode(v: int) -> tuple:
        return tuple(sorted(encode(c) for c in tree.children[v]))

    return encode(tree.root)


def pd_trace_by_rebuild(tree: RootedTree, t: int) -> tuple[int, list[tuple]]:
    """pd(R/I_t) by the paper's leaf splits, pd = max(pd(T - v),
    pd(T - Z) + c + 1), with its trace, as a recursive descent in which
    every piece is rebuilt by ``delete_vertices_by_rebuild`` and memoized
    on its nested AHU encoding, computed from scratch.  The split is at the
    smallest chain of t vertices above a deepest vertex, and Z is that
    chain with the parent of its top, the children of its bottom and the
    other children of its second-lowest vertex; c = |Z| - t.  Components
    with a zero path ideal add 0, and one memo serves them all.  Each trace
    step is (piece vertices, path, off path) as the fields of
    ``pathideal.pd.SplittingData``, with the vertex sets as frozensets.
    Raises ValueError, before any split, when the tree's facet complex is
    not properly-connected (by ``properly_connected_by_scan``)."""
    facets = [chain_of(tree, v, t) for v in tree.vertices if tree.levels[v] >= t - 1]
    if not properly_connected_by_scan(make_complex(facets, ambient=tree.vertices))[0]:
        raise ValueError("facet complex is not properly-connected")
    memo: dict = {}
    trace: list[tuple] = []

    def pd_of(piece: RootedTree) -> int:
        key = ahu_nested_key(piece)
        if key in memo:
            return memo[key]
        deepest = max(piece.levels.values())
        path = min(chain_of(piece, v, t) for v in piece.vertices if piece.levels[v] == deepest)
        top, second_lowest, bottom = path[0], path[-2], path[-1]
        off = set(piece.children[bottom]) | set(piece.children[second_lowest]) - {bottom}
        if top != piece.root:
            off.add(piece.parent[top])
        trace.append((frozenset(piece.vertices), path, frozenset(off)))
        leaf, zone = (
            sum(pd_of(c) for c in delete_vertices_by_rebuild(piece, gone) if c.height() >= t - 1)
            for gone in ({bottom}, off | set(path))
        )
        memo[key] = max(leaf, zone + len(off) + 1)
        return memo[key]

    value = pd_of(tree) if tree.height() >= t - 1 else 0
    return value, trace


def edge_ideal_bight(tree: RootedTree) -> int:
    """The largest minimal vertex cover of the edges of ``tree``, which is
    pd(R/I_2) since the quotient is sequentially Cohen-Macaulay.  A cover
    C is minimal iff each vertex of C has a neighbour outside C.  Up the
    levels, each vertex v gets the largest count of C-vertices in its
    subtree in three cases: v outside C (its children then all in C, with
    v as their neighbour outside), v in C below a parent outside C, and v
    in C with its parent in C or absent, when a child must lie outside C."""
    out: dict = {}
    freed: dict = {}
    bound: dict = {}
    for v in sorted(tree.vertices, key=tree.levels.__getitem__, reverse=True):
        kids = tree.children[v]
        out[v] = sum(freed[c] for c in kids)
        best = sum(max(out[c], bound[c]) for c in kids)
        freed[v] = 1 + best
        bound[v] = 1 + best + max((out[c] - max(out[c], bound[c]) for c in kids), default=-math.inf)
    return max(out[tree.root], bound[tree.root])


def chain_of(tree: RootedTree, end: int, t: int) -> tuple:
    """The t vertices on the way up from ``end``, read from the top."""
    chain = [end]
    while len(chain) < t:
        chain.append(tree.parent[chain[-1]])
    return tuple(reversed(chain))


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


def facet_links_by_scan(ideal) -> list[tuple[int, frozenset, list[frozenset]]]:
    """The links whose homology a sequential-CM sweep of the ideal reads,
    as (size, face, generating faces) triples.  The Stanley-Reisner
    complex's faces come from a scan of every subset, its facets from a
    comparison of every pair.  For each facet size, at each face s of a
    facet of that size with d' = size - |s| - 1 >= 2, the link generated by
    the faces F - s (F a facet through s with at least size vertices) is
    kept unless those faces share a vertex; a link with d' = 1 needs only
    connectivity, and d' <= 0 nothing."""
    universe = sorted(ideal.ambient)
    faces = []
    for mask in range(1 << len(universe)):
        m = frozenset(universe[k] for k in range(len(universe)) if mask >> k & 1)
        if not ideal.contains(m):
            faces.append(m)
    facets = maximal_sets_by_scan(faces)
    links = []
    for size in sorted({len(F) for F in facets}, reverse=True):
        tested = {
            frozenset(c) for F in facets if len(F) == size
            for k in range(size - 2) for c in combinations(sorted(F), k)
        }
        for s in sorted(tested, key=sorted):
            gens = [F - s for F in facets if len(F) >= size and s <= F]
            if not frozenset.intersection(*gens):
                links.append((size, s, gens))
    return links


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


# The homology kernel and the sparse rank as they stood before their inner
# loops were rewritten, kept as references: the same answers, certificates
# and pivot rows are required of the program.  Copied verbatim but for the
# names, the program's check counters (not incremented here) and the sign
# helper; the Bareiss leftover is the program's ``bareiss_rank``.


def iter_bits_by_shift(mask: int) -> Iterator[int]:
    """Yield set bit positions in increasing order."""
    pos = 0
    while mask:
        if mask & 1:
            yield pos
        mask >>= 1
        pos += 1


def homology_from_faces_reference(faces, p: int | None = None) -> tuple[dict[int, int], bool]:
    """Reduced homology dimensions of a complex given as the set of its
    face bitmasks (closed under subsets; 0 is the empty face), over Q when
    p is None.  Keys run from -1 to the dimension; zero entries are
    omitted.  The flag is true when every rank is certified, so the
    dimensions hold over every field.

    The set may be D - A for a complex D and a subcomplex A of it (A empty
    gives D itself): it is then the basis of the relative complex
    C~(D) / C~(A), whose boundary is that of D with the entries on rows in
    A dropped, and its homology is what is returned.  ``_cached_homology``
    hands it D minus the closed star of a vertex (``_quotient_faces``),
    which has the homology of D (the cone lemma in the module docstring).
    The relative matrices are submatrices of the +-1 boundary matrices, so
    the certificate of ``linalg`` applies as it is, and clearing needs only
    d o d = 0, which the relative complex keeps.  The d o d = 0 and Euler
    checks run on the set given, the complex that is ranked, and each
    counts once per call, an empty set included."""
    by_dim: dict[int, list[int]] = {}
    for m in faces:
        by_dim.setdefault(m.bit_count() - 1, []).append(m)
    top = max(by_dim, default=-1)
    by_dim = {k: sorted(by_dim.get(k, ())) for k in range(-1, top + 1)}
    index = {k: {m: i for i, m in enumerate(ms)} for k, ms in by_dim.items()}

    # column lists: for each k-face, its boundary as (row in dim k-1, sign),
    # without the rows that are not in the set
    cols: dict[int, list[list[tuple[int, int]]]] = {}
    for k in range(0, top + 1):
        prev = index[k - 1]
        col_list = []
        for m in by_dim[k]:
            entries = []
            sign = 1
            for b in iter_bits_by_shift(m):
                row = prev.get(m ^ (1 << b))
                if row is not None:
                    entries.append((row, sign))
                sign = -sign
            col_list.append(entries)
        cols[k] = col_list

    for k in range(1, top + 1):
        for col in cols[k]:
            acc: dict[int, int] = {}
            for row_j, s in col:
                for row_i, s2 in cols[k - 1][row_j]:
                    acc[row_i] = acc.get(row_i, 0) + s * s2
            if any(acc.values()):
                raise CheckFailedError("boundary composed with boundary is nonzero")

    # top down: the k-faces that were pivot rows of d_{k+1} are cleared
    # from the columns of d_k, which leaves its rank as it is (see linalg);
    # a map without entries has rank 0 and is not handed to sparse_rank
    ranks = {k: 0 for k in range(-1, top + 2)}
    certified = True
    cleared: set[int] = set()
    for k in range(top, -1, -1):
        rows: list[dict[int, int]] = [{} for _ in by_dim[k - 1]]
        for j, col in enumerate(cols[k]):
            if j in cleared:
                continue
            for i, s in col:
                rows[i][j] = s
        cleared = set()
        if any(rows):
            ranks[k], rank_certified = sparse_rank_reference(rows, p, cleared)
            certified = certified and rank_certified

    counts = {k: len(ms) for k, ms in by_dim.items()}
    dims = {k: counts[k] - ranks[k] - ranks[k + 1] for k in counts}

    # dims come from the same counts and ranks, whose terms cancel in the
    # alternating sum, so this cannot fail; it stays as a counted guard
    # against a future change to how dims are derived
    euler_h = sum((-1) ** (k & 1) * d for k, d in dims.items())
    euler_f = sum((-1) ** (k & 1) * c for k, c in counts.items())
    if euler_h != euler_f:
        raise CheckFailedError("Euler characteristic mismatch")
    return {k: d for k, d in dims.items() if d}, certified


def sparse_rank_reference(
    rows: list[dict[int, int]], p: int | None = None, pivot_rows: set[int] | None = None
) -> tuple[int, bool]:
    """(rank, certified) of a sparse integer matrix over GF(p), or over Q
    when p is None.

    The columns are eliminated in ascending index order, each on its
    shortest usable row: any nonzero entry over GF(p), a +-1 entry over Q.
    Over Q a column with no +-1 entry is deferred, and the deferred columns
    get another pass for as long as the previous pass found a pivot;
    whatever is left goes to ``bareiss_rank``.  ``certified`` is true only
    over Q with no such leftover core, and then the rank is the same over
    every GF(p) (see the module docstring).  The input rows are copied, not
    changed.

    When ``pivot_rows`` is given, the index of every row that becomes a
    pivot of the sparse elimination is added to it.  Those rows of the
    input are linearly independent over the field, and over Q also mod
    every prime; there are as many as the rank unless a Bareiss core was
    left, whose rows are not reported.
    """
    rationals = p is None
    if rationals:
        rows = [{c: v for c, v in row.items() if v} for row in rows]
    else:
        rows = [{c: v % p for c, v in row.items() if v % p} for row in rows]

    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(i)

    rank = 0
    pending = sorted(col_rows)
    while pending:
        pass_start = rank
        deferred: list[int] = []  # Q-mode columns without a unit entry
        for c in pending:
            rset = col_rows[c]
            usable = [i for i in rset if rows[i][c] in (1, -1)] if rationals else rset
            if not usable:
                if rset:
                    deferred.append(c)
                continue
            r = min(usable, key=lambda i: len(rows[i]))
            rank += 1
            if pivot_rows is not None:
                pivot_rows.add(r)
            pivot_row = rows[r]
            inv = pivot_row[c] if rationals else pow(pivot_row[c], -1, p)  # +-1 over Q
            for i in list(rset):
                if i == r:
                    continue
                target = rows[i]
                factor = target[c] * inv
                if not rationals:
                    factor %= p
                for cc, v in pivot_row.items():
                    cur = target.get(cc, 0)
                    nv = cur - factor * v
                    if not rationals:
                        nv %= p
                    if nv:
                        if not cur:
                            col_rows[cc].add(i)
                        target[cc] = nv
                    elif cur:
                        del target[cc]
                        col_rows[cc].discard(i)
            for cc in pivot_row:
                col_rows[cc].discard(r)
            rows[r] = {}
        pending = deferred if rank > pass_start else []

    if not rationals:
        return rank, False
    leftovers = [row for row in rows if row]
    if leftovers:
        cols = sorted({c for row in leftovers for c in row})
        cindex = {c: j for j, c in enumerate(cols)}
        dense = [[0] * len(cols) for _ in leftovers]
        for i, row in enumerate(leftovers):
            for c, v in row.items():
                dense[i][cindex[c]] = v
        rank += bareiss_rank(dense)
    return rank, not leftovers
