"""Projective dimension of path-ideal quotients by three routes.

* a closed form when the path ideal is that of a line graph;
* a leaf-split recursion, valid when the facet complex is
  properly-connected, checked once, since every piece inherits it;
* the Hochster-table route, which works unconditionally within bounds.

All values refer to pd(R/I) for the quotient.  A leaf split deletes
vertices, which can disconnect the tree, so a piece of the recursion is a
sum of ideals in disjoint variables, one per component; its pd is the sum
of the component quotient pds (the Koszul tensor argument), with components
carrying the zero ideal contributing 0.  ``pd_auto(..., verify=True)``
cross-validates the recursion against the Hochster route.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .homology import Field, QQ, betti_table_hochster, pd_from_betti
from .ideals import SquarefreeIdeal, ideal_equals, ideal_intersect, ideal_multiply, ideal_sum, make_ideal
from .simplicial import _proper_neighbours, facet_complex, is_properly_connected
from .trees import RootedTree, chain_above, enumerate_paths, path_ideal


class NotProperlyConnectedError(RuntimeError):
    """The facet complex failed the properly-connected precondition."""

    def __init__(self, pair):
        self.pair = pair
        shown = [sorted(f) for f in pair]
        super().__init__(f"facet complex is not properly-connected, witness pair {shown}")


def pd_line_closed_form(n: int, t: int) -> int:
    """pd(R/I_t(L_n)) for the line graph on n vertices.

    With n = d (mod t+1): 2(n-d)/(t+1) when 0 <= d <= t-1, and
    (2n-(t-1))/(t+1) when d = t.  Values of n below t give the zero ideal.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    if n < t:
        return 0
    d = n % (t + 1)
    if d == t:
        return (2 * n - (t - 1)) // (t + 1)
    return 2 * (n - d) // (t + 1)


def line_order(ideal: SquarefreeIdeal) -> tuple[int, list] | None:
    """Detect I_t(L_n) up to relabeling and recover the vertices in path
    order.  The generators must all have one size t, and consecutive
    windows along the path share t-1 vertices, so the windows form a chain
    under that relation (``_proper_neighbours``), walked from an end.  Each
    vertex is placed by the first and last window holding it; vertices that
    no window tells apart are ordered by id, and of the two directions the
    order that reads smaller is kept, so ids numbered along the path come
    back sorted.  The windows of the order must then be exactly the
    generators.  Returns (t, vertices in path order) or None."""
    if ideal.is_zero:
        return None
    sizes = {len(g) for g in ideal.gens}
    if len(sizes) != 1:
        return None
    t = sizes.pop()
    n = len(ideal.ambient)
    gens = sorted(ideal.gens, key=sorted)
    if t < 2 or len(gens) != n - t + 1:
        return None
    neighbours = _proper_neighbours(gens)
    if any(len(near) > 2 for near in neighbours.values()):  # a window of a line has at most two
        return None
    chain = [min(gens, key=lambda g: len(neighbours[g]))]
    while len(chain) < len(gens):
        step = [g for g in neighbours[chain[-1]] if g not in chain[-2:]]
        if len(step) != 1:
            return None
        chain.append(step[0])

    def order_along(windows: list[frozenset]) -> list:
        first: dict = {}
        last: dict = {}
        for k, window in enumerate(windows):
            for v in window:
                first.setdefault(v, k)
                last[v] = k
        return sorted(first, key=lambda v: (first[v], last[v], v))

    order = min(order_along(chain), order_along(chain[::-1]))
    windows = {frozenset(order[i:i + t]) for i in range(len(gens))}
    if len(order) != n or windows != ideal.gens:
        return None
    return t, order


def _split(tree: RootedTree, t: int, piece, chain=None) -> tuple[tuple, set]:
    """The leaf split rule on ``piece``, a pair (vertices, deepest level):
    a container of vertices of ``tree`` that holds the ancestors of each of
    its vertices up to its root, and the largest level among them.  Returns
    (chain, off path).  The chain is ``chain``, a parent chain of t vertices
    read from the top, or by default the smallest of the chains above the
    deepest vertices of the piece.  Its off path is the children of its
    bottom, the other children of its second-lowest vertex and the parent of
    its top, each only where it lies in the piece."""
    vertices, deepest = piece
    if chain is None:
        levels = tree.levels
        chain = min(chain_above(tree, v, t) for v in vertices if levels[v] == deepest)
    top, second_lowest, bottom = chain[0], chain[-2], chain[-1]
    off_path = {c for c in tree.children[bottom] if c in vertices}
    off_path.update(c for c in tree.children[second_lowest] if c != bottom and c in vertices)
    if tree.parent.get(top) in vertices:
        off_path.add(tree.parent[top])
    return chain, off_path


def leaf_generator(tree: RootedTree, t: int) -> tuple[int, ...]:
    """A generator path ending at a leaf of the tree: the smallest of the
    chains of t vertices above the deepest vertices.  A deepest vertex
    always works since its level is at least t-1."""
    if t < 2:
        raise ValueError("paths need at least two vertices (t >= 2)")
    height = tree.height()
    if height < t - 1:
        raise ValueError("the path ideal is zero; no generator to pick")
    return _split(tree, t, (tree.levels, height))[0]


@dataclass(frozen=True)
class SplittingData:
    """A leaf split of a piece of a tree: the generator ``path`` read from
    the top, so path[-1] is the leaf, its ``off_path`` and the piece's
    ``vertices``.

    off_path collects, over all facets meeting the path's facet in t-1
    vertices, the vertices outside the path; removed is its union with the
    facet.  The split's pieces are the piece less the leaf, and less the
    whole removed zone.
    """

    path: tuple
    off_path: frozenset
    vertices: frozenset

    @property
    def facet(self) -> frozenset:
        return frozenset(self.path)

    @property
    def removed(self) -> frozenset:
        return self.off_path.union(self.path)

    @property
    def off_path_count(self) -> int:
        return len(self.off_path)


def splitting_data(tree: RootedTree, t: int, path: tuple | None = None) -> SplittingData:
    """The leaf split of ``tree`` at ``path``, a generator in any vertex
    order whose lowest vertex is a leaf (default: leaf_generator).

    The path is a generator iff its vertices, sorted by level, form a
    parent chain p_1 -> ... -> p_t, and p_t is its leaf.  Two downward
    paths meet in a chain, so a t-path sharing t-1 vertices with it is one
    of three kinds: the shift one step up (through the parent of p_1), a
    shift one step down (through a child of p_t), or the path ending at a
    sibling of p_t (another child of p_(t-1)).  Those vertices are
    off_path."""
    if t < 2:
        raise ValueError("paths need at least two vertices (t >= 2)")
    if path is None:
        path = leaf_generator(tree, t)
    facet = frozenset(path)
    chain = tuple(sorted(facet, key=lambda v: tree.levels.get(v, -1)))
    if len(chain) != t or not facet <= tree.levels.keys() or any(
        tree.parent.get(below) != above for above, below in zip(chain, chain[1:])
    ):
        raise ValueError("the given path is not a generator")
    if tree.children[chain[-1]]:
        raise ValueError(f"splitting path must end at a leaf; its lowest vertex {chain[-1]} has children")
    _, off_path = _split(tree, t, (tree.levels, tree.height()), chain)
    return SplittingData(chain, frozenset(off_path), frozenset(tree.vertices))


# the memo key of the list of shape heights, indexed by shape id
_HEIGHTS = "heights"


def _new_shape(key: tuple, memo: dict) -> int:
    """Intern ``key``, the sorted ids of a vertex's children, under the next
    shape id, and record the shape's height."""
    heights = memo[_HEIGHTS]
    i = memo[key] = len(heights)
    heights.append(1 + max(map(heights.__getitem__, key)) if key else 0)
    return i


def _shape_ids(tree: RootedTree, memo: dict) -> dict[int, int]:
    """Each vertex's rooted subtree shape as an int (Aho-Hopcroft-Ullman):
    one pass up the levels interns each vertex's sorted tuple of child ids.
    Under one table, ids are equal iff the rooted shapes are isomorphic, so
    their path ideals differ only by relabeling.  The table is ``memo``
    itself, under tuple keys, with the heights of the shapes under
    ``_HEIGHTS``, so the ids live exactly as long as the pd values they
    key."""
    memo.setdefault(_HEIGHTS, [])
    ids: dict[int, int] = {}
    for v in sorted(tree.vertices, key=tree.levels.__getitem__, reverse=True):
        key = tuple(sorted(map(ids.__getitem__, tree.children[v])))
        ids[v] = memo[key] if key in memo else _new_shape(key, memo)
    return ids


def _walk(tree: RootedTree, ids: dict, leaf: int, high: int, memo: dict) -> tuple[list, int | None]:
    """One walk from ``leaf`` up to the root of the piece whose vertices
    map to their shape ids in ``ids``, re-interning each ancestor for the
    piece less the leaf and, from the parent of ``high`` (an ancestor of
    the leaf) up, also for the piece less the subtree at ``high``.  Returns
    the (vertex, id) pairs of the first, bottom-up, and the root's id in
    the second, None when ``high`` is the root.  The walks share each
    ancestor's other children; a changed child is carried as a tuple of
    its new id, or empty where it is deleted."""
    parent, children = tree.parent, tree.children
    get = memo.get
    walk = []
    append = walk.append
    child, lpart, zpart = leaf, (), None
    u = parent[leaf]
    while u in ids:
        kids = children[u]
        if len(kids) == 1:  # every vertex on a line: no sort
            lkey, zkey = lpart, zpart
        else:
            others = [ids[c] for c in kids if c != child and c in ids]
            lkey = tuple(sorted([*others, *lpart]))
            zkey = None if zpart is None else tuple(sorted([*others, *zpart]))
        i = get(lkey)
        if i is None:
            i = _new_shape(lkey, memo)
        lpart = (i,)
        append((u, i))
        if zkey is not None:
            i = get(zkey)
            if i is None:
                i = _new_shape(zkey, memo)
            zpart = (i,)
        elif u == high:
            zpart = ()
        child = u
        u = parent.get(u)
    return walk, zpart[0] if zpart else None


def _build(tree: RootedTree, ids: dict, root: int, high: int, walk: list | None, memo: dict) -> dict:
    """The id map of the piece at ``root`` cut from the piece ``ids`` at
    ``high``: the subtree at ``root`` when ``high`` is its parent (a deleted
    vertex, so the ids below it stand), else the piece less the subtree at
    ``high``, whose ancestors take their ids from ``_walk``'s pairs ``walk``
    when given (``high`` is then a leaf of the piece) or are re-interned by
    walking up again.  ``ids`` is left as it was."""
    children = tree.children
    if tree.parent.get(root) == high:
        sub = {}
        stack = [root]
        while stack:
            u = stack.pop()
            sub[u] = ids[u]
            stack.extend(filter(ids.__contains__, children[u]))
        return sub
    rest = dict(ids)
    if walk is not None:
        del rest[high]
        rest.update(walk)
        return rest
    stack = [high]
    while stack:
        u = stack.pop()
        del rest[u]
        stack.extend(filter(rest.__contains__, children[u]))
    u = tree.parent.get(high)
    while u in rest:
        key = tuple(sorted([rest[c] for c in children[u] if c in rest]))
        rest[u] = memo[key] if key in memo else _new_shape(key, memo)
        u = tree.parent.get(u)
    return rest


def _pd_tree(tree: RootedTree, t: int, memo: dict, trace: list | None, chain: tuple | None = None) -> int:
    """pd(R/I_t) of a tree that passed pd_recursive's check, by leaf
    splits in one loop over a stack of pieces; ``memo`` (one per t) maps
    shape ids to pd.  A piece is a root and a map from its vertices to
    their shape ids; it holds the ancestors of its vertices up to its root,
    so children, parents and levels are read from ``tree``'s maps, and its
    deepest level is its root's level plus the height ``memo`` records for
    its root's shape.  Only ``tree`` gets its shape ids from scratch.

    A piece popped the first time is split once by ``_split`` and pushed
    back, as its id and split alone, under its sub-pieces: the piece less
    the leaf, then the components of the piece less the removed zone Z
    (sorted by root), each only where its height is at least t-1.  One
    ``_walk`` from the leaf gives the keys of the piece less the leaf and
    of the zone's root component, the piece less the subtree at the highest
    vertex of Z (the parent p of the path's top, or the top); every other
    component hangs below a vertex of Z, so its key is its root's id.  A
    sub-piece waits on the stack as its key, its root and its parent's map,
    and ``_build`` makes its own map only when it is popped and its key is
    not memoized, so each split after the first builds one map.  The piece
    less the leaf, popped next, keeps the walk's ids; the zone's root
    component walks up again on a miss: on a line it waits, a memo hit,
    under the whole descent, and a variant that kept its ids there peaked
    at 495 MiB on line(3000) at t=3, against 185 MiB.  Splits,
    trace steps (one SplittingData each) and memo hits come in the
    pre-order of a recursive descent.  Popped again, a piece's sub-pieces
    are all memoized and its value is max(sum over the leaf's cut, sum over
    the zone's cut + off_path_count + 1).

    A prescribed ``chain``, a generator read from the top that ends at a
    leaf, is the first split.  The root's value then depends on that
    choice, so it is filed under a fresh key and dropped at the end: a
    value under the root's shape id would answer later calls that
    prescribe another chain."""
    parent, children, levels = tree.parent, tree.children, tree.levels
    ids = _shape_ids(tree, memo)
    heights = memo[_HEIGHTS]
    root_key = ids[tree.root] if chain is None else object()
    # a piece waits as (key, root, map, high, walk): the map is its own when
    # high is None, else its parent's, to build from with ``_build``; a split
    # piece comes back as (key, None, zone keys, leaf key, off-path count),
    # flat, since one waits per level of the descent
    stack: list = [(root_key, tree.root, ids, None, None)]
    while stack:
        key, root, ids, high, walk = stack.pop()
        if key in memo:
            continue
        if root is None:
            zone, leaf, count = ids, high, walk  # leaf is None where its piece has a zero ideal
            memo[key] = max(memo.get(leaf, 0), sum(memo[k] for k in zone) + count + 1)
            continue
        if high is not None:
            ids = _build(tree, ids, root, high, walk, memo)
        deepest = levels[root] + heights[ids[root]]
        path, off_path = _split(tree, t, (ids, deepest), chain if key is root_key else None)
        removed = off_path.union(path)
        if trace is not None:
            trace.append(SplittingData(path, frozenset(off_path), frozenset(ids)))
        top, bottom = path[0], path[-1]
        high = parent[top] if parent.get(top) in removed else top
        walk, zone_key = _walk(tree, ids, bottom, high, memo)
        leaf_key = walk[-1][1]
        # the zone's components as (root, key, cut vertex), sorted by root
        zone = [(root, zone_key, high)] if zone_key is not None else []
        zone += [(c, ids[c], v) for v in removed for c in children[v] if c in ids and c not in removed]
        zone = sorted(comp for comp in zone if heights[comp[1]] >= t - 1)
        leaf = leaf_key if heights[leaf_key] >= t - 1 else None
        stack.append((key, None, [k for _, k, _ in zone], leaf, len(off_path)))
        stack.extend((k, c, ids, v, None) for c, k, v in reversed(zone))
        if leaf is not None:
            stack.append((leaf, root, ids, bottom, walk))
    return memo[root_key] if chain is None else memo.pop(root_key)


def pd_recursive(tree: RootedTree, t: int, trace: list | None = None) -> int:
    """pd(R/I_t) by leaf splitting.  Raises NotProperlyConnectedError,
    before any split, when the facet complex of ``tree`` is not
    properly-connected; the caller should then fall back to the Hochster
    route.

    The precondition is checked once, since every piece of the recursion
    inherits it.  A proper chain from facet F to facet G of
    length exactly t - |F & G| must, at every step, drop a vertex outside G
    and add a vertex of G, so every facet on the chain lies in F | G.  Every
    piece is a vertex-deletion subforest, whose facets are the tree's paths
    that avoid the deleted vertices; so for two facets of a piece the chain
    survives in the piece.  An exhaustive test over small trees checks the
    inheritance.

    The splits run in ``_pd_tree``'s loop, without Python recursion, and
    one memo serves every piece.  Each split walks once from its leaf to
    its piece's root, so a line of n vertices costs O(n^2): line(3000) at
    t=3 takes 1.8-3.2 s and peaks at 185 MiB in a fresh process (Python
    3.11, shared 2-CPU host).  Bushy trees split far more often than lines:
    on ``random_tree(7, n)`` at t=2 the trace has 1,982 splits for n = 100,
    20,252 for n = 200 and 598,698 for n = 400 (0.06 s, 1.3 s and, timed
    before the one-walk split, 51-77 s in-process); the count grows more
    than tenfold per doubling of n, so n = 3000 is out of reach.  Untried:
    R/I_t of a tree is sequentially Cohen-Macaulay, so pd equals the big
    height (the largest minimal vertex cover of the generators), which a
    dynamic program over the tree could compute, as ``edge_pd_forest`` in
    ``bench/checks.py`` does for t=2."""
    _check_properly_connected(path_ideal(tree, t))
    return _pd_tree(tree, t, {}, trace) if tree.height() >= t - 1 else 0


def _check_properly_connected(ideal: SquarefreeIdeal) -> None:
    """The recursion's precondition on ``ideal`` = I_t(tree), which the
    caller builds and may hold; pd_recursive drops it before any split."""
    ok, pair = is_properly_connected(facet_complex(ideal))
    if not ok:
        raise NotProperlyConnectedError(pair)


def pd_quotient_hochster(
    ideal: SquarefreeIdeal, field: Field = QQ, max_n: int | None = None
) -> int:
    return pd_from_betti(betti_table_hochster(ideal, field, max_n).as_quotient())


def verify_betti_splitting(
    J: SquarefreeIdeal, K: SquarefreeIdeal, field: Field = QQ, max_n: int | None = None
) -> bool:
    """Entrywise check of
    beta_{i,j}(J+K) = beta_{i,j}(J) + beta_{i,j}(K) + beta_{i-1,j}(J cap K)
    with all four tables computed over the given field."""
    if J.gens & K.gens:
        raise ValueError("the generator sets must be disjoint")
    ambient = J.ambient | K.ambient
    J2, K2 = J.with_ambient(ambient), K.with_ambient(ambient)
    total = ideal_sum(J2, K2)
    jk = ideal_intersect(J2, K2)
    t_total = betti_table_hochster(total, field, max_n)
    t_j = betti_table_hochster(J2, field, max_n)
    t_k = betti_table_hochster(K2, field, max_n)
    t_jk = betti_table_hochster(jk, field, max_n)
    keys = set(t_total.entries) | set(t_j.entries) | set(t_k.entries)
    keys |= {(i + 1, j) for i, j in t_jk.entries}
    for i, j in keys:
        expected = t_j.value(i, j) + t_k.value(i, j) + t_jk.value(i - 1, j)
        if t_total.value(i, j) != expected:
            return False
    return True


def verify_intersection_lemma(ideal: SquarefreeIdeal, sd: SplittingData) -> bool:
    """Check the intersection lemma that makes the leaf split ``sd`` of a
    tree T, with ``ideal`` = I_t(T), a Betti splitting:
    I_t(T - leaf) cap (x_F) = x_F ((x_y : y in off_path) + I_t(T - Z)),
    where F is the split facet, the leaf its lowest vertex and Z the
    removed zone.  A path of T - S is a parent chain of T that avoids S,
    so I_t(T - S) is the ideal of the generators of ``ideal`` that avoid S."""
    ambient = ideal.ambient

    def avoiding(gone: set) -> SquarefreeIdeal:
        return make_ideal([g for g in ideal.gens if not g & gone], ambient=ambient)

    left = ideal_intersect(avoiding({sd.path[-1]}), make_ideal([sd.facet], ambient=ambient))
    inner = ideal_sum(make_ideal([{y} for y in sd.off_path], ambient=ambient), avoiding(sd.removed))
    return ideal_equals(left, ideal_multiply(sd.facet, inner))


METHODS = ("closed-form", "recursion", "hochster")


@dataclass
class PdReport:
    value: int
    method: str
    values: dict = dc_field(default_factory=dict)
    trace: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)


def pd_auto(
    tree: RootedTree,
    t: int,
    field: Field = QQ,
    method: str = "auto",
    verify: bool = False,
    max_n: int | None = None,
) -> PdReport:
    """Dispatch over the routes that apply, in METHODS order (the closed
    form only for a line graph).  ``auto`` takes the first route that does
    not raise NotProperlyConnectedError; an explicit ``method`` runs its
    route first and lets its errors through.  With ``verify`` every
    applicable route runs once and all must agree, and the recursion is
    re-checked from every leaf-ending first split, each cut by
    ``_pd_tree``'s own loop into the pieces the recursion uses.  Only
    ``auto``, ``closed-form`` and ``verify`` can reach the closed form, so
    only they look for a line order."""
    if method != "auto" and method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    ideal = path_ideal(tree, t)
    if ideal.is_zero:
        return PdReport(value=0, method="zero" if method == "auto" else method, values={"zero": 0})

    values: dict[str, int] = {}
    notes: list[str] = []
    trace: list = []
    line = line_order(ideal) if verify or method in ("auto", "closed-form") else None

    def run(name: str) -> int:
        if name == "closed-form":
            if line is None:
                raise ValueError("closed form applies only to a single line graph")
            return pd_line_closed_form(len(line[1]), t)
        if name == "recursion":
            _check_properly_connected(ideal)
            return _pd_tree(tree, t, {}, trace)  # the ideal is not zero here
        return pd_quotient_hochster(ideal, field, max_n)

    routes = [name for name in METHODS if line is not None or name != "closed-form"]
    if method != "auto":
        routes = [method] + [name for name in routes if name != method]
    # an explicit method's route and hochster (auto's last) return or raise,
    # so ``values`` is never empty after the loop
    for name in routes:
        if values and not verify:
            break
        try:
            values[name] = run(name)
        except NotProperlyConnectedError as exc:
            if name == method:
                raise
            notes.append(f"recursion inapplicable: {exc}")
    chosen = next(iter(values))

    if verify:
        if len(set(values.values())) > 1:
            raise RuntimeError(f"projective-dimension methods disagree: {values}")
        # split at every leaf-ending generator first; the pieces share a memo
        if "recursion" in values:
            memo: dict = {}
            for alt in enumerate_paths(tree, t):
                if tree.children[alt[-1]]:
                    continue
                alt_value = _pd_tree(tree, t, memo, None, alt)
                if alt_value != values["recursion"]:
                    raise RuntimeError(
                        f"recursion value depends on the split choice: {alt} gives {alt_value}"
                    )

    return PdReport(value=values[chosen], method=chosen, values=values, trace=trace, notes=notes)
