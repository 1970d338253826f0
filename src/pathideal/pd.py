"""Projective dimension of path-ideal quotients by three routes.

* a closed form when the path ideal is that of a line graph;
* a leaf-split recursion, valid when the facet complex is
  properly-connected, checked once, since every piece inherits it;
* the Hochster-table route, which works unconditionally within bounds.

All values refer to pd(R/I) for the quotient.  The recursion on forests
uses variable-disjoint additivity: pd of a quotient by a sum of ideals in
disjoint variables is the sum of the component quotient pds (the Koszul
tensor argument), with components carrying the zero ideal contributing 0.
Vertex deletion can disconnect a tree, so this forest extension is what
makes the recursion total; cross-validate it against the Hochster route
with ``pd_auto(..., verify=True)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .homology import Field, QQ, betti_table_hochster, pd_from_betti
from .ideals import SquarefreeIdeal, ideal_intersect, ideal_sum
from .simplicial import _proper_neighbours, facet_complex, is_properly_connected
from .trees import Forest, RootedTree, TreeOrForest, chain_above, component_trees
from .trees import delete_vertices, enumerate_paths, path_ideal


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
    """The leaf split rule on ``piece``, a container of vertices of
    ``tree`` that holds the ancestors of each of its vertices up to its
    root, as (chain, off path).  The chain is ``chain``, a parent chain of
    t vertices read from the top, or by default the smallest of the chains
    above the deepest vertices of the piece.  Its off path is the children
    of its bottom, the other children of its second-lowest vertex and the
    parent of its top, each only where it lies in the piece."""
    if chain is None:
        levels = tree.levels
        deepest = max(map(levels.__getitem__, piece))
        chain = min(chain_above(tree, v, t) for v in piece if levels[v] == deepest)
    top, second_lowest, bottom = chain[0], chain[-2], chain[-1]
    off_path = {c for c in tree.children[bottom] if c in piece}
    off_path.update(c for c in tree.children[second_lowest] if c != bottom and c in piece)
    if tree.parent.get(top) in piece:
        off_path.add(tree.parent[top])
    return chain, off_path


def leaf_generator(tree: RootedTree, t: int) -> tuple[int, ...]:
    """A generator path ending at a leaf of the tree: the smallest of the
    chains of t vertices above the deepest vertices.  A deepest vertex
    always works since its level is at least t-1."""
    if t < 2:
        raise ValueError("paths need at least two vertices (t >= 2)")
    if tree.height() < t - 1:
        raise ValueError("the path ideal is zero; no generator to pick")
    return _split(tree, t, tree.levels)[0]


@dataclass(frozen=True)
class SplittingData:
    """The data of a leaf split at generator path w.

    off_path collects, over all facets meeting the path's facet in t-1
    vertices, the vertices outside the path; removed is its union with the
    facet.  minus_leaf and minus_zone are the forests left after deleting
    the path's final vertex, respectively the whole removed zone.
    """

    path: tuple
    facet: frozenset
    off_path: frozenset
    removed: frozenset
    minus_leaf: Forest
    minus_zone: Forest

    @property
    def off_path_count(self) -> int:
        return len(self.off_path)


def splitting_data(tree: RootedTree, t: int, path: tuple | None = None) -> SplittingData:
    """The leaf split at ``path``, a generator in any vertex order whose
    last vertex is a leaf (default: leaf_generator).

    The path is a generator iff its vertices, sorted by level, form a
    parent chain p_1 -> ... -> p_t.  Two downward paths meet in a chain,
    so a t-path sharing t-1 vertices with it is one of three kinds: the
    shift one step up (through the parent of p_1), a shift one step down
    (through a child of p_t), or the path ending at a sibling of p_t
    (another child of p_(t-1)).  Those vertices are off_path."""
    if path is None:
        path = leaf_generator(tree, t)
    path = tuple(path)
    last = path[-1]
    if tree.degree(last) != 1:
        raise ValueError(f"splitting path must end at a leaf; vertex {last} has degree {tree.degree(last)}")
    if t < 2:
        raise ValueError("paths need at least two vertices (t >= 2)")
    facet = frozenset(path)
    chain = sorted(facet, key=lambda v: tree.levels.get(v, -1))
    if len(chain) != t or not facet <= tree.levels.keys() or any(
        tree.parent.get(below) != above for above, below in zip(chain, chain[1:])
    ):
        raise ValueError("the given path is not a generator")
    _, off_path = _split(tree, t, tree.levels, chain)
    removed = frozenset(off_path) | facet
    return SplittingData(
        path=path,
        facet=facet,
        off_path=frozenset(off_path),
        removed=removed,
        minus_leaf=delete_vertices(tree, {last}),
        minus_zone=delete_vertices(tree, removed),
    )


def _shape_ids(tree: RootedTree, memo: dict) -> dict[int, int]:
    """Each vertex's rooted subtree shape as an int (Aho-Hopcroft-Ullman):
    one pass up the levels interns each vertex's sorted tuple of child ids.
    Under one table, ids are equal iff the rooted shapes are isomorphic, so
    their path ideals differ only by relabeling.  The table is ``memo``
    itself, under tuple keys, so the ids live exactly as long as the pd
    values they key."""
    ids: dict[int, int] = {}
    for v in sorted(tree.vertices, key=tree.levels.__getitem__, reverse=True):
        ids[v] = memo.setdefault(tuple(sorted(map(ids.__getitem__, tree.children[v]))), len(memo))
    return ids


@dataclass
class RecursionStep:
    tree_vertices: tuple
    path: tuple
    off_path: tuple
    removed: tuple


def _cut(tree: RootedTree, root: int, ids: dict, removed, t: int, memo: dict) -> list[tuple[int, dict]]:
    """The components with a nonzero path ideal of the piece of ``tree``
    at ``root`` whose vertices map to their shape ids in ``ids``, less the
    vertices in the set ``removed``, as (root, id map) pairs sorted by
    root.

    Deleting vertices changes a subtree only at a surviving ancestor of a
    removed vertex, so only those are re-interned, in one copy of ``ids``:
    each removed vertex's walk up re-interns its ancestors bottom-up, from
    their children left in the piece, and stops at a removed vertex or
    above the piece's root.  A vertex two walks reach is re-interned last by a walk
    that passed all of its changed children.  Every subtree hanging below a
    removed vertex then leaves the copy as a component of its own, and what
    stays is the component of the root."""
    parent, children, levels = tree.parent, tree.children, tree.levels
    rest = dict(ids)
    for v in removed:
        rest.pop(v, None)
    for v in removed:
        u = parent.get(v)
        while u in rest:
            kids = children[u]
            if len(kids) == 1:  # every vertex on a line: no sort
                key = (rest[kids[0]],) if kids[0] in rest else ()
            else:
                key = tuple(sorted([rest[c] for c in kids if c in rest]))
            rest[u] = memo.setdefault(key, len(memo))
            u = parent.get(u)
    comps = [(c, {}) for v in removed for c in children[v] if c in rest]
    for c, sub in comps:
        stack = [c]
        while stack:
            u = stack.pop()
            sub[u] = rest.pop(u)
            stack.extend(w for w in children[u] if w in rest)
    if root in rest:
        comps.append((root, rest))
    comps = [(r, sub) for r, sub in comps if max(map(levels.__getitem__, sub)) - levels[r] >= t - 1]
    return sorted(comps, key=lambda comp: comp[0])


def _pd_tree(tree: RootedTree, t: int, memo: dict, trace: list | None, chain: tuple | None = None) -> int:
    """pd(R/I_t) of a piece of a forest that passed pd_recursive's check,
    by leaf splits in one loop over a stack of pieces; ``memo`` (one per t)
    maps shape ids to pd.  A piece is a root and a map from its vertices to
    their shape ids; it holds the ancestors of its vertices up to its root,
    so children, parents and levels are read from ``tree``'s maps.  Only
    ``tree`` gets its shape ids from scratch; ``_cut`` derives each
    sub-piece's from its parent piece's.  A piece popped the first time is
    split once by ``_split`` and pushed back, as its id and split alone,
    under the components of minus_leaf, then of minus_zone, so splits,
    trace steps and memo hits come in the pre-order of a recursive descent.
    Popped again, its sub-pieces are all memoized and its value is
    max(sum over minus_leaf, sum over minus_zone + off_path_count + 1).

    A prescribed ``chain``, a generator read from the top that ends at a
    leaf, is the first split.  The root's value then depends on that
    choice, so it is filed under a fresh key and dropped at the end: a
    value under the root's shape id would answer later calls that
    prescribe another chain."""
    ids = _shape_ids(tree, memo)
    root_key = ids[tree.root] if chain is None else object()
    stack: list = [(root_key, tree.root, ids, None)]
    while stack:
        key, root, ids, split = stack.pop()
        if key in memo:
            continue
        if split is not None:
            leaf, zone, count = split
            memo[key] = max(sum(memo[k] for k in leaf), sum(memo[k] for k in zone) + count + 1)
            continue
        path, off_path = _split(tree, t, ids, chain if key is root_key else None)
        removed = off_path.union(path)
        if trace is not None:
            trace.append(RecursionStep(tuple(sorted(ids)), path, tuple(sorted(off_path)), tuple(sorted(removed))))
        leaf = _cut(tree, root, ids, {path[-1]}, t, memo)
        zone = _cut(tree, root, ids, removed, t, memo)
        stack.append((key, None, None, ([sub[r] for r, sub in leaf], [sub[r] for r, sub in zone], len(off_path))))
        stack.extend((sub[r], r, sub, None) for r, sub in reversed(leaf + zone))
    return memo[root_key] if chain is None else memo.pop(root_key)


def pd_recursive(g: TreeOrForest, t: int, trace: list | None = None) -> int:
    """pd(R/I_t) by leaf splitting.  Raises NotProperlyConnectedError,
    before any split, for the first component of ``g`` whose facet complex
    is not properly-connected; the caller should then fall back to the
    Hochster route.

    The precondition is checked once per component, since every piece of
    the recursion inherits it.  A proper chain from facet F to facet G of
    length exactly t - |F & G| must, at every step, drop a vertex outside G
    and add a vertex of G, so every facet on the chain lies in F | G.  Every
    piece is a vertex-deletion subforest, whose facets are the tree's paths
    that avoid the deleted vertices; so for two facets of a piece the chain
    survives in the piece.  An exhaustive test over small trees checks the
    inheritance.

    The splits run in ``_pd_tree``'s loop, without Python recursion, and
    one memo serves every component.  Bushy trees split far more often than
    lines: on ``random_tree(7, n)`` at t=2 the trace has 1,982 splits for
    n = 100, 20,252 for n = 200 and 598,698 for n = 400 (0.1-0.2 s,
    1.5-3.5 s and 51-68 s in-process, Python 3.11, shared 2-CPU host); the
    count grows more than tenfold per doubling of n, so n = 3000 is out of
    reach.  Untried: R/I_t of a tree is sequentially Cohen-Macaulay, so
    pd equals the big height (the largest minimal vertex cover of the
    generators), which a dynamic program over the tree could compute, as
    ``edge_pd_forest`` in ``bench/checks.py`` does for t=2."""
    for tree in component_trees(g):
        ok, pair = is_properly_connected(facet_complex(path_ideal(tree, t)))
        if not ok:
            raise NotProperlyConnectedError(pair)
    memo: dict = {}
    return sum(_pd_tree(c, t, memo, trace) for c in component_trees(g) if c.height() >= t - 1)


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


METHODS = ("closed-form", "recursion", "hochster")


@dataclass
class PdReport:
    value: int
    method: str
    values: dict = dc_field(default_factory=dict)
    trace: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)


def pd_auto(
    g: TreeOrForest,
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
    applicable route runs once and all must agree, and on a tree the
    recursion is re-checked from every leaf-ending first split, each cut
    by ``_pd_tree``'s own loop into the pieces the recursion uses.  Only
    ``auto``, ``closed-form`` and ``verify`` can reach the closed form, so
    only they look for a line order."""
    if method != "auto" and method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    ideal = path_ideal(g, t)
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
            return pd_recursive(g, t, trace=trace)
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
        comps = component_trees(g)
        if "recursion" in values and len(comps) == 1:
            tree = comps[0]
            memo: dict = {}
            for alt in enumerate_paths(tree, t):
                if tree.degree(alt[-1]) != 1:
                    continue
                alt_value = _pd_tree(tree, t, memo, None, alt)
                if alt_value != values["recursion"]:
                    raise RuntimeError(
                        f"recursion value depends on the split choice: {alt} gives {alt_value}"
                    )

    return PdReport(value=values[chosen], method=chosen, values=values, trace=trace, notes=notes)
