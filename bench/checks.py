"""Expected answers, computed apart from the program under test.

Nothing here calls pathideal: trees arrive as plain edge lists, path ideals
are rebuilt from parent pointers, faces are counted by brute force, and
the closed forms and tree dynamic programs are written out from their
definitions.  The program's own `verify_sv_conditions` and
`pd_line_closed_form` are deliberately not used.
"""
from __future__ import annotations

from itertools import combinations
from math import comb


def children_of(edges):
    kids: dict[int, list[int]] = {}
    for u, v in edges:
        kids.setdefault(u, []).append(v)
        kids.setdefault(v, [])
    return kids


def t_paths(edges, root, t):
    """Vertex sets of the directed paths on t vertices, walking from every
    vertex up t-1 parents."""
    parent = {v: u for u, v in edges}
    out = []
    for end in {v for e in edges for v in e} | {root}:
        chain = [end]
        while len(chain) < t and chain[-1] in parent:
            chain.append(parent[chain[-1]])
        if len(chain) == t:
            out.append(frozenset(chain))
    return out


def line_pd(n, t):
    """pd(R/I_t(L_n)) from the paper's closed form: write n = p(t+1) + d
    with 0 <= d <= t; pd is 2p when d < t and 2p + 1 when d = t."""
    p, d = divmod(n, t + 1)
    return 2 * p + 1 if d == t else 2 * p


def face_polynomial(vertices, gens):
    """Coefficients of sum over faces F of t^|F| (1-t)^(n-|F|), the faces
    being the subsets of the vertices that contain no generator; counted by
    brute force over all 2^n subsets."""
    order = sorted(vertices)
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    masks = [sum(1 << pos[v] for v in g) for g in gens]
    f = [0] * (n + 1)
    for s in range(1 << n):
        if not any(g & s == g for g in masks):
            f[s.bit_count()] += 1
    poly = [0] * (n + 1)
    for k, count in enumerate(f):
        for e in range(n - k + 1):
            poly[k + e] += count * comb(n - k, e) * (-1) ** e
    return poly


def betti_polynomial(ideal_entries, n):
    """sum over (i, j) of (-1)^i beta_{i,j}(R/I) t^j, from the ideal's
    table: beta_{i+1,j}(R/I) = beta_{i,j}(I) and beta_{0,0}(R/I) = 1."""
    poly = [0] * (n + 1)
    poly[0] = 1
    for (i, j), v in ideal_entries.items():
        poly[j] += (-1) ** (i + 1) * v
    return poly


def independent_domination(edges, root):
    """Smallest independent dominating set of a tree, by the three-state
    dynamic program: v in the set; v out and dominated by a child; v out
    and left for its parent to dominate."""
    kids = children_of(edges)
    if not kids:
        return 1
    order = [root]
    for v in order:
        order.extend(kids[v])
    inf = float("inf")
    take, covered, free = {}, {}, {}
    for v in reversed(order):
        cs = kids[v]
        take[v] = 1 + sum(free[c] for c in cs)
        best = sum(min(take[c], covered[c]) for c in cs)
        free[v] = best
        covered[v] = best + min((take[c] - min(take[c], covered[c]) for c in cs), default=inf)
    return min(take[root], covered[root])


def edge_pd_forest(edges, root):
    """pd(R/I(G)) of a tree G with n vertices.  Forest edge ideals are
    sequentially Cohen-Macaulay, so pd equals the big height, the largest
    minimal vertex cover, which is n minus the independent domination
    number."""
    return len(children_of(edges)) - independent_domination(edges, root)


def sv_violation(parts, gens):
    """First violated Schmitt-Vogel condition of an ordered partition, or
    None.  (1) the parts are disjoint and cover the generators; (2) the
    first part is a single generator; (3) for distinct p, p' in a later
    part some generator in an earlier part divides p*p'."""
    parts = [[frozenset(m) for m in part] for part in parts]
    flat = [m for part in parts for m in part]
    if not parts or any(not p for p in parts) or len(flat) != len(set(flat)) or set(flat) != set(gens):
        return "condition (1)"
    if len(parts[0]) != 1:
        return "condition (2)"
    earlier = list(parts[0])
    for part in parts[1:]:
        for p, q in combinations(part, 2):
            if not any(g <= p | q for g in earlier):
                return "condition (3)"
        earlier.extend(part)
    return None
