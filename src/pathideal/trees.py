"""Rooted directed trees, forests, path enumeration, and path ideals.

Edges point away from the root.  A *path of t vertices* is a chain
v_1 -> v_2 -> ... -> v_t of parent-to-child edges; note that t counts
vertices, not edges (graph-theory texts differ on this convention).  A
*leaf* of the tree is a vertex of undirected degree one, which can include
the root when it has a single child.

All types are immutable values; operations are pure functions.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Union

from .ideals import SquarefreeIdeal, make_ideal


class TreeError(ValueError):
    """Malformed tree input, or an operation on an absent vertex."""


@dataclass(frozen=True)
class RootedTree:
    root: int
    parent: dict            # child -> parent (the root has no entry)
    children: dict          # vertex -> tuple of children, sorted by id
    levels: dict            # vertex -> number of edges from the root
    vertices: tuple         # all vertex ids, sorted

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], root: int | None = None) -> "RootedTree":
        edges = [(int(u), int(v)) for u, v in edges]
        for u, v in edges:
            if u <= 0 or v <= 0:
                raise TreeError(f"vertex ids must be positive, got edge ({u}, {v})")
        if not edges:
            if root is None:
                raise TreeError("empty input: no edges and no declared root")
            if root <= 0:
                raise TreeError("vertex ids must be positive")
            return cls(root, {}, {root: ()}, {root: 0}, (root,))

        parent: dict[int, int] = {}
        seen = set()
        for u, v in edges:
            if u == v:
                raise TreeError(f"cycle: self-loop at vertex {u}")
            if (u, v) in seen:
                raise TreeError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            if v in parent:
                raise TreeError(f"vertex {v} has two parents ({parent[v]} and {u})")
            parent[v] = u

        vertices = {u for u, _ in edges} | {v for _, v in edges}
        if root is not None:
            if root not in vertices:
                raise TreeError(f"declared root {root} does not appear in any edge")
            if root in parent:
                raise TreeError(f"declared root {root} has an incoming edge")
        else:
            candidates = sorted(v for v in vertices if v not in parent)
            if not candidates:
                raise TreeError("cycle detected: every vertex has an incoming edge")
            if len(candidates) > 1:
                raise TreeError(f"multiple roots {candidates}: input is disconnected")
            root = candidates[0]

        kids: dict[int, list[int]] = {v: [] for v in vertices}
        for u, v in edges:
            kids[u].append(v)
        children = {v: tuple(sorted(c)) for v, c in kids.items()}

        levels = {root: 0}
        queue = [root]
        while queue:
            u = queue.pop()
            for c in children[u]:
                levels[c] = levels[u] + 1
                queue.append(c)
        unreached = vertices - levels.keys()
        if unreached:
            if all(v in parent for v in unreached):
                raise TreeError("cycle detected among vertices " + str(sorted(unreached)))
            raise TreeError("disconnected input: vertices " + str(sorted(unreached)) + " unreachable from the root")

        return cls(root, parent, children, levels, tuple(sorted(vertices)))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def level(self, v: int) -> int:
        """Number of edges on the unique root-to-v path; level(root) = 0."""
        try:
            return self.levels[v]
        except KeyError:
            raise TreeError(f"unknown vertex {v}") from None

    def height(self) -> int:
        return max(self.levels.values())

    def degree(self, v: int) -> int:
        if v not in self.levels:
            raise TreeError(f"unknown vertex {v}")
        return len(self.children[v]) + (0 if v == self.root else 1)

    def leaves(self) -> frozenset:
        """Vertices of undirected degree one.  May include the root when it
        has exactly one child."""
        if self.n < 2:
            raise TreeError("leaves are only defined for a tree with at least two vertices")
        return frozenset(v for v in self.vertices if self.degree(v) == 1)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((self.parent[v], v) for v in self.vertices if v != self.root))


@dataclass(frozen=True)
class Forest:
    components: tuple

    def __post_init__(self):
        seen: set[int] = set()
        for t in self.components:
            overlap = seen & set(t.vertices)
            if overlap:
                raise TreeError(f"forest components share vertices {sorted(overlap)}")
            seen.update(t.vertices)

    @property
    def vertices(self) -> tuple:
        out: list[int] = []
        for t in self.components:
            out.extend(t.vertices)
        return tuple(sorted(out))

    @property
    def n(self) -> int:
        return sum(t.n for t in self.components)

    @property
    def is_empty(self) -> bool:
        return not self.components


TreeOrForest = Union[RootedTree, Forest]


def component_trees(g: TreeOrForest) -> tuple[RootedTree, ...]:
    if isinstance(g, RootedTree):
        return (g,)
    return g.components


def parse_tree(text: str) -> RootedTree:
    """Parse the line-oriented tree file format.

    '#' starts a comment line, an optional line ``root <id>`` declares the
    root, and every other non-empty line ``u v`` declares the directed edge
    u -> v.  Without a root declaration the root is the unique vertex with
    no incoming edge.
    """
    root: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "root":
            if len(parts) != 2:
                raise TreeError(f"line {lineno}: expected 'root <id>'")
            if root is not None:
                raise TreeError(f"line {lineno}: root declared twice")
            try:
                root = int(parts[1])
            except ValueError:
                raise TreeError(f"line {lineno}: root id must be an integer") from None
            continue
        if len(parts) != 2:
            raise TreeError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise TreeError(f"line {lineno}: vertex ids must be integers") from None
        edges.append((u, v))
    return RootedTree.from_edges(edges, root=root)


def format_tree(tree: RootedTree) -> str:
    lines = [f"root {tree.root}"]
    lines.extend(f"{u} {v}" for u, v in tree.edges())
    return "\n".join(lines) + "\n"


def tree_to_json(tree: RootedTree) -> str:
    return json.dumps({"root": tree.root, "edges": [list(e) for e in tree.edges()]}, sort_keys=True)


def tree_from_json(text: str) -> RootedTree:
    data = json.loads(text)
    return RootedTree.from_edges([tuple(e) for e in data["edges"]], root=data["root"])


def chain_above(tree: RootedTree, end: int, t: int) -> tuple[int, ...]:
    """The path of t vertices ending at ``end`` (level >= t-1), read from the top."""
    chain = [end]
    for _ in range(t - 1):
        chain.append(tree.parent[chain[-1]])
    return tuple(reversed(chain))


def enumerate_paths(g: TreeOrForest, t: int) -> list[tuple[int, ...]]:
    """All directed downward paths on exactly t vertices, sorted by end
    vertex id.  Each path is the unique chain of t-1 ancestors above a
    vertex of level >= t-1."""
    if t < 2:
        raise ValueError("paths need at least two vertices (t >= 2)")
    paths = [
        chain_above(tree, end, t)
        for tree in component_trees(g)
        for end in tree.vertices
        if tree.level(end) >= t - 1
    ]
    paths.sort(key=lambda p: (p[-1], p))
    return paths


def path_ideal(g: TreeOrForest, t: int) -> SquarefreeIdeal:
    """The ideal minimally generated by the supports of all paths of t
    vertices, over all components."""
    ambient = []
    for tree in component_trees(g):
        ambient.extend(tree.vertices)
    return make_ideal((frozenset(p) for p in enumerate_paths(g, t)), ambient=ambient)


def delete_vertices(g: TreeOrForest, remove: Iterable[int]) -> Forest:
    """Remove the given vertices and all incident edges; each surviving
    component is rooted at its unique vertex without a surviving parent.
    Components come sorted by root; children tuples stay sorted with the
    deleted vertices left out, and levels count from the new root.

    Each component is one walk down from its root: the tree's root unless
    it is removed, and every surviving child of a removed vertex.  The
    input's maps are never changed."""
    gone = set(remove)
    comps = []
    for tree in component_trees(g):
        roots = [c for v in gone if v in tree.levels for c in tree.children[v] if c not in gone]
        if tree.root not in gone:
            roots.append(tree.root)
        for r in roots:
            parent, children, levels, stack = {}, {}, {r: 0}, [r]
            while stack:
                u = stack.pop()
                children[u] = tuple(c for c in tree.children[u] if c not in gone)
                for c in children[u]:
                    parent[c], levels[c] = u, levels[u] + 1
                stack.extend(children[u])
            comps.append(RootedTree(r, parent, children, levels, tuple(sorted(levels))))
    comps.sort(key=lambda c: c.root)
    return Forest(tuple(comps))
