"""The three workloads: their inputs, the calls into the program, and how
each output is checked.

Tree shapes are fixed, so that a batch costs about the same on every seed.
The seed draws the vertex labels, which the program's cache keys and pivot
order do depend on: a line graph gets random ids increasing along the path
(the labelling of the paper's L_n, which keeps it recognisable as a line),
every other tree gets random ids in random order.  Shapes come from
`pathideal.corpus.random_tree(shape_seed, n)`; corpus is not timed.

Every item is one call into the program on one tree or ideal.  The
expected answers come from `checks`, never from the function under test.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks

# passed explicitly, so that PATHIDEAL_MAX_N in the environment cannot
# change the workload; the largest tree in betti-fields has 13 vertices
HOCHSTER_MAX_N = 13


@dataclass
class Item:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # output -> problem, or None


@dataclass
class Shape:
    name: str
    edges: list
    root: int
    is_line: bool


def line_shape(n):
    return Shape(f"L{n}", [(i, i + 1) for i in range(1, n)], 1, True)


def random_shape(shape_seed, n):
    from pathideal.corpus import random_tree

    tree = random_tree(shape_seed, n)
    return Shape(f"R{n}s{shape_seed}", list(tree.edges()), tree.root, False)


def relabel(shape, rng):
    vertices = sorted({v for e in shape.edges for v in e} | {shape.root})
    ids = rng.sample(range(1, 10 * len(vertices) + 1), len(vertices))
    if shape.is_line:
        ids.sort()  # vertices of a line shape are numbered along the path
    m = dict(zip(vertices, ids))
    return [(m[u], m[v]) for u, v in shape.edges], m[shape.root]


def _tree(edges, root):
    from pathideal import RootedTree

    return RootedTree.from_edges(edges, root=root)


# -- betti-fields ----------------------------------------------------------
BETTI_SHAPES = [(12000, 12), (12001, 12), (12003, 12), (12005, 12),
                (13000, 11), (13001, 11), (11001, 11), (11008, 11)]
BETTI_LINES = [12, 13]


def betti_fields(seed, tree_dir):
    from pathideal import DEFAULT_FIELDS, path_ideal

    homology = importlib.import_module("pathideal.homology")
    rng = random.Random(seed)
    shapes = [random_shape(s, n) for s, n in BETTI_SHAPES] + [line_shape(n) for n in BETTI_LINES]
    items = []
    for shape in shapes:
        edges, root = relabel(shape, rng)
        ideal = path_ideal(_tree(edges, root), 3)

        def call(ideal=ideal):
            return homology.betti_tables_hochster(ideal, DEFAULT_FIELDS, max_n=HOCHSTER_MAX_N)

        items.append(Item(f"betti {shape.name} t=3", call, _betti_check(shape, edges, root)))
    return items


def _betti_check(shape, edges, root):
    t = 3

    @functools.cache
    def expected():
        paths = checks.t_paths(edges, root, t)
        vertices = {v for e in edges for v in e}
        return paths, len(vertices), checks.face_polynomial(vertices, paths)

    def check(tables):
        paths, n, faces = expected()
        entries = {str(f): dict(tb.entries) for f, tb in tables.items()}
        if len(entries) != 4:
            return f"expected 4 fields, got {sorted(entries)}"
        first = next(iter(entries.values()))
        if any(e != first for e in entries.values()):
            return "Betti tables differ between fields"
        if checks.betti_polynomial(first, n) != faces:
            return "alternating Betti sum differs from the face count"
        linear = {j: v for (i, j), v in first.items() if i == 0}
        if linear != {t: len(paths)}:
            return f"beta_0 is {linear}, expected {len(paths)} generators of degree {t}"
        if shape.is_line:
            pd = 1 + max(i for i, _ in first)
            if pd != checks.line_pd(n, t):
                return f"pd {pd} differs from the closed form {checks.line_pd(n, t)}"
        return None

    return check


# -- scm-skeleta -----------------------------------------------------------
SCM_SHAPES = ([(10000 + k, 10, 3) for k in range(1, 4)]
              + [(11000 + k, 11, 2) for k in range(4)] + [(12000 + k, 12, 2) for k in range(5)])
SCM_LINES = [(10, 4)]


def scm_skeleta(seed, tree_dir):
    from pathideal import QQ, gf, path_ideal
    from pathideal.corpus import four_cycle_edge_ideal

    homology = importlib.import_module("pathideal.homology")
    rng = random.Random(seed)
    cases = [(random_shape(s, n), t) for s, n, t in SCM_SHAPES]
    cases += [(line_shape(n), t) for n, t in SCM_LINES]
    items = []

    def item(name, ideal, expected):
        def call():
            return (homology.is_sequentially_cm(ideal, QQ), homology.is_sequentially_cm(ideal, gf(2)))

        def check(out):
            return None if out == (expected, expected) else f"sequentially CM over (Q, GF(2)) is {out}"

        items.append(Item(name, call, check))

    for shape, t in cases:
        edges, root = relabel(shape, rng)
        # the facet complex of a path ideal of a rooted tree is a simplicial
        # tree, so every quotient here is sequentially Cohen-Macaulay
        item(f"scm {shape.name} t={t}", path_ideal(_tree(edges, root), t), True)
    item("scm 4-cycle control", four_cycle_edge_ideal(), False)
    return items


# -- pd-combinatorial ------------------------------------------------------
PD_LINES = [(50, 3), (50, 4), (60, 3), (60, 4), (80, 3)]
PD_TREES = [(4000, 40), (5002, 50), (6001, 60)]
FOREST_SHAPES = [(17000, 17, 2), (21010, 21, 3), (18000, 18, 2)]  # 16, 16, 17 facets
ARA_LINES = [10, 11, 12, 13]  # every residue mod 4; 10 = 2 (mod 4) runs the search


def run_cli(args):
    """One in-process `pathideal.cli.main` call; returns the exit code and
    standard output."""
    cli = importlib.import_module("pathideal.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args + ["--format", "json"])
    return code, out.getvalue()


class CliFailure(Exception):
    """A CLI call that ended without a JSON answer."""


def _cli_call(args):
    def call():
        code, text = run_cli(args)
        try:
            return code, json.loads(text)
        except ValueError:
            raise CliFailure(f"exit {code} without a JSON answer") from None
    return call


def pd_combinatorial(seed, tree_dir):
    from pathideal.trees import format_tree

    rng = random.Random(seed)
    items = []

    def write(shape):
        edges, root = relabel(shape, rng)
        path = os.path.join(tree_dir, f"{shape.name}.tree")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_tree(_tree(edges, root)))
        return path, edges, root

    def add(name, args, check):
        items.append(Item(name, _cli_call(args), check))

    lines = {n: write(line_shape(n)) for n in sorted({n for n, _ in PD_LINES} | set(ARA_LINES))}
    for n, t in PD_LINES:
        add(f"pd L{n} t={t}", ["pd", lines[n][0], "-t", str(t), "--method", "recursion"],
            _pd_check(lambda n=n, t=t: checks.line_pd(n, t)))
    for s, n in PD_TREES:
        shape = random_shape(s, n)
        path, edges, root = write(shape)
        add(f"pd {shape.name} t=2", ["pd", path, "-t", "2", "--method", "recursion"],
            _pd_check(lambda edges=edges, root=root: checks.edge_pd_forest(edges, root)))
        add(f"properly-connected {shape.name} t=2", ["check", "properly-connected", path, "-t", "2"], _yes)
    for s, n, t in FOREST_SHAPES:
        shape = random_shape(s, n)
        path, _, _ = write(shape)
        add(f"simplicial-tree {shape.name} t={t}", ["check", "simplicial-tree", path, "-t", str(t)], _yes)
    for n in ARA_LINES:
        path, edges, root = lines[n]
        add(f"ara L{n} t=3", ["ara", path, "-t", "3", "--search", "--point-check"],
            _ara_check(n, edges, root))
    return items


def _pd_check(expected):
    expected = functools.cache(expected)

    def check(out):
        code, data = out
        if code != 0 or data.get("method") != "recursion":
            return f"exit {code}, method {data.get('method')}"
        if data.get("pd_quotient") != expected():
            return f"pd {data.get('pd_quotient')}, expected {expected()}"
        return None
    return check


def _yes(out):
    code, data = out
    return None if code == 0 and data.get("result") is True else f"exit {code}, answer {data.get('result')}"


def _ara_check(n, edges, root):
    t = 3
    pd = checks.line_pd(n, t)

    def check(out):
        code, data = out
        if code != 0 or data.get("point_check") is not True:
            return f"exit {code}, point check {data.get('point_check')}"
        if data.get("lower") != pd:
            return f"lower bound {data.get('lower')}, expected pd {pd}"
        parts = data.get("partition") or []
        problem = checks.sv_violation(parts, checks.t_paths(edges, root, t))
        if problem:
            return f"returned partition breaks {problem}"
        if data.get("upper") != len(parts):
            return f"upper bound {data.get('upper')} but {len(parts)} parts"
        if n % 4 == 2:
            # no good partition exists, so the search must come back empty
            if data.get("exact") is not False or len(parts) <= pd:
                return f"n = {n}: a partition into {len(parts)} parts was reported"
        elif data.get("exact") is not True or len(parts) != pd:
            return f"n = {n}: {len(parts)} parts, expected a good partition into {pd}"
        return None
    return check


WORKLOADS = {
    "betti-fields": betti_fields,
    "scm-skeleta": scm_skeleta,
    "pd-combinatorial": pd_combinatorial,
}
# workloads whose outputs come from homology computations, checked for the
# boundary-squared and Euler hygiene counters
HOMOLOGY_WORKLOADS = {"betti-fields", "scm-skeleta"}
