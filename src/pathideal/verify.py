"""Verification harness: runs every theorem-level property against the
bundled corpus plus freshly sampled random trees.

Every check raises ``errors.CheckFailedError`` on a wrong answer, so the
battery runs the same under ``python -O``.  The checks form one registry
keyed by name; per-ideal checks share one list of path-ideal cases.
Checks are independent of each other and of evaluation order; they run,
and are reported, sorted by check name.  Negative controls confirm that
the harness itself catches wrong answers.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import ara as ara_mod
from .corpus import (
    corpus_trees,
    four_cycle_edge_ideal,
    line,
    projective_plane_ideal,
    random_tree,
    triangle_boundary,
    twelve_vertex_tree,
)
from .errors import CheckFailedError
from .homology import (
    DEFAULT_FIELDS,
    QQ,
    BettiTable,
    betti_table_hochster,
    char_independence_report,
    gf,
    is_sequentially_cm,
)
from .ideals import ideal_from_json, ideal_to_json, make_ideal
from .pd import (
    NotProperlyConnectedError,
    leaf_generator,
    pd_line_closed_form,
    pd_quotient_hochster,
    pd_recursive,
    splitting_data,
    verify_betti_splitting,
    verify_intersection_lemma,
)
from .simplicial import (
    facet_complex,
    has_leaf_order,
    is_leaf,
    is_properly_connected,
    is_pure,
    is_simplicial_forest,
    is_simplicial_tree,
    make_complex,
)
from .trees import enumerate_paths, parse_tree, path_ideal, tree_from_json, tree_to_json

TS = (2, 3)  # the path sizes t that the battery covers


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailedError(message)


def _sample_trees(samples: int, seed: int, max_n: int):
    out = []
    for k in range(samples):
        n = 3 + (seed + k) % max(1, max_n - 2)
        out.append((f"S{k}(n={n})", random_tree(seed + k, n)))
    return out


def run_verification(samples: int = 10, seed: int = 101, max_n: int = 9) -> list[CheckResult]:
    bound = max(max_n, 9)  # Hochster vertex bound
    trees = [(label, tree) for label, tree in corpus_trees() if tree.n <= max_n]
    trees += _sample_trees(samples, seed, max_n)
    # one (name, tree, t, path ideal) case per tree and t; no tree has more
    # than max(max_n, 3) vertices, so every case is within the bound
    cases = [(f"{label} t={t}", tree, t, path_ideal(tree, t)) for label, tree in trees for t in TS]

    def each(fn, among):
        def check():
            for case in among:
                fn(*case)
        return check

    # per-ideal checks: fn(name, tree, t, ideal) raises on a wrong answer
    def c_path_levels(name, tree, t, ideal):
        for p in enumerate_paths(tree, t):
            levels = [tree.level(v) for v in p]
            _require(levels == list(range(levels[0], levels[0] + t)), f"{name} {p}")

    def c_path_intersections(name, tree, t, ideal):
        paths = enumerate_paths(tree, t)
        for i, p in enumerate(paths):
            for q in paths[i + 1:]:
                common = set(p) & set(q)
                if not common:
                    continue
                start = max(p[0], q[0], key=tree.level)
                in_p = [v for v in p if v in common]
                in_q = [v for v in q if v in common]
                _require(in_p == in_q, f"{name}: inconsistent order")
                _require(in_p[0] == start, f"{name}: wrong start")
                _require(p.index(in_p[-1]) - p.index(in_p[0]) == len(common) - 1, f"{name}: not contiguous")

    def c_leaf_facets(name, tree, t, ideal):
        if ideal.is_zero or tree.n < 2:
            return
        cx = facet_complex(ideal)
        graph_leaves = tree.leaves()
        for p in enumerate_paths(tree, t):
            if p[-1] in graph_leaves:
                ok, _ = is_leaf(cx, frozenset(p))
                _require(ok, f"{name}: facet {p} not a leaf")

    def c_forest_theorem(name, tree, t, ideal):
        ok, witness = is_simplicial_tree(facet_complex(ideal))
        _require(ok, f"{name}: {witness}")

    def c_purity(name, tree, t, ideal):
        cx = facet_complex(ideal)
        _require(is_pure(cx), name)
        _require(all(len(f) == t for f in cx.facets), name)

    def c_leaf_order(name, tree, t, ideal):
        cx = facet_complex(ideal)
        ok, _ = is_simplicial_forest(cx)
        if ok:
            _require(has_leaf_order(cx), name)

    def c_char_independence(name, tree, t, ideal):
        ok, diffs = char_independence_report(ideal, max_n=bound)
        _require(ok, f"{name}: {diffs[:3]}")

    def c_betti_splitting(name, tree, t, ideal):
        if ideal.is_zero:
            return
        w = frozenset(leaf_generator(tree, t))
        J = make_ideal([w], ambient=ideal.ambient)
        K = make_ideal([g for g in ideal.gens if g != w], ambient=ideal.ambient)
        if K.is_zero:
            return
        for field in DEFAULT_FIELDS:
            _require(verify_betti_splitting(J, K, field, bound), f"{name} {field}")

    def c_intersection_lemma(name, tree, t, ideal):
        if ideal.is_zero:
            return
        ok, _ = is_properly_connected(facet_complex(ideal))
        if not ok:
            return
        _require(verify_intersection_lemma(ideal, splitting_data(tree, t)), name)

    def c_recursion(name, tree, t, ideal):
        try:
            rec = pd_recursive(tree, t)
        except NotProperlyConnectedError:
            return
        oracle = pd_quotient_hochster(ideal, QQ, bound)
        _require(rec == oracle, f"{name}: {rec} vs {oracle}")

    def c_scm(name, tree, t, ideal):
        for field in (QQ, gf(2)):
            _require(is_sequentially_cm(ideal, field), f"{name} over {field}")

    def c_quotient_shift(name, tree, t, ideal):
        table = betti_table_hochster(ideal, QQ, bound)
        quo = table.as_quotient()
        for (i, j), v in table.entries.items():
            _require(quo.value(i + 1, j) == v, name)
        _require(quo.value(0, 0) == 1, name)

    # whole-battery checks: fn() raises on a wrong answer, else returns a detail or None
    def c_generator_count():
        for name, tree, t, ideal in cases:
            expect = sum(1 for v in tree.vertices if tree.level(v) >= t - 1)
            _require(len(ideal.gens) == expect, name)
        return f"{len(cases)} ideals"

    def c_closed_form():
        for n in range(2, min(max_n, 11) + 1):
            for t in TS:
                if t > n:
                    continue
                oracle = pd_quotient_hochster(path_ideal(line(n), t), QQ, bound)
                _require(oracle == pd_line_closed_form(n, t), f"L{n} t={t}")

    def c_lower_bound():
        for label, tree in _sample_trees(samples, seed + 1000, max_n):
            h = tree.height()
            for t in TS:
                if t > h + 1:
                    continue
                left = pd_line_closed_form(h + 1, t)
                right = pd_quotient_hochster(path_ideal(tree, t), QQ, bound)
                _require(left <= right, f"{label} t={t}: {left} > {right}")

    def c_sv_constructions():
        for n in range(3, 14):
            if n % 4 == 2:
                continue
            partition = ara_mod.construct_partition_t3(n)
            _require(len(partition.parts) == pd_line_closed_form(n, 3), f"n={n}")

    def c_no_good_partition():
        for n in (6, 10):
            _require(ara_mod.no_good_partition_inequality(n, 3), f"n={n}")
            ideal = path_ideal(line(n), 3)
            found = ara_mod.good_partition_search(ideal, pd_line_closed_form(n, 3))
            _require(found is None, f"n={n}: unexpected partition {found}")

    def c_sv_structure():
        for n in range(4, 11):
            ideal = path_ideal(line(n), 3)
            parts = pd_line_closed_form(n, 3)
            found = ara_mod.good_partition_search(ideal, parts)
            if found is None:
                continue
            for part in found.parts[1:]:
                _require(len(part) <= 3 // 2 + 1, f"n={n}: part too large")
                idxs = sorted(min(g) for g in part)
                for a, b in zip(idxs, idxs[1:]):
                    _require(a + 1 < b <= a + 3, f"n={n}: bad gap")

    def c_negative_controls():
        ok, _ = is_simplicial_forest(triangle_boundary())
        _require(not ok, "triangle boundary passed the forest check")
        _require(not has_leaf_order(triangle_boundary()), "triangle boundary has a leaf order")
        # a leaf order exists, yet the first three facets have no leaf
        quasi = make_complex([{1, 2, 5}, {2, 3, 6}, {1, 3, 7}, {1, 2, 3, 8}])
        _require(not is_simplicial_forest(quasi)[0], "quasi-forest control passed the forest check")
        _require(has_leaf_order(quasi), "quasi-forest control has no leaf order")
        ok, diffs = char_independence_report(projective_plane_ideal())
        _require(not ok and bool(diffs), "projective plane fixture shows no disagreement")
        _require(not is_sequentially_cm(four_cycle_edge_ideal(), QQ), "4-cycle passed the SCM check")
        # a deliberately wrong closed form must be caught by the comparator
        wrong = lambda n, t: pd_line_closed_form(n, t) + (1 if n == 7 else 0)
        caught = False
        for n in range(2, 9):
            oracle = pd_quotient_hochster(path_ideal(line(n), 2), QQ, bound)
            if wrong(n, 2) != oracle:
                caught = True
        _require(caught, "mutated closed form was not caught")
        # a witness set missing a generator must fail the point check
        ideal = make_ideal([{1, 2}, {3, 4}], ambient={1, 2, 3, 4})
        broken = ara_mod.SVPartition((frozenset({frozenset({1, 2})}),))
        _require(not ara_mod.radical_point_check(broken, ideal), "broken witnesses passed")

    def c_json_roundtrip():
        tree = twelve_vertex_tree()
        _require(tree_from_json(tree_to_json(tree)) == tree, "tree JSON")
        _require(parse_tree("root 1\n" + "\n".join(f"{u} {v}" for u, v in tree.edges())) == tree, "tree text")
        ideal = path_ideal(tree, 3)
        _require(ideal_from_json(ideal_to_json(ideal)) == ideal, "ideal JSON")
        table = betti_table_hochster(path_ideal(line(5), 2), QQ)
        _require(BettiTable.from_jsonable(table.to_jsonable()) == table, "Betti table JSON")
        partition = ara_mod.construct_partition_t3(8)
        back = ara_mod.partition_from_jsonable(ara_mod.partition_to_jsonable(partition))
        _require(back == partition, "partition JSON")

    checks = {
        "betti_splitting_identity": each(c_betti_splitting, cases),
        "characteristic_independence": each(c_char_independence, cases),
        "closed_form_vs_oracle": c_closed_form,
        "generator_count": c_generator_count,
        "intersection_lemma_identity": each(c_intersection_lemma, cases),
        "json_roundtrip": c_json_roundtrip,
        "leaf_facet_lemma": each(c_leaf_facets, cases),
        "lower_bound_theorem": c_lower_bound,
        "negative_controls": c_negative_controls,
        "no_good_partition": c_no_good_partition,
        "path_intersection_lemma": each(c_path_intersections, cases),
        "path_levels": each(c_path_levels, cases),
        "purity": each(c_purity, cases),
        "quasi_forest_order": each(c_leaf_order, cases),
        "quotient_shift": each(c_quotient_shift, cases),
        "recursion_vs_oracle": each(c_recursion, cases),
        "sequentially_cm": each(c_scm, cases),
        "simplicial_forest_theorem": each(c_forest_theorem, cases),
        "sv_partition_constructions": c_sv_constructions,
        "sv_partition_structure": c_sv_structure,
    }
    results: list[CheckResult] = []
    for name, fn in sorted(checks.items()):
        try:
            results.append(CheckResult(name, True, fn() or ""))
        except CheckFailedError as exc:
            results.append(CheckResult(name, False, str(exc)))
    return results
