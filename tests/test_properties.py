"""Property tests: lattice laws for monomial ideals against a membership
oracle, and the structural lemmas on randomly sampled rooted trees."""

from hypothesis import given, settings, strategies as st

from pathideal import (
    NotProperlyConnectedError,
    QQ,
    betti_table_hochster,
    enumerate_paths,
    facet_complex,
    gf,
    has_leaf_order,
    ideal_equals,
    ideal_intersect,
    ideal_multiply,
    ideal_sum,
    is_leaf,
    is_properly_connected,
    is_simplicial_forest,
    make_ideal,
    path_ideal,
    pd_line_closed_form,
    pd_quotient_hochster,
    pd_recursive,
    splitting_data,
)
from pathideal.corpus import random_tree

UNIVERSE = frozenset(range(1, 7))

monomial = st.frozensets(st.integers(1, 6), min_size=1, max_size=4)
gen_sets = st.frozensets(monomial, max_size=6)


def ideal_of(gens):
    return make_ideal(gens, ambient=UNIVERSE)


def members(ideal):
    out = set()
    universe = sorted(ideal.ambient)
    for mask in range(1 << len(universe)):
        m = frozenset(universe[k] for k in range(len(universe)) if mask >> k & 1)
        if ideal.contains(m):
            out.add(m)
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gen_sets, gen_sets)
def test_sum_is_union_of_members(a, b):
    A, B = ideal_of(a), ideal_of(b)
    assert members(ideal_sum(A, B)) == members(A) | members(B)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gen_sets, gen_sets)
def test_intersect_is_intersection_of_members(a, b):
    A, B = ideal_of(a), ideal_of(b)
    assert members(ideal_intersect(A, B)) == members(A) & members(B)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gen_sets, gen_sets, gen_sets)
def test_lattice_laws(a, b, c):
    A, B, C = ideal_of(a), ideal_of(b), ideal_of(c)
    assert ideal_equals(ideal_sum(A, B), ideal_sum(B, A))
    assert ideal_equals(ideal_intersect(A, B), ideal_intersect(B, A))
    assert ideal_equals(
        ideal_sum(ideal_sum(A, B), C), ideal_sum(A, ideal_sum(B, C))
    )
    assert ideal_equals(
        ideal_intersect(ideal_intersect(A, B), C),
        ideal_intersect(A, ideal_intersect(B, C)),
    )
    assert ideal_equals(ideal_sum(A, A), A)
    assert ideal_equals(ideal_intersect(A, A), A)
    # absorption
    assert ideal_equals(ideal_sum(A, ideal_intersect(A, B)), A)
    assert ideal_equals(ideal_intersect(A, ideal_sum(A, B)), A)


SAMPLED = [(seed, 3 + seed % 7) for seed in range(1, 41)]


def sampled_trees():
    return [random_tree(seed, n) for seed, n in SAMPLED]


def test_random_trees_are_valid_and_deterministic():
    for seed, n in SAMPLED:
        tree = random_tree(seed, n)
        assert tree == random_tree(seed, n)
        assert tree.n == n
        assert tree.root == 1
        assert sum(len(c) for c in tree.children.values()) == n - 1


def test_generator_count_identity():
    for tree in sampled_trees():
        for t in (2, 3):
            expect = sum(1 for v in tree.vertices if tree.level(v) >= t - 1)
            assert len(enumerate_paths(tree, t)) == expect


def test_paths_intersect_in_contiguous_subpaths():
    for tree in sampled_trees():
        for t in (2, 3):
            paths = enumerate_paths(tree, t)
            for i, p in enumerate(paths):
                for q in paths[i + 1:]:
                    common = set(p) & set(q)
                    if not common:
                        continue
                    start = max(p[0], q[0], key=tree.level)
                    inside_p = [v for v in p if v in common]
                    inside_q = [v for v in q if v in common]
                    assert inside_p == inside_q
                    assert inside_p[0] == start
                    first = p.index(inside_p[0])
                    assert list(p[first:first + len(common)]) == inside_p


def test_leaf_ending_paths_are_simplicial_leaves():
    for tree in sampled_trees():
        if tree.n < 2:
            continue
        graph_leaves = tree.leaves()
        for t in (2, 3):
            ideal = path_ideal(tree, t)
            if ideal.is_zero:
                continue
            cx = facet_complex(ideal)
            for p in enumerate_paths(tree, t):
                if p[-1] in graph_leaves:
                    assert is_leaf(cx, frozenset(p))[0]


def test_path_complexes_are_simplicial_forests_with_leaf_orders():
    for tree in sampled_trees():
        for t in (2, 3):
            cx = facet_complex(path_ideal(tree, t))
            ok, witness = is_simplicial_forest(cx)
            assert ok, witness
            assert has_leaf_order(cx)


def test_recursion_agrees_with_tables_when_applicable():
    for tree in sampled_trees():
        for t in (2, 3):
            try:
                value = pd_recursive(tree, t)
            except NotProperlyConnectedError:
                continue
            assert value == pd_quotient_hochster(path_ideal(tree, t))


def test_intersection_lemma_on_properly_connected_samples():
    for tree in sampled_trees():
        for t in (2, 3):
            ideal = path_ideal(tree, t)
            if ideal.is_zero or not is_properly_connected(facet_complex(ideal))[0]:
                continue
            sd = splitting_data(tree, t)
            amb = ideal.ambient
            left = ideal_intersect(
                path_ideal(sd.minus_leaf, t).with_ambient(amb),
                make_ideal([sd.facet], ambient=amb),
            )
            right = ideal_multiply(
                sd.facet,
                ideal_sum(
                    make_ideal([{y} for y in sd.off_path], ambient=amb),
                    path_ideal(sd.minus_zone, t).with_ambient(amb),
                ),
            ).with_ambient(amb)
            assert ideal_equals(left, right)


def test_hochster_monotonicity_along_root_to_leaf_chains():
    # an induced downward chain gives entrywise smaller Betti numbers
    for tree in sampled_trees()[:20]:
        height = tree.height()
        deepest = min(v for v in tree.vertices if tree.level(v) == height)
        chain = [deepest]
        while chain[-1] != tree.root:
            chain.append(tree.parent[chain[-1]])
        chain.reverse()
        for t in (2, 3):
            if t > len(chain):
                continue
            big = betti_table_hochster(path_ideal(tree, t), QQ)
            small_gens = [frozenset(chain[k:k + t]) for k in range(len(chain) - t + 1)]
            small = betti_table_hochster(
                make_ideal(small_gens, ambient=tree.vertices), QQ
            )
            for key, value in small.entries.items():
                assert big.entries.get(key, 0) >= value


def test_lower_bound_theorem_on_samples():
    for tree in sampled_trees()[:25]:
        h = tree.height()
        for t in (2, 3):
            if t > h + 1:
                continue
            assert pd_line_closed_form(h + 1, t) <= pd_quotient_hochster(path_ideal(tree, t))


def test_betti_tables_agree_across_fields_on_samples():
    for tree in sampled_trees()[:15]:
        for t in (2, 3):
            ideal = path_ideal(tree, t)
            tq = betti_table_hochster(ideal, QQ).entries
            t2 = betti_table_hochster(ideal, gf(2)).entries
            assert tq == t2
