"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Tolerances are exact everywhere; all arithmetic is integer."""

import time

from pathideal import (
    NotProperlyConnectedError,
    QQ,
    betti_table_hochster,
    char_independence_report,
    construct_partition_t3,
    facet_complex,
    gf,
    good_partition_search,
    is_properly_connected,
    is_sequentially_cm,
    is_simplicial_forest,
    is_simplicial_tree,
    leaf_generator,
    make_ideal,
    no_good_partition_inequality,
    path_ideal,
    pd_line_closed_form,
    pd_quotient_hochster,
    pd_recursive,
    splitting_data,
    verify_betti_splitting,
    verify_intersection_lemma,
    verify_sv_conditions,
)
from pathideal.corpus import (
    corpus_ideals,
    four_cycle_edge_ideal,
    line,
    projective_plane_ideal,
    random_tree,
    triangle_boundary,
)
from pathideal.homology import assertion_stats


def report(number, label, started):
    print(f"PASS criterion {number}: {label} ({time.time() - started:.1f}s)")


def test_criterion_01_closed_form_vs_oracle():
    started = time.time()
    try:
        for t in (2, 3, 4):
            for n in range(t, 12):
                oracle = pd_quotient_hochster(path_ideal(line(n), t), QQ)
                assert oracle == pd_line_closed_form(n, t), (n, t)
        assert time.time() - started < 300
    except AssertionError:
        print("FAIL criterion 1")
        raise
    report(1, "closed form = Hochster oracle for 2<=t<=4, t<=n<=11", started)


def test_criterion_02_edge_ideal_mod3_formula():
    started = time.time()

    def three_case(n):
        d = n % 3
        if d in (0, 1):
            return 2 * (n - d) // 3
        return (2 * n - 1) // 3

    try:
        for n in range(2, 13):
            assert pd_line_closed_form(n, 2) == three_case(n), n
    except AssertionError:
        print("FAIL criterion 2")
        raise
    report(2, "t=2 three-case mod-3 formula for 2<=n<=12", started)


def test_criterion_03_recursion_vs_oracle():
    started = time.time()
    try:
        applicable = 0
        for seed in range(1, 51):
            tree = random_tree(seed, 4 + seed % 6)  # n <= 9
            for t in (2, 3):
                try:
                    value = pd_recursive(tree, t)
                except NotProperlyConnectedError:
                    continue
                applicable += 1
                assert value == pd_quotient_hochster(path_ideal(tree, t), QQ), (seed, t)
        assert applicable >= 50
    except AssertionError:
        print("FAIL criterion 3")
        raise
    report(3, f"recursion = oracle on 50 random trees ({applicable} applicable runs)", started)


def test_criterion_04_simplicial_tree_theorem():
    started = time.time()
    try:
        for name, tree, t, ideal in corpus_ideals():
            ok, witness = is_simplicial_tree(facet_complex(ideal))
            assert ok, (name, witness)
        ok, witness = is_simplicial_forest(triangle_boundary())
        assert not ok and witness is not None
        assert time.time() - started < 60
    except AssertionError:
        print("FAIL criterion 4")
        raise
    report(4, "all corpus facet complexes are simplicial trees; triangle control fails", started)


def test_criterion_05_characteristic_independence():
    started = time.time()
    try:
        for name, tree, t, ideal in corpus_ideals():
            ok, diffs = char_independence_report(ideal)
            assert ok, (name, diffs[:3])
        ok, diffs = char_independence_report(projective_plane_ideal())
        assert not ok and diffs
    except AssertionError:
        print("FAIL criterion 5")
        raise
    report(5, "Betti tables agree over Q, GF(2), GF(3), GF(5); fixture disagrees", started)


def test_criterion_06_betti_splitting_and_intersection_lemma():
    started = time.time()
    try:
        splits = identities = 0
        for name, tree, t, ideal in corpus_ideals(skip_zero=True):
            w = frozenset(leaf_generator(tree, t))
            J = make_ideal([w], ambient=ideal.ambient)
            K = make_ideal([g for g in ideal.gens if g != w], ambient=ideal.ambient)
            if not K.is_zero:
                for field in (QQ, gf(2)):
                    assert verify_betti_splitting(J, K, field), (name, str(field))
                splits += 1
            if is_properly_connected(facet_complex(ideal))[0]:
                assert verify_intersection_lemma(ideal, splitting_data(tree, t)), name
                identities += 1
        assert splits > 50 and identities > 50
    except AssertionError:
        print("FAIL criterion 6")
        raise
    report(6, f"splitting identity ({splits} splits) and intersection lemma ({identities} cases)", started)


def test_criterion_07_sequentially_cohen_macaulay():
    started = time.time()
    try:
        for name, tree, t, ideal in corpus_ideals():
            for field in (QQ, gf(2)):
                assert is_sequentially_cm(ideal, field), (name, str(field))
        for field in (QQ, gf(2)):
            assert not is_sequentially_cm(four_cycle_edge_ideal(), field)
        assert time.time() - started < 120
    except AssertionError:
        print("FAIL criterion 7")
        raise
    report(7, "every corpus quotient sequentially CM over Q and GF(2); 4-cycle control fails", started)


def test_criterion_08_arithmetical_rank_t3():
    started = time.time()
    try:
        for n in (4, 5, 7, 8, 9, 11, 12, 13):
            partition = construct_partition_t3(n)
            ideal = path_ideal(line(n), 3)
            ok, violation = verify_sv_conditions(partition, ideal)
            assert ok, (n, violation)
            assert len(partition.parts) == pd_line_closed_form(n, 3), n
        search_started = time.time()
        for n in (6, 10):
            parts = pd_line_closed_form(n, 3)
            assert good_partition_search(path_ideal(line(n), 3), parts) is None, n
            assert no_good_partition_inequality(n, 3), n
        assert time.time() - search_started < 60
    except AssertionError:
        print("FAIL criterion 8")
        raise
    report(8, "t=3 partitions certify ara = pd; none exist for n = 6, 10", started)


def test_criterion_09_lower_bound_theorem():
    started = time.time()
    try:
        checked = 0
        for seed in range(101, 131):  # 30 fixed-seed random trees
            tree = random_tree(seed, 4 + seed % 6)
            h = tree.height()
            for t in range(2, h + 2):
                left = pd_line_closed_form(h + 1, t)
                right = pd_quotient_hochster(path_ideal(tree, t), QQ)
                assert left <= right, (seed, t)
                checked += 1
        assert checked >= 30
    except AssertionError:
        print("FAIL criterion 9")
        raise
    report(9, f"pd of the longest induced line bounds pd below ({checked} comparisons)", started)


def test_criterion_10_exact_arithmetic_hygiene():
    started = time.time()
    try:
        before = dict(assertion_stats)
        from pathideal.homology import clear_caches

        clear_caches()
        table = betti_table_hochster(path_ideal(line(9), 3), QQ)
        assert all(type(v) is int for v in table.entries.values())
        assert all(type(i) is int and type(j) is int for i, j in table.entries)
        assert assertion_stats["boundary_squared"] > before["boundary_squared"]
        assert assertion_stats["euler"] > before["euler"]
        assert is_sequentially_cm(path_ideal(line(6), 2), QQ)
    except AssertionError:
        print("FAIL criterion 10")
        raise
    report(10, "boundary-squared and Euler checks run on every homology computation", started)
