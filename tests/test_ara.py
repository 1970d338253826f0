import pytest
from hypothesis import given, settings, strategies as st

from pathideal import (
    BoundExceededError,
    SVPartition,
    ara_bounds,
    construct_partition_t3,
    good_partition_search,
    make_ideal,
    no_good_partition_inequality,
    path_ideal,
    pd_line_closed_form,
    radical_point_check,
    verify_sv_conditions,
)
from pathideal.ara import partition_from_jsonable, partition_to_jsonable, singleton_partition
from pathideal.corpus import line, random_tree
from pathideal.pd import line_order
from pathideal.trees import RootedTree

from oracles import radical_point_check_by_scan


def m3(i):
    return frozenset({i, i + 1, i + 2})


def line_through(ids):
    """The line graph visiting ``ids`` in order, rooted at the first."""
    return RootedTree.from_edges(zip(ids, ids[1:]), root=ids[0])


class TestConditions:
    def test_explicit_case1_partition(self):
        partition = SVPartition(
            (
                frozenset({m3(2)}),
                frozenset({m3(1), m3(4)}),
                frozenset({m3(3), m3(6)}),
                frozenset({m3(5)}),
            )
        )
        ok, violation = verify_sv_conditions(partition, path_ideal(line(8), 3))
        assert ok and violation is None

    def test_adjacent_generators_in_one_part(self):
        partition = SVPartition(
            (
                frozenset({m3(3)}),
                frozenset({m3(1), m3(2)}),
                frozenset({m3(4)}),
                frozenset({m3(5)}),
                frozenset({m3(6)}),
            )
        )
        ok, violation = verify_sv_conditions(partition, path_ideal(line(8), 3))
        assert not ok
        assert violation[0] == "condition(3)"

    def test_singleton_ideal(self):
        ideal = make_ideal([{1, 2, 3}], ambient={1, 2, 3})
        partition = SVPartition((frozenset({frozenset({1, 2, 3})}),))
        assert verify_sv_conditions(partition, ideal) == (True, None)

    def test_coverage_violation(self):
        partition = SVPartition((frozenset({m3(1)}),))
        ok, violation = verify_sv_conditions(partition, path_ideal(line(5), 3))
        assert not ok and violation[0] == "condition(1)"

    def test_first_part_size(self):
        partition = SVPartition((frozenset({m3(1), m3(3)}), frozenset({m3(2)})))
        ok, violation = verify_sv_conditions(partition, path_ideal(line(5), 3))
        assert not ok and violation[0] == "condition(2)"


class TestConstruction:
    def test_n8(self):
        parts = construct_partition_t3(8).sorted_parts()
        assert parts == [
            [(2, 3, 4)],
            [(1, 2, 3), (4, 5, 6)],
            [(3, 4, 5), (6, 7, 8)],
            [(5, 6, 7)],
        ]

    def test_n9_last_part(self):
        parts = construct_partition_t3(9).sorted_parts()
        assert parts[-1] == [(5, 6, 7), (7, 8, 9)]

    def test_n7_last_part(self):
        parts = construct_partition_t3(7).sorted_parts()
        assert parts[-1] == [(3, 4, 5), (5, 6, 7)]

    def test_part_count_matches_pd(self):
        for n in range(3, 14):
            if n % 4 == 2:
                continue
            assert len(construct_partition_t3(n).parts) == pd_line_closed_form(n, 3)

    def test_residue_two_rejected(self):
        for n in (6, 10):
            with pytest.raises(ValueError):
                construct_partition_t3(n)


class TestSearch:
    def test_none_for_residue_two(self):
        for n in (6, 10):
            parts = pd_line_closed_form(n, 3)
            assert good_partition_search(path_ideal(line(n), 3), parts) is None

    def test_finds_for_n8(self):
        found = good_partition_search(path_ideal(line(8), 3), 4)
        assert found is not None
        assert verify_sv_conditions(found, path_ideal(line(8), 3)) == (True, None)

    def test_edge_ideal_line4(self):
        ideal = path_ideal(line(4), 2)
        found = good_partition_search(ideal, 2)
        assert found is not None
        assert verify_sv_conditions(found, ideal) == (True, None)

    def test_structure_lemma_on_found_partitions(self):
        for n in (7, 8, 9, 11):
            ideal = path_ideal(line(n), 3)
            found = good_partition_search(ideal, pd_line_closed_form(n, 3))
            assert found is not None
            for part in found.parts[1:]:
                assert len(part) <= 2
                starts = sorted(min(g) for g in part)
                for a, b in zip(starts, starts[1:]):
                    assert a + 1 < b <= a + 3

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            good_partition_search(path_ideal(line(20), 3), 4)

    def test_relabelled_lines(self):
        # the window pruning must follow the path, not the sorted ids
        ten = path_ideal(line_through([4, 9, 1, 7, 10, 2, 6, 3, 8, 5]), 3)
        assert good_partition_search(ten, pd_line_closed_form(10, 3)) is None
        eight = path_ideal(line_through([4, 7, 2, 6, 8, 1, 5, 3]), 3)
        found = good_partition_search(eight, 4)
        assert found is not None and len(found.parts) == 4
        assert verify_sv_conditions(found, eight) == (True, None)


class TestInequality:
    def test_values(self):
        assert no_good_partition_inequality(6, 3) is True
        assert no_good_partition_inequality(8, 3) is False
        assert no_good_partition_inequality(10, 3) is True


class TestRecognition:
    def test_lines(self):
        t, order = line_order(path_ideal(line(9), 3))
        assert (t, len(order)) == (3, 9)

    def test_shifted_labels(self):
        ideal = make_ideal([{10, 20}, {20, 30}], ambient={10, 20, 30})
        t, order = line_order(ideal)
        assert (t, len(order)) == (2, 3)

    def test_non_line(self):
        from pathideal.corpus import twelve_vertex_tree

        assert line_order(path_ideal(twelve_vertex_tree(), 3)) is None

    def test_line_not_numbered_along_the_path(self):
        # 2 -> 1 -> 3 -> 4 -> ... -> 20: sorted ids are not the path order
        tree = line_through([2, 1] + list(range(3, 21)))
        t, order = line_order(path_ideal(tree, 3))
        assert (t, len(order)) == (3, 20)

    def test_star_is_not_a_line(self):
        ideal = make_ideal([{1, 2}, {1, 3}, {1, 4}], ambient={1, 2, 3, 4})
        assert line_order(ideal) is None

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 5), st.permutations(range(1, 13)), st.integers(0, 12))
    def test_randomly_labelled_lines(self, t, ids, drop):
        ids = ids[: max(t, 12 - drop)]
        found_t, order = line_order(path_ideal(line_through(ids), t))
        assert (found_t, len(order)) == (t, len(ids))

    def test_recovered_order_on_random_trees(self):
        for seed in range(200):
            tree = random_tree(seed, 9)
            for t in (2, 3, 4):
                ideal = path_ideal(tree, t)
                found = line_order(ideal)
                if all(len(c) <= 1 for c in tree.children.values()):
                    path = sorted(tree.vertices, key=tree.level)
                    assert found == (t, min(path, path[::-1]))
                elif found:
                    # e.g. the edge ideal of a path rooted inside it
                    assert path_ideal(line_through(found[1]), t) == ideal


class TestBounds:
    def test_exact_for_n8(self):
        bounds = ara_bounds(path_ideal(line(8), 3))
        assert (bounds.lower, bounds.upper, bounds.exact) == (4, 4, True)

    def test_inexact_for_n6(self):
        bounds = ara_bounds(path_ideal(line(6), 3))
        assert bounds.lower == 2
        assert not bounds.exact
        assert bounds.upper is not None and bounds.upper > 2

    def test_edge_line5(self):
        bounds = ara_bounds(path_ideal(line(5), 2))
        assert (bounds.lower, bounds.upper, bounds.exact) == (3, 3, True)

    def test_zero_ideal(self):
        bounds = ara_bounds(path_ideal(line(3), 4))
        assert (bounds.lower, bounds.upper, bounds.exact) == (0, 0, True)

    def test_lower_never_exceeds_upper(self):
        for n in range(3, 12):
            for t in (2, 3):
                bounds = ara_bounds(path_ideal(line(n), t))
                assert bounds.lower <= bounds.upper


@st.composite
def ideals_with_witness_sets(draw):
    """A random ideal on at most 6 variables and random parts drawn from its
    generators, other monomials of the ambient set and the empty monomial."""
    ambient = list(range(1, draw(st.integers(1, 6)) + 1))
    subsets = st.frozensets(st.sampled_from(ambient), max_size=len(ambient))
    gens = st.frozensets(st.sampled_from(ambient), min_size=1, max_size=len(ambient))
    ideal = make_ideal(draw(st.lists(gens, max_size=5)), ambient=ambient)
    monomials = subsets
    if ideal.gens:
        monomials = st.one_of(st.sampled_from(sorted(ideal.gens, key=sorted)), subsets)
    parts = draw(st.lists(st.frozensets(monomials, max_size=3), max_size=4))
    return ideal, SVPartition(tuple(parts))


class TestPointCheck:
    def test_valid_witnesses(self):
        ideal = path_ideal(line(8), 3)
        assert radical_point_check(construct_partition_t3(8), ideal)

    def test_singleton_partition_witnesses(self):
        ideal = make_ideal([{1, 2}, {3, 4}], ambient={1, 2, 3, 4})
        assert radical_point_check(singleton_partition(ideal), ideal)

    def test_broken_witnesses_fail(self):
        ideal = make_ideal([{1, 2}, {3, 4}], ambient={1, 2, 3, 4})
        broken = SVPartition((frozenset({frozenset({1, 2})}),))
        assert not radical_point_check(broken, ideal)

    def test_long_line_beyond_any_scan(self):
        ideal = path_ideal(line(60), 3)
        assert radical_point_check(ara_bounds(ideal).partition, ideal)
        missing = construct_partition_t3(59).parts
        assert not radical_point_check(SVPartition(missing), ideal)

    def test_monomial_outside_the_ambient_set(self):
        ideal = make_ideal([{1, 2}, {3, 4}], ambient={1, 2, 3, 4})
        with pytest.raises(ValueError):
            radical_point_check(SVPartition((frozenset({frozenset({1, 5})}),)), ideal)

    def test_matches_the_scan(self):
        verdicts = set()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(ideals_with_witness_sets())
        def check(case):
            ideal, partition = case
            verdict = radical_point_check(partition, ideal)
            assert verdict == radical_point_check_by_scan(partition, ideal)
            verdicts.add(verdict)

        check()
        assert verdicts == {True, False}


class TestPartitionJson:
    def test_roundtrip(self):
        partition = construct_partition_t3(9)
        assert partition_from_jsonable(partition_to_jsonable(partition)) == partition

    def test_reads_the_old_writers_output(self):
        partition = construct_partition_t3(9)
        old = {"parts": partition.sorted_parts(), "exponents": []}
        assert partition_from_jsonable(old) == partition
