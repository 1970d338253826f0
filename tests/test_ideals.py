import pytest

from pathideal import (
    ideal_components,
    ideal_equals,
    ideal_intersect,
    ideal_multiply,
    ideal_sum,
    make_ideal,
    minimalize,
    path_ideal,
    zero_ideal,
)
from pathideal.corpus import line
from pathideal.ideals import hypergraph_components, ideal_from_json, ideal_to_json, to_macaulay2

from oracles import ideal_equals_bruteforce


class TestMinimalize:
    def test_absorbs_multiples(self):
        assert minimalize([{1, 2}, {1, 2, 3}]) == frozenset({frozenset({1, 2})})

    def test_empty(self):
        assert make_ideal([], ambient={1, 2}).is_zero

    def test_antichain_untouched(self):
        gens = path_ideal(line(5), 3).gens
        assert minimalize(gens) == gens


class TestSumIntersectMultiply:
    def test_sum_with_zero(self):
        w = make_ideal([{1, 2}], ambient={1, 2, 3})
        assert ideal_equals(ideal_sum(w, zero_ideal({1, 2, 3})), w)

    def test_sum_two_generators(self):
        a = make_ideal([{1, 2}], ambient={1, 2, 3})
        b = make_ideal([{2, 3}], ambient={1, 2, 3})
        assert len(ideal_sum(a, b).gens) == 2

    def test_sum_absorption(self):
        a = make_ideal([{1, 2}], ambient={1, 2, 3})
        b = make_ideal([{1, 2, 3}], ambient={1, 2, 3})
        assert ideal_equals(ideal_sum(a, b), a)

    def test_intersect_idempotent(self):
        a = path_ideal(line(6), 2)
        assert ideal_equals(ideal_intersect(a, a), a)

    def test_intersect_two_edges(self):
        amb = {1, 2, 3}
        a = make_ideal([{1, 2}], ambient=amb)
        b = make_ideal([{2, 3}], ambient=amb)
        assert ideal_intersect(a, b).gens == frozenset({frozenset({1, 2, 3})})

    def test_intersection_lemma_instance_line8(self):
        # I_3(L_7) cap (x6x7x8) inside the ambient of L_8 equals
        # x6x7x8 * ((x5) + I_3 of the line on 1..4)
        amb = frozenset(range(1, 9))
        left = ideal_intersect(
            path_ideal(line(7), 3).with_ambient(amb),
            make_ideal([{6, 7, 8}], ambient=amb),
        )
        inner = ideal_sum(
            make_ideal([{5}], ambient=amb),
            make_ideal([{1, 2, 3}, {2, 3, 4}], ambient=amb),
        )
        right = ideal_multiply({6, 7, 8}, inner).with_ambient(amb)
        assert ideal_equals(left, right)
        assert ideal_equals_bruteforce(left, right)
        assert left.gens == {
            frozenset({5, 6, 7, 8}),
            frozenset({1, 2, 3, 6, 7, 8}),
            frozenset({2, 3, 4, 6, 7, 8}),
        }

    def test_multiply_zero(self):
        assert ideal_multiply({1}, zero_ideal({1, 2})).is_zero

    def test_multiply_distributes_over_generators(self):
        a = make_ideal([{2}, {3}], ambient={1, 2, 3})
        out = ideal_multiply({1}, a)
        assert out.gens == {frozenset({1, 2}), frozenset({1, 3})}

    def test_multiply_by_unit(self):
        a = path_ideal(line(5), 2)
        assert ideal_equals(ideal_multiply(frozenset(), a), a)

    def test_different_ambient_rejected(self):
        with pytest.raises(ValueError):
            ideal_sum(make_ideal([{1}], ambient={1}), make_ideal([{2}], ambient={2}))


class TestEqualsComponents:
    def test_equals_modulo_redundant_generator(self):
        a = make_ideal([{1, 2}], ambient={1, 2, 3})
        b = make_ideal([{1, 2}, {1, 2, 3}], ambient={1, 2, 3})
        assert ideal_equals(a, b)

    def test_not_equal(self):
        a = make_ideal([{1, 2}], ambient={1, 2, 3})
        b = make_ideal([{1, 3}], ambient={1, 2, 3})
        assert not ideal_equals(a, b)

    def test_components_split(self):
        ideal = make_ideal([{1, 2}, {3, 4}], ambient={1, 2, 3, 4})
        comps = ideal_components(ideal)
        assert len(comps) == 2
        assert comps[0].gens == {frozenset({1, 2})}

    def test_components_connected(self):
        assert len(ideal_components(path_ideal(line(6), 3))) == 1

    def test_components_zero(self):
        assert ideal_components(zero_ideal({1, 2})) == []

    def test_hypergraph_components_masks_and_sets(self):
        edges = [{1, 2}, {4, 5}, {2, 3}, {6}, {3, 4}]
        masks = [sum(1 << v for v in e) for e in edges]
        for form in ([frozenset(e) for e in edges], masks):
            comps = hypergraph_components(form)
            assert sorted(len(members) for _, members in comps) == [1, 4]
        assert hypergraph_components([]) == []


class TestExport:
    def test_json_roundtrip(self):
        for ideal in (path_ideal(line(7), 3), zero_ideal({1, 2}), make_ideal([set()], ambient={1})):
            assert ideal_from_json(ideal_to_json(ideal)) == ideal

    def test_json_refuses_generators_that_are_not_minimal(self):
        # {1, 2} divides {1, 2, 3}: the ideal has one generator, not two
        for gens in ("[[1, 2], [1, 2, 3]]", "[[], [1]]"):
            with pytest.raises(ValueError, match="not minimal"):
                ideal_from_json(f'{{"ambient": [1, 2, 3], "gens": {gens}}}')

    def test_macaulay2(self):
        ideal = make_ideal([{2, 1}, {3, 4}], ambient={1, 2, 3, 4})
        assert to_macaulay2(ideal) == "ideal(x_1*x_2, x_3*x_4)"

    def test_macaulay2_zero(self):
        assert to_macaulay2(zero_ideal({1})) == "ideal(0)"
