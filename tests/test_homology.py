import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import and_, or_

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pathideal import (
    BoundExceededError,
    QQ,
    BettiTable,
    RootedTree,
    betti_table_hochster,
    betti_tables_hochster,
    char_independence_report,
    gf,
    is_cohen_macaulay,
    is_sequentially_cm,
    make_complex,
    make_ideal,
    path_ideal,
    pd_from_betti,
    reduced_homology_dims,
    restrict,
    stanley_reisner_complex,
    zero_ideal,
)
from pathideal.corpus import (
    corpus_ideals,
    four_cycle_edge_ideal,
    line,
    projective_plane_complex,
    projective_plane_ideal,
    random_tree,
    twelve_vertex_tree,
)
from pathideal import homology
from pathideal.homology import FACETS, NON_FACES, Field, assertion_stats

from oracles import (
    canonical_faces_by_spec,
    facet_links_by_scan,
    faces_from_facets,
    faces_from_non_faces,
    hochster_subsets_by_scan,
    maximal_sets_by_scan,
    sequentially_cm_by_all_skeleta,
    simple_homology,
    taylor_betti,
)


class TestField:
    def test_prime_validation(self):
        with pytest.raises(ValueError):
            Field(4)

    def test_primality_matches_trial_division(self):
        for n in range(-2, 3000):
            trial = n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
            assert homology._is_prime(n) is trial, n

    def test_large_primes(self):
        assert Field(2**61 - 1).p == 2**61 - 1
        # a Carmichael number, a multiple of 3 next to a Mersenne prime, and
        # the small non-primes
        for n in (561, 2**61 + 1, 0, 1, 4):
            with pytest.raises(ValueError, match="not prime"):
                Field(n)
        with pytest.raises(ValueError, match="2\\*\\*64"):
            Field(2**64 + 13)

    def test_str(self):
        assert str(QQ) == "Q"
        assert str(gf(5)) == "GF(5)"


class TestStanleyReisner:
    def test_single_edge(self):
        cx = stanley_reisner_complex(make_ideal([{1, 2}], ambient={1, 2}))
        assert cx.facets == {frozenset({1}), frozenset({2})}

    def test_path_two_edges(self):
        cx = stanley_reisner_complex(make_ideal([{1, 2}, {2, 3}], ambient={1, 2, 3}))
        assert cx.facets == {frozenset({1, 3}), frozenset({2})}

    def test_zero_ideal_full_simplex(self):
        cx = stanley_reisner_complex(zero_ideal({1, 2, 3}))
        assert cx.facets == {frozenset({1, 2, 3})}

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            stanley_reisner_complex(zero_ideal(range(1, 20)))


class TestRestrict:
    def setup_method(self):
        self.cx = stanley_reisner_complex(make_ideal([{1, 2}, {2, 3}], ambient={1, 2, 3}))

    def test_full(self):
        assert restrict(self.cx, {1, 2, 3}).facets == self.cx.facets

    def test_empty(self):
        assert restrict(self.cx, set()).facets == {frozenset()}

    def test_pair(self):
        assert restrict(self.cx, {1, 2}).facets == {frozenset({1}), frozenset({2})}

    def test_outside_ambient_rejected(self):
        with pytest.raises(ValueError):
            restrict(self.cx, {9})


class TestReducedHomology:
    def test_empty_face_complex(self):
        cx = make_complex([set()])
        assert reduced_homology_dims(cx, QQ) == {-1: 1}

    def test_two_points(self):
        assert reduced_homology_dims(make_complex([{1}, {2}]), QQ) == {0: 1}

    def test_hollow_triangle_all_fields(self):
        cx = make_complex([{1, 2}, {2, 3}, {1, 3}])
        for f in (QQ, gf(2), gf(3), gf(5)):
            assert reduced_homology_dims(cx, f) == {1: 1}

    def test_void(self):
        cx = make_complex([])
        assert reduced_homology_dims(cx, QQ) == {}

    def test_projective_plane_torsion(self):
        rp2 = projective_plane_complex()
        assert reduced_homology_dims(rp2, QQ) == {}
        assert reduced_homology_dims(rp2, gf(2)) == {1: 1, 2: 1}
        assert reduced_homology_dims(rp2, gf(3)) == {}

    def test_matches_dense_oracle_on_small_complexes(self):
        samples = [
            [{1, 2, 3}],
            [{1, 2}, {2, 3}, {3, 4}, {1, 4}],
            [{1, 2, 3}, {1, 3, 4}, {2, 3, 4}, {1, 2, 4}],  # 2-sphere
            [{1}, {2}, {3}],
            [{1, 2}, {3, 4}],
        ]
        for faces in samples:
            cx = make_complex(faces)
            for p in (None, 2, 3):
                field = QQ if p is None else gf(p)
                assert reduced_homology_dims(cx, field) == simple_homology(faces, p)


class TestHochster:
    def test_principal_ideal(self):
        for n, t in ((4, 4), (6, 4)):
            ideal = path_ideal(line(t), t).with_ambient(range(1, n + 1))
            table = betti_table_hochster(ideal, QQ)
            assert table.entries == {(0, t): 1}
            assert pd_from_betti(table.as_quotient()) == 1

    def test_edge_path_example(self):
        table = betti_table_hochster(path_ideal(line(3), 2), QQ)
        assert table.entries == {(0, 2): 2, (1, 3): 1}

    def test_line8_t3_quotient_pd(self):
        table = betti_table_hochster(path_ideal(line(8), 3), QQ)
        assert pd_from_betti(table.as_quotient()) == 4

    def test_matches_taylor_oracle(self):
        cases = [
            path_ideal(line(6), 2),
            path_ideal(line(7), 3),
            path_ideal(twelve_vertex_tree(), 3),
            make_ideal([{1, 2}, {3, 4}], ambient={1, 2, 3, 4}),
            four_cycle_edge_ideal(),
            projective_plane_ideal(),
        ]
        for ideal in cases:
            for p in (None, 2, 5):
                field = QQ if p is None else gf(p)
                assert betti_table_hochster(ideal, field).entries == taylor_betti(ideal, p)

    def test_multi_field_consistency(self):
        ideal = path_ideal(line(7), 2)
        tables = betti_tables_hochster(ideal, (QQ, gf(2)))
        assert tables[QQ].entries == betti_table_hochster(ideal, QQ).entries
        assert tables[gf(2)].entries == betti_table_hochster(ideal, gf(2)).entries

    def test_repeated_field_counts_once(self):
        ideal = path_ideal(line(5), 3)
        expected = {(0, 3): 3, (1, 4): 2}
        assert betti_table_hochster(ideal, QQ).entries == expected
        assert betti_tables_hochster(ideal, (QQ, QQ))[QQ].entries == expected
        tables = betti_tables_hochster(ideal, (gf(2), QQ, gf(2), QQ))
        assert list(tables) == [gf(2), QQ]
        assert all(t.entries == expected for t in tables.values())

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            betti_table_hochster(zero_ideal(range(1, 20)), QQ)

    def test_values_are_ints(self):
        table = betti_table_hochster(path_ideal(line(6), 3), QQ)
        assert all(type(v) is int for v in table.entries.values())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, (1 << n) - 1), max_size=9))))
    def test_generator_unions_are_the_swept_subsets(self, case):
        n, gens = case
        assert homology._closure(gens, gens, or_) == hochster_subsets_by_scan(gens, n)

    @pytest.mark.parametrize("gens, expected", [([], set()), ([0], {0})], ids=["zero", "unit"])
    def test_generator_unions_of_the_zero_and_unit_ideals(self, gens, expected):
        assert homology._closure(gens, gens, or_) == hochster_subsets_by_scan(gens, 3) == expected


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.frozensets(st.integers(1, n), min_size=0, max_size=4), min_size=1, max_size=8),
    st.booleans(),
)))
@example((2, [frozenset()], True))  # the unit ideal: beta_{0,0} = 1
def test_hochster_matches_taylor_over_every_field(case):
    # spare adds an ambient vertex that no generator uses
    n, gens, spare = case
    ideal = make_ideal(gens, ambient=range(1, n + 1 + spare))
    tables = betti_tables_hochster(ideal, homology.DEFAULT_FIELDS)
    for field in homology.DEFAULT_FIELDS:
        assert tables[field].entries == taylor_betti(ideal, field.p), field


class TestBettiTable:
    def test_quotient_shift(self):
        table = betti_table_hochster(path_ideal(line(6), 2), QQ)
        quo = table.as_quotient()
        assert quo.value(0, 0) == 1
        for (i, j), v in table.entries.items():
            assert quo.value(i + 1, j) == v
        assert quo.as_ideal().entries == table.entries

    def test_pd_conventions_zero_ideal(self):
        table = betti_table_hochster(zero_ideal({1, 2}), QQ)
        assert pd_from_betti(table) == -1
        assert pd_from_betti(table.as_quotient()) == 0

    def test_json_roundtrip(self):
        table = betti_table_hochster(path_ideal(line(5), 2), gf(3)).as_quotient()
        assert BettiTable.from_jsonable(table.to_jsonable()) == table


class TestCharIndependence:
    def test_twelve_vertex(self):
        ok, diffs = char_independence_report(path_ideal(twelve_vertex_tree(), 3))
        assert ok and not diffs

    def test_line9_t3(self):
        ok, _ = char_independence_report(path_ideal(line(9), 3))
        assert ok

    def test_projective_plane_detects_difference(self):
        ok, diffs = char_independence_report(projective_plane_ideal())
        assert not ok
        assert any(d[1] == gf(2) for d in diffs)


class TestCohenMacaulay:
    def test_full_simplex(self):
        assert is_cohen_macaulay(make_complex([{1, 2, 3}]), QQ)

    def test_two_disjoint_edges(self):
        assert not is_cohen_macaulay(make_complex([{1, 3}, {2, 4}]), QQ)

    def test_single_vertex(self):
        assert is_cohen_macaulay(make_complex([{1}]), QQ)

    def test_projective_plane_field_dependence(self):
        rp2 = projective_plane_complex()
        assert is_cohen_macaulay(rp2, QQ)
        assert not is_cohen_macaulay(rp2, gf(2))

    def test_non_pure_is_not_cm(self):
        for facets in ([{1, 2, 3}, {4}], [{1, 2, 3}, {3, 4}]):
            for field in (QQ, gf(2)):
                assert not is_cohen_macaulay(make_complex(facets), field)


def _reisner_oracle(facets, p):
    """Reisner's criterion straight from the definition: every link,
    the empty face's included, has no reduced homology below its top."""
    faces = {frozenset(c) for f in facets for k in range(len(f) + 1) for c in combinations(f, k)}
    for sigma in faces:
        link = [tau for tau in faces if not tau & sigma and tau | sigma in faces]
        top = max(len(tau) for tau in link) - 1
        if any(deg < top for deg in simple_homology(link, p)):
            return False
    return True


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.frozensets(st.frozensets(st.integers(1, 6), min_size=1, max_size=4), min_size=1, max_size=6))
def test_cohen_macaulay_matches_reisner_oracle(facets):
    cx = make_complex(facets)
    for p in (None, 2):
        field = QQ if p is None else gf(p)
        assert is_cohen_macaulay(cx, field) == _reisner_oracle(cx.facets, p)


def _relabelled(tree, rng):
    """A copy of the tree under a random bijection onto other ids."""
    ids = rng.sample(range(1, 10 * tree.n + 1), tree.n)
    return _mapped(tree, dict(zip(tree.vertices, ids)).get)


def _mapped(tree, label):
    """A copy of the tree with each vertex v renamed label(v)."""
    return RootedTree.from_edges(((label(u), label(v)) for u, v in tree.edges()), root=label(tree.root))


def _order_keeping(tree, rng):
    """Relabellings to which _canonical_faces is invariant: increasing ids
    with gaps, and the vertex order reversed."""
    ids = dict(zip(sorted(tree.vertices), sorted(rng.sample(range(1, 10 * tree.n + 1), tree.n))))
    top = max(tree.vertices)
    return [_mapped(tree, ids.get), _mapped(tree, lambda v: top + 1 - v)]


class TestHomologyCache:
    def test_facets_and_non_faces_keep_separate_entries(self):
        # as facets, 011 and 110 span a path; as minimal non-faces over
        # their union they leave the edge {0, 2} and the vertex 1
        masks = (0b011, 0b110)
        expected = {
            homology.FACETS: simple_homology([{0, 1}, {1, 2}]),
            homology.NON_FACES: simple_homology([{0, 2}, {1}]),
        }
        assert expected == {homology.FACETS: {}, homology.NON_FACES: {0: 1}}
        key = homology._canonical_faces(masks)
        for order in ((homology.FACETS, homology.NON_FACES), (homology.NON_FACES, homology.FACETS)):
            homology.clear_caches()
            for kind in order:
                assert homology._cached_homology(kind, key, None) == expected[kind]

    def test_torsion_answers_each_field_in_either_order(self):
        # the projective plane's Q elimination needs a Bareiss core, so it is
        # not certified and GF(2) gets an entry of its own
        rp2 = projective_plane_complex()
        expected = {QQ: {}, gf(2): {1: 1, 2: 1}, gf(3): {}}
        for order in ((gf(2), QQ, gf(3)), (QQ, gf(2), gf(3))):
            homology.clear_caches()
            before = dict(homology.certificate_stats)
            for field in order:
                assert reduced_homology_dims(rp2, field) == expected[field], field
            assert homology.certificate_stats["certified"] == before["certified"]
            assert homology.certificate_stats["per_field"] == before["per_field"] + 2

    def test_four_fields_leave_as_many_entries_as_q_alone(self):
        ideal = path_ideal(line(9), 3)
        entries = []
        for fields in ((QQ,), homology.DEFAULT_FIELDS):
            homology.clear_caches()
            before = dict(assertion_stats)
            betti_tables_hochster(ideal, fields)
            entries.append(len(homology._homology_cache))
            # the benchmark's hygiene gate: every entry ran both checks
            for check in ("boundary_squared", "euler"):
                assert assertion_stats[check] - before[check] >= entries[-1] > 0, check
        assert entries[0] == entries[1]

    def test_relabelled_sweeps_leave_equal_entries_each_checked(self):
        # the hygiene gate across labellings: every entry ran both checks and
        # every labelling gives the same tables; the keys see the labels only
        # through their order up to reversal, so the labellings that keep or
        # reverse it leave the same entries
        tree = random_tree(12005, 12)
        rng = random.Random(0)
        results = []
        for g in [tree, *_order_keeping(tree, rng), _relabelled(tree, rng), _relabelled(tree, rng)]:
            homology.clear_caches()
            before = dict(assertion_stats)
            tables = betti_tables_hochster(path_ideal(g, 3), max_n=13)
            results.append(([tables[f].entries for f in homology.DEFAULT_FIELDS], len(homology._homology_cache)))
            for check in ("boundary_squared", "euler"):
                assert assertion_stats[check] - before[check] >= results[-1][1] > 0, check
        assert all(row[0] == results[0][0] for row in results)
        assert results[0][1] == results[1][1] == results[2][1]

    def test_sequentially_cm_runs_both_checks_per_entry(self):
        # the benchmark's hygiene gate on the sequential-CM path
        ideal = path_ideal(line(9), 3)
        homology.clear_caches()
        before = dict(assertion_stats)
        for field in (QQ, gf(2)):
            is_sequentially_cm(ideal, field)
        entries = len(homology._homology_cache)
        for check in ("boundary_squared", "euler"):
            assert assertion_stats[check] - before[check] >= entries > 0, check

    @pytest.mark.parametrize("tree", [line(9), _relabelled(random_tree(12005, 12), random.Random(0))],
                             ids=["L9", "R12s12005-relabelled"])
    def test_gf2_after_q_adds_no_link_entry(self, tree, monkeypatch):
        # every link complex of a path ideal is certified over Q, so the GF(2)
        # pass finds each of its keys; its link tops come in shuffled order,
        # so a key that depended on the order of the masks would miss
        ideal = path_ideal(tree, 2)
        homology.clear_caches()
        assert is_sequentially_cm(ideal, QQ)
        q_entries = len(homology._homology_cache)
        assert q_entries > 0
        key = homology._canonical_faces
        rng = random.Random(1)

        def shuffled(faces):
            faces = list(faces)
            rng.shuffle(faces)
            return key(faces)

        monkeypatch.setattr(homology, "_canonical_faces", shuffled)
        # without its verdict memo the GF(2) pass sweeps again and looks up
        # every link key, now built from shuffled masks
        homology._scm_verdicts.clear()
        assert is_sequentially_cm(ideal, gf(2))
        assert homology._scm_verdicts
        assert len(homology._homology_cache) == q_entries

    def test_hygiene_gate_after_a_betti_sweep(self):
        # the benchmark's gate: every entry of a module dict named *_cache
        # counts as one homology computation, and both checks must have run
        # for each; the verdict memo of the sequential-CM pair is kept out
        # of it
        homology.clear_caches()
        before = dict(assertion_stats)
        betti_tables_hochster(path_ideal(random_tree(12005, 12), 3), max_n=13)
        for field in (QQ, gf(2)):
            assert is_sequentially_cm(path_ideal(random_tree(12005, 12), 2), field)
        caches = [v for name, v in vars(homology).items() if name.endswith("_cache") and isinstance(v, dict)]
        computations = sum(len(v) for v in caches)
        assert computations > 0
        assert homology._scm_verdicts and all(v is not homology._scm_verdicts for v in caches)
        for check in ("boundary_squared", "euler"):
            assert assertion_stats[check] - before[check] >= computations, check

    def test_clear_caches_empties_the_cache_and_the_verdict_memo(self):
        betti_tables_hochster(path_ideal(line(9), 3))
        assert is_sequentially_cm(path_ideal(line(9), 3), QQ)
        assert homology._scm_verdicts and homology._homology_cache
        homology.clear_caches()
        assert not homology._scm_verdicts and not homology._homology_cache

    def test_every_key_is_canonical(self):
        # one canonical form for both kinds: each cached key, island or
        # link, is a fixed point of _canonical_faces
        homology.clear_caches()
        betti_tables_hochster(path_ideal(random_tree(12005, 12), 3), max_n=13)
        for field in (QQ, gf(2)):
            assert is_sequentially_cm(path_ideal(random_tree(12005, 12), 2), field)
            assert is_sequentially_cm(projective_plane_ideal(), field) is (field == QQ)
        assert {key[0] for key in homology._homology_cache} == {FACETS, NON_FACES}
        for key in homology._homology_cache:
            assert homology._canonical_faces(key[1]) == key[1], key

    def test_bounded_cache_keeps_answers(self, monkeypatch):
        cases = [path_ideal(line(7), 3), projective_plane_ideal(), four_cycle_edge_ideal()]
        fields = (QQ, gf(2), gf(3))
        verdict_sizes = []

        def answers():
            out = []
            for ideal in cases:
                tables = betti_tables_hochster(ideal, fields)
                out.append([tables[f].entries for f in fields])
                verdicts = []
                for f in fields:
                    verdicts.append(is_sequentially_cm(ideal, f))
                    verdict_sizes.append(len(homology._scm_verdicts))
                out.append(verdicts)
            return out

        homology.clear_caches()
        expected = answers()
        bound = 3
        sizes = []
        compute = homology._homology_from_faces

        def watched(*args, **kwargs):
            # every insert follows a computation, so this sees each state
            # the cache passes through
            sizes.append(len(homology._homology_cache))
            return compute(*args, **kwargs)

        monkeypatch.setattr(homology, "HOMOLOGY_CACHE_MAX", bound)
        monkeypatch.setattr(homology, "_homology_from_faces", watched)
        homology.clear_caches()
        verdict_sizes.clear()
        assert answers() == expected
        sizes.append(len(homology._homology_cache))
        assert max(sizes) <= bound
        # five verdicts (one per path ideal or 4-cycle, three for the
        # projective plane) pass the bound of three once
        assert max(verdict_sizes) == bound and verdict_sizes[-1] < bound
        # the cache bound was reached more than once
        assert len(sizes) > 2 * bound
        homology.clear_caches()


def _mask_sets(masks):
    return [{b for b in range(64) if m >> b & 1} for m in masks]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(2, 10), st.sampled_from((2, 3)), st.randoms(use_true_random=False))
def test_relabelling_a_tree_keeps_tables_and_cache_entries(seed, n, t, rng):
    # any labelling keeps the tables; the entries stay when the labelling
    # keeps or reverses the vertex order (see _order_keeping)
    tree = random_tree(seed, n)
    results = []
    for g in (tree, *_order_keeping(tree, rng), _relabelled(tree, rng)):
        homology.clear_caches()
        tables = betti_tables_hochster(path_ideal(g, t))
        results.append(([tables[f].entries for f in homology.DEFAULT_FIELDS], len(homology._homology_cache)))
    assert all(row[0] == results[0][0] for row in results)
    assert results[0][1] == results[1][1] == results[2][1]


class TestIslandKey:
    """A Hochster island is keyed by _canonical_faces, as a Reisner link
    is: a relabelled copy of its masks, with their homology whether the
    masks are read as facets or as minimal non-faces."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.frozensets(st.integers(0, 7), min_size=1, max_size=4), min_size=1, max_size=8, unique=True))
    def test_key_is_a_relabelling(self, sets):
        self._assert_relabelling([sum(1 << v for v in f) for f in sets])

    def test_projective_plane_key_is_a_relabelling(self):
        rp2 = [sum(1 << v for v in f) for f in projective_plane_complex().facets]
        self._assert_relabelling(rp2)
        non_faces = [sum(1 << v for v in g) for g in projective_plane_ideal().gens]
        self._assert_relabelling(non_faces)

    @staticmethod
    def _assert_relabelling(masks):
        key = homology._canonical_faces(masks)
        assert Counter(m.bit_count() for m in key) == Counter(m.bit_count() for m in masks)
        union = 0
        for m in key:
            union |= m
        assert union == (1 << len(set().union(*_mask_sets(masks)))) - 1
        for p in (None, 2):
            assert simple_homology(_mask_sets(key), p) == simple_homology(_mask_sets(masks), p), p
            islands = [_vertex_lists(faces_from_non_faces(m)) for m in (key, masks)]
            assert simple_homology(islands[0], p) == simple_homology(islands[1], p), p


def _masks(sets):
    return [sum(1 << v for v in f) for f in sets]


class TestCanonicalFaces:
    """The FACETS key against its definition, and its invariances."""

    vertex_sets = st.lists(st.frozensets(st.integers(0, 100), max_size=6), max_size=8)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(vertex_sets, st.randoms(use_true_random=False))
    @example([], random.Random(0))
    @example([frozenset()], random.Random(0))  # the mask 0 alone
    @example([frozenset({3, 5, 9})], random.Random(0))
    @example([frozenset({0, 64, 70}), frozenset({63, 64}), frozenset({99})], random.Random(0))
    def test_matches_the_definition_in_any_order(self, sets, rng):
        masks = _masks(sets)
        key = homology._canonical_faces(masks)
        assert key == canonical_faces_by_spec(masks)
        rng.shuffle(masks)
        assert homology._canonical_faces(masks) == key

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(vertex_sets, st.randoms(use_true_random=False))
    @example([frozenset({0, 1}), frozenset({1, 2, 4})], random.Random(0))
    def test_invariant_under_monotone_relabelling_and_reversal(self, sets, rng):
        key = homology._canonical_faces(_masks(sets))
        used = sorted(set().union(*sets))
        # increasing ids with gaps, some above bit 63
        ids = dict(zip(used, sorted(rng.sample(range(200), len(used)))))
        assert homology._canonical_faces(_masks([{ids[v] for v in f} for f in sets])) == key
        # the vertex order reversed
        assert homology._canonical_faces(_masks([{150 - v for v in f} for f in sets])) == key


def _rp2_family():
    """The projective plane, its cone and its suspension, as facet lists:
    complexes whose Q elimination need not be certified."""
    rp2 = [set(f) for f in projective_plane_complex().facets]
    apex, south = 7, 8
    return (
        rp2,
        [f | {apex} for f in rp2],
        [f | {v} for f in rp2 for v in (apex, south)],
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.integers(1, 7), max_size=5), min_size=1, max_size=8))
@example(_rp2_family()[0])
@example(_rp2_family()[1])
@example(_rp2_family()[2])
def test_chain_homology_matches_dense_oracle(facets):
    faces = faces_from_facets(_masks(facets))
    results = {p: homology._homology_from_faces(faces, p) for p in (None, 2, 3, 5)}
    for p, (dims, _) in results.items():
        assert dims == simple_homology(facets, p), p
    q_dims, certified = results[None]
    if certified:
        assert all(dims == q_dims for dims, _ in results.values())


def _quotient(facets):
    return homology._quotient_faces(FACETS, _masks(facets))


def _vertex_lists(faces):
    return [[b for b in range(f.bit_length()) if f >> b & 1] for f in faces]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([FACETS, NON_FACES]), st.lists(st.integers(0, 127), max_size=7))
@example(FACETS, [])
@example(FACETS, [0])
@example(NON_FACES, [])
@example(NON_FACES, [0, 3])  # a zero mask: the void complex
@example(NON_FACES, [0b011, 0b111, 0b1100])  # not an antichain
@example(NON_FACES, [0b0110, 0b0011, 0b0111, 0b1100])
@example(FACETS, [0b0111, 0b0011, 0b11000])
@example(FACETS, _masks(_rp2_family()[0]))  # the projective plane, and cones over it
@example(FACETS, _masks(_rp2_family()[1]))
@example(FACETS, _masks(_rp2_family()[2]))
@example(NON_FACES, _masks(projective_plane_ideal().gens))
def test_quotient_homology_matches_the_full_complex(kind, masks):
    full = faces_from_facets(masks) if kind == FACETS else faces_from_non_faces(masks)
    kept = homology._quotient_faces(kind, masks)
    assert kept <= full
    for p in (None, 2, 3, 5):
        assert homology._homology_from_faces(kept, p)[0] == simple_homology(_vertex_lists(full), p), p


@pytest.mark.parametrize("kind", [FACETS, NON_FACES])
def test_projective_plane_quotient_keeps_its_torsion(kind):
    rp2 = _masks([{v - 1 for v in f} for f in projective_plane_complex().facets])
    non_faces = _masks([{v - 1 for v in g} for g in projective_plane_ideal().gens])
    kept = homology._quotient_faces(kind, rp2 if kind == FACETS else non_faces)
    assert homology._homology_from_faces(kept, 2) == ({1: 1, 2: 1}, False)
    assert homology._homology_from_faces(kept) == ({}, False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 255), st.lists(st.integers(0, 255), max_size=6), st.integers(0, 255))
@example(0b111, [0, 0b11], 0)
@example(0b1111, [0b11, 0b110], 0b11)  # start is no face
def test_enumerate_faces_is_a_filter_of_the_supersets(universe, gens, start):
    start &= universe
    expected = {
        s for s in range(universe + 1)
        if s | universe == universe and s & start == start and not any(g & s == g for g in gens)
    }
    assert homology._enumerate_faces(universe, gens, start) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 255), max_size=4), st.lists(st.integers(0, 255), max_size=6),
       st.sampled_from([or_, and_]))
@example([], [], or_)
@example([0b101], [], and_)
@example([0b111, 0b110], [0b011, 0b101, 0b110], and_)
def test_closure_combines_each_seed_with_every_subset_of_the_gens(seeds, gens, op):
    expected = {
        reduce(op, chosen, seed)
        for seed in seeds
        for size in range(len(gens) + 1)
        for chosen in combinations(gens, size)
    }
    assert homology._closure(seeds, gens, op) == expected


def _sr_facets_by_scan(n, gens):
    """The maximal subsets of bits 0..n-1 that contain no generator."""
    faces = [s for s in range(1 << n) if not any(g & s == g for g in gens)]
    return {s for s in faces if not any(s & f == s and s != f for f in faces)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=7))))
@example((3, []))  # the zero ideal: the simplex
@example((3, [0]))  # the unit ideal: no facets
@example((0, []))  # no vertices: the complex {{}}
@example((6, _masks([{v - 1 for v in g} for g in projective_plane_ideal().gens])))
def test_sr_facets_are_the_maximal_faces(case):
    n, gens = case
    # the generators of an ideal form an antichain
    gens = [g for g in gens if not any(h & g == h and h != g for h in gens)]
    facets = homology._sr_facets(n, gens)
    assert len(facets) == len(set(facets))
    assert set(facets) == _sr_facets_by_scan(n, gens)


HOLLOW_TETRAHEDRON = [set(f) for f in combinations(range(4), 3)]
# the 2-sphere on three pairs of opposite vertices {0, 1}, {2, 3}, {4, 5}
OCTAHEDRON = [{a, b, c} for a in (0, 1) for b in (2, 3) for c in (4, 5)]


class TestStarQuotient:
    """Homology modulo the star of one vertex: values, certificate,
    hygiene counts, the choice of the vertex and the rows that reach the
    rank step."""

    @pytest.mark.parametrize(
        "facets, expected",
        [
            ([{0, 1, 2, 3}], {}),  # a simplex
            ([set()], {-1: 1}),  # the complex {empty face}
            ([{0}], {}),
            ([{0}, {1}], {0: 1}),
            (HOLLOW_TETRAHEDRON, {2: 1}),  # its quotient is one 2-face
        ],
    )
    def test_values_over_every_field(self, facets, expected):
        faces = _quotient(facets)
        for p in (None, 2, 3, 5):
            assert homology._homology_from_faces(faces, p)[0] == expected, p
        assert homology._homology_from_faces(faces)[1]

    @pytest.mark.parametrize(
        "facets",
        [
            [{0, 1, 2, 3}],  # a cone: nothing is ranked
            [{0, 1, 2}, {0, 2, 3}, {0, 1, 3}],  # a cone over a hollow triangle
            OCTAHEDRON,  # a quotient in three dimensions
        ],
    )
    def test_each_check_counts_once_per_complex(self, facets):
        faces = _quotient(facets)
        before = dict(assertion_stats)
        homology._homology_from_faces(faces)
        for check in ("boundary_squared", "euler"):
            assert assertion_stats[check] - before[check] == 1, check

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.frozensets(st.integers(0, 9), max_size=5), min_size=1, max_size=8))
    @example([{2, 3}, {5, 7}])
    @example([{0, 1, 2}, {3, 4, 5, 6}])
    def test_star_vertex_follows_the_weight_rules(self, sets):
        used = sorted(set().union(*sets))
        if not used:
            return
        masks = _masks(sets)
        # generating faces: the largest sum of 2^|G| over the masks G
        # through the vertex; minimal non-faces: the fewest masks
        v = max(used, key=lambda b: sum(2 ** len(s) for s in sets if b in s))
        w = min(used, key=lambda b: sum(1 for s in sets if b in s))
        for kind, faces, apex in (
            (FACETS, faces_from_facets(masks), v),
            (NON_FACES, faces_from_non_faces(masks), w),
        ):
            outside = {s for s in faces if (s | 1 << apex) not in faces}
            assert homology._quotient_faces(kind, masks) == outside, kind

    def test_tied_star_vertex_goes_to_bit_0(self):
        # two disjoint edges: every vertex has the same weight, and the star
        # of bit 0 leaves the other edge without its empty face
        kept = _quotient([{0, 1}, {2, 3}])
        assert kept == {4, 8, 12}
        assert homology._homology_from_faces(kept) == ({0: 1}, True)
        # the path 0-1-2-3 as minimal non-faces: bits 0 and 3 lie in one
        # mask each, and the star of bit 0 leaves {1} and {1, 3}
        kept = homology._quotient_faces(NON_FACES, _masks([{0, 1}, {1, 2}, {2, 3}]))
        assert kept == {0b0010, 0b1010}
        assert homology._homology_from_faces(kept) == ({}, True)

    def test_rank_sees_no_row_from_the_star(self, monkeypatch):
        seen = []
        rank = homology.sparse_rank

        def watched(rows, p=None, pivot_rows=None):
            seen.append(len(rows))
            return rank(rows, p, pivot_rows)

        monkeypatch.setattr(homology, "sparse_rank", watched)
        # every vertex star of the hollow tetrahedron holds all of its faces
        # but the opposite 2-face, which has no boundary left to rank
        assert homology._homology_from_faces(_quotient(HOLLOW_TETRAHEDRON)) == ({2: 1}, True)
        assert seen == []
        # every vertex star of the octahedron leaves the opposite vertex with
        # its 4 edges and 4 triangles: d_2 gets 4 rows and d_1 one
        assert homology._homology_from_faces(_quotient(OCTAHEDRON)) == ({2: 1}, True)
        assert seen == [4, 1]


class TestSequentiallyCM:
    def test_path_ideals(self):
        for t in (2, 3):
            assert is_sequentially_cm(path_ideal(twelve_vertex_tree(), t), QQ)

    def test_four_cycle_fails(self):
        assert not is_sequentially_cm(four_cycle_edge_ideal(), QQ)
        assert not is_sequentially_cm(four_cycle_edge_ideal(), gf(2))

    def test_principal(self):
        assert is_sequentially_cm(path_ideal(line(5), 5), QQ)

    def test_zero_ideal(self):
        assert is_sequentially_cm(zero_ideal({1, 2}), QQ)

    def test_failures_below_the_top_facet_dimension(self):
        # facets {1,2,3}, {4,5}, {5,6}: the pure 1-skeleton is disconnected,
        # so the empty face fails at dimension 1; in the cone with apex 7
        # only lk{7} fails, at dimension 2
        for facets in ([{1, 2, 3}, {4, 5}, {5, 6}], [{1, 2, 3, 7}, {4, 5, 7}, {5, 6, 7}]):
            ideal = _stanley_reisner_ideal(facets)
            for field in (QQ, gf(2)):
                assert not is_sequentially_cm(ideal, field), (facets, field)
                assert not sequentially_cm_by_all_skeleta(ideal, field), (facets, field)

    def test_projective_plane_fails_over_gf2_only(self):
        ideal = projective_plane_ideal()
        for field, expected in ((QQ, True), (gf(2), False), (gf(3), True)):
            assert is_sequentially_cm(ideal, field) is expected, field
            assert sequentially_cm_by_all_skeleta(ideal, field) is expected, field

    def test_corpus_matches_the_all_skeleta_oracle(self):
        for _, _, _, ideal in corpus_ideals():
            _assert_matches_oracle(ideal)

    @pytest.mark.parametrize("edge, expected", [
        # an edge hanging off vertex 1 keeps the 1-skeleton connected
        ({1, 7}, {QQ: True, gf(2): False, gf(3): True}),
        # a disjoint edge disconnects it, over every field
        ({7, 8}, {QQ: False, gf(2): False, gf(3): False}),
    ])
    def test_projective_plane_with_an_edge(self, edge, expected):
        facets = [set(f) for f in projective_plane_complex().facets] + [edge]
        ideal = _stanley_reisner_ideal(facets, universe=set().union(*facets))
        homology.clear_caches()
        for field in (QQ, gf(2), gf(3)):
            assert is_sequentially_cm(ideal, field) is expected[field], field
        # every sweep consults the projective plane, which is uncertified
        assert {key[2:] for key in homology._scm_verdicts} == {(None,), (2,), (3,)}
        assert _uncertified_entries()
        _assert_matches_oracle(ideal, (QQ, gf(2), gf(3)))

    def test_certified_links_keep_one_verdict(self):
        # two disjoint hollow tetrahedra: the empty face's link, the whole
        # complex, is disconnected, which its certified homology shows
        facets = [set(c) for block in ((1, 2, 3, 4), (5, 6, 7, 8)) for c in combinations(block, 3)]
        ideal = _stanley_reisner_ideal(facets, universe=range(1, 9))
        homology.clear_caches()
        for field in (QQ, gf(2), gf(3)):
            assert not is_sequentially_cm(ideal, field), field
        assert len(homology._scm_verdicts) == 1 and not _uncertified_entries()
        assert homology._homology_cache
        _assert_matches_oracle(ideal, (QQ, gf(2), gf(3)))

    def test_one_lookup_per_facet_link(self, monkeypatch):
        # the sweep reads each link off the facets of the Stanley-Reisner
        # complex, so it looks up exactly the non-cone links the scan finds;
        # links built from the faces of a skeleton are cones less often, and
        # this ideal made 83 lookups that way instead of 62
        ideal = path_ideal(random_tree(12005, 12), 2)
        kinds = []
        cached = homology._cached_homology

        def watched(kind, canon, p):
            kinds.append(kind)
            return cached(kind, canon, p)

        monkeypatch.setattr(homology, "_cached_homology", watched)
        homology.clear_caches()
        assert is_sequentially_cm(ideal, QQ)
        assert kinds == [FACETS] * len(facet_links_by_scan(ideal))


def _uncertified_entries():
    """Keys of homology cache entries whose Q elimination was not certified."""
    return [key for key in homology._homology_cache if len(key) == 3]


def _relabelled_ideal(ideal, label, extra=()):
    """The ideal with each vertex v renamed label(v), plus extra ambient vertices."""
    return make_ideal(([label(v) for v in g] for g in ideal.gens),
                      ambient=[label(v) for v in ideal.ambient] + list(extra))


class TestSequentialCMVerdicts:
    """One sweep per ideal: a verdict whose link homologies were all
    certified answers every field; any other is kept per field."""

    def test_projective_plane_keeps_a_verdict_per_field_in_either_order(self):
        ideal = projective_plane_ideal()
        expected = {QQ: True, gf(2): False, gf(3): True}
        for order in ((QQ, gf(2), gf(3)), (gf(2), QQ, gf(3))):
            homology.clear_caches()
            for field in order:
                assert is_sequentially_cm(ideal, field) is expected[field], (order, field)
            assert {key[2:] for key in homology._scm_verdicts} == {(None,), (2,), (3,)}

    @pytest.fixture
    def enumerated(self, monkeypatch):
        """The arguments of every later _sr_facets call; each sweep makes one."""
        calls = []
        sr_facets = homology._sr_facets

        def watched(*args):
            calls.append(args)
            return sr_facets(*args)

        monkeypatch.setattr(homology, "_sr_facets", watched)
        return calls

    def test_second_field_repeats_nothing(self, enumerated):
        ideal = path_ideal(random_tree(12005, 12), 2)
        homology.clear_caches()
        assert is_sequentially_cm(ideal, QQ)
        enumerated.clear()
        entries = dict(homology._homology_cache)
        stats = (dict(assertion_stats), dict(homology.certificate_stats))
        for field in (gf(2), gf(3), QQ):
            assert is_sequentially_cm(ideal, field)
        assert homology._homology_cache == entries
        assert (dict(assertion_stats), dict(homology.certificate_stats)) == stats
        assert enumerated == []
        assert len(homology._scm_verdicts) == 1

    def test_relabelled_copies_share_the_verdict_and_extra_vertices_do_not(self, enumerated):
        ideal = path_ideal(random_tree(12005, 12), 2)
        top = max(ideal.ambient)
        homology.clear_caches()
        assert is_sequentially_cm(ideal, QQ)
        enumerated.clear()
        for label in (lambda v: top + 1 - v, lambda v: 3 * v + 7):
            assert is_sequentially_cm(_relabelled_ideal(ideal, label), gf(2))
        assert enumerated == [] and len(homology._scm_verdicts) == 1
        wider = _relabelled_ideal(ideal, lambda v: v, extra=[top + 1])
        assert is_sequentially_cm(wider, gf(2))
        assert enumerated and len(homology._scm_verdicts) == 2

    def test_memoized_ideal_still_checks_the_bound(self):
        ideal = path_ideal(line(9), 3)
        homology.clear_caches()
        assert is_sequentially_cm(ideal, QQ)
        for field in (QQ, gf(2)):
            with pytest.raises(BoundExceededError, match="^9 vertices exceeds the bound 8$"):
                is_sequentially_cm(ideal, field, max_n=8)


SCM_UNIVERSE = range(1, 8)


def _stanley_reisner_ideal(facets, universe=SCM_UNIVERSE):
    """The minimal non-faces of the complex generated by the facets."""
    vertices = sorted(universe)
    non_faces = []
    for size in range(len(vertices) + 1):
        for c in combinations(vertices, size):
            if not any(set(c) <= set(f) for f in facets):
                non_faces.append(c)
    return make_ideal(non_faces, ambient=vertices)


def _assert_matches_oracle(ideal, fields=(QQ, gf(2))):
    for field in fields:
        assert is_sequentially_cm(ideal, field) == sequentially_cm_by_all_skeleta(ideal, field), (
            str(ideal), str(field))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.sampled_from(SCM_UNIVERSE), min_size=1, max_size=5), min_size=1, max_size=6))
def test_sequentially_cm_matches_oracle_on_stanley_reisner_ideals(facets):
    _assert_matches_oracle(_stanley_reisner_ideal(facets))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sets(st.sampled_from(list(combinations(SCM_UNIVERSE, 2))), min_size=10, max_size=16))
def test_sequentially_cm_matches_oracle_on_edge_ideals(edges):
    # graphs this dense give many "no" answers: 20 of these 80 draws
    _assert_matches_oracle(make_ideal(edges, ambient=SCM_UNIVERSE))


def _rp2_with_a_tetrahedron():
    """The projective plane on 0..5 and a tetrahedron on its edge {4, 5}:
    facets of two sizes, with 2-torsion in degree 1."""
    return [frozenset(v - 1 for v in f) for f in projective_plane_complex().facets] + [
        frozenset({4, 5, 6, 7})
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.integers(0, 7), min_size=1, max_size=5), min_size=2, max_size=6))
@example(_rp2_with_a_tetrahedron())
def test_skeleton_links_have_the_homology_of_facet_links(sets):
    # the lemma of _reisner_cm_pure: in D^[size-1], the link of a face s of
    # a facet of that size agrees, below d' = size - |s| - 1, with the link
    # of s in the complex generated by the facets of at least size vertices
    facets = maximal_sets_by_scan(sets)
    sizes = {len(F) for F in facets}
    assume(len(sizes) >= 2)
    for size in sizes:
        skeleton = {
            frozenset(c) for F in facets if len(F) >= size for c in combinations(sorted(F), size)
        }
        tested = {
            frozenset(c) for F in facets if len(F) == size
            for k in range(size + 1) for c in combinations(sorted(F), k)
        }
        for s in tested:
            d = size - len(s) - 1
            skeleton_link = [t - s for t in skeleton if s <= t]
            facet_link = [F - s for F in facets if len(F) >= size and s <= F]
            for p in (None, 2, 3):
                below = [{k: v for k, v in simple_homology(link, p).items() if k < d}
                         for link in (skeleton_link, facet_link)]
                assert below[0] == below[1], (sorted(map(sorted, facets)), size, sorted(s), p)


class TestBounds:
    def test_explicit_max_n_below_n_raises(self):
        with pytest.raises(BoundExceededError, match="^5 vertices exceeds the Hochster bound 4$"):
            betti_table_hochster(path_ideal(line(5), 2), QQ, max_n=4)
        assert betti_table_hochster(path_ideal(line(5), 2), QQ, max_n=5).entries

    def test_default_hochster_bound_is_14(self):
        assert homology.DEFAULT_HOCHSTER_MAX_N == 14
        with pytest.raises(BoundExceededError, match="^15 vertices exceeds the Hochster bound 14$"):
            betti_table_hochster(path_ideal(line(15), 2), QQ)

    def test_bound_messages(self):
        ideal = path_ideal(line(17), 2)
        with pytest.raises(BoundExceededError, match="^17 vertices exceeds the Stanley-Reisner bound 16$"):
            stanley_reisner_complex(ideal)
        with pytest.raises(BoundExceededError, match="^17 vertices exceeds the bound 16$"):
            is_sequentially_cm(ideal)


class TestExactnessChecks:
    def test_assertions_exercised(self):
        before = dict(assertion_stats)
        reduced_homology_dims(make_complex([{1, 2, 5}, {2, 3, 4}]), QQ)
        betti_table_hochster(path_ideal(line(4), 2), gf(2))
        assert assertion_stats["euler"] >= before["euler"]
        # at least one new computation ran its checks unless fully cached
        assert assertion_stats["boundary_squared"] >= before["boundary_squared"]


class TestChecksSurviveOptimize:
    def test_checks_raise_under_python_O(self):
        script = textwrap.dedent(
            """
            import pathideal.ara as ara
            import pathideal.homology as homology
            from pathideal import make_complex, reduced_homology_dims
            from pathideal.errors import CheckFailedError

            assert False, "this script must run under python -O"

            ara.verify_sv_conditions = lambda partition, ideal: (False, ("forced",))
            try:
                ara.construct_partition_t3(7)
            except CheckFailedError:
                print("partition check raised")

            # edges on bit 0 list their bits backwards: the triangle's
            # boundary composed with boundary is then nonzero.  The star
            # vertex has the largest sum of 2^|facet| over its facets, so
            # it lies in the tetrahedron and the triangle is ranked
            plain = homology.iter_bits

            def skewed(mask):
                bits = list(plain(mask))
                return reversed(bits) if mask & 1 and len(bits) == 2 else iter(bits)

            homology.iter_bits = skewed
            try:
                reduced_homology_dims(make_complex([{1, 2, 3}, {4, 5, 6, 7}]))
            except CheckFailedError:
                print("boundary check raised")
            """
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[:2] == ["partition check raised", "boundary check raised"]
