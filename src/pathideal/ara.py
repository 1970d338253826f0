"""Arithmetical-rank bounds via Schmitt-Vogel generator partitions.

An ordered partition P_0,...,P_r of the minimal generators certifies
ara(I) <= r+1 when (1) the parts cover the generators, (2) P_0 is a
singleton, and (3) for distinct p, p' in a part P_i with i > 0 some
generator in an earlier part divides p*p'.  The witnesses are the sums
q_i = sum over p in P_i of p^e(p).  Lyubeznik's inequality
pd(R/I) <= ara(I) supplies the lower bound, so a valid partition into
exactly pd(R/I) parts (a "good partition") pins ara exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from . import corpus
from .bits import bit_index, to_mask
from .errors import BoundExceededError, CheckFailedError
from .homology import QQ, char_independence_report
from .ideals import SquarefreeIdeal
from .pd import line_order, pd_line_closed_form, pd_quotient_hochster
from .trees import path_ideal

DEFAULT_SEARCH_MAX_GENS = 14
DEFAULT_POINT_CHECK_MAX_N = 20


@dataclass(frozen=True)
class SVPartition:
    """Ordered parts of generator monomials, with optional exponents
    (default 1) used when forming the witness sums."""

    parts: tuple
    exponents: Mapping | None = None

    def exponent(self, monomial: frozenset) -> int:
        if self.exponents is None:
            return 1
        return self.exponents.get(monomial, 1)

    def sorted_parts(self) -> list[list[tuple[int, ...]]]:
        return [sorted(tuple(sorted(m)) for m in part) for part in self.parts]


@dataclass(frozen=True)
class WitnessPolynomial:
    """A formal sum of powered squarefree monomials, one per part."""

    terms: tuple  # of (support frozenset, exponent)


def _divides_product(q: frozenset, p: frozenset, p2: frozenset) -> bool:
    # exponent vector of p*p2 has entries up to 2; q is squarefree, so
    # divisibility amounts to support containment in the union
    return q <= (p | p2)


def verify_sv_conditions(partition: SVPartition, ideal: SquarefreeIdeal) -> tuple[bool, tuple | None]:
    """Check the three partition conditions against G(I); returns the first
    violation as (tag, data...) on failure."""
    parts = [frozenset(frozenset(m) for m in part) for part in partition.parts]
    if not parts:
        return False, ("empty", None)
    seen: set[frozenset] = set()
    for k, part in enumerate(parts):
        if not part:
            return False, ("empty-part", k)
        if seen & part:
            return False, ("not-disjoint", k)
        seen |= part
    if seen != ideal.gens:
        return False, ("condition(1)", tuple(sorted(map(sorted, seen ^ ideal.gens))))
    if len(parts[0]) != 1:
        return False, ("condition(2)", len(parts[0]))
    earlier: set[frozenset] = set(parts[0])
    for k in range(1, len(parts)):
        for p, p2 in combinations(sorted(parts[k], key=sorted), 2):
            if not any(_divides_product(q, p, p2) for q in earlier):
                return False, ("condition(3)", k, tuple(sorted(p)), tuple(sorted(p2)))
        earlier |= parts[k]
    return True, None


def sv_witnesses(partition: SVPartition, ideal: SquarefreeIdeal) -> list[WitnessPolynomial]:
    """The r+1 witness sums certifying that the generators and the
    witnesses have the same radical."""
    ok, violation = verify_sv_conditions(partition, ideal)
    if not ok:
        raise ValueError(f"partition violates the Schmitt-Vogel conditions: {violation}")
    out = []
    for part in partition.parts:
        terms = tuple(
            (frozenset(m), partition.exponent(frozenset(m)))
            for m in sorted(part, key=sorted)
        )
        out.append(WitnessPolynomial(terms))
    return out


def construct_partition_t3(n: int) -> SVPartition:
    """The explicit partition for the path ideal of three-vertex paths on
    the line graph, defined for n >= 3 with n != 2 (mod 4).  The part count
    equals pd(R/I) and validity is checked."""
    if n < 3:
        raise ValueError("need n >= 3")
    if n % 4 == 2:
        raise ValueError("no generator partition exists for n = 2 (mod 4)")

    def m(i: int) -> frozenset:
        return frozenset({i, i + 1, i + 2})

    if n == 3:
        parts: list[frozenset] = [frozenset({m(1)})]
    elif n % 4 == 0:
        k = n // 4
        parts = [frozenset({m(2)})]
        parts += [frozenset({m(2 * i - 1), m(2 * i + 2)}) for i in range(1, 2 * k - 1)]
        parts += [frozenset({m(4 * k - 3)})]
    elif n % 4 == 1:
        k = (n - 1) // 4
        parts = [frozenset({m(2)})]
        parts += [frozenset({m(2 * i - 1), m(2 * i + 2)}) for i in range(1, 2 * k - 1)]
        parts += [frozenset({m(4 * k - 3), m(4 * k - 1)})]
    else:  # n = 3 (mod 4)
        k = (n - 3) // 4
        parts = [frozenset({m(2)})]
        parts += [frozenset({m(2 * i - 1), m(2 * i + 2)}) for i in range(1, 2 * k)]
        parts += [frozenset({m(4 * k - 1), m(4 * k + 1)})]

    partition = SVPartition(tuple(parts))
    ok, violation = verify_sv_conditions(partition, path_ideal(corpus.line(n), 3))
    if not ok:
        raise CheckFailedError(f"constructed partition is invalid: {violation}")
    return partition


def recognize_line_ideal(ideal: SquarefreeIdeal) -> tuple[int, int] | None:
    """Detect I_t(L_n) up to relabeling; returns (t, n) or None."""
    line = line_order(ideal)
    return (line[0], len(line[1])) if line else None


def line_partition_t3(ideal: SquarefreeIdeal) -> SVPartition | None:
    """The explicit t=3 partition of ``construct_partition_t3`` on the
    ideal's own vertices, or None unless the ideal is I_3 of a line.
    Like the construction, raises ValueError for n = 2 (mod 4)."""
    line = line_order(ideal)
    if not line or line[0] != 3:
        return None
    order = line[1]
    canonical = construct_partition_t3(len(order))
    relabel = dict(enumerate(order, start=1))
    return SVPartition(
        tuple(
            frozenset(frozenset(relabel[x] for x in m) for m in part)
            for part in canonical.parts
        )
    )


def good_partition_search(
    ideal: SquarefreeIdeal, parts: int, max_gens: int = DEFAULT_SEARCH_MAX_GENS
) -> SVPartition | None:
    """Exhaustive backtracking over ordered partitions of the generators
    into exactly ``parts`` nonempty parts with a singleton first part and
    condition (3) enforced part by part.

    For line-graph path ideals the search is pruned soundly: inside a part
    the window indices i < j must satisfy i+1 < j <= i+t, so parts hold at
    most floor(t/2)+1 generators.
    """
    gens = sorted(ideal.gens, key=sorted)
    if len(gens) > max_gens:
        raise BoundExceededError(f"{len(gens)} generators exceeds the search bound {max_gens}")
    if parts < 1 or parts > len(gens):
        return None

    line = line_order(ideal)
    if line:
        t, order = line
        pos = {v: i + 1 for i, v in enumerate(order)}
        start = {g: min(pos[v] for v in g) for g in gens}
        gens = sorted(gens, key=lambda g: start[g])
        size_cap = t // 2 + 1

        def part_ok(group: tuple) -> bool:
            if len(group) > size_cap:
                return False
            idxs = sorted(start[g] for g in group)
            for a, b in combinations(idxs, 2):
                if not (a + 1 < b <= a + t):
                    return False
            return True

    else:

        def part_ok(group: tuple) -> bool:
            return True

    def condition3_ok(group: tuple, earlier: tuple) -> bool:
        for p, p2 in combinations(group, 2):
            union = p | p2
            if not any(q <= union for q in earlier):
                return False
        return True

    def search(remaining: tuple, level: int, chosen: list, earlier: tuple):
        slots = parts - level
        if slots == 0:
            return tuple(chosen) if not remaining else None
        if len(remaining) < slots:
            return None
        if slots == 1:
            group = remaining
            if part_ok(group) and condition3_ok(group, earlier):
                return tuple(chosen + [frozenset(group)])
            return None
        max_size = len(remaining) - (slots - 1)
        for size in range(1, max_size + 1):
            for combo in combinations(range(len(remaining)), size):
                group = tuple(remaining[i] for i in combo)
                if not part_ok(group) or not condition3_ok(group, earlier):
                    continue
                rest = tuple(g for i, g in enumerate(remaining) if i not in combo)
                found = search(rest, level + 1, chosen + [frozenset(group)], earlier + group)
                if found:
                    return found
        return None

    for k, first in enumerate(gens):
        rest = tuple(gens[:k] + gens[k + 1:])
        found = search(rest, 1, [frozenset({first})], (first,))
        if found:
            return SVPartition(found)
    return None


def no_good_partition_inequality(n: int, t: int) -> bool:
    """When (pd(R/I_t(L_n)) - 1) * (floor(t/2) + 1) < n - t, the generators
    admit no good partition."""
    if n < t or t < 2:
        raise ValueError("need n >= t >= 2")
    return (pd_line_closed_form(n, t) - 1) * (t // 2 + 1) < n - t


@dataclass
class AraBounds:
    lower: int
    upper: int | None
    exact: bool
    partition: SVPartition | None
    note: str = ""


def singleton_partition(ideal: SquarefreeIdeal) -> SVPartition:
    """One generator per part: always valid, certifying ara <= #generators."""
    return SVPartition(tuple(frozenset({g}) for g in sorted(ideal.gens, key=sorted)))


def partition_to_jsonable(partition: SVPartition) -> dict:
    exponents = partition.exponents or {}
    return {
        "parts": partition.sorted_parts(),
        "exponents": sorted([sorted(m), e] for m, e in exponents.items()),
    }


def partition_from_jsonable(data: dict) -> SVPartition:
    parts = tuple(
        frozenset(frozenset(m) for m in part) for part in data["parts"]
    )
    exponents = {frozenset(m): e for m, e in data.get("exponents", [])} or None
    return SVPartition(parts, exponents)


def ara_bounds(ideal: SquarefreeIdeal, max_n: int | None = None) -> AraBounds:
    """Lower bound pd(R/I); upper bound from the best valid partition found
    (explicit construction, exhaustive good-partition search, or the
    singleton fallback)."""
    if ideal.is_zero:
        return AraBounds(0, 0, True, None, "zero ideal")
    line = recognize_line_ideal(ideal)
    if line:
        t, n = line
        lower = pd_line_closed_form(n, t)
        note = f"line graph with t={t}, n={n}"
    else:
        ok, diffs = char_independence_report(ideal, max_n=max_n)
        if not ok:
            raise RuntimeError(f"Betti tables depend on the characteristic: {diffs}")
        lower = pd_quotient_hochster(ideal, QQ, max_n)
        note = "pd from Hochster tables"

    partition: SVPartition | None = None
    if line and line[0] == 3 and line[1] % 4 != 2:
        partition = line_partition_t3(ideal)
    elif len(ideal.gens) <= DEFAULT_SEARCH_MAX_GENS and lower >= 1:
        partition = good_partition_search(ideal, lower)

    if partition is not None:
        ok, violation = verify_sv_conditions(partition, ideal)
        if not ok:
            raise RuntimeError(f"candidate partition failed validation: {violation}")
    else:
        partition = singleton_partition(ideal)
        note += "; only the singleton partition available"
    upper = len(partition.parts)

    return AraBounds(lower, upper, lower == upper, partition, note)


def radical_point_check(
    witnesses: list[WitnessPolynomial],
    ideal: SquarefreeIdeal,
    max_n: int = DEFAULT_POINT_CHECK_MAX_N,
) -> bool:
    """Necessary condition for radical equality, checked on all 0/1 points
    with integer arithmetic: wherever every witness vanishes, every
    generator must vanish too."""
    n = len(ideal.ambient)
    if n > max_n:
        raise BoundExceededError(f"{n} variables exceeds the point-check bound {max_n}")
    index = bit_index(ideal.ambient)
    gen_masks = [to_mask(g, index) for g in ideal.gens]
    witness_masks = [[to_mask(m, index) for m, _ in w.terms] for w in witnesses]
    for point in range(1 << n):
        # a powered monomial evaluates to 1 exactly when its support is on
        all_zero = all(
            sum(1 for m in terms if m & point == m) == 0 for terms in witness_masks
        )
        if all_zero and any(g & point == g for g in gen_masks):
            return False
    return True
