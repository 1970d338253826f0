"""Arithmetical-rank bounds via Schmitt-Vogel generator partitions.

An ordered partition P_0,...,P_r of the minimal generators certifies
ara(I) <= r+1 when (1) the parts cover the generators, (2) P_0 is a
singleton, and (3) for distinct p, p' in a part P_i with i > 0 some
generator in an earlier part divides p*p'.  The witnesses are the sums
q_i = sum over p in P_i of p, so the partition is its own witness set.
Lyubeznik's inequality pd(R/I) <= ara(I) supplies the lower bound, so a
valid partition into exactly pd(R/I) parts (a "good partition") pins ara
exactly.

A witness vanishes at a 0/1 point iff none of its monomials is on there,
and a point where every witness vanishes but a generator g is on can be
shrunk to the point supp(g).  So ``radical_point_check`` settles the test
over all 2^n points by divisibility alone: every generator must be
divisible by some part monomial.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import corpus
from .errors import BoundExceededError, CheckFailedError
from .homology import QQ, char_independence_report
from .ideals import SquarefreeIdeal
from .pd import line_order, pd_line_closed_form, pd_quotient_hochster
from .trees import path_ideal

DEFAULT_SEARCH_MAX_GENS = 14


@dataclass(frozen=True)
class SVPartition:
    """Ordered parts of generator monomials; part i is the witness sum q_i."""

    parts: tuple

    def sorted_parts(self) -> list[list[tuple[int, ...]]]:
        return [sorted(tuple(sorted(m)) for m in part) for part in self.parts]


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
            # q is squarefree, so q | p*p2 iff supp(q) lies in the union
            if not any(q <= p | p2 for q in earlier):
                return False, ("condition(3)", k, tuple(sorted(p)), tuple(sorted(p2)))
        earlier |= parts[k]
    return True, None


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


def good_partition_search(ideal: SquarefreeIdeal, parts: int) -> SVPartition | None:
    """Exhaustive backtracking over ordered partitions of the generators
    into exactly ``parts`` nonempty parts with a singleton first part and
    condition (3) enforced part by part.

    For line-graph path ideals the search is pruned soundly: inside a part
    the window indices i < j must satisfy i+1 < j <= i+t, so parts hold at
    most floor(t/2)+1 generators.  Ideals with more than
    ``DEFAULT_SEARCH_MAX_GENS`` generators raise BoundExceededError.
    """
    gens = sorted(ideal.gens, key=sorted)
    if len(gens) > DEFAULT_SEARCH_MAX_GENS:
        raise BoundExceededError(f"{len(gens)} generators exceeds the search bound {DEFAULT_SEARCH_MAX_GENS}")
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
    return {"parts": partition.sorted_parts()}


def partition_from_jsonable(data: dict) -> SVPartition:
    """Reads ``data["parts"]``; other keys, such as the empty "exponents"
    list that older writers added, are ignored."""
    return SVPartition(tuple(frozenset(frozenset(m) for m in part) for part in data["parts"]))


def ara_bounds(ideal: SquarefreeIdeal, max_n: int | None = None) -> AraBounds:
    """Lower bound pd(R/I); upper bound from the best valid partition found
    (explicit construction, exhaustive good-partition search, or the
    singleton fallback).  The search is skipped on a line whose
    ``no_good_partition_inequality`` holds, since it would find nothing;
    ``verify`` still runs it there to cross-check the inequality."""
    if ideal.is_zero:
        return AraBounds(0, 0, True, None, "zero ideal")
    line = line_order(ideal)
    if line:
        t, n = line[0], len(line[1])
        lower = pd_line_closed_form(n, t)
        note = f"line graph with t={t}, n={n}"
    else:
        ok, diffs = char_independence_report(ideal, max_n=max_n)
        if not ok:
            raise RuntimeError(f"Betti tables depend on the characteristic: {diffs}")
        lower = pd_quotient_hochster(ideal, QQ, max_n)
        note = "pd from Hochster tables"

    partition: SVPartition | None = None
    settled = line and no_good_partition_inequality(n, t)  # no good partition exists
    if line and t == 3 and n % 4 != 2:
        partition = line_partition_t3(ideal)
    elif len(ideal.gens) <= DEFAULT_SEARCH_MAX_GENS and lower >= 1 and not settled:
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


def radical_point_check(partition: SVPartition, ideal: SquarefreeIdeal) -> bool:
    """Necessary condition for radical equality on 0/1 points: wherever
    every witness q_i = sum of the monomials of part i vanishes, every
    generator vanishes too.  Gives the verdict of the scan over all 2^n
    points for any parts, valid or not.

    At a 0/1 point a witness is the number of its monomials that are on,
    so it vanishes iff none is on.  If some point P fails, with every
    witness zero and a generator g on, then the point supp(g) <= P fails
    too: a monomial on at supp(g) would be on at P.  So the check over all
    2^n points holds iff every generator is divisible by some monomial of
    some part.  A part monomial outside the ambient set raises ValueError.
    """
    monomials = {frozenset(m) for part in partition.parts for m in part}
    outside = frozenset().union(*monomials) - ideal.ambient
    if outside:
        raise ValueError(f"witness variables {sorted(outside)} lie outside the ambient set")
    return all(any(m <= g for m in monomials) for g in ideal.gens)
