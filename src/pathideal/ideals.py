"""Squarefree monomial ideals with exact, set-based algebra.

A squarefree monomial is identified with its support and stored as a
frozenset of vertex ids.  An ideal keeps its unique minimal generating set
(an antichain under support inclusion) together with an explicit ambient
vertex universe, so that complements and Stanley-Reisner constructions are
well defined.  Everything is an immutable value and every operation is a
pure function, so the types are safe to share across threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable

Monomial = frozenset


def minimalize(monomials: Iterable[frozenset]) -> frozenset:
    """Extract minimal generators: drop any monomial whose support contains
    the support of another one."""
    mons = sorted({frozenset(m) for m in monomials}, key=lambda m: (len(m), sorted(m)))
    kept: list[frozenset] = []
    # distinct sets of one size never contain each other, so each size is
    # compared only with the smaller sets kept before it
    for _, group in groupby(mons, key=len):
        kept.extend([m for m in group if not any(k <= m for k in kept)])
    return frozenset(kept)


@dataclass(frozen=True)
class SquarefreeIdeal:
    """A squarefree monomial ideal, stored by its minimal generators.

    The zero ideal has no generators; the unit ideal is represented by a
    single empty support (it only occurs transiently).
    """

    ambient: frozenset
    gens: frozenset

    def __post_init__(self):
        for g in self.gens:
            if not g <= self.ambient:
                raise ValueError(f"generator {sorted(g)} lies outside the ambient universe")

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, monomial: Iterable[int]) -> bool:
        """A squarefree monomial lies in the ideal iff some generator's
        support is contained in its support."""
        m = frozenset(monomial)
        return any(g <= m for g in self.gens)

    def with_ambient(self, ambient: Iterable[int]) -> "SquarefreeIdeal":
        return SquarefreeIdeal(frozenset(ambient), self.gens)

    def sorted_gens(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(g)) for g in self.gens)

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        terms = ["*".join(f"x_{v}" for v in g) if g else "1" for g in self.sorted_gens()]
        return "(" + ", ".join(terms) + ")"


def make_ideal(monomials: Iterable[Iterable[int]], ambient: Iterable[int] | None = None) -> SquarefreeIdeal:
    gens = minimalize(frozenset(m) for m in monomials)
    if ambient is None:
        amb = frozenset().union(*gens) if gens else frozenset()
    else:
        amb = frozenset(ambient)
    return SquarefreeIdeal(amb, gens)


def zero_ideal(ambient: Iterable[int]) -> SquarefreeIdeal:
    return SquarefreeIdeal(frozenset(ambient), frozenset())


def _require_same_ambient(a: SquarefreeIdeal, b: SquarefreeIdeal) -> None:
    if a.ambient != b.ambient:
        raise ValueError("ideals live over different ambient universes")


def ideal_sum(a: SquarefreeIdeal, b: SquarefreeIdeal) -> SquarefreeIdeal:
    _require_same_ambient(a, b)
    return SquarefreeIdeal(a.ambient, minimalize(a.gens | b.gens))


def ideal_intersect(a: SquarefreeIdeal, b: SquarefreeIdeal) -> SquarefreeIdeal:
    """Intersection via pairwise least common multiples (support unions);
    correct for squarefree monomial ideals."""
    _require_same_ambient(a, b)
    lcms = {ga | gb for ga in a.gens for gb in b.gens}
    return SquarefreeIdeal(a.ambient, minimalize(lcms))


def ideal_multiply(w: Iterable[int], a: SquarefreeIdeal) -> SquarefreeIdeal:
    """Multiply by a squarefree monomial.  Supports are unioned, so the call
    is also meaningful when ``w`` meets the generators' supports."""
    wm = frozenset(w)
    ambient = a.ambient | wm
    if a.is_zero:
        return SquarefreeIdeal(ambient, frozenset())
    return SquarefreeIdeal(ambient, minimalize(wm | g for g in a.gens))


def ideal_equals(a: SquarefreeIdeal, b: SquarefreeIdeal) -> bool:
    _require_same_ambient(a, b)
    return a.gens == b.gens


def hypergraph_components(edges) -> list[tuple]:
    """Connected components of the hypergraph with the given hyperedges, as
    (vertex union, member edges) pairs.  Only ``&`` and ``|`` are used, so
    the edges may be int bitmasks or frozensets."""
    comps: list[tuple] = []
    for e in edges:
        union, members, kept = e, [e], []
        for comp in comps:
            if comp[0] & e:
                union |= comp[0]
                members.extend(comp[1])
            else:
                kept.append(comp)
        kept.append((union, members))
        comps = kept
    return comps


def ideal_components(a: SquarefreeIdeal) -> list[SquarefreeIdeal]:
    """Partition the generators by connected components of the hypergraph
    whose hyperedges are the generator supports.  Distinct components use
    disjoint variables; each is returned over its own support."""
    comps = hypergraph_components(sorted(a.gens, key=lambda m: sorted(m)))
    comps.sort(key=lambda c: min(c[0]))
    return [SquarefreeIdeal(support, frozenset(members)) for support, members in comps]


def ideal_to_json(a: SquarefreeIdeal) -> str:
    return json.dumps(
        {"ambient": sorted(a.ambient), "gens": [list(g) for g in a.sorted_gens()]},
        sort_keys=True,
    )


def ideal_from_json(text: str) -> SquarefreeIdeal:
    data = json.loads(text)
    return SquarefreeIdeal(
        frozenset(data["ambient"]),
        frozenset(frozenset(g) for g in data["gens"]),
    )


def to_macaulay2(a: SquarefreeIdeal) -> str:
    if a.is_zero:
        return "ideal(0)"
    terms = ["*".join(f"x_{v}" for v in g) for g in a.sorted_gens()]
    return "ideal(" + ", ".join(terms) + ")"
