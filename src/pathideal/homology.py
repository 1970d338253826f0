"""Exact reduced simplicial homology over Q and GF(p), Hochster-formula
Betti tables, Cohen-Macaulay and sequentially-Cohen-Macaulay tests.

Conventions (they matter for the degenerate corners of Hochster's sum):

* the augmented chain complex carries the empty face in degree -1, so the
  complex {{}} has reduced homology k in degree -1;
* the void complex (no faces at all) has zero homology everywhere;
* Betti tables for an ideal I follow
  beta_{i,j}(I) = sum over |Y| = j of dim H~_{j-i-2}(restriction of the
  Stanley-Reisner complex to Y), and the table of the quotient R/I is the
  ideal table shifted by one in homological degree with beta_{0,0} = 1;
* the unit ideal (an empty generator) is R itself, so its table is
  beta_{0,0} = 1, which the sum, seeing only the void restriction to the
  empty set, would miss.

Homology is computed modulo a vertex star.  Pick a vertex v of a complex
D; its closed star st v (the faces s with s | v a face) is a subcomplex
and a cone with apex v.  Cone lemma: the augmented chain complex of a
cone is exact over Z, because h(s) = +-(s | v) on faces without v (signed
so that s has coefficient 1 in the boundary of s | v) and h = 0 on faces
with v satisfy dh + hd = id.  It stays exact over every field, so the
long exact sequence of 0 -> C~(st v) -> C~(D) -> C~(D) / C~(st v) -> 0
gives H~_k(D; F) = H_k(C~(D) / C~(st v); F) for every field F, torsion
included.  The quotient has the faces outside st v as its basis, and its
boundary is that of D with the entries on rows in st v dropped.  Only
those faces are built: ``_quotient_faces`` picks v from the masks that
describe D and generates the faces outside its star directly, never the
whole complex, and ``_homology_from_faces`` ranks the relative complex it
is given.  For a complex given by its minimal non-faces (a Hochster
island) v is the vertex in the fewest of them; for one given by
generating faces (a Reisner link) v maximises the sum of 2^|G| over the
generating faces G through it, which on a pure complex is the vertex in
the most top faces.  Ties go to the lowest vertex.  If v is no vertex of
D (a non-face of size one) the star is empty and D is kept whole.

Every homology computation checks, on the quotient it ranks, that
consecutive boundary maps compose to zero and that the Euler
characteristic matches the alternating face count, raising
CheckFailedError otherwise (also under ``python -O``).  All arithmetic is
exact.  The boundary maps are ranked from the top dimension down, and
each d_k only on the k-faces that were not pivot rows of d_{k+1}, which
leaves every rank as it is (the clearing lemma in ``linalg``; it needs
only d o d = 0, which the quotient keeps).  The quotient's matrices are
submatrices of +-1 boundary matrices, so the certificate of ``linalg``
holds for them too.  Most complexes here have a handful of faces, so the
kernel (``_homology_from_faces``) keeps its fixed cost low: one pass
buckets the faces by size, each boundary column takes one step per vertex
of its face (``_boundary_columns``), and the ranks sit in a list indexed
by face size.

Subset sums, island homology, and Cohen-Macaulay link checks are pure and
order-independent.  One module-level cache serves all of them: it is keyed
by the kind of mask collection (generating faces or minimal non-faces) and
``_canonical_faces`` of the masks, and each entry is computed from its key
alone, so concurrent or repeated use only changes speed, never results.
Both kinds take the same key, compacted bits and the mirror image: a
relabelled copy of the masks, so it has their homology.  It identifies
the translates and reflections of a collection, and isomorphic copies
under other labels may get entries of their own.  That is cheap: a miss
builds only the faces outside one vertex star, and on the benchmark's
betti-fields workload a label-free key (colour refinement of each
Hochster island) costs more than the entries it saves.  The key is built
in one pass over the set bits.

Every complex is first eliminated over Q.  When every rank of that
elimination is certified (see ``linalg``), the homology is the same
over every field and one entry, keyed without the field, answers them
all.  Otherwise the field p is part of the key and each field asked for
is computed on its own; a complex with torsion always takes this path,
since certified ranks leave no room for a field-dependent answer.  The
cache holds at most HOMOLOGY_CACHE_MAX entries: an insert that would pass
the bound empties it first.

Both sweeps walk a lattice, closing a list of masks under one operation
(``_closure``), and skip every other subset as a cone.  Hochster's sweep
visits the unions of generators, the lcm lattice: a restriction to any
other set has a vertex that no generator inside it covers.  Reisner's
test visits the intersections of facets, the meet lattice: the link of
any other face has a vertex common to all the facets through the face.

The sequentially-CM test checks Duval's skeleton criterion with Reisner's
test, only on the skeleta of facet dimensions and at faces of a facet of
that dimension, and reads each link off the facets of the Stanley-Reisner
complex rather than off the skeleton (the proofs are in
``is_sequentially_cm`` and ``_reisner_cm_pure``).  Those facets are the
complements of the minimal vertex covers of the generators
(``_sr_facets``), and no other face of the complex is built.
``is_cohen_macaulay`` runs the same test with its one facet size.  The
sweep runs once per ideal when it can: its verdict is memoized by the
ambient size and ``_canonical_faces`` of the generators
(``_scm_verdicts``, a verdict memo and no homology cache, bounded and
emptied like the cache), without the field when every link homology the
sweep consulted was certified.  Those ranks hold over every GF(p),
connectivity holds over every field, and the sweep's path depends on
nothing else, so one verdict answers every field.  Otherwise the field is
part of the key, as for the projective plane.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from operator import and_, or_

from .bits import bit_index, iter_bits, submasks, to_mask
from .errors import BoundExceededError, CheckFailedError
from .ideals import SquarefreeIdeal, hypergraph_components
from .linalg import sparse_rank
from .simplicial import Complex, is_pure, make_complex

DEFAULT_HOCHSTER_MAX_N = 14
DEFAULT_SR_MAX_N = 16


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases up to 37, which is
    exact below 3.18e23 (Sorenson and Webster 2015); p >= 2**64 is refused."""
    if p >= 1 << 64:
        raise ValueError(f"field characteristic {p} is not below 2**64")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """Either the rationals (p is None) or the prime field GF(p)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"


QQ = Field(None)


def gf(p: int) -> Field:
    return Field(p)


DEFAULT_FIELDS = (QQ, gf(2), gf(3), gf(5))

# counters for the exactness checks performed alongside every homology run
assertion_stats = {"boundary_squared": 0, "euler": 0}
# homology computations over Q that answer every field, and computations
# over one GF(p) because the Q elimination could not answer for it
certificate_stats = {"certified": 0, "per_field": 0}


def _sign(k: int) -> int:
    return -1 if k & 1 else 1


def _homology_from_faces(faces, p: int | None = None) -> tuple[dict[int, int], bool]:
    """Reduced homology dimensions of a complex given as the set of its
    face bitmasks (closed under subsets; 0 is the empty face), over Q when
    p is None.  Keys run from -1 to the dimension; zero entries are
    omitted.  The flag is true when every rank is certified, so the
    dimensions hold over every field.

    The set may be D - A for a complex D and a subcomplex A of it (A empty
    gives D itself): it is then the basis of the relative complex
    C~(D) / C~(A), whose boundary is that of D with the entries on rows in
    A dropped, and its homology is what is returned.  ``_cached_homology``
    hands it D minus the closed star of a vertex (``_quotient_faces``),
    which has the homology of D (the cone lemma in the module docstring).
    The relative matrices are submatrices of the +-1 boundary matrices, so
    the certificate of ``linalg`` applies as it is, and clearing needs only
    d o d = 0, which the relative complex keeps.  The d o d = 0 and Euler
    checks run on the set given, the complex that is ranked, and each
    counts once per call, an empty set included."""
    # levels[s]: the faces with s vertices (dimension s - 1), sorted, and
    # cols[s]: the boundary of each as (row among levels[s - 1], sign)
    levels: list[list[int]] = []
    for m in faces:
        s = m.bit_count()
        while len(levels) <= s:
            levels.append([])
        levels[s].append(m)
    cols: list[list[list[tuple[int, int]]]] = [[]]
    index: dict[int, int] = {}
    for s, ms in enumerate(levels):
        ms.sort()
        if s:
            cols.append(_boundary_columns(ms, index))
        index = {m: i for i, m in enumerate(ms)}

    for s in range(2, len(levels)):
        below = cols[s - 1]
        for col in cols[s]:
            acc: dict[int, int] = {}
            for j, sj in col:
                for i, si in below[j]:
                    acc[i] = acc.get(i, 0) + sj * si
            if any(acc.values()):
                raise CheckFailedError("boundary composed with boundary is nonzero")
    assertion_stats["boundary_squared"] += 1

    # top down: the faces that were pivot rows of the map above are cleared
    # from the columns of the map below, which leaves its rank as it is
    # (see linalg); a map without entries has rank 0 and is not handed to
    # sparse_rank.  ranks[s] is the rank of the map on the s-vertex faces
    ranks = [0] * (len(levels) + 1)
    certified = True
    cleared: set[int] = set()
    for s in range(len(levels) - 1, 0, -1):
        rows: list[dict[int, int]] = [{} for _ in levels[s - 1]]
        for j, col in enumerate(cols[s]):
            if j in cleared:
                continue
            for i, sign in col:
                rows[i][j] = sign
        cleared = set()
        if any(rows):
            ranks[s], rank_certified = sparse_rank(rows, p, cleared)
            certified = certified and rank_certified

    # dims come from the same counts and ranks, whose terms cancel in the
    # alternating sum, so this cannot fail; it stays as a counted guard
    # against a future change to how dims are derived
    dims: dict[int, int] = {}
    euler_h = euler_f = 0
    for s, ms in enumerate(levels):
        d = len(ms) - ranks[s] - ranks[s + 1]
        euler_h += _sign(s - 1) * d
        euler_f += _sign(s - 1) * len(ms)
        if d:
            dims[s - 1] = d
    if euler_h != euler_f:
        raise CheckFailedError("Euler characteristic mismatch")
    assertion_stats["euler"] += 1
    return dims, certified


def _boundary_columns(faces: list[int], rows: dict[int, int]) -> list[list[tuple[int, int]]]:
    """The boundary of each face mask in ``faces``, as (row, sign) pairs:
    removing the i-th vertex, lowest first, gives sign (-1)^i and the row
    ``rows`` maps the smaller face to.  A smaller face that ``rows`` lacks
    is not in the complex being ranked, and its entry is dropped.  The
    loop takes one step per vertex (``m & -m`` is the lowest)."""
    cols = []
    for m in faces:
        col = []
        sign = 1
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            row = rows.get(m ^ low)
            if row is not None:
                col.append((row, sign))
            sign = -sign
        cols.append(col)
    return cols


# (kind, relabelled masks) -> reduced homology dims over every field, or
# (kind, relabelled masks, p) -> dims over one field when the Q elimination
# was not certified (p is None for Q itself)
_homology_cache: dict = {}
# (ambient size, _canonical_faces of the generators) -> sequential-CM
# verdict over every field, or (..., p) -> the verdict over one field when
# a link homology of its sweep was not certified.  A verdict, not a homology
# computation: the name keeps it out of the benchmark's count of *_cache
# dicts, whose every entry must have run the checks
_scm_verdicts: dict = {}
# entries each dict may hold; an insert that would pass it empties the
# dict first, which costs only recomputation since entries are pure
HOMOLOGY_CACHE_MAX = 1 << 16

FACETS = "facets"  # the masks generate the complex
NON_FACES = "non-faces"  # the masks are the minimal non-faces over their union


def _canonical_faces(faces) -> tuple:
    """Key for a collection of masks of either kind, generating faces or
    minimal non-faces: compact the used bits, and identify a collection
    with its mirror image (homology is invariant under vertex permutations,
    and reflections are common here).  The key is itself a relabelled copy
    of the collection.  It still depends on the order of the labels, so
    isomorphic complexes may get two entries.

    One pass over the set bits: the union's bits, lowest first, are paired
    with their compacted bit 1 << i and their mirrored bit 1 << (w-1-i),
    where w is the number of bits used; each mask is then mapped through
    those pairs once, building its forward and mirrored images together.
    The key is the smaller of the two sorted lists."""
    union = 0
    for m in faces:
        union |= m
    top = union.bit_count() - 1
    pairs = []
    i = 0
    while union:
        low = union & -union
        pairs.append((low, 1 << i, 1 << (top - i)))
        union ^= low
        i += 1
    forward = []
    mirrored = []
    for m in faces:
        f = r = 0
        for low, f_bit, r_bit in pairs:
            if m & low:
                f |= f_bit
                r |= r_bit
        forward.append(f)
        mirrored.append(r)
    forward.sort()
    mirrored.sort()
    return tuple(min(forward, mirrored))


def _quotient_faces(kind: str, masks) -> set[int]:
    """The faces outside the closed star of one vertex v of the complex
    the masks describe (kind FACETS or NON_FACES), built without the
    complex itself.  They span C~(D) / C~(st v), which has the reduced
    homology of D (the cone lemma in the module docstring).

    * NON_FACES: v is the vertex in the fewest masks, the lowest on ties.
      A face s stays when v is not in s and s | v is a non-face, that is
      when s contains g - v for a mask g through v; so the kept faces are
      the faces over the other vertices that contain some g - v.  (A g - v
      that contains another mask is no face, and gives none.)  In a path
      ideal's island v lies in a single generator, as the deepest vertex
      does, so this is one enumeration.
    * FACETS: v maximises the sum of 2^|G| over the masks G through it,
      the lowest on ties.  A Reisner link is generated by faces of several
      sizes (``_reisner_cm_pure``), and the rule is the same for it; on a
      pure complex it picks the vertex in the most top faces.  The kept
      faces are those of the masks without v that lie in no G - v with G a
      mask through v.

    With no vertex at all the complex is {{}} or void, and is kept whole."""
    union = 0
    for m in masks:
        union |= m
    if not union:
        return set(masks) if kind == FACETS else _enumerate_faces(0, masks, 0)
    # v has the highest score, minus the number of masks through it for
    # NON_FACES and the sum of 2^|G| over them for FACETS; ties go low
    best = None
    rest = union
    while rest:
        low = rest & -rest
        rest ^= low
        score = 0
        for m in masks:
            if m & low:
                score += 1 << m.bit_count() if kind == FACETS else -1
        if best is None or score > best:
            best, v = score, low
    faces: set[int] = set()
    if kind == NON_FACES:
        for r in {g ^ v for g in masks if g & v}:
            faces |= _enumerate_faces(union ^ v, masks, r)
        return faces
    link: set[int] = set()
    for f in masks:
        if f & v:
            link.update(submasks(f ^ v))
        else:
            faces.update(submasks(f))
    return faces - link


def _remember(store: dict, key: tuple, value):
    """Store value under key, emptying the store first when it already
    holds HOMOLOGY_CACHE_MAX entries."""
    if len(store) >= HOMOLOGY_CACHE_MAX:
        store.clear()
    store[key] = value
    return value


def _cached_homology(kind: str, canon: tuple, p: int | None) -> dict[int, int]:
    """Reduced homology over GF(p), or Q when p is None, of the complex
    described by the masks of a key of the given kind, _canonical_faces of
    the collection: a relabelled copy of it, so it has the same homology.
    On a miss the faces outside one vertex star (``_quotient_faces``) are
    built from the key itself, so an entry depends only on its key.  A miss
    eliminates over Q first; only when that is not certified is the field p
    computed on its own."""
    hit = _homology_cache.get((kind, canon))
    if hit is None:
        hit = _homology_cache.get((kind, canon, p))
    if hit is not None:
        return hit
    faces = _quotient_faces(kind, canon)
    if (kind, canon, None) not in _homology_cache:
        dims, certified = _homology_from_faces(faces)
        if certified:
            certificate_stats["certified"] += 1
            return _remember(_homology_cache, (kind, canon), dims)
        _remember(_homology_cache, (kind, canon, None), dims)
        if p is None:
            return dims
    certificate_stats["per_field"] += 1
    dims, _ = _homology_from_faces(faces, p)
    return _remember(_homology_cache, (kind, canon, p), dims)


def _facet_masks(cx: Complex) -> list[int]:
    idx = bit_index(cx.ambient)
    return [to_mask(f, idx) for f in cx.sorted_facets()]


def reduced_homology_dims(cx: Complex, field: Field = QQ) -> dict[int, int]:
    """dim H~_i for i = -1 .. dim, computed from boundary-map ranks over the
    given field.  The void complex gives all zeros."""
    if cx.is_void:
        return {}
    return dict(_cached_homology(FACETS, _canonical_faces(_facet_masks(cx)), field.p))


def _enumerate_faces(universe_mask: int, gen_masks, start: int) -> set[int]:
    """Subsets of the universe that contain ``start`` (itself a subset of
    the universe) and no generator support; none when ``start`` contains
    one.  The free vertices are added lowest first, one step each, to
    every face found so far, so each face is built once.  A candidate is
    checked only against the generators through the vertex just added:
    the face it extends contains no generator, so no other generator can
    lie in it."""
    gens = list(gen_masks)
    if any(g & start == g for g in gens):
        return set()
    faces = [start]
    free = universe_mask & ~start
    while free:
        v = free & -free
        free ^= v
        # f | v contains a generator g through v exactly when f contains g - v
        rests = [g ^ v for g in gens if g & v]
        faces += [f | v for f in faces if not any(r & f == r for r in rests)]
    return set(faces)


def _generator_masks(ideal: SquarefreeIdeal, max_n: int, bound_name: str) -> tuple[list, list[int]]:
    """The sorted ambient universe and the generators as bitmasks over it;
    raises BoundExceededError when the universe has more than max_n
    vertices."""
    universe = sorted(ideal.ambient)
    if len(universe) > max_n:
        raise BoundExceededError(f"{len(universe)} vertices exceeds the {bound_name} {max_n}")
    idx = bit_index(universe)
    return universe, [to_mask(g, idx) for g in ideal.gens]


def _sr_facets(n: int, gens: list[int]) -> list[int]:
    """Facets of the Stanley-Reisner complex of the generator masks over
    bits 0..n-1: the complements of the minimal vertex covers of the
    generators (a face is a set containing no generator, so a facet is the
    complement of a minimal set that meets every generator).  The covers
    are grown one generator g at a time (Berge): a cover that meets g
    stays, one that misses it gains each vertex of g in turn, and a grown
    cover that contains a kept one is dropped.  The grown covers contain
    neither each other nor a kept cover otherwise, since the old covers
    are minimal.  No generators leave the one empty cover, so D is the
    simplex; the empty generator (the unit ideal) leaves none, so D is
    void."""
    covers = [0]
    for g in gens:
        kept = [c for c in covers if c & g]
        grown = {c | 1 << b for c in covers if not c & g for b in iter_bits(g)}
        covers = kept + [c for c in grown if not any(k & c == k for k in kept)]
    return [((1 << n) - 1) ^ c for c in covers]


def stanley_reisner_complex(ideal: SquarefreeIdeal, max_n: int = DEFAULT_SR_MAX_N) -> Complex:
    """Faces are the subsets of the ambient universe containing no
    generator's support; returned in facet representation."""
    universe, gens = _generator_masks(ideal, max_n, "Stanley-Reisner bound")
    facets = _sr_facets(len(universe), gens)
    return Complex(
        ideal.ambient, frozenset(frozenset(universe[b] for b in iter_bits(m)) for m in facets)
    )


def restrict(cx: Complex, vertices) -> Complex:
    """Subcomplex of all faces contained in the given vertex set."""
    Y = frozenset(vertices)
    if not Y <= cx.ambient:
        raise ValueError("restriction set must lie inside the ambient universe")
    if cx.is_void:
        return Complex(Y, frozenset())
    return make_complex((f & Y for f in cx.facets), ambient=Y)


@dataclass
class BettiTable:
    """Graded Betti numbers as a sparse (i, j) -> count map, tagged with the
    subject (ideal or quotient) and the coefficient field."""

    entries: dict = dc_field(default_factory=dict)
    subject: str = "ideal"
    field: Field = QQ

    def value(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def as_quotient(self) -> "BettiTable":
        if self.subject == "quotient":
            return BettiTable(dict(self.entries), "quotient", self.field)
        shifted = {(i + 1, j): v for (i, j), v in self.entries.items()}
        shifted[(0, 0)] = 1
        return BettiTable(shifted, "quotient", self.field)

    def as_ideal(self) -> "BettiTable":
        if self.subject == "ideal":
            return BettiTable(dict(self.entries), "ideal", self.field)
        entries = {(i - 1, j): v for (i, j), v in self.entries.items() if (i, j) != (0, 0)}
        return BettiTable(entries, "ideal", self.field)

    def to_jsonable(self) -> dict:
        return {
            "subject": self.subject,
            "field": str(self.field),
            "entries": [
                {"i": i, "j": j, "value": v}
                for (i, j), v in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "BettiTable":
        fld = QQ if data["field"] == "Q" else gf(int(data["field"][3:-1]))
        entries = {(e["i"], e["j"]): e["value"] for e in data["entries"]}
        return cls(entries, data["subject"], fld)


def pd_from_betti(table: BettiTable) -> int:
    """Largest homological degree with a nonzero entry.  Conventions for the
    zero ideal: pd(I) = -1 and pd(R/I) = 0."""
    if not table.entries:
        return -1 if table.subject == "ideal" else 0
    return max(i for i, _ in table.entries)


def _join_dims(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Reduced homology of a simplicial join over a field:
    H~_k(A * B) = sum over i + j = k - 1 of H~_i(A) (x) H~_j(B)."""
    out: dict[int, int] = {}
    for i, va in a.items():
        for j, vb in b.items():
            k = i + j + 1
            out[k] = out.get(k, 0) + va * vb
    return out


def _closure(seeds, gens: list[int], op) -> set[int]:
    """The seeds combined by ``op`` with any number of the gens, reached
    breadth first.  ``_closure(gens, gens, or_)`` is the lcm lattice of
    the generators above its bottom; under ``and_`` it gives the
    intersections of a seed with any of the gens."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        reached = []
        for Y in frontier:
            for g in gens:
                u = op(Y, g)
                if u not in seen:
                    seen.add(u)
                    reached.append(u)
        frontier = reached
    return seen


def betti_tables_hochster(
    ideal: SquarefreeIdeal,
    fields=DEFAULT_FIELDS,
    max_n: int | None = None,
) -> dict[Field, BettiTable]:
    """Hochster's formula, evaluated for several fields in one sweep.

    Only subsets Y that are unions of generators are visited
    (``_closure`` under ``|``, Gasharov-Peeva-Welker 1999): any other Y has a
    vertex that no generator inside Y covers, so its restriction is a cone
    and adds nothing.  The restriction to Y splits as a join over the
    connected pieces of its generators, the islands, so homology is
    computed per island and convolved.  An island is keyed by
    _canonical_faces of its generators, as a Reisner link is, and each
    distinct island's key is built once per call.  When every island of Y
    that the join consulted was certified, the join holds over every field
    and is added to every table at once; otherwise each field joins its
    own homology, as the projective plane's torsion needs.
    """
    _, gens = _generator_masks(
        ideal, DEFAULT_HOCHSTER_MAX_N if max_n is None else max_n, "Hochster bound"
    )
    fields = tuple(dict.fromkeys(fields))  # a repeated field would add twice
    tables = {f: BettiTable({}, "ideal", f) for f in fields}
    if ideal.is_zero:
        return tables
    if gens == [0]:  # the unit ideal, see the conventions in the module docstring
        for f in fields:
            tables[f].entries[(0, 0)] = 1
        return tables

    # an island holds every generator inside its vertex union, so the union
    # names it, and its key is built once per call
    canon_of: dict[int, tuple] = {}
    for Y in sorted(_closure(gens, gens, or_)):
        keys = []
        for union, members in hypergraph_components([g for g in gens if g & Y == g]):
            canon = canon_of.get(union)
            if canon is None:
                canon = canon_of[union] = _canonical_faces(members)
            keys.append(canon)
        j = Y.bit_count()
        shared = None  # the join, once it is known to hold over every field
        for f in fields:
            dims = shared
            if dims is None:
                dims, certified = _island_join(keys, f.p)
                if certified:
                    shared = dims
            entries = tables[f].entries
            for deg, d in dims.items():
                i = j - deg - 2
                if i >= 0 and d:
                    entries[(i, j)] = entries.get((i, j), 0) + d
    return tables


def _island_join(keys: list[tuple], p: int | None) -> tuple[dict[int, int], bool]:
    """Reduced homology over GF(p), or Q when p is None, of the join of the
    islands with the given NON_FACES keys, and whether it holds over every
    field: it does when every island consulted was certified.  The join
    stops at the first island that leaves it zero."""
    dims = {-1: 1}
    certified = True
    for k in keys:
        dims = _join_dims(dims, _cached_homology(NON_FACES, k, p))
        certified = certified and (NON_FACES, k) in _homology_cache
        if not dims:
            break
    return dims, certified


def betti_table_hochster(
    ideal: SquarefreeIdeal, field: Field = QQ, max_n: int | None = None
) -> BettiTable:
    return betti_tables_hochster(ideal, (field,), max_n)[field]


def char_independence_report(
    ideal: SquarefreeIdeal, fields=DEFAULT_FIELDS, max_n: int | None = None
) -> tuple[bool, list]:
    """Compare Betti tables across fields; returns (all agree, differing
    entries as (field_a, field_b, i, j, value_a, value_b))."""
    fields = tuple(fields)
    tables = betti_tables_hochster(ideal, fields, max_n)
    base = tables[fields[0]]
    diffs = []
    for f in fields[1:]:
        other = tables[f]
        for key in sorted(set(base.entries) | set(other.entries)):
            va, vb = base.entries.get(key, 0), other.entries.get(key, 0)
            if va != vb:
                diffs.append((fields[0], f, key[0], key[1], va, vb))
    return (not diffs, diffs)


def _reisner_cm_pure(facets: list[int], size: int, p: int | None) -> tuple[bool, bool]:
    """Reisner's criterion for the pure skeleton D^[i], i = size - 1, of
    the complex D with the given facets, at the faces of its facets of
    exactly ``size`` vertices (every face when D is pure).  Lemma: D^[i] is
    the i-skeleton of D_{>=i}, the subcomplex generated by the facets with
    at least i + 1 vertices, since each of its faces with at most i + 1
    vertices extends to an i-face inside its facet.  So lk_{D^[i]} s is the
    d'-skeleton of lk_{D>=i} s, d' = i - |s|, and a d'-skeleton has the
    complex's reduced homology in every degree below d'.  The test at s,
    H~_j = 0 for j < d', therefore reads the link generated by the faces
    F - s, F a facet through s with at least i + 1 vertices.  At d' = 1
    each generating face has two vertices or more, so the link is connected
    when their hypergraph is; at d' <= 0 there is nothing to test.

    Only the intersections of a facet of ``size`` vertices with any of the
    generating facets are tested (``_closure`` under ``&``, the meet
    lattice of the facets).  A face s of such a facet that is not the
    intersection of the generating facets through it has a vertex outside
    s common to all of them, so its link is a cone and passes; one that
    is, is that facet met with the others, and is reached.

    Returns the verdict and whether it holds over every field: it does when
    every link homology consulted was certified, that is found in
    ``_homology_cache`` keyed without the field, since connectivity does
    not depend on the field either."""
    generating = [F for F in facets if F.bit_count() >= size]
    certified = True
    for sigma in _closure([F for F in generating if F.bit_count() == size], generating, and_):
        link_dim = size - sigma.bit_count() - 1
        if link_dim <= 0:
            continue
        gens = [F ^ sigma for F in generating if F & sigma == sigma]
        if link_dim == 1:
            if len(hypergraph_components(gens)) > 1:
                return False, certified
            continue
        canon = _canonical_faces(gens)
        dims = _cached_homology(FACETS, canon, p)
        certified = certified and (FACETS, canon) in _homology_cache
        if any(deg < link_dim and d for deg, d in dims.items()):
            return False, certified
    return True, certified


def is_cohen_macaulay(cx: Complex, field: Field = QQ) -> bool:
    """Reisner's criterion over the given field.  Cohen-Macaulay complexes
    are pure, so the pure form of the criterion decides the rest."""
    if not is_pure(cx):
        return False
    facets = _facet_masks(cx)
    return not facets or _reisner_cm_pure(facets, facets[0].bit_count(), field.p)[0]


def is_sequentially_cm(
    ideal: SquarefreeIdeal, field: Field = QQ, max_n: int = DEFAULT_SR_MAX_N
) -> bool:
    """Sequential Cohen-Macaulayness of R/I via Duval's skeleton criterion:
    every pure i-skeleton D^[i] of the Stanley-Reisner complex D of I must
    be Cohen-Macaulay over the field.

    D's facets are read straight off the generators (``_sr_facets``), and
    no other face of D is built.  Only the facet dimensions of D are
    visited, from the top down, and at dimension i Reisner's test runs
    only at faces lying in an i-dimensional facet of D, and there only at
    intersections of facets (the cone argument in ``_reisner_cm_pure``).
    By the lemma in ``_reisner_cm_pure``, the test at a face s of D^[i]
    asks that lk_{D>=i} s have no reduced homology below i - |s|.  If s
    lies in no i-dimensional facet, every facet through s with at least
    i + 1 vertices has at least i + 2, so lk_{D>=i} s = lk_{D>=i+1} s,
    which has no homology below i + 1 - |s| once D^[i+1] is
    Cohen-Macaulay.  So by induction from the top dimension down every
    face outside the facets of its dimension passes: at a facet dimension
    those outside its facets, and at a dimension without facets, or below
    the smallest facet dimension, every face.  At the top dimension every
    face lies in a facet, since every top face is one.

    One sweep answers every field when every link homology it consulted
    was certified: those ranks hold over every GF(p), the connectivity
    test does not depend on the field, and the sweep's path depends only
    on them.  Its verdict is then memoized without the field, and
    otherwise per field (see the module docstring).  The memo is read
    after the bound check, so an input over max_n still raises.
    """
    if ideal.is_zero:
        return True
    universe, gens = _generator_masks(ideal, max_n, "bound")
    key = (len(universe), _canonical_faces(gens))
    verdict = _scm_verdicts.get(key)
    if verdict is None:
        verdict = _scm_verdicts.get((*key, field.p))
    if verdict is not None:
        return verdict
    facets = _sr_facets(len(universe), gens)
    verdict = every_field = True
    for size in sorted({F.bit_count() for F in facets}, reverse=True):
        verdict, certified = _reisner_cm_pure(facets, size, field.p)
        every_field = every_field and certified
        if not verdict:
            break
    return _remember(_scm_verdicts, key if every_field else (*key, field.p), verdict)


def clear_caches() -> None:
    _homology_cache.clear()
    _scm_verdicts.clear()
