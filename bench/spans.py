"""Spans recorded from outside the program, by wrapping module attributes.

Each hook replaces the attribute a caller looks up at call time, for
example `pathideal.homology.sparse_rank` rather than only
`pathideal.linalg.sparse_rank`, because homology imported the name into its
own namespace.  A span holds its name, start, end and the index of the
span that was open when it began.  Spans stay in memory until the run
writes them out.

A hook whose module or attribute no longer exists is reported as absent,
and every metric that needs it is reported absent too; nothing is
installed until `Tracer.install` is called, so an untraced run runs the
program untouched.
"""
from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("trees", "ideals", "simplicial", "homology", "linalg", "pd", "ara", "cli")
FIELD_NAMES = {None: "Q", 2: "GF2", 3: "GF3", 5: "GF5"}
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.installed: set[str] = set()  # span names with at least one hook in place
        self.absent: set[str] = set()  # module.attribute of hooks that found nothing
        self.broken: set[str] = set()  # hooks found but whose arguments no longer fit
        self.fields = 0  # field count of the enclosing Hochster sweep
        self._restore: list[tuple] = []

    # -- span recording -------------------------------------------------
    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter() if start is None else start, 0.0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def bookkeeping(self, started: float) -> None:
        """Mark [started, now] as the tracer's own work, so that it is not
        charged to the enclosing layer."""
        self.close(self.open(BOOKKEEPING, started))

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self.stack = []

    # -- hooks ------------------------------------------------------------
    def _plain(self, orig, name):
        @functools.wraps(orig)
        def hook(*args, **kwargs):
            idx = self.open(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.close(idx)
        return hook

    def _counting(self, orig, name, count):
        """Span plus a count taken from the arguments and the result; the
        counting is timed as bookkeeping."""
        @functools.wraps(orig)
        def hook(*args, **kwargs):
            idx = self.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.close(idx)
            started = perf_counter()
            try:
                count(args, kwargs, result)
            except Exception:  # the program's signature moved; keep running
                self.broken.add(name)
            self.bookkeeping(started)
            return result
        return hook

    def _rank(self, orig, name):
        @functools.wraps(orig)
        def hook(*args, **kwargs):
            started = perf_counter()
            try:
                rows = args[0] if args else kwargs["rows"]
                p = args[1] if len(args) > 1 else kwargs.get("p")
                field = FIELD_NAMES.get(p, f"GF{p}")
                self.counts[f"rank_calls.{field}"] += 1
                self.counts[f"rank_nnz.{field}"] += sum(len(r) for r in rows)
            except Exception:
                self.broken.add(name)
                field = "unknown"
            self.bookkeeping(started)
            idx = self.open(f"{name}[{field}]")
            try:
                return orig(*args, **kwargs)
            finally:
                self.close(idx)
        return hook

    def _hochster(self, orig, name):
        @functools.wraps(orig)
        def hook(*args, **kwargs):
            started = perf_counter()
            outer = self.fields
            try:
                ideal = args[0] if args else kwargs["ideal"]
                fields = args[1] if len(args) > 1 else kwargs["fields"]
                self.fields = len(tuple(fields))
                self.counts["hochster_subsets"] += 1 << len(ideal.ambient)
            except Exception:
                self.broken.add(name)
            self.bookkeeping(started)
            idx = self.open(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.close(idx)
                self.fields = outer
        return hook

    def _recursion(self, orig, name):
        @functools.wraps(orig)
        def hook(*args, **kwargs):
            memo = args[2] if len(args) > 2 else kwargs.get("memo")
            if not isinstance(memo, dict):
                self.broken.add(name)
                memo = {}
            before = len(memo)
            idx = self.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.close(idx)
            self.counts["memo_hits" if len(memo) == before else "recursion_steps"] += 1
            return result
        return hook

    def _faces(self, orig, name):
        def count(args, kwargs, result):
            self.counts["faces_enumerated"] += len(result)
        return self._counting(orig, name, count)

    def _islands(self, orig, name):
        def count(args, kwargs, result):
            self.counts["hochster_merges"] += 1
            self.counts["hochster_islands"] += len(result)
            self.counts["island_lookups"] += len(result) * self.fields
        return self._counting(orig, name, count)

    def install(self) -> None:
        for module, attr, name, kind in HOOKS:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.absent.add(f"{module}.{attr}")
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self.absent.add(f"{module}.{attr}")
                continue
            setattr(mod, attr, getattr(self, kind)(orig, name))
            self._restore.append((mod, attr, orig))
            self.installed.add(name)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore = []


# (module looked up by the caller, attribute, span name, hook kind); the
# span name's first component is the layer that owns the function
HOOKS = [
    ("pathideal.cli", "main", "cli.main", "_plain"),
    ("pathideal.cli", "parse_tree", "trees.parse_tree", "_plain"),
    ("pathideal.cli", "path_ideal", "trees.path_ideal", "_plain"),
    ("pathideal.pd", "path_ideal", "trees.path_ideal", "_plain"),
    ("pathideal.trees", "make_ideal", "ideals.make_ideal", "_plain"),
    ("pathideal.cli", "is_properly_connected", "simplicial.properly_connected", "_plain"),
    ("pathideal.pd", "is_properly_connected", "simplicial.properly_connected", "_plain"),
    ("pathideal.cli", "is_simplicial_tree", "simplicial.simplicial_tree", "_plain"),
    ("pathideal.simplicial", "is_simplicial_forest", "simplicial.forest", "_plain"),
    ("pathideal.homology", "betti_tables_hochster", "homology.hochster", "_hochster"),
    ("pathideal.homology", "_merge_islands", "homology.merge_islands", "_islands"),
    ("pathideal.homology", "_enumerate_faces", "homology.faces", "_faces"),
    ("pathideal.homology", "_homology_from_faces", "homology.chain", "_plain"),
    ("pathideal.homology", "is_sequentially_cm", "homology.sequentially_cm", "_plain"),
    ("pathideal.homology", "_reisner_cm_pure", "homology.reisner", "_plain"),
    ("pathideal.homology", "_pure_homology_from_tops", "homology.link", "_plain"),
    ("pathideal.homology", "sparse_rank", "linalg.sparse_rank", "_rank"),
    ("pathideal.linalg", "bareiss_rank", "linalg.bareiss", "_plain"),
    ("pathideal.cli", "pd_auto", "pd.pd_auto", "_plain"),
    ("pathideal.pd", "_pd_tree", "pd.recursion", "_recursion"),
    ("pathideal.ara", "ara_bounds", "ara.bounds", "_plain"),
    ("pathideal.ara", "good_partition_search", "ara.search", "_plain"),
    ("pathideal.ara", "radical_point_check", "ara.point_check", "_plain"),
]


def write(tracer, round_index, fh):
    """One JSON array per span: round, id, name, start, end, parent id."""
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        fh.write(json.dumps([round_index, i, name, round(start, 9), round(end, 9), parent]) + "\n")


def summarize(tracer, wall, speed, hygiene, caches):
    """Per-layer metrics of one traced round, as name -> (value, unit); the
    value is None when a hook it needs is absent.  `wall` is the raw time
    of the round's items; times are scaled by `speed` into the reference
    seconds of the end-to-end metrics, shares are not.  `caches` holds the
    entries of each homology cache, which were empty when the round began."""
    spans = tracer.spans
    duration = [end - start for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    top = 0.0
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += duration[i]
        else:
            top += duration[i]
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    layer_own = defaultdict(float)
    for i, (name, _, _, _) in enumerate(spans):
        total[name] += duration[i]
        own[name] += duration[i] - covered[i]
        calls[name] += 1
        layer_own[name.split(".", 1)[0]] += duration[i] - covered[i]
    counts = tracer.counts

    def ratio(hits_from, lookups):
        if hits_from is None:
            return None
        return 1 - hits_from / lookups if lookups else 0.0

    metrics = {}

    def add(name, unit, needs, value):
        ok = all(n in tracer.installed and n not in tracer.broken for n in needs)
        v = value() if ok else None
        metrics[name] = (v * speed if v is not None and unit == "s" else v, unit)

    rank = "linalg.sparse_rank"
    for field in ("Q", "GF2", "GF3", "GF5"):
        add(f"linalg.rank_s.{field}", "s", [rank], lambda f=field: total[f"{rank}[{f}]"])
        add(f"linalg.rank_calls.{field}", "count", [rank], lambda f=field: counts[f"rank_calls.{f}"])
        add(f"linalg.rank_nnz.{field}", "count", [rank], lambda f=field: counts[f"rank_nnz.{f}"])
    add("linalg.bareiss_calls", "count", ["linalg.bareiss"], lambda: calls["linalg.bareiss"])
    add("homology.chain_self_s", "s", ["homology.chain", rank], lambda: own["homology.chain"])
    add("homology.chain_calls", "count", ["homology.chain"], lambda: calls["homology.chain"])
    metrics["homology.hygiene_checks"] = (hygiene, "count")
    add("homology.faces_s", "s", ["homology.faces"], lambda: total["homology.faces"])
    add("homology.faces_enumerated", "count", ["homology.faces"], lambda: counts["faces_enumerated"])
    hochster = ["homology.hochster", "homology.merge_islands"]
    add("homology.hochster_subsets", "count", hochster[:1], lambda: counts["hochster_subsets"])
    add("homology.hochster_cones_skipped", "count", hochster,
        lambda: counts["hochster_subsets"] - counts["hochster_merges"])
    add("homology.hochster_islands", "count", hochster[1:], lambda: counts["hochster_islands"])
    add("homology.island_cache_hit_ratio", "ratio", hochster,
        lambda: ratio(caches.get("_island_cache"), counts["island_lookups"]))
    add("homology.link_cache_hit_ratio", "ratio", ["homology.link"],
        lambda: ratio(caches.get("_pure_link_cache"), calls["homology.link"]))
    add("homology.reisner_self_s", "s", ["homology.reisner"], lambda: own["homology.reisner"])
    add("homology.reisner_links", "count", ["homology.link"], lambda: calls["homology.link"])
    pc = "simplicial.properly_connected"
    add("simplicial.properly_connected_s", "s", [pc], lambda: total[pc])
    add("simplicial.properly_connected_calls", "count", [pc], lambda: calls[pc])
    add("simplicial.forest_s", "s", ["simplicial.forest"], lambda: total["simplicial.forest"])
    add("pd.recursion_self_s", "s", ["pd.recursion"], lambda: own["pd.recursion"])
    add("pd.recursion_steps", "count", ["pd.recursion"], lambda: counts["recursion_steps"])
    add("pd.memo_hits", "count", ["pd.recursion"], lambda: counts["memo_hits"])
    add("ara.search_s", "s", ["ara.search"], lambda: total["ara.search"])
    add("ara.point_check_s", "s", ["ara.point_check"], lambda: total["ara.point_check"])
    add("trees.path_ideal_s", "s", ["trees.path_ideal"], lambda: total["trees.path_ideal"])
    add("trees.path_ideal_calls", "count", ["trees.path_ideal"], lambda: calls["trees.path_ideal"])
    add("cli.self_s", "s", ["cli.main"], lambda: own["cli.main"])
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (layer_own[layer] / wall, "ratio")
    metrics["trace.unattributed_s"] = ((wall - top) * speed, "s")
    metrics["trace.unattributed_share"] = ((wall - top) / wall, "ratio")
    metrics["trace.bookkeeping_share"] = (layer_own["trace"] / wall, "ratio")
    return metrics

