"""Benchmark for pathideal: run one workload, check every output, print the
metrics.

    python3 bench/run.py --workload betti-fields --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --seed 1            # every workload, one after another

Run from the root of a source tree; the program is imported from `src/`.
A run repeats the workload's fixed batch in rounds until `--seconds` have
passed, and every round starts from `pathideal.homology.clear_caches()`.
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
first times untraced rounds for half the time, then installs the hooks of
`spans.py` for the other half and prints the per-layer metrics.  The last
line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A record of the run, and the spans of a traced
run, are written under `bench/out/`.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from workloads import HOMOLOGY_WORKLOADS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 9
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2  # for each half of a traced run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "pathideal" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'pathideal'} is missing")
    sys.path.insert(0, str(SRC))
    import pathideal  # noqa: F401


# -- set-up time -------------------------------------------------------------
def measure_setup(workload, seed):
    """Median time, in reference seconds, of fresh interpreters that import
    pathideal and build the workload's inputs, tree files included."""
    times = []
    loop = calibration_loop()
    for _ in range(SETUP_PROBES):
        with tempfile.TemporaryDirectory(dir=OUT) as tree_dir:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--setup-only", tree_dir]
            started = time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            raw = time.perf_counter() - started
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        after = calibration_loop()
        times.append(raw * 2 * CAL_REF_S / (loop + after))
        loop = after
    return statistics.median(times)


# -- homology state read from outside ------------------------------------------
def homology_state():
    """Hygiene counters and cache sizes of pathideal.homology.  Every module
    dict whose name ends in `_cache` counts; each entry is one homology
    computation, since each round starts from empty caches."""
    from pathideal import homology

    stats = getattr(homology, "assertion_stats", None)
    caches = {name: len(v) for name, v in vars(homology).items()
              if name.endswith("_cache") and isinstance(v, dict)}
    return (dict(stats) if isinstance(stats, dict) else None), caches


def hygiene_problem(before, after, caches):
    """The boundary-squared and Euler checks must each have run at least
    once per homology computation of the round."""
    if before is None or after is None:
        return "pathideal.homology.assertion_stats is missing; hygiene checks unverifiable"
    computations = sum(caches.values())
    if computations == 0:
        return "no homology computation recorded in the homology caches"
    for key in ("boundary_squared", "euler"):
        done = after.get(key, 0) - before.get(key, 0)
        if done < computations:
            return f"{key} check ran {done} times for {computations} homology computations"
    return None


# -- speed calibration ----------------------------------------------------------
# The machine this benchmark was built on (2 cores shared with other
# tenants) drifts in speed by up to 20 % between half-minute windows, and
# for tens of seconds at a time other work takes the cores from it; both
# move every timing together.  A fixed pure-Python loop doing the
# program's kind of work (set, dict, sort and int operations) runs before
# the first item of a round and after every item, and measures the speed
# of the moment.  Reported times are reference seconds: an item's raw time
# times CAL_REF_S over the mean of the two loop times around it.  Where
# the loop takes CAL_REF_S they equal wall-clock seconds; the raw times
# stay in the record.  The garbage collector is off during the loop, so
# its time does not depend on how many objects the program keeps alive.
CAL_REF_S = 0.02


def calibration_loop():
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _calibration_work()
    finally:
        if collecting:
            gc.enable()


def _calibration_work():
    started = time.perf_counter()
    acc = 0
    for r in range(4):
        sets = [frozenset(range(i, i + 3 + (i * r) % 5)) for i in range(300)]
        counts = {}
        for a in sets:
            for b in sets[::7]:
                k = len(a & b)
                counts[k] = counts.get(k, 0) + 1
        rows = [{(i * j) % 97: (i + j) % 5 - 2 for j in range(12)} for i in range(200)]
        for row in rows:
            for c, v in sorted(row.items()):
                acc += (c * v) % 7
        acc += sum(counts.values())
    return time.perf_counter() - started


# -- rounds -------------------------------------------------------------------
class Round:
    def __init__(self):
        self.raw_items: list[float] = []
        self.raw_cpu_items: list[float] = []
        self.loops: list[float] = []  # calibration loop times, before and after each item
        self.elapsed = 0.0  # real time of the round, calibration and checks included
        self.failures: list[str] = []  # operations that raised
        self.problems: list[str] = []  # wrong answers and hygiene faults
        self.hygiene = 0
        self.caches: dict[str, int] = {}  # homology cache entries at the end

    def scale(self, raw):
        """Raw per-item times in reference seconds, each by its own loops."""
        return [t * 2 * CAL_REF_S / (a + b) for t, a, b in zip(raw, self.loops, self.loops[1:])]

    @property
    def items(self):
        return self.scale(self.raw_items)

    @property
    def cpu_items(self):
        return self.scale(self.raw_cpu_items)

    @property
    def speed(self):
        """Whole-round factor, for spans that cross item boundaries."""
        return CAL_REF_S / statistics.median(self.loops)


def item_medians(rounds, attr):
    """Each item's median over the rounds; one slow round of one item, as
    when the cores are taken for a moment, does not move it."""
    return [statistics.median(ts) for ts in zip(*(getattr(r, attr) for r in rounds))]


def cpu_now():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_round(items, check_hygiene):
    from pathideal import homology

    started = time.perf_counter()
    homology.clear_caches()
    stats0, _ = homology_state()
    rnd = Round()
    outputs = []
    rnd.loops.append(calibration_loop())
    for item in items:
        cpu0 = cpu_now()
        t0 = time.perf_counter()
        try:
            out = item.call()
        except Exception as exc:  # a failed operation: counted, not fatal
            out = exc
        rnd.raw_items.append(time.perf_counter() - t0)
        rnd.raw_cpu_items.append(cpu_now() - cpu0)
        outputs.append(out)
        rnd.loops.append(calibration_loop())

    for item, out in zip(items, outputs):
        if isinstance(out, Exception):
            rnd.failures.append(f"{item.name}: {type(out).__name__}: {out}")
            continue
        problem = item.check(out)
        if problem:
            rnd.problems.append(f"{item.name}: {problem}")
    stats1, rnd.caches = homology_state()
    if stats0 is not None and stats1 is not None:
        rnd.hygiene = sum(stats1.values()) - sum(stats0.values())
    if check_hygiene:
        problem = hygiene_problem(stats0, stats1, rnd.caches)
        if problem:
            rnd.problems.append(f"hygiene: {problem}")
    rnd.elapsed = time.perf_counter() - started
    return rnd


def run_rounds(items, seconds, check_hygiene, on_round=None, min_rounds=MIN_ROUNDS):
    """Whole rounds until `seconds` would be exceeded, at least `min_rounds`."""
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(run_round(items, check_hygiene))
        if on_round:
            on_round(rounds[-1])
        elapsed = time.perf_counter() - started
        typical = statistics.median(r.elapsed for r in rounds)
        if len(rounds) >= min_rounds and elapsed + typical > seconds:
            return rounds


# -- metrics --------------------------------------------------------------------
def end_to_end(rounds, setup_s):
    """The batch's time is the sum of each item's median over the rounds."""
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    items = item_medians(rounds, "items")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(items), "s"),
        "cpu_s": (sum(item_medians(rounds, "cpu_items")), "s"),
        "item_p50_s": (statistics.median(items), "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }


def traced(items, seconds, check_hygiene, spans_path):
    """Untraced rounds, then traced rounds; per-layer metrics are medians
    over the traced rounds."""
    plain = run_rounds(items, seconds / 2, check_hygiene, min_rounds=MIN_TRACED_ROUNDS)
    tracer = spans.Tracer()
    per_round = []
    with open(spans_path, "w", encoding="utf-8") as fh:
        # spans stay in memory during a round and are written between rounds
        def collect(rnd):
            per_round.append(spans.summarize(tracer, sum(rnd.raw_items), rnd.speed, rnd.hygiene,
                                             rnd.caches))
            spans.write(tracer, len(per_round) - 1, fh)
            tracer.reset()

        tracer.install()
        try:
            tracing = run_rounds(items, seconds / 2, check_hygiene, collect, MIN_TRACED_ROUNDS)
        finally:
            tracer.uninstall()
    metrics = {}
    for name, (value, unit) in per_round[0].items():
        values = [r[name][0] for r in per_round]
        metrics[name] = (None if value is None else statistics.median(values), unit)
    overhead = sum(item_medians(tracing, "items")) - sum(item_medians(plain, "items"))
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.absent_hooks"] = (len(tracer.absent), "count")
    return plain + tracing, metrics, sorted(tracer.absent | tracer.broken)


# -- record ----------------------------------------------------------------------
def git_sha():
    """HEAD of the source tree, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine():
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_one(args):
    OUT.mkdir(exist_ok=True)
    check_hygiene = args.workload in HOMOLOGY_WORKLOADS
    tree_dir = tempfile.mkdtemp(dir=OUT)
    try:
        items = WORKLOADS[args.workload](args.seed, tree_dir)
        absent = []
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            rounds, metrics, absent = traced(items, args.seconds, check_hygiene, spans_path)
        else:
            setup_s = measure_setup(args.workload, args.seed)
            rounds = run_rounds(items, args.seconds, check_hygiene)
            metrics = end_to_end(rounds, setup_s)
    finally:
        shutil.rmtree(tree_dir, ignore_errors=True)

    problems = sorted({p for r in rounds for p in r.problems})
    failures = sorted({p for r in rounds for p in r.failures})
    attempted = len(items) * len(rounds)
    failed = sum(len(r.failures) for r in rounds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "items": [it.name for it in items],
        "calibration_ref_s": CAL_REF_S,
        "rounds": [{"raw_item_s": r.raw_items,
                    "raw_cpu_item_s": r.raw_cpu_items, "loop_s": r.loops} for r in rounds],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "failures": failures,
        "absent": absent,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"items/round {len(items)}  python {record['machine']['python']}  "
          f"nproc {record['machine']['nproc']}  sha {record['machine']['git_sha']}")
    for problem in problems:
        print(f"  WRONG {problem}")
    for failure in failures:
        print(f"  FAILED {failure}")
    for name in absent:
        print(f"  absent hook: {name}")
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:40s} {shown}")
    print(f"  attempted {attempted}  failed {failed}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": 0 if v is None else v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


def run_all(args):
    """Each workload in its own fresh process, one after another.  The last
    line holds every workload's result; `correct` is false, and the exit
    status not 0, if any workload answered wrongly or ended without a
    result."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
            lines = lines[:-1]
        except (IndexError, ValueError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            lines.append(f"{name}: ended with status {proc.returncode} and no result")
        print("\n".join(lines))
        if proc.returncode != 0:
            status = 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-all-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": machine(), "seed": args.seed, "trace": args.trace, **summary},
                   indent=1) + "\n")
    print(json.dumps(summary))
    return status


def main(argv=None):
    if not __debug__:
        fail("the program's hygiene checks are assert statements; run without -O")
    args = parse_args(argv)
    import_program()
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, args.setup_only)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
