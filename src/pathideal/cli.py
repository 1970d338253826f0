"""Command-line front end.

Exit codes: 0 success, 1 verification failure (a check answered "no" or a
cross-method comparison failed), 2 usage or input errors (missing file,
malformed tree, exceeded bound, a --method that does not apply to the
tree), 3 internal error (the program hit a limit such as Python's
recursion depth; the answer is unknown, not "no").
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import ara as ara_mod
from .errors import BoundExceededError
from .homology import (
    QQ,
    Field,
    betti_table_hochster,
    certificate_stats,
    char_independence_report,
    gf,
    is_sequentially_cm,
)
from .ideals import ideal_to_json
from .pd import METHODS, NotProperlyConnectedError, pd_auto
from .simplicial import facet_complex, is_properly_connected, is_simplicial_tree
from .trees import TreeError, enumerate_paths, parse_tree, path_ideal
from .verify import run_verification


def _parse_field(text: str) -> Field:
    if text.lower() in ("q", "0", "qq"):
        return QQ
    return gf(int(text))


def _load_tree(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())


def _emit(data: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        print(json.dumps(data, sort_keys=True, default=str))
    else:
        for key, value in data.items():
            print(f"{key}: {value}")


def _monomial_text(path, sep: str) -> str:
    return sep.join(f"x_{v}" for v in path)


def cmd_tree_parse(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree_file)
    leaves = sorted(tree.leaves()) if tree.n >= 2 else []
    _emit(
        {
            "root": tree.root,
            "vertices": tree.n,
            "height": tree.height(),
            "leaves": leaves,
            "edges": list(tree.edges()),
        },
        args,
    )
    return 0


def cmd_tree_paths(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree_file)
    paths = enumerate_paths(tree, args.t)
    if args.format == "json":
        print(json.dumps({"t": args.t, "paths": [list(p) for p in paths]}, sort_keys=True))
    else:
        for p in paths:
            print(" ".join(map(str, p)))
    return 0


def cmd_ideal_gens(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree_file)
    paths = enumerate_paths(tree, args.t)
    ideal = path_ideal(tree, args.t)
    if args.format == "json":
        print(ideal_to_json(ideal))
    else:
        # generators in path order, unlike the sorted to_macaulay2 and str
        opener, sep = ("ideal(", "*") if args.format == "macaulay2" else ("(", "")
        print(opener + (", ".join(_monomial_text(p, sep) for p in paths) or "0") + ")")
    return 0


def cmd_betti(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree_file)
    ideal = path_ideal(tree, args.t)
    table = betti_table_hochster(ideal, args.field, args.max_n)
    if args.subject == "quotient":
        table = table.as_quotient()
    if args.format == "json":
        print(json.dumps(table.to_jsonable(), sort_keys=True))
    else:
        print(f"subject: {table.subject}   field: {table.field}")
        for (i, j), v in sorted(table.entries.items()):
            print(f"beta_{{{i},{j}}} = {v}")
    return 0


def cmd_pd(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree_file)
    report = pd_auto(
        tree,
        args.t,
        field=args.field,
        method=args.method,
        verify=args.verify,
        max_n=args.max_n,
    )
    data = {
        "pd_quotient": report.value,
        "method": report.method,
        "per_method": report.values,
        "notes": report.notes,
    }
    if report.trace:
        data["trace"] = [
            {
                "vertices": list(s.tree_vertices),
                "split_path": list(s.path),
                "off_path": list(s.off_path),
                "removed": list(s.removed),
            }
            for s in report.trace
        ]
    _emit(data, args)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree_file)
    kind = args.subcommand
    if kind == "simplicial-tree":
        ok, witness = is_simplicial_tree(facet_complex(path_ideal(tree, args.t)))
        detail = {"witness": [sorted(f) for f in witness] if witness else None}
    elif kind == "properly-connected":
        ok, pair = is_properly_connected(facet_complex(path_ideal(tree, args.t)))
        detail = {"violating_pair": [sorted(f) for f in pair] if pair else None}
    elif kind == "scm":
        ok = is_sequentially_cm(path_ideal(tree, args.t), args.field)
        detail = {"fields": [str(args.field)]}
    elif kind == "char-independence":
        before = dict(certificate_stats)
        ok, diffs = char_independence_report(path_ideal(tree, args.t), max_n=args.max_n)
        # complexes one Q elimination settled for every field, and complexes
        # eliminated again for a single field
        detail = {"differences": [list(map(str, d)) for d in diffs]}
        detail.update({k: v - before[k] for k, v in certificate_stats.items()})
    else:
        raise ValueError(f"unknown check {kind!r}")
    _emit({"check": kind, "result": bool(ok), **detail}, args)
    return 0 if ok else 1


def cmd_ara(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree_file)
    ideal = path_ideal(tree, args.t)
    if args.construct_t3:
        partition = ara_mod.line_partition_t3(ideal)
        if partition is None:
            print("the explicit construction needs the path ideal of a line graph with t=3", file=sys.stderr)
            return 2
        _emit({"partition": partition.sorted_parts()}, args)
        return 0
    bounds = ara_mod.ara_bounds(ideal, max_n=args.max_n)
    data = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "exact": bounds.exact,
        "note": bounds.note,
        "partition": bounds.partition.sorted_parts() if bounds.partition else None,
    }
    if args.point_check and bounds.partition is not None and not ideal.is_zero:
        data["witnesses"] = [
            [_monomial_text(m, "*") for m in part] for part in bounds.partition.sorted_parts()
        ]
        data["point_check"] = ara_mod.radical_point_check(bounds.partition, ideal)
        if not data["point_check"]:
            _emit(data, args)
            return 1
    _emit(data, args)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(
        samples=args.samples,
        seed=args.seed,
        max_n=args.max_n,
    )
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        print(
            json.dumps(
                [{"check": r.name, "passed": r.passed, "detail": r.detail} for r in results],
                sort_keys=True,
            )
        )
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            suffix = f"  ({r.detail})" if r.detail else ""
            print(f"{status}  {r.name}{suffix}")
    return 1 if failed else 0


# Built once per process.  set_defaults binds each cmd_* handler when the
# parser is built, so patching a handler afterwards has no effect; the
# handlers look up what they call (pd_auto, is_properly_connected, ...) in
# this module at call time, and those names can be patched.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pathideal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def option(*names, **kwargs) -> argparse.ArgumentParser:
        """A parent parser holding one argument, shared by the commands that read it."""
        holder = argparse.ArgumentParser(add_help=False)
        holder.add_argument(*names, **kwargs)
        return holder

    tree_file = option("tree_file")
    t = option("-t", type=int, default=2, help="number of vertices per path")
    fmt = option("--format", choices=("text", "json"), default="text")
    field = option("--field", default="q", help="q for the rationals or a prime p")
    max_n = option("--max-n", type=int, default=None, help="Hochster vertex bound")

    def command(subparsers, name, func, *parents, **kwargs) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, parents=[tree_file, *parents], **kwargs)
        p.set_defaults(func=func)
        return p

    tree_p = sub.add_parser("tree", help="parse trees and list paths")
    tree_sub = tree_p.add_subparsers(dest="subcommand", required=True)
    command(tree_sub, "parse", cmd_tree_parse, fmt)
    command(tree_sub, "paths", cmd_tree_paths, t, fmt)

    ideal_p = sub.add_parser("ideal", help="path ideal generators")
    ideal_sub = ideal_p.add_subparsers(dest="subcommand", required=True)
    m2_fmt = option("--format", choices=("text", "json", "macaulay2"), default="text")
    command(ideal_sub, "gens", cmd_ideal_gens, t, m2_fmt)

    betti_p = command(sub, "betti", cmd_betti, t, fmt, field, max_n, help="graded Betti table via Hochster's formula")
    betti_p.add_argument("--subject", choices=("ideal", "quotient"), default="quotient")

    pd_p = command(sub, "pd", cmd_pd, t, fmt, field, max_n, help="projective dimension of the quotient")
    pd_p.add_argument("--method", choices=("auto", *METHODS), default="auto")
    pd_p.add_argument("--verify", action="store_true", help="run all applicable methods and compare")

    check_p = sub.add_parser("check", help="boolean structure checks")
    check_sub = check_p.add_subparsers(dest="subcommand", required=True)
    command(check_sub, "simplicial-tree", cmd_check, t, fmt)
    command(check_sub, "properly-connected", cmd_check, t, fmt)
    command(check_sub, "scm", cmd_check, t, fmt, field)
    command(check_sub, "char-independence", cmd_check, t, fmt, max_n)

    ara_p = command(sub, "ara", cmd_ara, t, fmt, max_n, help="arithmetical rank bounds")
    ara_p.add_argument(
        "--search",
        action="store_true",
        help="accepted for compatibility: the good-partition search always runs"
        f" for ideals with at most {ara_mod.DEFAULT_SEARCH_MAX_GENS} generators",
    )
    ara_p.add_argument("--construct-t3", action="store_true", help="print the explicit t=3 partition")
    ara_p.add_argument("--point-check", action="store_true", help="check the witnesses on every 0/1 point")

    verify_p = sub.add_parser("verify", parents=[fmt], help="run the verification suite")
    verify_p.set_defaults(func=cmd_verify)
    verify_p.add_argument("--samples", type=int, default=10)
    verify_p.add_argument("--seed", type=int, default=101)
    verify_p.add_argument("--max-n", type=int, default=9)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "field"):
            args.field = _parse_field(args.field)
        return args.func(args)
    except (FileNotFoundError, TreeError, BoundExceededError, NotProperlyConnectedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
