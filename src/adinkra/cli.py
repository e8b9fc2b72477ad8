"""Command-line frontend.

Exit codes are a stable contract: 0 = success / check passed,
1 = mathematical failure (rejected candidacy, violated relations,
infeasible search, fixture mismatch), 2 = usage or input error.
All output is deterministic byte for byte for fixed inputs and flags.

Graph arguments accept a JSON file path, "-" for stdin, or
"builtin:<name>" for catalog graphs.  --json [DEST] switches any
command to machine-readable output, written to DEST or stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog, dashings, dot, filters, fixtures, garden
from . import graph as gm
from . import search as topo
from .errors import AdinkraError, GraphFormatError


def _load_graph(source: str) -> gm.ValiseGraph:
    if source.startswith("builtin:"):
        return catalog.builtin(source[len("builtin:"):])
    if source == "-":
        return gm.from_json(sys.stdin.read())
    with open(source, "r", encoding="utf-8") as fh:
        return gm.from_json(fh.read())


def _write(dest: str, text: str) -> None:
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dumps(obj: object, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2) byte for byte, for dicts with str keys; json
    itself encodes in pure Python whenever indent is set."""
    if type(obj) is int:
        return int.__repr__(obj)
    if type(obj) is str:
        return json.encoder.encode_basestring_ascii(obj)
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        quote = json.encoder.encode_basestring_ascii
        items = [f"{quote(k)}: {_dumps(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if set(map(type, obj)) == {int}:  # a row of a table: one str.join
        return "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + pad + "]"
    return "[" + inner + ("," + inner).join([_dumps(x, inner) for x in obj]) + pad + "]"


def _emit_json(obj: object, dest: str) -> None:
    _write(dest, _dumps(obj) + "\n")


def _graph_header(g: gm.ValiseGraph) -> str:
    return (
        f"graph: {g.name} ({g.d} bosons, {g.d_hat} fermions, "
        f"{g.n_colors} colors, {len(g.edges)} edges)"
    )


def _candidacy_lines(rep: filters.CandidacyReport) -> list[str]:
    def mark(ok: bool) -> str:
        return "ok" if ok else "FAIL"

    lines = ["candidacy:"]
    lines.append(f"  bipartite       {mark(rep.bipartite_ok)}")
    lines.append(
        f"  equal counts    {mark(rep.equal_counts_ok)} "
        f"({rep.counts[0]} vs {rep.counts[1]})"
    )
    lines.append(f"  color coverage  {mark(rep.coverage_ok)}")
    for v, missing in rep.coverage_misses:
        cs = ", ".join(str(c) for c in missing)
        lines.append(f"    {v} ({v.label}) missing colors {cs}")
    lines.append(f"  bi-color quads  {mark(rep.quad_ok)}")
    for c in rep.bad_cycles:
        path = " ".join(gm.node_str(n) for n in c.nodes)
        lines.append(
            f"    colors ({c.color_i},{c.color_j}) cycle of length "
            f"{c.length}: {path}"
        )
    lines.append(f"  verdict: {rep.verdict}")
    if rep.reasons:
        lines.append("  reasons: " + "; ".join(rep.reasons))
    for note in rep.notes:
        lines.append(f"  note: {note}")
    return lines


def cmd_check(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    report = garden.garden_check(gm.colors(g)) if g.d == g.d_hat else None
    rep = filters.candidacy(g)
    passed = rep.is_candidate and report is not None and report.ok
    if args.json is not None:
        _emit_json(
            {
                "graph": g.name,
                "candidacy": rep.to_json_obj(),
                "garden": report.to_json_obj() if report else None,
                "pass": passed,
            },
            args.json,
        )
        return 0 if passed else 1
    out = [_graph_header(g)]
    out += _candidacy_lines(rep)
    if report is None:
        out.append("garden: skipped (matrices are not square)")
    else:
        out.append(
            f"garden: left {'ok' if report.left_ok else 'FAIL'}, "
            f"right {'ok' if report.right_ok else 'FAIL'} "
            f"({len(report.violations)} violations)"
        )
    out.append(f"result: {'PASS' if passed else 'FAIL'}")
    print("\n".join(out))
    return 0 if passed else 1


def cmd_matrices(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    left, right = garden.color_tables(gm.colors(g))
    if args.json is not None:
        _emit_json(
            {
                "name": g.name,
                "d": g.d,
                "d_hat": g.d_hat,
                "L": [t.rows() for t in left],
                "R": [t.rows() for t in right],
            },
            args.json,
        )
        return 0
    print(_graph_header(g))
    for t in left + right:
        print(f"{t.label}\n{garden.format_matrix(t, indent='  ')}")
    return 0


_VIOLATION_CAP = 20


def cmd_garden(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    ls = gm.colors(g)
    report = garden.garden_check(ls)
    left, right = garden.product_tables(ls)
    if args.json is not None:
        obj = report.to_json_obj()
        obj["left_products"] = [{"label": t.label, "matrix": t.rows()} for t in left]
        obj["right_products"] = [{"label": t.label, "matrix": t.rows()} for t in right]
        _emit_json(obj, args.json)
        return 0 if report.ok else 1
    print(_graph_header(g))
    for side, products in (("left", left), ("right", right)):
        print(f"{side} products:")
        for t in products:
            print(f"{t.label}\n{garden.format_matrix(t, indent='  ')}")
    print(
        f"summary: left {'ok' if report.left_ok else 'FAIL'}, "
        f"right {'ok' if report.right_ok else 'FAIL'} "
        f"({len(report.violations)} violations)"
    )
    for v in report.violations[:_VIOLATION_CAP]:
        print(
            f"  {v.side} ({v.color_i},{v.color_j}) "
            f"cell ({v.row},{v.col}): residual {v.value}"
        )
    if len(report.violations) > _VIOLATION_CAP:
        print(f"  ... and {len(report.violations) - _VIOLATION_CAP} more")
    return 0 if report.ok else 1


def cmd_dashings(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    result = dashings.search_dashings(
        g, exhaustive=args.exhaustive, budget=args.budget
    )
    if args.json is not None:
        obj = {"graph": g.name}
        obj.update(result.to_json_obj())
        _emit_json(obj, args.json)
        return 0 if result.feasible else 1
    print(_graph_header(g))
    total = len(g.edges)
    print(
        f"gauge: spanning forest fixes {total - result.free_edge_count} edges, "
        f"{result.free_edge_count} free"
    )
    if result.pruned_reason:
        print(f"pruned: {result.pruned_reason}")
    print(f"feasible: {'yes' if result.feasible else 'no'}")
    if result.witness is not None:
        compact = "".join("+" if s > 0 else "-" for s in result.witness.signs)
        print(f"witness (edge order): {compact}")
    print(f"gauge orbits found: {result.count_gauge_orbits}"
          + ("" if result.exhaustive else " (stopped at first)"))
    if result.count_total is not None:
        print(f"total dashings: {result.count_total}")
    return 0 if result.feasible else 1


def cmd_search(args: argparse.Namespace) -> int:
    spec = topo.SearchSpec(
        d=args.bosons, n_colors=args.colors, dedupe=not args.no_dedupe
    )
    outcome = topo.run_search(spec, prune=not args.no_prune, budget=args.budget)
    shown = (
        outcome.solutions
        if args.allow_disconnected
        else outcome.connected_solutions()
    )
    hidden = len(outcome.solutions) - len(shown)
    if args.json is not None:
        obj = outcome.to_json_obj()
        if not args.allow_disconnected:
            obj["solutions"] = [s for s in obj["solutions"] if s["connected"]]
        obj["disconnected_suppressed"] = hidden
        _emit_json(obj, args.json)
        return 0 if shown else 1
    print(f"topology search: d={spec.d}, colors={spec.n_colors}")
    print(f"scanned: {outcome.raw_size} raw candidates (color 1 = identity)")
    if outcome.pruned:
        print("pruned:")
        for reason, count in outcome.pruned:
            print(f"  {reason}: {count}")
    print(f"solutions: {len(shown)}")
    for k, s in enumerate(shown, start=1):
        tag = "connected" if s.connected else "disconnected"
        print(
            f"  solution {k}: {s.graph.d}+{s.graph.d_hat} vertices, "
            f"{len(s.graph.edges)} edges, {tag}, "
            f"multiplicity {s.multiplicity}"
        )
    if hidden:
        print(
            f"note: {hidden} disconnected solution class(es) suppressed "
            f"(use --allow-disconnected)"
        )
    return 0 if shown else 1


def cmd_fixtures(args: argparse.Namespace) -> int:
    matches, total, diffs = fixtures.compare_products(args.dir)
    if args.json is not None:
        _emit_json(
            {"matches": matches, "total": total, "diffs": diffs}, args.json
        )
        return 0 if matches == total else 1
    for line in diffs:
        print(line)
    print(f"{matches}/{total} matrices match")
    return 0 if matches == total and not diffs else 1


def cmd_export_dot(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    _write(args.out, dot.to_dot(g))
    return 0


def cmd_builtin(args: argparse.Namespace) -> int:
    if args.list:
        for name in catalog.BUILTIN_NAMES:
            print(name)
        return 0
    if args.name is None:
        raise GraphFormatError("builtin needs a name (or --list)")
    g = catalog.builtin(args.name)
    dest = args.json if args.json is not None else "-"
    _write(dest, gm.to_json(g))
    return 0


def _add_graph_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "graph",
        help="graph JSON path, '-' for stdin, or builtin:<name>",
    )


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="DEST",
        help="emit JSON to DEST (default stdout)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="adinkra",
        description=(
            "Exact-arithmetic toolkit for adinkra-candidate graphs: "
            "matrix extraction, garden relation checks, candidacy "
            "filters, and exhaustive dashing/topology searches."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="candidacy filters + garden verdict")
    _add_graph_arg(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("matrices", help="print the L and R matrices")
    _add_graph_arg(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_matrices)

    p = sub.add_parser("garden", help="print product tables and residual verdict")
    _add_graph_arg(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_garden)

    p = sub.add_parser("dashings", help="search sign assignments (gauge-reduced)")
    _add_graph_arg(p)
    p.add_argument("--exhaustive", action="store_true",
                   help="count all gauge orbits instead of stopping at one")
    p.add_argument("--budget", type=int, default=None,
                   help="max enumeration steps (default 2^28 or ADINKRA_BUDGET)")
    _add_json_flag(p)
    p.set_defaults(func=cmd_dashings)

    p = sub.add_parser("search", help="enumerate topologies admitting a dashing")
    p.add_argument("--bosons", "-d", type=int, required=True,
                   help="boson count d (= fermion count)")
    p.add_argument("--colors", "-n", type=int, required=True,
                   help="number of colors N")
    p.add_argument("--allow-disconnected", action="store_true",
                   help="report disconnected solution classes too")
    p.add_argument("--no-prune", action="store_true",
                   help="disable the involution support pruning (cross-check)")
    p.add_argument("--no-dedupe", action="store_true",
                   help="skip canonical deduplication")
    p.add_argument("--budget", type=int, default=None,
                   help="max raw candidates (default 10^9 or ADINKRA_BUDGET)")
    _add_json_flag(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fixtures", help="diff recomputed product tables vs fixtures")
    p.add_argument("--dir", default=None,
                   help="alternate fixture directory (default: packaged)")
    _add_json_flag(p)
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("export-dot", help="write Graphviz DOT")
    _add_graph_arg(p)
    p.add_argument("out", help="output path, '-' for stdout")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("builtin", help="print a catalog graph as canonical JSON")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--list", action="store_true", help="list builtin names")
    _add_json_flag(p)
    p.set_defaults(func=cmd_builtin)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (AdinkraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
