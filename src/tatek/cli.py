"""Command-line front end.

Subcommands: orbits, classes, tate, rational, table, normalize, example,
selftest.  ``--format records`` renders one key=value record per line (stable
key order, round-trippable); the default text rendering is human-oriented.
Identical invocations produce byte-identical output.

Exit codes:
  0  success
  1  selftest reported failures
  2  usage error
  3  domain error (the module error name is printed verbatim)
  4  the requested result is entirely unknown
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .assemble import (
    EXAMPLE_FAMILIES,
    RationalKResult,
    TateKResult,
    Unknown,
    emit_table,
    example_amalgam,
    example_gl,
    example_mcg,
    example_sl3,
    example_sp,
    rational_k,
    tate_k,
)
from .classes import OutOfRange, centraliser_of, order_p_classes
from .graphs import (
    GraphStructureError,
    InvalidGraph,
    NormalizationError,
    NotAForest,
    NotComposable,
    SameOrbit,
    canonical_graph,
    loads as graph_loads,
    normalize,
    rank as graph_rank,
    scramble_graph,
)
from .modp import ClosureExceedsBound, ModulusMismatch, StabiliserKind
from .orbits import (
    MAX_ORBIT_PRIME,
    NonIntegralOrbitCount,
    OrbitPrimeTooLarge,
    check_orbit_prime,
    orbit_report,
    quotient_summary,
)
from .records import render_record
from .selftest import run_selftest
from .series import (
    Finite,
    FlipSquare,
    FreeAbelian,
    FreeGroup,
    GroupExpr,
    NoSuchEntry,
    Product,
    RegistryRef,
    UnknownCohomology,
)

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN_ERROR = 3
EXIT_ALL_UNKNOWN = 4

_DOMAIN_ERRORS = (
    OutOfRange,
    UnknownCohomology,
    NoSuchEntry,
    NotAForest,
    SameOrbit,
    NotComposable,
    InvalidGraph,
    GraphStructureError,
    NormalizationError,
    ClosureExceedsBound,
    ModulusMismatch,
    NonIntegralOrbitCount,
    OrbitPrimeTooLarge,
    ValueError,
)


def _domain_error(exc: Exception) -> int:
    sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
    return EXIT_DOMAIN_ERROR


_KIND_BY_NAME = {
    "edge": StabiliserKind.EDGE,
    "rose": StabiliserKind.ROSE_VERTEX,
    "theta": StabiliserKind.THETA_VERTEX,
}


def expr_str(expr: GroupExpr) -> str:
    if isinstance(expr, Finite):
        return "finite"
    if isinstance(expr, FreeGroup):
        return f"free({expr.rank})"
    if isinstance(expr, FreeAbelian):
        return f"Z^{expr.rank}"
    if isinstance(expr, RegistryRef):
        return expr.name
    if isinstance(expr, Product):
        return " x ".join(expr_str(f) for f in expr.factors)
    if isinstance(expr, FlipSquare):
        return f"flip_square({expr_str(expr.inner)})"
    return repr(expr)


def _dim_str(value) -> str:
    if isinstance(value, Unknown):
        return "unknown"
    return str(value)


def _bool_str(value) -> str:
    if isinstance(value, Unknown):
        return "unknown"
    return "yes" if value else "no"


def _mat_str(m) -> str:
    return f"[[{m.a},{m.b}],[{m.c},{m.d}]]"


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))


def _tate_records(kind: str, result: TateKResult, n: int | None, cite: bool) -> list[str]:
    base: dict[str, str] = {"record": kind, "group": result.group_id, "p": str(result.p)}
    if n is not None:
        base["n"] = str(n)
    if result.known:
        base.update(
            status="known",
            even=str(result.dim_even),
            odd=str(result.dim_odd),
            weak_duality="true" if result.weak_duality else "false",
            euler=str(result.euler_char),
        )
    else:
        base.update(status="unknown", blocker=result.dim_even.blocker)
    lines = [render_record(base)]
    for c in result.contributions:
        lines.append(
            render_record(
                {
                    "record": "contribution",
                    "label": c.label,
                    "even": _dim_str(c.even),
                    "odd": _dim_str(c.odd),
                }
            )
        )
    if cite:
        for text in result.citations:
            lines.append(render_record({"record": "citation", "text": text}))
    return lines


def _tate_text(title: str, result: TateKResult, cite: bool) -> list[str]:
    lines = [title]
    if result.known:
        lines.append(f"even: {result.dim_even}, odd: {result.dim_odd}")
        lines.append(
            f"weak duality: {_bool_str(result.weak_duality)}; "
            f"Euler characteristic: {result.euler_char}"
        )
    else:
        blocker = result.dim_even.blocker
        lines.append(f"even: unknown, odd: unknown (blocked on {blocker})")
    if result.contributions:
        lines.append("contributions:")
        for c in result.contributions:
            lines.append(f"  {c.label}: even {_dim_str(c.even)}, odd {_dim_str(c.odd)}")
    if cite and result.citations:
        lines.append("citations:")
        for text in result.citations:
            lines.append(f"  - {text}")
    return lines


def cmd_orbits(args) -> int:
    p = check_orbit_prime(args.p)
    kinds = [_KIND_BY_NAME[args.kind]] if args.kind else list(_KIND_BY_NAME.values())
    lines: list[str] = []
    for kind in kinds:
        report = orbit_report(kind, p, list_orbits=args.list)
        if args.format == "records":
            lines.append(
                render_record(
                    {
                        "record": "orbit_report",
                        "kind": kind.value,
                        "p": str(p),
                        "group_order": str(len(report.per_element_counts)),
                        "orbits": str(report.orbit_count),
                        "burnside": str(report.orbit_count),
                        "brute_force": str(report.brute_force_count),
                        "closed_form": str(report.closed_form),
                        "match": "true" if report.match else "false",
                    }
                )
            )
            if args.list:
                for matrix, count in report.per_element_counts:
                    lines.append(
                        render_record(
                            {
                                "record": "fixed_points",
                                "kind": kind.value,
                                "p": str(p),
                                "element": _mat_str(matrix),
                                "count": str(count),
                            }
                        )
                    )
                for orbit in report.orbits or ():
                    lines.append(
                        render_record(
                            {
                                "record": "orbit",
                                "kind": kind.value,
                                "p": str(p),
                                "rep": f"({orbit[0][0]},{orbit[0][1]})",
                                "size": str(len(orbit)),
                            }
                        )
                    )
        else:
            lines.append(
                f"{kind.value} stabiliser at p={p}: order "
                f"{len(report.per_element_counts)}; orbits: {report.orbit_count} "
                f"(burnside {report.orbit_count}, brute-force {report.brute_force_count}, "
                f"closed-form {report.closed_form})"
            )
            if args.list:
                for matrix, count in report.per_element_counts:
                    lines.append(f"  fixed points of {_mat_str(matrix)}: {count}")
                for orbit in report.orbits or ():
                    shown = " ".join(f"({l},{m})" for l, m in orbit)
                    lines.append(f"  orbit size {len(orbit)}: {shown}")
    if not args.kind:
        summary = quotient_summary(p)
        if args.format == "records":
            lines.append(
                render_record(
                    {
                        "record": "quotient",
                        "p": str(p),
                        "vertex_orbits": str(summary.vertex_orbits),
                        "edge_orbits": str(summary.edge_orbits),
                        "betti_one": str(summary.betti_one),
                    }
                )
            )
        else:
            lines.append(
                f"quotient graph at p={p}: vertex orbits {summary.vertex_orbits}, "
                f"edge orbits {summary.edge_orbits}, betti_1 {summary.betti_one}"
            )
    _emit(lines)
    return EXIT_OK


def cmd_classes(args) -> int:
    class_list = order_p_classes(args.p, args.n)
    cite = not args.no_cite
    lines: list[str] = []
    if args.format == "records":
        lines.append(
            render_record(
                {
                    "record": "class_list",
                    "p": str(class_list.p),
                    "n": str(class_list.n),
                    "count": str(len(class_list.classes)),
                    "complete": "true" if class_list.complete else "false",
                }
            )
        )
        for c in class_list.classes:
            rec = {
                "record": "class",
                "p": str(c.p),
                "n": str(c.n),
                "kind": c.kind,
                "label": c.label,
                "centraliser": expr_str(centraliser_of(c)),
            }
            if c.aut_level_note:
                rec["aut_note"] = c.aut_level_note
            if cite:
                rec["citation"] = c.citation
            lines.append(render_record(rec))
    else:
        lines.append(
            f"order-{class_list.p} torsion classes of Out(F_{class_list.n}): "
            f"{len(class_list.classes)}"
            + (" (complete)" if class_list.complete else " (incomplete)")
        )
        for c in class_list.classes:
            lines.append(f"  {c.label}: centraliser ~ {expr_str(centraliser_of(c))}")
            if c.aut_level_note:
                lines.append(f"    note: {c.aut_level_note}")
            if cite:
                lines.append(f"    citation: {c.citation}")
    _emit(lines)
    return EXIT_OK


def cmd_tate(args) -> int:
    result = tate_k(args.p, args.n)
    cite = not args.no_cite
    if args.format == "records":
        _emit(_tate_records("tate", result, args.n, cite))
    else:
        title = f"Farrell-Tate K-theory of Out(F_{args.n}) at p={args.p}"
        _emit(_tate_text(title, result, cite))
    return EXIT_OK if result.known else EXIT_ALL_UNKNOWN


def cmd_rational(args) -> int:
    result: RationalKResult = rational_k(args.p, args.n)
    cite = not args.no_cite
    lines: list[str] = []
    if args.format == "records":
        rec: dict[str, str] = {
            "record": "rational",
            "p": str(args.p),
            "n": str(args.n),
        }
        if result.known:
            rec.update(
                status="known",
                even=str(result.dim_even),
                odd=str(result.dim_odd),
                tate_even=_dim_str(result.tate.dim_even),
                tate_odd=_dim_str(result.tate.dim_odd),
                outfn_even=_dim_str(result.outfn_even),
                outfn_odd=_dim_str(result.outfn_odd),
            )
        else:
            rec.update(status="unknown", blocker=result.dim_even.blocker)
        lines.append(render_record(rec))
        for c in result.tate.contributions:
            lines.append(
                render_record(
                    {
                        "record": "contribution",
                        "label": c.label,
                        "even": _dim_str(c.even),
                        "odd": _dim_str(c.odd),
                    }
                )
            )
        if cite:
            for text in result.citations:
                lines.append(render_record({"record": "citation", "text": text}))
    else:
        lines.append(f"rationalised p-adic K-theory of B Out(F_{args.n}) at p={args.p}")
        if result.known:
            lines.append(f"even: {result.dim_even}, odd: {result.dim_odd}")
            lines.append(
                f"  torsion part (Farrell-Tate): even {_dim_str(result.tate.dim_even)}, "
                f"odd {_dim_str(result.tate.dim_odd)}"
            )
            lines.append(
                f"  H^*(Out(F_{args.n}); Q) part: even {_dim_str(result.outfn_even)}, "
                f"odd {_dim_str(result.outfn_odd)}"
            )
        else:
            blocker = result.dim_even.blocker
            lines.append(f"even: unknown, odd: unknown (blocked on {blocker})")
        if result.tate.contributions:
            lines.append("torsion contributions:")
            for c in result.tate.contributions:
                lines.append(
                    f"  {c.label}: even {_dim_str(c.even)}, odd {_dim_str(c.odd)}"
                )
        if cite and result.citations:
            lines.append("citations:")
            for text in result.citations:
                lines.append(f"  - {text}")
    _emit(lines)
    return EXIT_OK if result.known else EXIT_ALL_UNKNOWN


def cmd_table(args) -> int:
    doc = emit_table(args.which)
    cite = not args.no_cite
    lines: list[str] = []
    if args.format == "records":
        for cell in doc.cells:
            rec: dict[str, str] = {
                "record": "cell",
                "table": str(doc.which),
                "n": str(cell.n),
                "p": str(cell.p),
                "status": cell.status,
            }
            if cell.status == "known":
                rec["even"] = str(cell.even)
                rec["odd"] = str(cell.odd)
            else:
                if cell.blocker:
                    rec["blocker"] = cell.blocker
                if cell.reason:
                    rec["reason"] = cell.reason
            lines.append(render_record(rec))
        if cite:
            for text in doc.citations:
                lines.append(render_record({"record": "citation", "text": text}))
    else:
        lines.append(doc.title)
        header = ["n\\p"] + [str(p) for p in doc.primes]
        rows = [header]
        for n in doc.ranks:
            row = [str(n)]
            for p in doc.primes:
                cell = doc.cell(n, p)
                row.append(f"{cell.even}/{cell.odd}" if cell.status == "known" else "?")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        for r in rows:
            lines.append("  ".join(x.rjust(w) for x, w in zip(r, widths)))
        notes = [c for c in doc.cells if c.status == "unknown" and c.blocker]
        for cell in notes:
            lines.append(
                f"unknown at (n={cell.n}, p={cell.p}): blocked on {cell.blocker}"
            )
        if any(c.status == "unknown" and not c.blocker for c in doc.cells):
            lines.append(
                "cells marked ? without a blocker are outside the supported "
                "classification range"
            )
        if cite and doc.citations:
            lines.append("citations:")
            for text in doc.citations:
                lines.append(f"  - {text}")
    _emit(lines)
    return EXIT_OK


def demo_graph(name: str):
    """Built-in graphs: canonical_p<P>_k<K> and scrambled_p<P>_k<K>_seed<S>."""
    import re

    match = re.fullmatch(r"canonical_p(\d+)_k(\d+)", name)
    if match:
        return canonical_graph(int(match.group(1)), int(match.group(2)))
    match = re.fullmatch(r"scrambled_p(\d+)_k(\d+)_seed(\d+)", name)
    if match:
        from random import Random

        p, k, seed = (int(x) for x in match.groups())
        scrambled, _ = scramble_graph(canonical_graph(p, k), Random(seed))
        return scrambled
    raise ValueError(
        f"unknown demo graph {name!r}; use canonical_p<P>_k<K> or "
        "scrambled_p<P>_k<K>_seed<S>"
    )


def cmd_normalize(args) -> int:
    if bool(args.input) == bool(args.demo):
        raise ValueError("pass exactly one of --input FILE or --demo NAME")
    if args.demo:
        g = demo_graph(args.demo)
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            return _domain_error(exc)
        g = graph_loads(text)
    form, moves = normalize(g)
    lines: list[str] = []
    if args.format == "records":
        lines.append(
            render_record(
                {
                    "record": "normal_form",
                    "p": str(form.p),
                    "k": str(form.loops_per_vertex),
                    "rank": str(form.rank),
                    "moves": str(len(moves)),
                }
            )
        )
        for index, move in enumerate(moves, start=1):
            rec = {
                "record": "move",
                "index": str(index),
                "op": move.op,
                "source": str(move.source),
            }
            if move.target is not None:
                rec["target"] = str(move.target)
            lines.append(render_record(rec))
    else:
        lines.append(
            f"input graph: p={g.p}, {g.n_vertices} vertices, {g.n_edges} edges, "
            f"rank {graph_rank(g)}"
        )
        lines.append(
            f"normal form: p={form.p}, k={form.loops_per_vertex}, rank {form.rank}"
        )
        lines.append(f"moves: {len(moves)}")
        for index, move in enumerate(moves, start=1):
            if move.op == "collapse":
                lines.append(f"  {index}. collapse orbit of half-edge {move.source}")
            else:
                lines.append(
                    f"  {index}. slide orbit of half-edge {move.source} across "
                    f"half-edge {move.target}"
                )
    _emit(lines)
    return EXIT_OK


def cmd_example(args) -> int:
    cite = not args.no_cite
    name = args.name
    if name == "sl3":
        if args.p is not None or args.class_number is not None:
            raise ValueError("the sl3 example takes no --p or --class-number")
        results = list(example_sl3())
    else:
        if args.p is None:
            raise ValueError(f"the {name} example needs --p")
        if name == "gl":
            results = [example_gl(args.p, args.class_number)]
        elif name == "sp":
            results = [example_sp(args.p, args.class_number)]
        elif name == "mcg":
            if args.class_number is not None:
                raise ValueError("the mcg example takes no --class-number")
            results = [example_mcg(args.p)]
        elif name == "amalgam":
            if args.class_number is not None:
                raise ValueError("the amalgam example takes no --class-number")
            results = [example_amalgam(args.p)]
        else:
            raise ValueError(f"unknown example {name!r}")
    lines: list[str] = []
    for result in results:
        if args.format == "records":
            lines.extend(_tate_records("example", result, None, cite))
        else:
            lines.extend(
                _tate_text(
                    f"Farrell-Tate K-theory of {result.group_id} at p={result.p}",
                    result,
                    cite,
                )
            )
    _emit(lines)
    return EXIT_OK


def cmd_selftest(args) -> int:
    lines, ok = run_selftest(max_p=args.max_p)
    _emit(lines)
    return EXIT_OK if ok else EXIT_SELFTEST_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tatek",
        description=(
            "Exact computations of p-adic Farrell-Tate K-theory dimensions for "
            "Out(F_n) and related groups."
        ),
    )
    parser.add_argument("--version", action="version", version=f"tatek {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument(
            "--format", choices=("text", "records"), default="text",
            help="output rendering (default: text)",
        )
        sp.add_argument(
            "--no-cite", action="store_true", help="suppress citation output"
        )

    sp = sub.add_parser("orbits", help="stabiliser orbit counts on nonzero (Z/p)^2")
    sp.add_argument(
        "--p", type=int, required=True,
        help=f"prime modulus, at most {MAX_ORBIT_PRIME} (the explicit partition "
        "takes p^2 bytes and time)",
    )
    sp.add_argument("--kind", choices=sorted(_KIND_BY_NAME), help="one stabiliser only")
    sp.add_argument("--list", action="store_true", help="list fixed points and orbits")
    common(sp)
    sp.set_defaults(func=cmd_orbits)

    sp = sub.add_parser("classes", help="order-p conjugacy classes of Out(F_n)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_classes)

    sp = sub.add_parser("tate", help="Farrell-Tate K-theory dimensions of Out(F_n)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_tate)

    sp = sub.add_parser("rational", help="rationalised p-adic K-theory of B Out(F_n)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_rational)

    sp = sub.add_parser("table", help="emit table 4 (Farrell-Tate) or 5 (rationalised)")
    sp.add_argument("--which", type=int, choices=(4, 5), required=True)
    common(sp)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("normalize", help="normalize an equivariant graph")
    sp.add_argument("--input", help="graph JSON file")
    sp.add_argument("--demo", help="built-in graph name")
    common(sp)
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("example", help="worked example families")
    sp.add_argument("--name", choices=EXAMPLE_FAMILIES, required=True)
    sp.add_argument("--p", type=int)
    sp.add_argument("--class-number", type=int, dest="class_number")
    common(sp)
    sp.set_defaults(func=cmd_example)

    sp = sub.add_parser("selftest", help="run the invariant sweeps")
    sp.add_argument("--max-p", type=int, default=31, dest="max_p")
    common(sp)
    sp.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        return _domain_error(exc)


if __name__ == "__main__":
    sys.exit(main())
