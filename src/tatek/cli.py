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
  5  internal error (a bug in tatek, not in the input), or a write or
     flush of stdout or stderr that failed for another reason than 141's
  141  stdout or stderr was closed by its reader before the output ended;
       nothing more is written to stderr (128 + SIGPIPE, what a shell
       reports for ``cat`` there)
"""

from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace
from typing import Iterable, Iterator, NoReturn

from . import __version__
from ._value import Value
from .assemble import (
    EXAMPLE_FAMILIES,
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
from .classes import centraliser_of, order_p_classes
from .graphs import (
    MAX_GRAPH_FILE_CHARS,
    MAX_HALF_EDGES,
    SCRAMBLE_EXPANSIONS,
    GraphTooLarge,
    NormalizationError,
    canonical_graph,
    loads as graph_loads,
    normalize,
    rank as graph_rank,
    scramble_graph,
)
from .modp import StabiliserKind, check_prime, stabiliser_group
from .orbits import MAX_ORBIT_PRIME, iter_orbits, orbit_report, quotient_summary
from .records import render_record
from .selftest import run_selftest
from .series import NoSuchEntry

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN_ERROR = 3
EXIT_ALL_UNKNOWN = 4
EXIT_INTERNAL_ERROR = 5
EXIT_BROKEN_PIPE = 141

class DemoGraphTooLarge(GraphTooLarge):
    """A demo graph name asks for more than ``MAX_HALF_EDGES`` half-edges."""


# Every other domain error of the package is a ValueError.
_DOMAIN_ERRORS = (ValueError, NoSuchEntry, NormalizationError)


def _domain_error(exc: Exception) -> int:
    sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
    return EXIT_DOMAIN_ERROR


# Each command builds its output in one pass, as (record, text) items: the
# record is rendered in records format and the text line in text format, and
# either may be None.  Records leave out what only a reader needs (orbit
# members, the input graph, the table grid), so text is not derived from them.
Item = tuple[dict | None, str | None]


def _emit(items: Iterable[Item], fmt: str) -> None:
    if fmt == "records":
        lines = (render_record(record) for record, _ in items if record is not None)
    else:
        lines = (text for _, text in items if text is not None)
    sys.stdout.writelines(line + "\n" for line in lines)


def _dim_str(value) -> str:
    return "unknown" if isinstance(value, Unknown) else str(value)


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _status_items(record: dict, title: str, result) -> list[Item]:
    """The head record with the title, then the two dimensions or their blocker."""
    if result.known:
        record.update(status="known", even=result.dim_even, odd=result.dim_odd)
        line = f"even: {result.dim_even}, odd: {result.dim_odd}"
    else:
        record.update(status="unknown", blocker=result.blocker)
        line = f"even: unknown, odd: unknown (blocked on {result.blocker})"
    return [(record, title), (None, line)]


def _contribution_items(contributions, heading: str) -> list[Item]:
    items: list[Item] = [(None, heading)] if contributions else []
    for c in contributions:
        even, odd = _dim_str(c.even), _dim_str(c.odd)
        record = dict(record="contribution", label=c.label, even=even, odd=odd)
        items.append((record, f"  {c.label}: even {even}, odd {odd}"))
    return items


def _citation_items(citations, cite: bool) -> list[Item]:
    if not (cite and citations):
        return []
    return [(None, "citations:")] + [
        (dict(record="citation", text=text), f"  - {text}") for text in citations
    ]


def _tate_items(record: dict, title: str, result, cite: bool) -> list[Item]:
    items = _status_items(record, title, result)
    if result.known:
        record.update(weak_duality=_flag(result.weak_duality), euler=result.euler_char)
        duality = "yes" if result.weak_duality else "no"
        items.append(
            (None, f"weak duality: {duality}; Euler characteristic: {result.euler_char}")
        )
    items += _contribution_items(result.contributions, "contributions:")
    return items + _citation_items(result.citations, cite)


def _orbit_items(args, p: int) -> Iterator[Item]:
    kinds = [StabiliserKind(args.kind)] if args.kind else list(StabiliserKind)
    for kind in kinds:
        report = orbit_report(kind, p)
        order, orbits = len(report.per_element_counts), report.orbit_count
        brute, closed = report.brute_force_count, report.closed_form
        record = dict(
            record="orbit_report", kind=kind.value, p=p, group_order=order, orbits=orbits,
            burnside=orbits, brute_force=brute, closed_form=closed, match=_flag(report.match),
        )
        text = (
            f"{kind.value} stabiliser at p={p}: order {order}; orbits: {orbits} "
            f"(burnside {orbits}, brute-force {brute}, closed-form {closed})"
        )
        yield record, text
        if args.list:
            for (a, b, c, d), count in report.per_element_counts:
                element = f"[[{a},{b}],[{c},{d}]]"
                record = dict(
                    record="fixed_points", kind=kind.value, p=p, element=element, count=count
                )
                yield record, f"  fixed points of {element}: {count}"
            # Only the text line names every member of an orbit.
            as_text = args.format == "text"
            for orbit in iter_orbits(stabiliser_group(kind, p)):
                rep = f"({orbit[0][0]},{orbit[0][1]})"
                record = dict(record="orbit", kind=kind.value, p=p, rep=rep, size=len(orbit))
                line = None
                if as_text:
                    shown = " ".join(f"({l},{m})" for l, m in orbit)
                    line = f"  orbit size {len(orbit)}: {shown}"
                yield record, line
    if not args.kind:
        summary = quotient_summary(p)
        vertices, edges, betti = summary.vertex_orbits, summary.edge_orbits, summary.betti_one
        record = dict(
            record="quotient", p=p, vertex_orbits=vertices, edge_orbits=edges, betti_one=betti
        )
        text = (
            f"quotient graph at p={p}: vertex orbits {vertices}, "
            f"edge orbits {edges}, betti_1 {betti}"
        )
        yield record, text


def cmd_orbits(args) -> int:
    # orbit_report checks p before the first line; with --list the items
    # name all p^2 vectors, so they are written one at a time, not held.
    _emit(_orbit_items(args, args.p), args.format)
    return EXIT_OK


def cmd_classes(args) -> int:
    class_list = order_p_classes(args.p, args.n)
    p, n, count = class_list.p, class_list.n, len(class_list.classes)
    # order_p_classes lists every class of a pair or raises OutOfRange.
    record = dict(record="class_list", p=p, n=n, count=count, complete="true")
    items: list[Item] = [(record, f"order-{p} torsion classes of Out(F_{n}): {count} (complete)")]
    for c in class_list.classes:
        centraliser = str(centraliser_of(c))
        record = dict(
            record="class", p=c.p, n=c.n, kind=c.kind, label=c.label, centraliser=centraliser
        )
        items.append((record, f"  {c.label}: centraliser ~ {centraliser}"))
        if c.aut_level_note:
            record["aut_note"] = c.aut_level_note
            items.append((None, f"    note: {c.aut_level_note}"))
        if not args.no_cite:
            record["citation"] = c.citation
            items.append((None, f"    citation: {c.citation}"))
    _emit(items, args.format)
    return EXIT_OK


def cmd_tate(args) -> int:
    result = tate_k(args.p, args.n)
    record = dict(record="tate", group=result.group_id, p=result.p, n=args.n)
    title = f"Farrell-Tate K-theory of Out(F_{args.n}) at p={args.p}"
    _emit(_tate_items(record, title, result, not args.no_cite), args.format)
    return EXIT_OK if result.known else EXIT_ALL_UNKNOWN


def cmd_rational(args) -> int:
    result = rational_k(args.p, args.n)
    record = dict(record="rational", p=args.p, n=args.n)
    title = f"rationalised p-adic K-theory of B Out(F_{args.n}) at p={args.p}"
    items = _status_items(record, title, result)
    if result.known:
        tate_even, tate_odd = result.tate.dim_even, result.tate.dim_odd
        outfn_even, outfn_odd = result.outfn.even, result.outfn.odd
        record.update(
            tate_even=tate_even, tate_odd=tate_odd, outfn_even=outfn_even, outfn_odd=outfn_odd
        )
        items.append((None, f"  torsion part (Farrell-Tate): even {tate_even}, odd {tate_odd}"))
        items.append(
            (None, f"  H^*(Out(F_{args.n}); Q) part: even {outfn_even}, odd {outfn_odd}")
        )
    items += _contribution_items(result.tate.contributions, "torsion contributions:")
    items += _citation_items(result.citations, not args.no_cite)
    _emit(items, args.format)
    return EXIT_OK if result.known else EXIT_ALL_UNKNOWN


def cmd_table(args) -> int:
    doc = emit_table(args.which)
    rows = [["n\\p"] + [str(p) for p in doc.primes]]
    cell_items: list[Item] = []
    for n in doc.ranks:
        row = [str(n)]
        for p in doc.primes:
            result = doc.cell(n, p)
            record = dict(record="cell", table=doc.which, n=n, p=p, status="unknown")
            note = None
            if result is None:
                record["reason"] = "outside the supported classification range"
            elif result.known:
                record.update(status="known", even=result.dim_even, odd=result.dim_odd)
            else:
                blocker = result.blocker
                record.update(blocker=blocker, reason=f"blocked on registry entry {blocker}")
                note = f"unknown at (n={n}, p={p}): blocked on {blocker}"
            row.append(f"{record['even']}/{record['odd']}" if "even" in record else "?")
            cell_items.append((record, note))
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    items: list[Item] = [(None, doc.title)]
    items += [(None, "  ".join(x.rjust(w) for x, w in zip(r, widths))) for r in rows]
    items += cell_items
    if any(cell is None for cell in doc.cells):
        note = "cells marked ? without a blocker are outside the supported classification range"
        items.append((None, note))
    items += _citation_items(doc.citations, not args.no_cite)
    _emit(items, args.format)
    return EXIT_OK


def demo_graph(name: str):
    """Built-in graphs: canonical_p<P>_k<K> and scrambled_p<P>_k<K>_seed<S>,
    of at most ``graphs.MAX_HALF_EDGES`` half-edges.  The count, 2p(k+1) for
    a canonical graph and at most 2p(k+1+e) after the e expansions that a
    scramble may add, is checked from the name before any graph is built."""
    import re

    canonical = re.fullmatch(r"canonical_p(\d+)_k(\d+)", name)
    match = canonical or re.fullmatch(r"scrambled_p(\d+)_k(\d+)_seed(\d+)", name)
    if not match:
        raise ValueError(
            f"unknown demo graph {name!r}; use canonical_p<P>_k<K> or "
            "scrambled_p<P>_k<K>_seed<S>"
        )
    p, k = int(match.group(1)), int(match.group(2))
    check_prime(p)
    expansions = 0 if canonical else SCRAMBLE_EXPANSIONS
    half_edges = 2 * p * (k + 1 + expansions)
    if half_edges > MAX_HALF_EDGES:
        count = "2p(k+1)" if canonical else f"up to 2p(k+{1 + expansions})"
        raise DemoGraphTooLarge(
            f"demo graph {name} has {count} = {half_edges} half-edges, "
            f"above the bound {MAX_HALF_EDGES}"
        )
    g = canonical_graph(p, k)
    if canonical:
        return g
    from random import Random

    return scramble_graph(g, Random(int(match.group(3))))


def _read_graph_file(path: str) -> str:
    """The text of a graph file, refused above ``MAX_GRAPH_FILE_CHARS``
    characters before it is parsed."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read(MAX_GRAPH_FILE_CHARS + 1)
    if len(text) > MAX_GRAPH_FILE_CHARS:
        raise GraphTooLarge(
            f"graph file {path} is longer than the bound of {MAX_GRAPH_FILE_CHARS} characters"
        )
    return text


def cmd_normalize(args) -> int:
    if bool(args.input) == bool(args.demo):
        raise ValueError("pass exactly one of --input FILE or --demo NAME")
    if args.demo:
        g = demo_graph(args.demo)
    else:
        try:
            # The text goes to ``graph_loads`` as a temporary, which frees it
            # once it is parsed; no name here may hold it.
            g = graph_loads(_read_graph_file(args.input))
        except OSError as exc:
            return _domain_error(exc)
    form, moves = normalize(g)
    k, rank = form.loops_per_vertex, form.rank
    items: list[Item] = [
        (
            None,
            f"input graph: p={g.p}, {g.n_vertices} vertices, {g.n_edges} edges, "
            f"rank {graph_rank(g)}",
        ),
        (
            dict(record="normal_form", p=form.p, k=k, rank=rank, moves=len(moves)),
            f"normal form: p={form.p}, k={k}, rank {rank}",
        ),
        (None, f"moves: {len(moves)}"),
    ]
    for index, move in enumerate(moves, start=1):
        record = dict(record="move", index=index, op=move.op, source=move.source)
        if move.target is not None:
            record["target"] = move.target
        if move.op == "collapse":
            text = f"  {index}. collapse orbit of half-edge {move.source}"
        else:
            text = (
                f"  {index}. slide orbit of half-edge {move.source} across "
                f"half-edge {move.target}"
            )
        items.append((record, text))
    _emit(items, args.format)
    return EXIT_OK


def cmd_example(args) -> int:
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
    items: list[Item] = []
    for result in results:
        record = dict(record="example", group=result.group_id, p=result.p)
        title = f"Farrell-Tate K-theory of {result.group_id} at p={result.p}"
        items += _tate_items(record, title, result, not args.no_cite)
    _emit(items, args.format)
    return EXIT_OK


def cmd_selftest(args) -> int:
    lines, ok = run_selftest(max_p=args.max_p)
    # The selftest report is text in either format.
    _emit([(None, line) for line in lines], "text")
    return EXIT_OK if ok else EXIT_SELFTEST_FAILED


class Option(Value):
    """One option of a subcommand.  ``kind`` is ``int`` (the value goes through
    ``int()``), ``str``, or ``bool`` for a flag that stores True."""

    name: str
    kind: type = str
    choices: tuple | None = None
    required: bool = False
    default: object = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


_COMMON_OPTIONS = (
    Option(
        "--format", choices=("text", "records"), default="text",
        help="output rendering (default: text)",
    ),
    Option("--no-cite", bool, default=False, help="suppress citation output"),
)
_P_AND_N = (Option("--p", int, required=True), Option("--n", int, required=True))

# Every subcommand once, in the order of the help: its help line and its
# options, then the common ones.  Both parsers are built from this table; the
# handler of ``name`` is ``cmd_<name>``, read from the module when an argv is
# parsed.
COMMANDS: dict[str, tuple[str, tuple[Option, ...]]] = {
    "orbits": (
        "stabiliser orbit counts on nonzero (Z/p)^2",
        (
            Option(
                "--p", int, required=True,
                help=f"prime modulus, at most {MAX_ORBIT_PRIME} (the explicit partition "
                "takes p^2 bytes and time)",
            ),
            Option(
                "--kind", choices=tuple(kind.value for kind in StabiliserKind),
                help="one stabiliser only",
            ),
            Option("--list", bool, default=False, help="list fixed points and orbits"),
        ),
    ),
    "classes": ("order-p conjugacy classes of Out(F_n)", _P_AND_N),
    "tate": ("Farrell-Tate K-theory dimensions of Out(F_n)", _P_AND_N),
    "rational": ("rationalised p-adic K-theory of B Out(F_n)", _P_AND_N),
    "table": (
        "emit table 4 (Farrell-Tate) or 5 (rationalised)",
        (Option("--which", int, choices=(4, 5), required=True),),
    ),
    "normalize": (
        "normalize an equivariant graph",
        (
            Option("--input", help="graph JSON file"),
            Option("--demo", help="built-in graph name"),
        ),
    ),
    "example": (
        "worked example families",
        (
            Option("--name", choices=EXAMPLE_FAMILIES, required=True),
            Option("--p", int),
            Option("--class-number", int),
        ),
    ),
    "selftest": ("run the invariant sweeps", (Option("--max-p", int, default=31),)),
}


def _parse_canonical(argv: list[str]) -> SimpleNamespace | None:
    """What argparse returns for a command line in canonical form: a command,
    then exact option names, each at most once, each value not starting with
    "-", valid for its kind and choices, and every required option given.
    None for any other command line."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command = argv[0]
    options = COMMANDS[command][1] + _COMMON_OPTIONS
    by_name = {option.name: option for option in options}
    given: dict[str, object] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        option = by_name.get(token)
        if option is None or option.dest in given:
            return None
        if option.kind is bool:
            given[option.dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if option.kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if option.choices is not None and value not in option.choices:
            return None
        given[option.dest] = value
    if any(option.required and option.dest not in given for option in options):
        return None
    values = {option.dest: given.get(option.dest, option.default) for option in options}
    return SimpleNamespace(command=command, **values, func=globals()[f"cmd_{command}"])


def _argparse_parser():
    """The full argparse parser of the same table, for help, version and every
    command line that is not in canonical form."""
    import argparse

    class ArgumentParser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            # argparse swallows a failed write, so a usage error would exit
            # 2 on an unbuffered stderr that takes no write and 5 on a
            # buffered one, whose flush fails later.  Writing here lets the
            # fault reach ``run`` either way.  With stdout closed before
            # start, argparse would write help and --version to stderr and
            # exit 0; writing to the missing stream fails as every other
            # request does.
            if message:
                file.write(message)

        def print_usage(self, file=None):
            # ``error`` passes ``sys.stderr``, which is None with stderr
            # closed before start; argparse's own ``print_usage`` would then
            # write the usage to stdout.  It goes to the missing stream and
            # fails there instead.
            self._print_message(self.format_usage(), file)

    parser = ArgumentParser(
        prog="tatek",
        description=(
            "Exact computations of p-adic Farrell-Tate K-theory dimensions for "
            "Out(F_n) and related groups."
        ),
    )
    parser.add_argument("--version", action="version", version=f"tatek {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for option in options + _COMMON_OPTIONS:
            if option.kind is bool:
                kwargs = dict(action="store_true")
            else:
                kwargs = dict(type=option.kind, choices=option.choices, required=option.required)
            sp.add_argument(
                option.name, dest=option.dest, default=option.default, help=option.help, **kwargs
            )
        sp.set_defaults(func=globals()[f"cmd_{command}"])
    return parser


class Parser:
    """The command-line parser.  A command line in canonical form is parsed
    from ``COMMANDS`` directly; any other (help, ``--version``, an abbreviated
    option, ``--opt=value``, a repeated option, a value starting with "-",
    every usage error) goes to argparse, which is imported only then."""

    def parse_args(self, argv: list[str] | None = None):
        if argv is None:
            argv = sys.argv[1:]
        args = _parse_canonical(argv)
        return _argparse_parser().parse_args(argv) if args is None else args


def build_parser() -> Parser:
    """A new parser on each call: the benchmark's tracer wraps the
    ``parse_args`` of the parser it returns."""
    return Parser()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout: neither the input's fault nor a bug.
        raise
    except _DOMAIN_ERRORS as exc:
        return _domain_error(exc)
    except Exception as exc:
        # Any other exception is a bug in tatek, not a fault in the input.
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL_ERROR


def _fault_code(exc: Exception) -> int:
    """The code of an exception that reached ``run``: 141 for a closed pipe,
    else 5, with one ``internal error`` line if stderr still takes it."""
    if isinstance(exc, BrokenPipeError):
        return EXIT_BROKEN_PIPE
    try:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
    except Exception:
        pass  # stderr is what failed: full, closed or gone
    return EXIT_INTERNAL_ERROR


def run() -> NoReturn:
    """The process entry of ``python -m tatek``, the ``tatek`` script and this
    file: ``main()``, then the interpreter's own shutdown order (the exit
    functions, then the flush of stdout, then of stderr), then ``os._exit``,
    so the interpreter tears nothing down.  No exception leaves ``run``: a
    failed write or flush on either stream exits 141 for a closed pipe and 5
    for any other fault, the last fault deciding.  Only ``run`` ends the
    process; ``main`` returns its code to in-process callers."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        code = _fault_code(exc)
    # Tools such as coverage write their data from atexit handlers.
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:
            continue  # fd closed at start: any write to it failed in main
        try:
            stream.flush()
        except Exception as exc:
            code = _fault_code(exc)
    os._exit(code)


if __name__ == "__main__":
    run()
