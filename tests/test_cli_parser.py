"""The canonical command-line parse of ``tatek.cli`` against argparse.

``cli.Parser`` parses a command line in canonical form straight from the
option table ``cli.COMMANDS`` and hands every other command line to argparse,
which it builds from the same table.  Where it does not hand over, it must
return what argparse returns, and argparse must accept that command line.
"""

import contextlib
import functools
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tatek import cli
from test_golden_cli import FALLBACK, GOLDEN_DIR, INVOCATIONS, fixture_name

BENCH = Path(__file__).resolve().parents[1] / "bench"

OPTIONS = {command: options + cli._COMMON_OPTIONS for command, (_, options) in cli.COMMANDS.items()}

# The tokens of the grammar the command lines are drawn from.  A value in
# DASHED is never canonical; argparse takes "-5" and "-" as values and reads
# the others as options.
COMMAND_NAMES = list(cli.COMMANDS)
HEADS = [*COMMAND_NAMES, "frobnicate", "-h", "--help", "--version", "--"]
OPTION_TOKENS = sorted({option.name for options in OPTIONS.values() for option in options})
OTHER_TOKENS = [
    *OPTION_TOKENS, "--fo", "--no", "--li", "--class", "--p=5", "--format=text",
    "-h", "--help", "--version", "--", "-p",
]
DASHED = ["-5", "-", "-x", "--", "-h", "--demo"]
VALUES = [
    "0", "2", "5", "7", "11", "12", "31", " 7", "1_0", "five", "", "4", "6", "text", "records",
    "xml", "edge", "theta", "cube", "sl3", "gl", "amalgam", "canonical_p3_k2", "graph.json",
]


def takes_any_string(option) -> bool:
    """Whether ``option`` takes a free string: the one kind of value that
    the canonical parse can wrongly take when it starts with "-"."""
    return option.kind is str and not option.choices


# The commands with such an option (only ``normalize``): a third of the heads
# are drawn from them, as only they can show a dashed value taken.
STRING_COMMANDS = [c for c, options in OPTIONS.items() if any(map(takes_any_string, options))]


def good_values(option) -> list[str]:
    """Values of ``option`` that a canonical command line may carry."""
    if option.choices:
        return [str(choice) for choice in option.choices]
    if option.kind is int:
        return ["2", "5", "7", "11", "12", "31", " 7", "1_0"]
    return ["canonical_p3_k2", "graph.json", ""]


@st.composite
def command_lines(draw):
    """A head token, then options of its command in any order with values,
    mostly canonical, up to two of them given again between the others; then
    up to two changes: a stray token put anywhere, or a token dropped.  About
    a third of the command lines have no repeat and no change, so that a
    canonical one often carries a dashed free string, and one with a repeated
    option often is canonical but for the repeat."""
    heads = [COMMAND_NAMES, HEADS, STRING_COMMANDS]
    head = draw(st.one_of(*map(st.sampled_from, heads)))
    options = OPTIONS.get(head, ())
    chosen = [o for o in draw(st.permutations(options)) if o.required or draw(st.booleans())]

    def with_value(option) -> list[str]:
        if option.kind is bool:
            return [option.name]
        good = good_values(option)
        pools = [good, DASHED, DASHED] if takes_any_string(option) else [good] * 6 + [VALUES, DASHED]
        return [option.name, draw(st.sampled_from(draw(st.sampled_from(pools))))]

    groups = [with_value(option) for option in chosen]
    if options:
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            repeat = with_value(draw(st.sampled_from(chosen or options)))
            groups.insert(draw(st.integers(0, len(groups))), repeat)
    argv = [head] + [token for group in groups for token in group]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        if draw(st.booleans()):
            if len(argv) > 1:
                del argv[draw(st.integers(1, len(argv) - 1))]
        else:
            token = draw(st.sampled_from(OTHER_TOKENS + VALUES + DASHED))
            argv.insert(draw(st.integers(1, len(argv))), token)
    return argv


@functools.cache
def argparse_parser():
    return cli._argparse_parser()


def assert_agrees_with_argparse(argv: list[str]) -> None:
    """If the canonical parse accepts ``argv``, argparse accepts it too and
    returns the same attributes."""
    parsed = cli._parse_canonical(argv)
    if parsed is None:
        return
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            expected = argparse_parser().parse_args(argv)
        except SystemExit as exc:
            raise AssertionError(
                f"argparse exits {exc.code} on {argv}, which the canonical parse accepts: "
                f"{out.getvalue()!r}"
            ) from None
    assert vars(parsed) == vars(expected), argv


@settings(max_examples=300, deadline=None)
@given(argv=st.just([]) | command_lines())
@example(argv=["tate", "--p", "11", "--n", "12", "--format", "records", "--no-cite"])
@example(argv=["example", "--name", "gl", "--class-number", " 7", "--p", "1_0"])
@example(argv=["orbits", "--p", "5", "--p", "7"])
@example(argv=["normalize", "--input", "-x"])
@example(argv=["normalize", "--input", ""])
def test_canonical_parse_declines_or_matches_argparse(argv):
    assert_agrees_with_argparse(argv)


def _workload_command_lines() -> list[list[str]]:
    """Every argv of one round of each benchmark workload, and of its probe.

    The bench modules are loaded by path.  ``bench/workloads.py`` imports the
    benchmark's reference module by the bare name ``references``, and a
    dataclass looks its module up in ``sys.modules`` while it is built, so
    each is bound there under its own name for its load only: a module of
    either name elsewhere neither shadows them nor is shadowed."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ("references", "workloads"):
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            patch.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
    workloads = module

    manifest = [{"file": f"g{p}.json", "p": p, "k": 2, "half_edges": 0} for p in (31, 61, 97)]
    requests = workloads.cli_mix(1) + workloads.oracle_normalize(1, manifest)
    return [list(r.args) for r in requests + workloads.probe("probe.json")]


def test_canonical_parse_takes_every_bench_and_golden_command_line(monkeypatch):
    goldens = {
        fixture_name(argv): json.loads((GOLDEN_DIR / f"{fixture_name(argv)}.json").read_text())
        for argv in INVOCATIONS
    }
    handed_over = {name for name, g in goldens.items() if g["exit"] == 2}
    handed_over |= {fixture_name(argv) for argv in FALLBACK}
    canonical = [g["argv"] for name, g in goldens.items() if name not in handed_over]
    argvs = _workload_command_lines() + canonical
    assert len(argvs) > 150
    # An import of argparse now raises ImportError.
    monkeypatch.setitem(sys.modules, "argparse", None)
    for argv in argvs:
        args = cli.build_parser().parse_args(argv)
        assert args.command == argv[0] and args.func is getattr(cli, f"cmd_{argv[0]}")
    for name in handed_over:
        assert cli._parse_canonical(goldens[name]["argv"]) is None, name


def test_canonical_parse_reads_sys_argv(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["tatek", "table", "--which", "5"])
    monkeypatch.setitem(sys.modules, "argparse", None)
    args = cli.build_parser().parse_args()
    assert (args.command, args.which, args.format, args.no_cite) == ("table", 5, "text", False)
