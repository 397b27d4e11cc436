"""Named mutants: each replaces one function of the pipeline or the table of
stabiliser generators, in every ``tatek`` module that holds it by name, or one
method of the working graph, the registry, a group expression or a K-theory
result, the validity report a graph keeps, one function of the command-line
parser or the orbit-minimum mask, or one prime-bound check, and the oracles
paired with it must then fail.  A mutant that nothing catches marks an oracle
to strengthen."""

import functools
import inspect
import json
import sys
import textwrap
from random import Random

import pytest

import test_classes
import test_cli
import test_cli_parser
import test_graphs
import test_modp
import test_normalize_reference
import test_orbits
import test_records
import test_series
import test_validate_reference
import test_golden_moves as golden_moves
from graph_references import reference_scramble_graph, reference_slide
from tatek import assemble, classes, cli, graphs, modp, orbits, records, selftest, series
from tatek.modp import StabiliserKind
from tatek.selftest import run_selftest
from tatek.graphs import EdgeOrbitRef, _WorkingGraph, canonical_graph, dumps, scramble_graph, slide
from test_golden_cli import GOLDEN_DIR, fixture_name, run_main
from test_normalize_reference import (
    assert_normalize_agrees,
    gen_graphs,
    partners_off_the_action_graph,
)


def patch_everywhere(monkeypatch, original, replacement) -> list[str]:
    """Point every loaded ``tatek`` module's name for ``original`` at
    ``replacement``; the names of the patched modules."""
    patched = []
    for name, module in list(sys.modules.items()):
        if name == "tatek" or name.startswith("tatek."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
                    patched.append(name)
    return patched


def plain_square(s: series.PoincareSeries) -> series.PoincareSeries:
    """S(x)^2: the flip-square without the flip, keeping every pair twice."""
    return s.convolve(s)


# The contributions that tell the flip-square from a plain square, as
# (label, (even, odd) of the real one, (even, odd) of the mutant): the totals
# of both invocations are blocked on a rose core.
FLIP_SQUARE_PINS = {
    ("tate", "--p", "11", "--n", "18"): ("theta(4,4)", (3, 0), (4, 0)),
    ("tate", "--p", "13", "--n", "22"): ("theta(5,5)", (1, 1), (2, 2)),
}


def contribution_line(fmt: str, label: str, dims: tuple[int, int]) -> str:
    even, odd = dims
    if fmt == "text":
        return f"  {label}: even {even}, odd {odd}"
    return f"record=contribution label={label} even={even} odd={odd}"


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("args", sorted(FLIP_SQUARE_PINS), ids=" ".join)
def test_plain_square_mutant_fails_the_flip_square_fixtures(monkeypatch, args, fmt):
    argv = [*args, "--format", fmt]
    expected = json.loads((GOLDEN_DIR / f"{fixture_name(argv)}.json").read_text(encoding="utf-8"))
    assert run_main(argv) == expected
    assert "tatek.series" in patch_everywhere(monkeypatch, series.flip_symmetric_square, plain_square)
    mutated = run_main(argv)
    assert mutated != expected
    label, real, mutant = FLIP_SQUARE_PINS[args]
    assert contribution_line(fmt, label, real) in expected["stdout"].splitlines()
    assert contribution_line(fmt, label, mutant) in mutated["stdout"].splitlines()


def mutated_method(owner, name: str, *replacements: tuple[str, str]):
    """``owner.name``, a method of a class or a function of a module, compiled
    again from its source with each (old, new) of ``replacements`` applied, in
    its module's namespace."""
    method = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(method))
    for old, new in replacements:
        assert source.count(old) == 1, f"{owner.__name__}.{name} no longer holds {old!r}"
        source = source.replace(old, new)
    namespace = dict(vars(inspect.getmodule(method)))
    exec(source, namespace)
    return namespace[name]


# Each new end of a slide written as soon as it is read.  On a valid graph the
# slid half-edges and the ends they take lie in two different edge orbits, so
# the order cannot matter and no golden output can show this mutant; only a
# graph whose involution does not commute with the action can.
SLIDE_WRITING_AS_IT_READS = (
    "slide",
    (
        """\
    ends = []
    for _ in range(self.p):
        ends.append((src, attach[dst]))
        src = action[src]
        dst = action[dst]
    for src, v in ends:
        attach[src] = v
""",
    """\
    for _ in range(self.p):
        attach[src] = attach[dst]
        src = action[src]
        dst = action[dst]
""",
    ),
)

# A collapse that merges w into u p times instead of each w_k into u_k.
COLLAPSE_WITHOUT_STEPPING = (
    "collapse",
    (
        """\
        merged[w] = u
        u = vertex_action[u]
        w = vertex_action[w]
""",
        "        merged[w] = u\n",
    ),
)

# An expansion that takes each new half-edge for an edge orbit of its own: the
# working copy, and the graph it freezes, keep representatives that a fresh
# copy does not derive.
NEW_HALF_EDGES_REPRESENTED_APART = (
    "expand",
    ("self._rep = [*self._rep, *[H] * (2 * p)]", "self._rep = [*self._rep, *range(H, H + 2 * p)]"),
)


# Index checks that let a negative index count from the end, as list
# indexing does: a collapse of -1 then collapses the orbit of the last
# half-edge, and an expansion at vertex -1 attaches half-edges to vertex -1,
# which only the constructor's checks, skipped by ``freeze``, would refuse.
HALF_EDGES_COUNTED_FROM_THE_END = (
    "_check_half_edge",
    ("not 0 <= h < len(self.involution)", "not -len(self.involution) <= h < len(self.involution)"),
)
VERTICES_COUNTED_FROM_THE_END = (
    "expand",
    ("not 0 <= vertex < self.n_vertices", "not -self.n_vertices <= vertex < self.n_vertices"),
)


def check_expand_refusals(tmp_path):
    test_graphs.assert_expand_refusals()


def check_move_refusals(tmp_path):
    test_graphs.assert_move_refusals()


def check_moves_on_any_graph(tmp_path):
    test_normalize_reference.test_a_move_on_any_graph_freezes_what_the_constructor_accepts()


def check_golden_moves(tmp_path):
    for name, p, k, slides, expansions, seed, _ in golden_moves.CASES:
        g = golden_moves.scrambled(p, k, slides, expansions, seed)
        path = tmp_path / f"{name}.json"
        path.write_text(dumps(g), encoding="utf-8")
        result = run_main(["normalize", "--input", str(path), "--format", "records"])
        golden = golden_moves.GOLDEN_DIR / f"{name}.records"
        assert result["stdout"] == golden.read_text(encoding="utf-8")


def check_normalize_reference(tmp_path):
    for config in gen_graphs.GRAPH_CONFIGS[:2]:
        assert_normalize_agrees(gen_graphs.scrambled(*config, Random(1)))
    start = canonical_graph(5, 6)
    expected, _ = reference_scramble_graph(start, Random(3))
    assert scramble_graph(start, Random(3)) == expected
    args = (partners_off_the_action_graph(), EdgeOrbitRef(0), EdgeOrbitRef(3))
    assert slide(*args) == reference_slide(*args)


def check_scrambled_demo_fixtures(tmp_path):
    for path in sorted(GOLDEN_DIR.glob("normalize_demo_scrambled_*.json")):
        expected = json.loads(path.read_text(encoding="utf-8"))
        assert run_main(expected["argv"]) == expected


def check_frozen_representatives(tmp_path):
    test_normalize_reference.test_frozen_representatives_equal_fresh_ones()


@pytest.mark.parametrize(
    "mutation, checks",
    [
        (SLIDE_WRITING_AS_IT_READS, [check_normalize_reference]),
        (
            COLLAPSE_WITHOUT_STEPPING,
            [check_golden_moves, check_normalize_reference, check_scrambled_demo_fixtures],
        ),
        (NEW_HALF_EDGES_REPRESENTED_APART, [check_frozen_representatives]),
        (HALF_EDGES_COUNTED_FROM_THE_END, [check_move_refusals, check_expand_refusals]),
        (VERTICES_COUNTED_FROM_THE_END, [check_expand_refusals, check_moves_on_any_graph]),
    ],
    ids=[
        "slide_writing_as_it_reads",
        "collapse_without_stepping",
        "new_half_edges_represented_apart",
        "half_edges_counted_from_the_end",
        "vertices_counted_from_the_end",
    ],
)
def test_working_graph_mutants_fail_their_oracles(mutation, checks, monkeypatch, tmp_path):
    name, replacement = mutation
    for check in checks:
        check(tmp_path)
    monkeypatch.setattr(_WorkingGraph, name, mutated_method(_WorkingGraph, name, replacement))
    for check in checks:
        with pytest.raises(AssertionError):
            check(tmp_path)


# Canonical parses that argparse disagrees with, each with the command line
# of the property's explicit examples that shows it: one that takes a repeated
# option and keeps its first value, where argparse keeps the last, and one that
# takes a value starting with "-", which argparse reads as an option.
PARSER_MUTANTS = {
    "keeping_the_first_of_a_repeat": (
        ["orbits", "--p", "5", "--p", "7"],
        ("option is None or option.dest in given", "option is None"),
        ("given[option.dest] = value", "given.setdefault(option.dest, value)"),
    ),
    "taking_a_dashed_value": (
        ["normalize", "--input", "-x"],
        ('value is None or value.startswith("-")', "value is None"),
    ),
}


@pytest.mark.parametrize("name", sorted(PARSER_MUTANTS))
def test_parser_mutants_fail_the_argparse_property(name, monkeypatch):
    argv, *replacements = PARSER_MUTANTS[name]
    test_cli_parser.assert_agrees_with_argparse(argv)
    mutant = mutated_method(cli, "_parse_canonical", *replacements)
    monkeypatch.setattr(cli, "_parse_canonical", mutant)
    with pytest.raises(AssertionError):
        test_cli_parser.assert_agrees_with_argparse(argv)
    with pytest.raises(AssertionError):
        test_cli_parser.test_canonical_parse_declines_or_matches_argparse()


def check_orbit_reports():
    for p in (5, 7, 11):
        for kind in StabiliserKind:
            assert orbits.orbit_report(kind, p).match


def check_selftest():
    assert run_selftest(max_p=13)[1]


def check_orbit_fixtures():
    for path in sorted(GOLDEN_DIR.glob("orbits_p_*.json")):
        expected = json.loads(path.read_text(encoding="utf-8"))
        assert run_main(expected["argv"]) == expected


@pytest.mark.parametrize("check", [check_orbit_reports, check_selftest, check_orbit_fixtures])
def test_closed_form_plus_one_fails_the_orbit_oracles(check, monkeypatch):
    check()
    real = orbits.closed_form_orbits
    patched = patch_everywhere(monkeypatch, real, lambda kind, p: real(kind, p) + 1)
    assert patched == ["tatek.orbits"]
    with pytest.raises(AssertionError):
        check()


def check_mask_examples():
    for group in test_orbits.MASK_EXAMPLES:
        test_orbits.assert_mask_matches_references(group)


def check_small_and_trivial_groups():
    test_orbits.test_mask_partition_at_p_2_and_3_and_for_the_trivial_group()


def check_orbit_reports_at_p_2():
    for kind in StabiliserKind:
        assert orbits.orbit_report(kind, 2).match


# Mutants of the orbit-minimum mask, each a snippet of ``_minimum_mask``
# replaced, with the checks that must fail: the bound that fills the rows
# above p/2 when -I is in the group, fired without -I or at p = 2, where -I is
# the identity; the whole-row test of an element with b = 0 and a != 1 stopped
# at p/2 without -I; and the tie of a shared window tested for the first
# (c, d) only.
HALF_ROW_BOUND = "if p > 2 and (minus_one, 0, 0, minus_one) in g.elements:"
MASK_MUTANTS = {
    "half_rows_without_minus_identity": (
        [(HALF_ROW_BOUND, "if p > 2:")],
        [check_mask_examples, check_small_and_trivial_groups],
    ),
    "half_rows_at_p_2": (
        [(HALF_ROW_BOUND, "if (minus_one, 0, 0, minus_one) in g.elements:")],
        [
            check_small_and_trivial_groups,
            check_orbit_reports_at_p_2,
            check_selftest,
            check_orbit_fixtures,
        ],
    ),
    "whole_rows_to_half_without_minus_identity": (
        [
            (
                "for l in range(1, rows):\n                if a * l % p < l:",
                "for l in range(1, (p + 1) // 2):\n                if a * l % p < l:",
            )
        ],
        [check_mask_examples],
    ),
    "one_tie_per_window": (
        [("for c, d in ties:", "for c, d in ties[:1]:")],
        [check_mask_examples],
    ),
}


@pytest.mark.parametrize("name", sorted(MASK_MUTANTS))
def test_mask_mutants_fail_their_oracles(name, monkeypatch):
    replacements, checks = MASK_MUTANTS[name]
    for check in checks:
        check()
    mutant = mutated_method(orbits, "_minimum_mask", *replacements)
    # The orbit tests hold the mask by name; the package reaches it through
    # the orbits module.
    monkeypatch.setattr(orbits, "_minimum_mask", mutant)
    monkeypatch.setattr(test_orbits, "_minimum_mask", mutant)
    for check in checks:
        with pytest.raises(AssertionError):
            check()


def never_quoting(value: str) -> str:
    """``encode_value`` writing every value bare."""
    return value


def check_records_round_trip():
    items = [{"record": "cell", "note": "two words", "empty": ""}, {"text": 'a "quote"'}]
    text = records.render_records(items)
    try:
        parsed = records.parse_records(text)
    except ValueError:
        parsed = None
    assert parsed == items


def check_quoted_fixtures():
    for stem in ("table_which_4_format_records", "rational_p_5_n_7_format_records"):
        expected = json.loads((GOLDEN_DIR / f"{stem}.json").read_text(encoding="utf-8"))
        assert '="' in expected["stdout"]
        assert run_main(expected["argv"]) == expected


@pytest.mark.parametrize("check", [check_records_round_trip, check_quoted_fixtures])
def test_never_quoting_encoder_fails_the_records_oracles(check, monkeypatch):
    check()
    assert patch_everywhere(monkeypatch, records.encode_value, never_quoting) == ["tatek.records"]
    with pytest.raises(AssertionError):
        check()


# Direct quoting of printable ASCII without the test for '"' and '\': a value
# holding either is written unescaped, so it no longer parses back.
QUOTING_QUOTES_AND_BACKSLASHES = (
    r""" and '"' not in value and "\\" not in value:""",
    ":",
)


@pytest.mark.parametrize(
    "prop",
    [
        test_records.test_encode_value_follows_the_bare_regex,
        test_records.test_encode_value_quotes_printable_ascii_as_json_does,
    ],
    ids=lambda prop: prop.__name__,
)
def test_direct_quoting_mutant_fails_the_encoder_properties(prop, monkeypatch):
    prop()
    mutant = mutated_method(records, "encode_value", QUOTING_QUOTES_AND_BACKSLASHES)
    assert mutant('a"b') == '"a"b"'
    monkeypatch.setattr(test_records, "encode_value", mutant)
    with pytest.raises(AssertionError):
        prop()


def replay_fixture(stem: str) -> None:
    expected = json.loads((GOLDEN_DIR / f"{stem}.json").read_text(encoding="utf-8"))
    assert run_main(expected["argv"]) == expected


def fixture_checks(*stems: str) -> list:
    return [functools.partial(replay_fixture, stem) for stem in stems]


def keeping_duplicates(citations) -> tuple[str, ...]:
    """``merge_citations`` keeping every non-empty citation, seen or not."""
    return tuple(citation for citation in citations if citation)


FIXED_POINTS = orbits.fixed_points


def counting_zero_too(p: int, m: tuple[int, int, int, int]) -> int:
    """``fixed_points`` without the -1: p^k, the zero vector counted as fixed."""
    return FIXED_POINTS(p, m) + 1


def with_rotation(kind: StabiliserKind, rotation: tuple[int, int, int, int]) -> dict:
    """``modp.STABILISER_GENERATORS`` with the rotation of ``kind`` replaced."""
    table = dict(modp.STABILISER_GENERATORS)
    table[kind] = (table[kind][0], rotation)
    return table


def check_integer_stabilisers():
    for kind in StabiliserKind:
        test_orbits.test_integer_stabilisers_give_the_closed_forms(kind)


def check_fixed_point_listing():
    """The listing test, with the ``fixed_points`` the orbits module holds now."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(test_orbits, "fixed_points", orbits.fixed_points)
        test_orbits.test_fixed_point_listing_matches_count()


def clear_group_caches():
    modp.stabiliser_group.cache_clear()
    orbits._minimum_mask.cache_clear()


def check_theta_parameters():
    """``test_classes.test_theta_parameters`` on whatever ``order_p_classes``
    the ``tatek`` modules hold now."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(test_classes, "order_p_classes", classes.order_p_classes)
        test_classes.test_theta_parameters()


def closure_check(prop):
    """``prop`` of ``test_modp``, on whatever ``group_closure`` the modp module
    holds now."""

    def check():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(test_modp, "group_closure", modp.group_closure)
            prop()

    return check


CLOSURE_CHECKS = [
    closure_check(test_modp.test_closure_matches_a_breadth_first_search_on_small_groups),
    closure_check(test_modp.test_stabiliser_closures_match_a_breadth_first_search),
]


def check_rose_cover_slide_budget():
    for p in (5, 7, 11):
        test_graphs.assert_rose_covers_within_budget(p)


# Mutants of one pipeline function or table each, as (module, name, the
# replacement, the modules that hold it by name, the checks that must fail).
# The theta rotation of the generator table replaced by the rose's quarter
# turn makes the theta stabiliser the rose one, and the quotient graph's
# Betti number negative at p = 2, 5 and 7; the rose's quarter turn replaced
# by -1 makes the rose stabiliser the edge one.  Both fail the closure of the
# integer generators against the orders and the closed forms.  A
# ``merge_citations`` that keeps duplicates passes ``run_selftest``: only the
# golden fixtures catch it.  An ``order_p_classes`` without the phi class
# fails the selftest's class count at n = p + 1; one whose theta parameters
# sum to n - p + 2 lists the wrong thetas; one that refuses (5, 8) leaves the
# Table 4 cell (8, 5) unknown.  A ``fixed_points`` that
# counts the zero vector adds one to every Burnside average, which stays an
# integer (9, 6 and 5 orbits at p = 5 for 8, 5 and 4): the orbit report's
# match fails, not the integrality check.  A ``_slide_plan`` that always
# slides forward still reaches the normal form, but past the slide budget of
# a rose cover (p - 1 at p = 5 with steps (0, 2)) and off the reference's log.
# A ``loads`` that keeps the text reads every graph right; only the memory
# peak of building the graph after the parse shows it.  ``normalize`` checks
# its result by the rose-cycle shape alone, and its results always have it:
# a shape rule that takes a cycle of any step, or any number of non-loop
# orbits, shows only where ``is_canonical_form`` reads graphs off that shape.
# A closure whose product writes the two off-diagonal entries in each other's
# place, or leaves the last entry unreduced, fails the breadth-first search
# over the tests' own product.
PIPELINE_MUTANTS = {
    "closure_product_transposed": (
        modp,
        "group_closure",
        lambda: mutated_method(
            modp,
            "group_closure",
            ("(a * x + b * z) % p,\n", "(c * w + d * y) % p,\n"),
            ("(c * w + d * y) % p, (c * x", "(a * x + b * z) % p, (c * x"),
        ),
        ["tatek.modp"],
        CLOSURE_CHECKS,
    ),
    "closure_product_unreduced": (
        modp,
        "group_closure",
        lambda: mutated_method(modp, "group_closure", ("(c * x + d * z) % p)", "(c * x + d * z))")),
        ["tatek.modp"],
        CLOSURE_CHECKS,
    ),
    "shape_accepting_a_step_2_cycle": (
        graphs,
        "_has_rose_cycle_shape",
        lambda: mutated_method(
            graphs,
            "_has_rose_cycle_shape",
            ("all(rotate[u] == w or rotate[w] == u for u, w in ends)", "True"),
        ),
        ["tatek.graphs"],
        [test_graphs.assert_canonical_shapes],
    ),
    "shape_accepting_a_second_non_loop_orbit": (
        graphs,
        "_has_rose_cycle_shape",
        lambda: mutated_method(
            graphs, "_has_rose_cycle_shape", ("len(ends) == 2 * p", "len(ends) % (2 * p) == 0")
        ),
        ["tatek.graphs"],
        [test_graphs.assert_canonical_shapes],
    ),
    "loads_keeping_the_text": (
        graphs,
        "loads",
        lambda: mutated_method(graphs, "loads", ("del text", "pass")),
        ["tatek.cli", "tatek.graphs"],
        [test_graphs.test_loads_peaks_at_the_parse],
    ),
    "slides_always_forward": (
        graphs,
        "_slide_plan",
        lambda: mutated_method(graphs, "_slide_plan", ("if forward <= backward:", "if True:")),
        ["tatek.graphs"],
        [check_rose_cover_slide_budget, functools.partial(check_normalize_reference, None)],
    ),
    "fixed_points_counting_zero": (
        orbits,
        "fixed_points",
        lambda: counting_zero_too,
        ["tatek.orbits"],
        [check_fixed_point_listing, check_orbit_reports, check_selftest],
    ),
    "sixth_turn_as_quarter_turn": (
        modp,
        "STABILISER_GENERATORS",
        lambda: with_rotation(
            StabiliserKind.THETA_VERTEX, modp.STABILISER_GENERATORS[StabiliserKind.ROSE_VERTEX][1]
        ),
        ["tatek.modp"],
        [functools.partial(orbits.quotient_summary, p) for p in (2, 5, 7)]
        + [check_selftest, check_integer_stabilisers]
        + fixture_checks(
            "orbits_p_5_format_text",
            "orbits_p_7_kind_theta_list_format_records",
            "tate_p_11_n_12_format_text",
        ),
    ),
    "quarter_turn_as_minus_one": (
        modp,
        "STABILISER_GENERATORS",
        lambda: with_rotation(StabiliserKind.ROSE_VERTEX, (-1, 0, 0, -1)),
        ["tatek.modp"],
        [check_integer_stabilisers, check_orbit_reports],
    ),
    "merge_citations_keeping_duplicates": (
        series,
        "merge_citations",
        lambda: keeping_duplicates,
        ["tatek.assemble", "tatek.series"],
        fixture_checks(
            "rational_p_5_n_7_format_text",
            "rational_p_5_n_7_format_records",
            "tate_p_7_n_11_format_text",
        ),
    ),
    "order_p_classes_without_phi": (
        classes,
        "order_p_classes",
        lambda: mutated_method(classes, "order_p_classes", ("if n == p + 1:", "if False:")),
        ["tatek.assemble", "tatek.classes", "tatek.cli"],
        [check_selftest]
        + fixture_checks(
            "classes_p_11_n_12_format_text",
            "classes_p_11_n_12_format_records",
            "tate_p_5_n_6_format_text",
        ),
    ),
    "theta_total_off_by_one": (
        classes,
        "order_p_classes",
        lambda: mutated_method(
            classes, "order_p_classes", ("total = n - p + 1", "total = n - p + 2")
        ),
        ["tatek.assemble", "tatek.classes", "tatek.cli"],
        [check_theta_parameters] + fixture_checks("classes_p_11_n_12_format_records"),
    ),
    "delta_pair_out_of_range": (
        classes,
        "order_p_classes",
        lambda: mutated_method(classes, "order_p_classes", (" and (p, n) != (5, 8)", "")),
        ["tatek.assemble", "tatek.classes", "tatek.cli"],
        [check_selftest] + fixture_checks("classes_p_5_n_8_format_text"),
    ),
}


@pytest.mark.parametrize("name", sorted(PIPELINE_MUTANTS))
def test_pipeline_mutants_fail_their_oracles(name, monkeypatch):
    module, attr, make_mutant, holders, checks = PIPELINE_MUTANTS[name]
    for check in checks:
        check()
    # The stabiliser groups and the last orbit mask are cached: they are
    # dropped before the mutant runs and again once it is undone.
    try:
        with monkeypatch.context() as patch:
            patched = patch_everywhere(patch, getattr(module, attr), make_mutant())
            assert sorted(patched) == holders
            clear_group_caches()
            for check in checks:
                with pytest.raises(AssertionError):
                    check()
    finally:
        clear_group_caches()


def report_kept_on_the_class():
    """``EquivariantGraph._validity`` derived once and kept for the class:
    every graph validated after the first reads the first one's report."""
    kept = []

    def validity(g):
        if not kept:
            kept.append(graphs._axiom_report(g))
        return kept[0]

    return property(validity)


def check_validate_reference(tmp_path):
    test_validate_reference.test_validate_matches_reference_on_mutated_graphs()


def check_report_kept_on_the_graph(tmp_path):
    with pytest.MonkeyPatch.context() as patch:
        test_graphs.test_validate_keeps_its_report_on_the_graph(patch)


@pytest.mark.parametrize("check", [check_report_kept_on_the_graph, check_validate_reference])
def test_report_kept_on_the_class_fails_the_validate_oracles(check, monkeypatch, tmp_path):
    check(tmp_path)
    monkeypatch.setattr(graphs.EquivariantGraph, "_validity", report_kept_on_the_class())
    with pytest.raises(AssertionError):
        check(tmp_path)


def check_free_abelian_rank_0(tmp_path):
    try:
        test_series.test_free_abelian_of_rank_0_is_a_point()
    except ValueError as exc:
        raise AssertionError(f"rank 0 refused: {exc}") from exc


def check_registry_without_version(tmp_path):
    test_series.test_registry_document_without_version_is_version_0()


def check_registry_refusing_boolean_versions(tmp_path):
    for version in (True, False):
        try:
            test_series.test_registry_document_with_boolean_version_is_refused(version)
        except pytest.fail.Exception as exc:
            raise AssertionError(f"version {version} accepted") from exc


# Survivors of a mutation sweep over ``assemble`` and ``series``, each now
# caught, as (owner, name, replacement, the checks that must fail): the degree
# bound of a registry series in ``_part``, the part rule that ``tate_k`` applies
# to each class and ``rational_k`` to the identity's, moved to 2n or to 3n; a
# free abelian group of rank 0 refused; a registry document without a version
# read as version 1; and a JSON true or false taken for an integer version.
REGISTRY_MUTANTS = {
    "degree_bound_from_2n": (
        assemble,
        "_part",
        ("series.max_degree > 2 * n", "series.max_degree >= 2 * n"),
        [
            test_cli.assert_series_at_degree_2n_is_summed,
            test_cli.assert_identity_series_at_degree_2n_is_summed,
        ],
    ),
    "degree_bound_above_3n": (
        assemble,
        "_part",
        ("series.max_degree > 2 * n", "series.max_degree > 3 * n"),
        [
            test_cli.assert_series_above_degree_2n_is_refused,
            test_cli.assert_identity_series_above_degree_2n_is_refused,
        ],
    ),
    "free_abelian_refusing_rank_0": (
        series.FreeAbelian,
        "series",
        ("if self.rank < 0:", "if self.rank <= 0:"),
        [check_free_abelian_rank_0],
    ),
    "registry_version_defaulting_to_1": (
        series.Registry,
        "from_document",
        ('raw.get("version", 0)', 'raw.get("version", 1)'),
        [check_registry_without_version],
    ),
    "registry_version_accepting_booleans": (
        series.Registry,
        "from_document",
        ("type(version) is not int", "not isinstance(version, int)"),
        [check_registry_refusing_boolean_versions],
    ),
}


def assert_mutant_fails(owner, attr, replacement, checks, monkeypatch, tmp_path):
    for check in checks:
        check(tmp_path)
    mutant = mutated_method(owner, attr, replacement)
    if isinstance(owner, type):
        monkeypatch.setattr(owner, attr, mutant)
    else:
        assert patch_everywhere(monkeypatch, getattr(owner, attr), mutant)
    for check in checks:
        with pytest.raises(AssertionError):
            check(tmp_path)


@pytest.mark.parametrize("name", sorted(REGISTRY_MUTANTS))
def test_registry_mutants_fail_their_oracles(name, monkeypatch, tmp_path):
    assert_mutant_fails(*REGISTRY_MUTANTS[name], monkeypatch, tmp_path)


def fixture_oracles(*stems: str) -> list:
    """``fixture_checks`` as checks of ``assert_mutant_fails``, which pass ``tmp_path``."""
    return [lambda tmp_path, stem=stem: replay_fixture(stem) for stem in stems]


# Mutants of the rule that reads a result from its parts, as (owner, name,
# replacement, the fixtures that must fail).  At p = 11, n = 18 four parts are
# blocked, the rose core F7SemidirectAutF7_Z2invariants first and AutF6 last;
# at p = 7, n = 11 the Farrell-Tate part F4SemidirectAutF4_Z2invariants blocks
# before the identity's unknown OutF11; and at p = 5, n = 7 the identity's
# part, H^*(Out(F_7); Q), adds (2, 1) to the Farrell-Tate (3, 0).
SUM_MUTANTS = {
    "blocker_from_last_part": (
        assemble,
        "_sum",
        ("for part in parts:", "for part in reversed(parts):"),
        fixture_oracles("tate_p_11_n_18_format_text", "tate_p_11_n_18_format_records"),
    ),
    "identity_part_first": (
        assemble.RationalKResult,
        "_parts",
        ("(*self.tate.contributions, self.outfn)", "(self.outfn, *self.tate.contributions)"),
        fixture_oracles("rational_p_7_n_11_format_text", "rational_p_7_n_11_format_records"),
    ),
    "rational_without_identity_part": (
        assemble.RationalKResult,
        "_parts",
        ("(*self.tate.contributions, self.outfn)", "self.tate.contributions"),
        fixture_oracles("rational_p_5_n_7_format_text", "rational_p_5_n_7_format_records"),
    ),
}


@pytest.mark.parametrize("name", sorted(SUM_MUTANTS))
def test_sum_mutants_fail_their_oracles(name, monkeypatch, tmp_path):
    assert_mutant_fails(*SUM_MUTANTS[name], monkeypatch, tmp_path)


# Each prime bound moved to refuse the bound itself.  None of the bounds is
# prime, so only the error class and message show the mutant: ``PrimeTooLarge``
# and the like instead of the composite's ``ValueError``, or a refused
# ``selftest --max-p 2000``.
refused_as_composite = test_cli.assert_composite_at_the_bound_is_refused
PRIME_BOUND_MUTANTS = {
    "prime_bound_refusing_the_bound": (
        modp,
        "check_prime",
        ("if p > MAX_PRIME:", "if p >= MAX_PRIME:"),
        [functools.partial(refused_as_composite, "modp.MAX_PRIME")],
    ),
    "orbit_bound_refusing_the_bound": (
        orbits,
        "check_orbit_prime",
        ("if p > MAX_ORBIT_PRIME:", "if p >= MAX_ORBIT_PRIME:"),
        [functools.partial(refused_as_composite, "orbits.MAX_ORBIT_PRIME")],
    ),
    "example_bound_refusing_the_bound": (
        assemble,
        "_check_example_prime",
        ("if p > MAX_EXAMPLE_PRIME:", "if p >= MAX_EXAMPLE_PRIME:"),
        [functools.partial(refused_as_composite, "assemble.MAX_EXAMPLE_PRIME")],
    ),
    "selftest_bound_refusing_the_bound": (
        selftest,
        "run_selftest",
        ("if max_p > orbits.MAX_ORBIT_PRIME:", "if max_p >= orbits.MAX_ORBIT_PRIME:"),
        [test_cli.assert_selftest_accepts_the_orbit_bound],
    ),
}


@pytest.mark.parametrize("name", sorted(PRIME_BOUND_MUTANTS))
def test_prime_bound_mutants_fail_their_oracles(name, monkeypatch, tmp_path):
    assert_mutant_fails(*PRIME_BOUND_MUTANTS[name], monkeypatch, tmp_path)
