"""Acceptance suite: one test per criterion, printing a pass line each.

All arithmetic is exact; every comparison is equality.  Expected values are
frozen here from the published tables and closed forms; computations never
feed their own results back as expectations.
"""

from itertools import combinations_with_replacement, permutations
from random import Random
import subprocess
import sys

from expected_tables import ROWS, expected_count, row_matrices
from graph_references import reference_random_valid_graph
from oracles import isomorphic_single_orbit, random_valid_graph
from test_graphs import single_orbit_graph

import tatek.graphs as G
from tatek.assemble import (
    Unknown,
    emit_table,
    example_amalgam,
    example_gl,
    example_mcg,
    example_sl3,
    example_sp,
    tate_k,
)
from tatek.classes import OutOfRange
from tatek.graphs import (
    EdgeOrbitRef,
    Move,
    edge_orbit_refs,
    expand_orbit,
    is_canonical_form,
    normalize,
    rank,
    replay,
    slide,
    validate,
)
from tatek.modp import StabiliserKind, is_prime, stabiliser_group
from tatek.orbits import (
    burnside_orbit_count,
    closed_form_orbits,
    enumerate_orbits,
    fixed_points,
    quotient_summary,
)

PRIMES_TO_97 = [p for p in range(2, 98) if is_prime(p)]


def _pass(number: int, message: str) -> None:
    print(f"ACCEPTANCE criterion {number}: PASS - {message}")


def test_criterion_01_fixed_point_tables():
    """Tables of per-element fixed-point counts, p in {2,3,5,7,11,13}."""
    checked = 0
    for kind in StabiliserKind:
        for p in (2, 3, 5, 7, 11, 13):
            for matrix, row in zip(row_matrices(kind, p), ROWS[kind]):
                assert fixed_points(p, matrix) == expected_count(row, p), (
                    kind,
                    p,
                    matrix,
                )
                checked += 1
    _pass(1, f"{checked} per-row fixed-point counts match the published tables")


def test_criterion_02_orbit_counts_all_primes():
    """Burnside == brute force == closed form for all primes p <= 97."""
    closed = {
        StabiliserKind.EDGE: lambda p: (p - 1) * (p + 3) // 4,
        StabiliserKind.ROSE_VERTEX: lambda p: (p - 1) * (p + 5) // 8,
        StabiliserKind.THETA_VERTEX: lambda p: (p - 1) * (p + 7) // 12,
    }
    special = {2: (2, 2, 1), 3: (3, 2, 2)}
    checked = 0
    for p in PRIMES_TO_97:
        for index, kind in enumerate(StabiliserKind):
            group = stabiliser_group(kind, p)
            burnside = burnside_orbit_count(group)
            brute = len(enumerate_orbits(group))
            expected = special[p][index] if p in special else closed[kind](p)
            assert burnside == brute == expected == closed_form_orbits(kind, p), (
                kind,
                p,
            )
            checked += 1
    _pass(2, f"{checked} orbit counts agree across both computations and closed forms")


def test_criterion_03_quotient_betti_numbers():
    for p in PRIMES_TO_97:
        betti = quotient_summary(p).betti_one
        if p in (2, 3):
            assert betti == 0
        else:
            assert betti == (p - 7) * (p - 5) // 24, p
    assert quotient_summary(5).betti_one == 0
    assert quotient_summary(7).betti_one == 0
    assert quotient_summary(11).betti_one == 1
    assert quotient_summary(13).betti_one == 2
    _pass(3, f"betti numbers match (p-7)(p-5)/24 for all {len(PRIMES_TO_97)} primes")


def test_criterion_04_rank_p_plus_one_theorem():
    for p in (5, 7, 11, 13, 17, 19, 23):
        result = tate_k(p, p + 1)
        expected_odd = 0 if p < 11 else (p - 7) * (p - 5) // 24
        assert (result.dim_even, result.dim_odd) == (4, expected_odd), p
    _pass(4, "rank p+1 dimensions are (4, (p-7)(p-5)/24 or 0) for p up to 23")


TABLE4_FILLED = {
    (2, 2): (4, 0), (2, 3): (1, 0), (3, 3): (2, 0), (4, 5): (1, 0),
    (5, 5): (2, 0), (6, 5): (4, 0), (6, 7): (1, 0), (7, 5): (3, 0),
    (7, 7): (2, 0), (8, 5): (7, 0), (8, 7): (4, 0), (9, 7): (3, 0),
    (10, 7): (6, 0), (10, 11): (1, 0), (11, 11): (2, 0), (12, 11): (4, 1),
}
TABLE4_ZERO = {
    (2, 5), (2, 7), (2, 11), (3, 5), (3, 7), (3, 11), (4, 7), (4, 11),
    (5, 7), (5, 11), (6, 11), (7, 11), (8, 11), (9, 11),
}
TABLE4_BLOCKED = {(11, 7): "F4SemidirectAutF4_Z2invariants"}
TABLE4_BLANK = {
    (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3), (7, 2), (7, 3),
    (8, 2), (8, 3), (9, 2), (9, 3), (9, 5), (10, 2), (10, 3), (10, 5),
    (11, 2), (11, 3), (11, 5), (12, 2), (12, 3), (12, 5), (12, 7),
}


def test_criterion_05_table4_reproduction():
    table = emit_table(4)
    assert len(table.cells) == len(TABLE4_FILLED) + len(TABLE4_ZERO) + len(
        TABLE4_BLOCKED
    ) + len(TABLE4_BLANK)
    for (n, p), (even, odd) in TABLE4_FILLED.items():
        cell = table.cell(n, p)
        assert cell.known and (cell.dim_even, cell.dim_odd) == (even, odd), (n, p)
    for n, p in TABLE4_ZERO:
        cell = table.cell(n, p)
        assert cell.known and (cell.dim_even, cell.dim_odd) == (0, 0), (n, p)
    for (n, p), blocker in TABLE4_BLOCKED.items():
        cell = table.cell(n, p)
        assert not cell.known and cell.blocker == blocker, (n, p)
    for n, p in TABLE4_BLANK:
        assert table.cell(n, p) is None, (n, p)
    _pass(5, "all 55 cells of table 4 reproduce, including the blocked (11, 7)")


TABLE5_FILLED = {
    (2, 2): (5, 0), (2, 3): (2, 0), (2, 5): (1, 0), (2, 7): (1, 0),
    (3, 3): (3, 0), (3, 5): (1, 0), (3, 7): (1, 0),
    (4, 5): (3, 0), (4, 7): (2, 0),
    (5, 5): (3, 0), (5, 7): (1, 0),
    (6, 5): (6, 0), (6, 7): (3, 0),
    (7, 5): (5, 1), (7, 7): (4, 1),
}
TABLE5_BLANK = {
    (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3), (7, 2), (7, 3),
}


def test_criterion_06_table5_reproduction():
    table = emit_table(5)
    assert len(table.cells) == 24
    for (n, p), (even, odd) in TABLE5_FILLED.items():
        cell = table.cell(n, p)
        assert cell.known and (cell.dim_even, cell.dim_odd) == (even, odd), (n, p)
    for n, p in TABLE5_BLANK:
        assert table.cell(n, p) is None, (n, p)
    _pass(6, "all 24 cells of table 5 reproduce, including (7,5)=5/1 and (7,7)=4/1")


def test_criterion_07_example_families():
    p2, p3 = example_sl3()
    assert (p2.dim_even, p2.dim_odd) == (4, 0)
    assert (p3.dim_even, p3.dim_odd) == (2, 0)
    for p in (5, 7, 11, 13):
        for h in (1, 2, 3):
            gl = example_gl(p, h)
            expected = h * 2 ** ((p - 5) // 2)
            assert (gl.dim_even, gl.dim_odd) == (expected, expected)
            assert gl.euler_char == 0
            sp = example_sp(p, h)
            assert (sp.dim_even, sp.dim_odd) == (2 ** ((p - 1) // 2) * h, 0)
        mcg = example_mcg(p)
        assert (mcg.dim_even, mcg.dim_odd) == ((p + 1) * (p - 1) // 6, 0)
    for p in (3, 5, 7, 11):
        am = example_amalgam(p)
        assert (am.dim_even, am.dim_odd) == (1, p - 2)
        assert am.euler_char == 3 - p
    _pass(7, "sl3, gl, sp, mcg and amalgam families match their closed forms")


def _slide_via_expansion(g, s: EdgeOrbitRef, t: EdgeOrbitRef):
    """The two-step factorization of the slide: expand at tau(s) = iota(t),
    sending s's terminal half-edge and t's initial half-edge to the new
    vertex, then collapse the orbit of t."""
    meeting_vertex = g.attach[g.involution[s.half_edge]]
    expanded, _ = expand_orbit(
        g, meeting_vertex, [g.involution[s.half_edge], t.half_edge]
    )
    return replay(expanded, [Move("collapse", t.half_edge)])


def test_criterion_08_graph_property_suite():
    total_graphs = 0
    for p in (2, 3, 5, 7):
        rng, twin = Random(9_000 + p), Random(9_000 + p)
        for _ in range(200):
            g = random_valid_graph(p, 29, rng)
            assert validate(g).ok
            reference, trace = reference_random_valid_graph(p, 29, twin)
            assert reference == g
            assert rank(g) <= 29
            for before, after in zip(trace, trace[1:]):
                assert rank(after) == rank(before)
                assert validate(after).ok
            r = rank(g)
            form, moves = normalize(g)
            assert form.loops_per_vertex == (r - 1) // p
            assert form.rank == r
            assert (r - 1) % p == 0
            current = g
            for move in moves:
                current = replay(current, (move,))
                assert validate(current).ok
            assert is_canonical_form(current)
            total_graphs += 1

    # Exhaustive slide-vs-(expansion then collapse) agreement for p in {2,3}
    # over all valid single-orbit configurations with at most 4 edge orbits.
    agreements = 0
    for p in (2, 3):
        for size in range(1, 5):
            for steps in combinations_with_replacement(range(p), size):
                if all(s == 0 for s in steps):
                    continue  # disconnected
                g = single_orbit_graph(p, list(steps))
                assert validate(g).ok
                refs = edge_orbit_refs(g)
                for a, b in permutations(range(len(refs)), 2):
                    for flip_s in (False, True):
                        for flip_t in (False, True):
                            hs = refs[a].half_edge
                            if flip_s:
                                hs = g.involution[hs]
                            family = refs[b].half_edge
                            if flip_t:
                                family = g.involution[family]
                            ht = G._halfedge_of_family_at(
                                g, family, g.attach[g.involution[hs]]
                            )
                            direct = slide(g, EdgeOrbitRef(hs), EdgeOrbitRef(ht))
                            composite = _slide_via_expansion(
                                g, EdgeOrbitRef(hs), EdgeOrbitRef(ht)
                            )
                            assert validate(direct).ok
                            assert validate(composite).ok
                            assert isomorphic_single_orbit(direct, composite)
                            agreements += 1
    _pass(
        8,
        f"{total_graphs} randomized graphs normalize and replay; "
        f"{agreements} exhaustive slide factorizations agree",
    )


def test_criterion_09_pipeline_coupling():
    for p in PRIMES_TO_97:
        if p < 5:
            continue
        result = tate_k(p, p + 1)
        assert result.dim_odd == quotient_summary(p).betti_one, p
        assert result.dim_even == 4, p
    _pass(9, "odd dimension at rank p+1 equals the quotient betti number, p <= 97")


CLI_COMMANDS = [
    ["orbits", "--p", "5"],
    ["orbits", "--p", "7", "--kind", "theta", "--list"],
    ["classes", "--p", "11", "--n", "12"],
    ["tate", "--p", "11", "--n", "12"],
    ["rational", "--p", "5", "--n", "7"],
    ["table", "--which", "4"],
    ["table", "--which", "5"],
    ["normalize", "--demo", "scrambled_p5_k2_seed3"],
    ["example", "--name", "amalgam", "--p", "7"],
    ["selftest", "--max-p", "13"],
]


def _run(args):
    import os
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}:{existing}"
    return subprocess.run(
        [sys.executable, "-m", "tatek", *args], capture_output=True, text=True, env=env
    )


def test_criterion_10_cli_determinism():
    selftest = _run(["selftest", "--max-p", "31"])
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr
    for args in CLI_COMMANDS:
        for fmt in ("text", "records"):
            first = _run([*args, "--format", fmt])
            second = _run([*args, "--format", fmt])
            assert first.returncode == second.returncode
            assert first.returncode == 0, (args, first.stderr)
            assert first.stdout == second.stdout, args
    _pass(10, "selftest exits 0 and repeated invocations are byte-identical")
