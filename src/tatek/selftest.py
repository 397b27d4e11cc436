"""Invariant sweeps bundled as one reproducible self-check.

Each check recomputes a family of facts two independent ways (or against
frozen published values) and yields one (passed, failure message) pair per
fact; ``run_selftest`` counts them per check.  The CLI exposes this as
``tatek selftest [--max-p P]``; a correct build passes everything.
"""

from __future__ import annotations

from random import Random
from typing import Iterator

from . import assemble, classes, graphs, orbits
from .modp import GENERIC_STABILISER_ORDER, StabiliserKind, is_prime, stabiliser_group

# Published (even, odd) dimensions, used as regression expectations.
EXPECTED_TABLE4 = {
    (2, 2): (4, 0), (2, 3): (1, 0), (3, 3): (2, 0), (4, 5): (1, 0),
    (5, 5): (2, 0), (6, 5): (4, 0), (6, 7): (1, 0), (7, 5): (3, 0),
    (7, 7): (2, 0), (8, 5): (7, 0), (8, 7): (4, 0), (9, 7): (3, 0),
    (10, 7): (6, 0), (10, 11): (1, 0), (11, 11): (2, 0), (12, 11): (4, 1),
}
EXPECTED_TABLE4_BLOCKED = {(11, 7): "F4SemidirectAutF4_Z2invariants"}
EXPECTED_TABLE5 = {
    (2, 2): (5, 0), (2, 3): (2, 0), (2, 5): (1, 0), (2, 7): (1, 0),
    (3, 3): (3, 0), (3, 5): (1, 0), (3, 7): (1, 0),
    (4, 5): (3, 0), (4, 7): (2, 0),
    (5, 5): (3, 0), (5, 7): (1, 0),
    (6, 5): (6, 0), (6, 7): (3, 0),
    (7, 5): (5, 1), (7, 7): (4, 1),
}


# One (passed, failure message) pair per checked fact.
Facts = Iterator[tuple[bool, str]]


def primes_up_to(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if is_prime(p)]


def _check_stabiliser_orders(max_p: int) -> Facts:
    for p in primes_up_to(max_p):
        for kind in StabiliserKind:
            order = stabiliser_group(kind, p).order
            generic = GENERIC_STABILISER_ORDER[kind]
            if p >= 3:
                yield order == generic, f"{kind.value} at p={p}: order {order}"
            else:
                yield (
                    generic % order == 0,
                    f"{kind.value} at p={p}: order {order} does not divide {generic}",
                )


def _check_orbit_counts(max_p: int) -> Facts:
    for p in primes_up_to(max_p):
        for kind in StabiliserKind:
            report = orbits.orbit_report(kind, p)
            yield (
                report.match,
                f"{kind.value} at p={p}: burnside {report.orbit_count}, "
                f"brute {report.brute_force_count}, closed {report.closed_form}",
            )


def _check_quotient_betti(max_p: int) -> Facts:
    for p in primes_up_to(max_p):
        summary = orbits.quotient_summary(p)
        yield (
            summary.betti_one == orbits.betti_closed_form(p),
            f"p={p}: betti {summary.betti_one} != closed form {orbits.betti_closed_form(p)}",
        )


def _check_pipeline(max_p: int) -> Facts:
    for p in primes_up_to(max_p):
        if p < 5:
            continue
        result = assemble.tate_k(p, p + 1)
        betti = orbits.quotient_summary(p).betti_one
        yield result.dim_even == 4, f"p={p}: even {result.dim_even} != 4"
        yield result.dim_odd == betti, f"p={p}: odd {result.dim_odd} != betti {betti}"


def _check_weak_duality(max_p: int) -> Facts:
    for p in primes_up_to(max_p):
        if p < 5:
            continue
        ranks = [p - 1, p, p + 2] + ([p + 3] if p >= 7 else [])
        for n in ranks:
            yield assemble.tate_k(p, n).weak_duality is True, f"(p={p}, n={n}): expected duality"
        betti = orbits.quotient_summary(p).betti_one
        yield (
            assemble.tate_k(p, p + 1).weak_duality is (betti == 0),
            f"(p={p}, n={p + 1}): duality should be {betti == 0}",
        )


def _check_tables(max_p: int) -> Facts:
    for which, known, blocked in (
        (4, EXPECTED_TABLE4, EXPECTED_TABLE4_BLOCKED),
        (5, EXPECTED_TABLE5, {}),
    ):
        table = assemble.emit_table(which)
        for (n, p), (even, odd) in sorted(known.items()):
            cell = table.cell(n, p)
            got = None if cell is None else (cell.dim_even, cell.dim_odd)
            yield got == (even, odd), f"table {which} cell (n={n}, p={p}): got {got}"
        for (n, p), blocker in sorted(blocked.items()):
            cell = table.cell(n, p)
            got = None if cell is None else cell.blocker
            yield (
                got == blocker,
                f"table {which} cell (n={n}, p={p}): expected blocker {blocker}, got {got}",
            )


def _check_examples(max_p: int) -> Facts:
    """The example families at their own fixed primes; ``max_p`` is not used."""
    sl3_p2, sl3_p3 = assemble.example_sl3()
    yield (sl3_p2.dim_even, sl3_p2.dim_odd) == (4, 0), "SL_3(Z) at p=2"
    yield (sl3_p3.dim_even, sl3_p3.dim_odd) == (2, 0), "SL_3(Z) at p=3"
    for p in (5, 7, 11, 13):
        for h in (1, 2, 3):
            gl = assemble.example_gl(p, h)
            expected = h * 2 ** ((p - 5) // 2)
            yield (
                gl.dim_even == gl.dim_odd == expected and gl.euler_char == 0,
                f"GL family at p={p}, h={h}",
            )
            sp = assemble.example_sp(p, h)
            yield (
                sp.dim_even == 2 ** ((p - 1) // 2) * h and sp.dim_odd == 0,
                f"Sp family at p={p}, h-={h}",
            )
        mcg = assemble.example_mcg(p)
        yield (
            mcg.dim_even == (p + 1) * (p - 1) // 6 and mcg.dim_odd == 0,
            f"MCG family at p={p}",
        )
    for p in (3, 5, 7, 11):
        am = assemble.example_amalgam(p)
        yield (
            (am.dim_even, am.dim_odd) == (1, p - 2) and am.euler_char == 3 - p,
            f"amalgam family at p={p}",
        )


# Random valid graphs normalised and replayed per prime.
GRAPHS_PER_PRIME = 10


def _check_graphs(max_p: int) -> Facts:
    for p in (2, 3, 5):
        if p > max_p:
            continue
        rng = Random(20_000 + p)
        for index in range(GRAPHS_PER_PRIME):
            # A canonical form of rank at most 21, scrambled by inverse moves.
            k = rng.randrange(0, 20 // p + 1)
            g = graphs.scramble_graph(graphs.canonical_graph(p, k), rng)
            yield graphs.validate(g).ok, f"p={p} #{index}: generator output invalid"
            r = graphs.rank(g)
            form, moves = graphs.normalize(g)
            yield (
                form.loops_per_vertex == (r - 1) // p and form.rank == r,
                f"p={p} #{index}: normal form {form} from rank {r}",
            )
            current, ok = g, True
            for move in moves:
                current = graphs.replay(current, (move,))
                ok = graphs.validate(current).ok
                if not ok:
                    break
            yield (
                ok and graphs.is_canonical_form(current),
                f"p={p} #{index}: move log does not replay to canonical form",
            )


def _check_class_counts(max_p: int) -> Facts:
    expected = {0: 1, 1: 2, 2: 4, 3: 3, 4: 4}
    for p in primes_up_to(max_p):
        if p < 5:
            continue
        for offset, count in expected.items():
            n = p + offset - 1
            if n < 2 or n > 2 * p - 3:
                continue
            got = len(classes.order_p_classes(p, n).classes)
            yield got == count, f"(p={p}, n={n}): {got} classes, expected {count}"


# The report's checks, in report order.
CHECKS = (
    ("stabiliser group orders", _check_stabiliser_orders),
    ("orbit counts: burnside == brute force == closed form", _check_orbit_counts),
    ("quotient graph Betti numbers", _check_quotient_betti),
    ("rank p+1 assembly: even dim 4, odd dim from orbit counting", _check_pipeline),
    ("weak duality pattern across the supported ranks", _check_weak_duality),
    ("class counts over the periodic range", _check_class_counts),
    ("published table cells", _check_tables),
    ("example families", _check_examples),
    ("equivariant graph moves and normal forms", _check_graphs),
)


def run_selftest(max_p: int = 31) -> tuple[list[str], bool]:
    """Run all sweeps up to max_p; returns (report lines, all passed).

    ``max_p`` above ``orbits.MAX_ORBIT_PRIME`` is refused before any check runs.
    """
    if max_p < 2:
        raise ValueError("max_p must be at least 2")
    # The orbit sweep would reach the bound only after every smaller prime.
    if max_p > orbits.MAX_ORBIT_PRIME:
        raise orbits.OrbitPrimeTooLarge(
            f"max_p = {max_p} exceeds the orbit partition bound {orbits.MAX_ORBIT_PRIME}"
        )
    lines = []
    total_pass = 0
    total_fail = 0
    for name, check in CHECKS:
        facts = list(check(max_p))
        failures = [message for ok, message in facts if not ok]
        passed = len(facts) - len(failures)
        status = "ok" if not failures else "FAIL"
        lines.append(f"{status:4} {name}: {passed} passed, {len(failures)} failed")
        lines.extend(f"     - {failure}" for failure in failures)
        total_pass += passed
        total_fail += len(failures)
    lines.append(f"selftest total: {total_pass} passed, {total_fail} failed")
    return lines, total_fail == 0
