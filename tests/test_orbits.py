import pytest

from expected_tables import ROWS, expected_count, row_matrices
from tatek.modp import (
    Mat2P,
    MatrixGroup,
    StabiliserKind,
    coordinate_swap,
    group_closure,
    is_prime,
    negate_both,
    sixth_turn,
    stabiliser_group,
)
from tatek.orbits import (
    MAX_ORBIT_PRIME,
    OrbitPrimeTooLarge,
    betti_closed_form,
    burnside_orbit_count,
    closed_form_orbits,
    enumerate_orbits,
    fixed_points,
    orbit_report,
    quotient_summary,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def trivial_group(p: int) -> MatrixGroup:
    return group_closure([Mat2P.identity(p)])


def test_fixed_points_identity():
    assert fixed_points(Mat2P.identity(5)).count == 24


def test_fixed_points_swap():
    assert fixed_points(coordinate_swap(7)).count == 6


def test_fixed_points_negate_mod2():
    assert fixed_points(negate_both(2)).count == 3


def test_fixed_points_sixth_turn():
    assert fixed_points(sixth_turn(5)).count == 0
    # The same count holds for the transposed convention of this rotation.
    assert fixed_points(Mat2P(0, -1, 1, 1, 5)).count == 0


def test_fixed_point_listing_matches_count():
    for p in (2, 3, 5):
        for kind in StabiliserKind:
            for m in stabiliser_group(kind, p).elements:
                report = fixed_points(m, list_solutions=True)
                assert report.solutions is not None
                assert len(report.solutions) == report.count
                for v in report.solutions:
                    assert v != (0, 0)
                    assert m.apply(v) == v


def test_count_is_always_p_power_minus_one():
    for p in SMALL_PRIMES:
        for kind in StabiliserKind:
            for m in stabiliser_group(kind, p).elements:
                count = fixed_points(m).count
                assert count in (0, p - 1, p * p - 1)


@pytest.mark.parametrize("kind", list(StabiliserKind))
@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_published_table_rows(kind, p):
    """Per-row fixed counts match the published stabiliser tables."""
    matrices = row_matrices(kind, p)
    rows = ROWS[kind]
    assert len(matrices) == len(rows)
    for matrix, row in zip(matrices, rows):
        assert fixed_points(matrix).count == expected_count(row, p), (kind, p, matrix)
    # The row words enumerate exactly the stabiliser group (after the
    # deduplication that happens at p = 2, 3).
    assert {m.key() for m in matrices} == {
        m.key() for m in stabiliser_group(kind, p).elements
    }


def test_burnside_trivial_group():
    assert burnside_orbit_count(trivial_group(5)) == 24


def test_burnside_edge_p5():
    assert burnside_orbit_count(stabiliser_group(StabiliserKind.EDGE, 5)) == 8


def test_burnside_theta_p2():
    assert burnside_orbit_count(stabiliser_group(StabiliserKind.THETA_VERTEX, 2)) == 1


def test_enumerate_trivial_group_singletons():
    orbits = enumerate_orbits(trivial_group(3))
    assert len(orbits) == 8
    assert all(len(o) == 1 for o in orbits)


def test_enumerate_edge_p5():
    orbits = enumerate_orbits(stabiliser_group(StabiliserKind.EDGE, 5))
    assert len(orbits) == 8
    assert sum(len(o) for o in orbits) == 24


def test_enumerate_rose_p13():
    orbits = enumerate_orbits(stabiliser_group(StabiliserKind.ROSE_VERTEX, 13))
    assert len(orbits) == 27


def test_orbit_sizes_divide_group_order():
    for p in SMALL_PRIMES:
        for kind in StabiliserKind:
            group = stabiliser_group(kind, p)
            for orbit in enumerate_orbits(group):
                assert group.order % len(orbit) == 0


def reference_orbits(g: MatrixGroup) -> list[list[tuple[int, int]]]:
    """The tuple-set partition the flat-index walker replaced, frozen here."""
    seen: set[tuple[int, int]] = set()
    orbits = []
    for l in range(g.p):
        for m in range(g.p):
            v = (l, m)
            if v == (0, 0) or v in seen:
                continue
            orbit = {e.apply(v) for e in g.elements}
            seen |= orbit
            orbits.append(sorted(orbit))
    return orbits


def test_enumerate_matches_tuple_set_reference():
    for p in range(2, 98):
        if not is_prime(p):
            continue
        groups = [trivial_group(p)] + [stabiliser_group(k, p) for k in StabiliserKind]
        for group in groups:
            assert enumerate_orbits(group) == reference_orbits(group), (p, group.order)
        for kind in StabiliserKind:
            partition = enumerate_orbits(stabiliser_group(kind, p))
            report = orbit_report(kind, p, list_orbits=True)
            assert report.brute_force_count == len(partition)
            assert report.orbits == tuple(tuple(o) for o in partition)
            assert orbit_report(kind, p).brute_force_count == len(partition)


def test_partition_refuses_primes_above_the_bound():
    # Only the refusal is exercised: a partition this large is never run.
    big = 1000003
    assert big > MAX_ORBIT_PRIME >= 450 and is_prime(big)
    for kind in StabiliserKind:
        with pytest.raises(OrbitPrimeTooLarge):
            orbit_report(kind, big)
    with pytest.raises(OrbitPrimeTooLarge):
        enumerate_orbits(trivial_group(2003))


def test_orbit_report_examples():
    assert orbit_report(StabiliserKind.EDGE, 3).orbit_count == 3
    assert orbit_report(StabiliserKind.ROSE_VERTEX, 2).orbit_count == 2
    assert orbit_report(StabiliserKind.THETA_VERTEX, 11).orbit_count == 15


def test_orbit_report_triple_match():
    for p in SMALL_PRIMES:
        for kind in StabiliserKind:
            report = orbit_report(kind, p)
            assert report.match
            assert report.orbit_count == report.brute_force_count == report.closed_form
            total = sum(count for _, count in report.per_element_counts)
            assert total == report.orbit_count * len(report.per_element_counts)


def test_closed_form_special_values():
    assert [closed_form_orbits(k, 2) for k in StabiliserKind] == [2, 2, 1]
    assert [closed_form_orbits(k, 3) for k in StabiliserKind] == [3, 2, 2]


def test_quotient_summaries():
    expected = {
        11: (35, 35, 1),
        5: (9, 8, 0),
        13: (47, 48, 2),
        2: (3, 2, 0),
        3: (4, 3, 0),
    }
    for p, (vertices, edges, betti) in expected.items():
        summary = quotient_summary(p)
        assert (summary.vertex_orbits, summary.edge_orbits, summary.betti_one) == (
            vertices,
            edges,
            betti,
        ), p


def test_betti_closed_form_window():
    for p in (2, 3, 5, 7):
        assert quotient_summary(p).betti_one == 0
    for p in range(2, 98):
        if is_prime(p):
            assert quotient_summary(p).betti_one == betti_closed_form(p)
