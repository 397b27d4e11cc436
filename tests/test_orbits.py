import pytest
from hypothesis import Phase, assume, example, find, given, settings, strategies as st

from expected_tables import ROWS, expected_count, row_matrices
from oracles import IDENTITY, NEGATE, SIXTH_TURN, SWAP, mat_apply, mat_power, reduced
from tatek import modp
from tatek.modp import (
    GENERIC_STABILISER_ORDER,
    ClosureExceedsBound,
    MatrixGroup,
    StabiliserKind,
    group_closure,
    is_prime,
    stabiliser_group,
)
from tatek.orbits import (
    MAX_ORBIT_PRIME,
    _minimum_mask,
    _zeros,
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
PRIMES_TO_97 = tuple(p for p in range(2, 98) if is_prime(p))


def trivial_group(p: int) -> MatrixGroup:
    return group_closure(p, [IDENTITY])


def test_fixed_points_identity():
    assert fixed_points(5, IDENTITY) == 24


def test_fixed_points_swap():
    assert fixed_points(7, SWAP) == 6


def test_fixed_points_negate_mod2():
    assert fixed_points(2, reduced(2, NEGATE)) == 3


def test_fixed_points_sixth_turn():
    assert fixed_points(5, reduced(5, SIXTH_TURN)) == 0
    # The same count holds for the transposed convention of this rotation.
    assert fixed_points(5, reduced(5, (0, -1, 1, 1))) == 0


def test_fixed_point_listing_matches_count():
    for p in (2, 3, 5):
        for kind in StabiliserKind:
            for m in stabiliser_group(kind, p).elements:
                # Every nonzero vector is tried: the oracle of the kernel count.
                nonzero = [divmod(v, p) for v in range(1, p * p)]
                solutions = [v for v in nonzero if mat_apply(p, m, v) == v]
                assert len(solutions) == fixed_points(p, m)
                for v in solutions:
                    assert v != (0, 0)
                    assert mat_apply(p, m, v) == v


def test_count_is_always_p_power_minus_one():
    for p in SMALL_PRIMES:
        for kind in StabiliserKind:
            for m in stabiliser_group(kind, p).elements:
                count = fixed_points(p, m)
                assert count in (0, p - 1, p * p - 1)


@pytest.mark.parametrize("kind", list(StabiliserKind))
@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_published_table_rows(kind, p):
    """Per-row fixed counts match the published stabiliser tables."""
    matrices = row_matrices(kind, p)
    rows = ROWS[kind]
    assert len(matrices) == len(rows)
    for matrix, row in zip(matrices, rows):
        assert fixed_points(p, matrix) == expected_count(row, p), (kind, p, matrix)
    # The row words enumerate exactly the stabiliser group (after the
    # deduplication that happens at p = 2, 3).
    assert set(matrices) == set(stabiliser_group(kind, p).elements)


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
            orbit = {mat_apply(g.p, e, v) for e in g.elements}
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


def reference_orbit_starts(g: MatrixGroup) -> list[int]:
    """The flat-index walker the minimum mask replaced, frozen here: each orbit
    is marked image by image from its smallest unseen index v = l*p + m."""
    p = g.p
    seen = bytearray(p * p)
    seen[0] = 1
    starts = []
    v = seen.find(0)
    while v >= 0:
        starts.append(v)
        l, m = divmod(v, p)
        for a, b, c, d in g.elements:
            seen[(a * l + b * m) % p * p + (c * l + d * m) % p] = 1
        v = seen.find(0, v + 1)
    return starts


def mask_starts(g: MatrixGroup) -> list[int]:
    return list(_zeros(_minimum_mask(g)))


def _order(key: tuple[int, int, int, int], p: int) -> int:
    """Multiplicative order of an invertible matrix, on raw entries."""
    a, b, c, d = key
    x, n = key, 1
    while x != (1, 0, 0, 1):
        xa, xb, xc, xd = x
        x = (
            (xa * a + xb * c) % p,
            (xa * b + xb * d) % p,
            (xc * a + xd * c) % p,
            (xc * b + xd * d) % p,
        )
        n += 1
    return n


@st.composite
def small_order_matrices(draw, p: int, shape: str) -> tuple:
    """An invertible matrix of one shape: an element of a stabiliser group,
    or one of the shape (+-1 0; c d) or with arbitrary entries, raised to a
    power that leaves an order of at most 400."""
    if shape == "stabiliser":
        kind = draw(st.sampled_from(list(StabiliserKind)))
        return draw(st.sampled_from(stabiliser_group(kind, p).elements))
    if shape == "lower":
        a = draw(st.sampled_from([1, p - 1]))
        key = (a, 0, draw(st.integers(0, p - 1)), draw(st.integers(1, p - 1)))
    else:
        key = tuple(draw(st.integers(0, p - 1)) for _ in range(4))
        assume((key[0] * key[3] - key[1] * key[2]) % p)
    n = _order(key, p)
    # Largest first: Hypothesis leans to the first choice, which would
    # otherwise be q = 1 and so the identity.
    q = draw(st.sampled_from([q for q in range(min(n, 400), 0, -1) if n % q == 0]))
    return mat_power(p, key, n // q)


@st.composite
def small_generators(draw) -> tuple[int, list[tuple]]:
    """A prime p <= 97 and one or two small-order generators mod p, each of a shape
    drawn for it or one shape for both, so that two stabiliser elements often
    close a small group with shared first rows."""
    p = draw(st.sampled_from(PRIMES_TO_97))
    shapes = st.sampled_from(["lower", "any", "stabiliser"])
    if draw(st.booleans()):
        shapes = st.just(draw(shapes))
    matrices = shapes.flatmap(lambda shape: small_order_matrices(p, shape))
    return p, draw(st.lists(matrices, min_size=1, max_size=2))


@st.composite
def small_groups(draw) -> MatrixGroup:
    """The groups of at most 400 elements that ``small_generators`` close."""
    try:
        return group_closure(*draw(small_generators()), bound=400)
    except ClosureExceedsBound:
        assume(False)


# Groups of order 2 generated by (-1 0; c 1), which hold no -I: their element
# with b = 0 and a = -1 sets the rows above p/2 whole, and no bound that -I
# would justify may skip those rows.
MINUS_ONE_ROW_GROUPS = (
    group_closure(5, [(4, 0, 2, 1)]),
    group_closure(7, [(6, 0, 3, 1)]),
)

# A group of order 16 with pairs of elements that share a first row (a, +-1),
# where for some row only the second of a pair maps the tie below itself and
# no other element does.  Random groups almost never show this: the mask's
# other elements nearly always mark such a tie anyway.
SHARED_WINDOW_GROUP = group_closure(5, [(3, 1, 3, 2), (4, 3, 2, 1)])

# The explicit examples of the random-group property, for the mutants too.
MASK_EXAMPLES = (
    group_closure(7, [(1, 0, 3, 2)]),
    group_closure(5, [(2, 3, 1, 1)]),
    *MINUS_ONE_ROW_GROUPS,
    SHARED_WINDOW_GROUP,
)


def assert_mask_matches_references(group: MatrixGroup) -> None:
    starts = reference_orbit_starts(group)
    assert mask_starts(group) == starts
    orbits = enumerate_orbits(group)
    assert orbits == reference_orbits(group)
    assert [orbit[0] for orbit in orbits] == [divmod(v, group.p) for v in starts]


@settings(max_examples=100, deadline=None)
@given(small_groups())
@example(MASK_EXAMPLES[0])
@example(MASK_EXAMPLES[1])
@example(MASK_EXAMPLES[2])
@example(MASK_EXAMPLES[3])
@example(MASK_EXAMPLES[4])
def test_mask_partition_matches_references_on_random_groups(group):
    assert_mask_matches_references(group)


def has_minus_identity(g: MatrixGroup) -> bool:
    return g.p > 2 and (g.p - 1, 0, 0, g.p - 1) in g.elements


def shares_a_window(g: MatrixGroup) -> bool:
    """Two elements with one first row (a, +-1), so one window and two ties."""
    rows = [(a, b) for a, b, _, _ in g.elements if b in (1, g.p - 1)]
    return len(set(rows)) < len(rows)


def test_explicit_mask_examples_have_their_shapes():
    for group in MINUS_ONE_ROW_GROUPS:
        assert group.order == 2 and not has_minus_identity(group)
        assert any(b == 0 and a == group.p - 1 for a, b, _, _ in group.elements)
    assert SHARED_WINDOW_GROUP.order == 16 and shares_a_window(SHARED_WINDOW_GROUP)


def test_random_groups_reach_the_row_loop():
    # The mask tests a row one vector at a time for an entry b outside
    # {0, +-1}, and for b = 0 with a = 1 and d outside {+-1}; it fills the
    # rows above p/2 at once only when -I is in the group and p > 2, and sets
    # one window for the elements that share a first row (a, +-1).  The
    # strategy draws each of these (find raises NoSuchExample otherwise).
    # Only the draw is asked for, so the example found is not shrunk.
    settings_ = settings(max_examples=2000, database=None, phases=[Phase.generate])
    find(small_groups(), has_minus_identity, settings=settings_)
    find(
        small_groups(),
        lambda g: g.p > 2
        and not has_minus_identity(g)
        and any(b == 0 and a == g.p - 1 for a, b, _, _ in g.elements),
        settings=settings_,
    )
    find(small_groups(), shares_a_window, settings=settings_)
    find(
        small_groups(),
        lambda g: any(b not in (0, 1, g.p - 1) for _, b, _, _ in g.elements),
        settings=settings_,
    )
    find(
        small_groups(),
        lambda g: any(
            b == 0 and a == 1 and d not in (1, g.p - 1) for a, b, _, d in g.elements
        ),
        settings=settings_,
    )


def test_mask_partition_at_p_2_and_3_and_for_the_trivial_group():
    for p in (2, 3):
        groups = [trivial_group(p)] + [stabiliser_group(k, p) for k in StabiliserKind]
        groups += [group_closure(p, [(1, 1, 0, 1)]), group_closure(p, [(1, 0, 1, 1)])]
        for group in groups:
            assert mask_starts(group) == reference_orbit_starts(group), (p, group.order)
            assert enumerate_orbits(group) == reference_orbits(group)
    for p in (2, 3, 5, 97):
        assert mask_starts(trivial_group(p)) == list(range(1, p * p))


def integer_group(kind: StabiliserKind) -> set[tuple]:
    """The group the kind's generators close in GL_2(Z), with no reduction;
    closing stops past 24 elements."""
    generators = modp.STABILISER_GENERATORS[kind]
    group, frontier = {IDENTITY}, {IDENTITY}
    while frontier and len(group) <= 24:
        frontier = {
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            for a, b, c, d in frontier
            for e, f, g, h in generators
        } - group
        group |= frontier
    return group


# How many elements M of each integer stabiliser have dim ker(M - 1) = 2, 1, 0
# over Q, and the orders of the groups reduced mod 2.
KERNEL_DIMENSION_COUNTS = {"edge": (1, 2, 1), "rose": (1, 4, 3), "theta": (1, 6, 5)}
ORDER_MOD_2 = {"edge": 2, "rose": 2, "theta": 6}


@pytest.mark.parametrize("kind", list(StabiliserKind), ids=lambda kind: kind.value)
def test_integer_stabilisers_give_the_closed_forms(kind):
    group = integer_group(kind)
    assert len(group) == GENERIC_STABILISER_ORDER[kind]
    assert all(set(m) <= {-1, 0, 1} for m in group)
    singular = [(a - 1) * (d - 1) - b * c == 0 for a, b, c, d in group - {IDENTITY}]
    counts = (1, singular.count(True), singular.count(False))
    assert counts == KERNEL_DIMENSION_COUNTS[kind.value]
    assert len({reduced(2, m) for m in group}) == ORDER_MOD_2[kind.value]
    for p in PRIMES_TO_97[1:]:
        reductions = {reduced(p, m) for m in group}
        assert len(reductions) == len(group), p
        assert reductions == set(stabiliser_group(kind, p).elements), p
    # Where the kernel dimensions mod p are those over Q, Burnside's average
    # is a polynomial in p: the closed form.
    for p in filter(is_prime, range(5, 2000)):
        fixed = counts[0] * (p * p - 1) + counts[1] * (p - 1)
        assert fixed == closed_form_orbits(kind, p) * len(group), p


def test_stabiliser_entries_lie_in_zero_and_plus_minus_one():
    # So the stabiliser partitions never take the one-vector-at-a-time loop.
    for p in PRIMES_TO_97:
        for kind in StabiliserKind:
            group = stabiliser_group(kind, p)
            for m in group.elements:
                assert set(m) <= {0, 1, p - 1}, (kind, p, m)


def test_orbit_report_matches_closed_form_through_the_benchmark_range():
    for p in range(2, 451):
        if not is_prime(p):
            continue
        for kind in StabiliserKind:
            report = orbit_report(kind, p)
            assert report.match, (kind, p)
            assert report.brute_force_count == closed_form_orbits(kind, p), (kind, p)


def test_orbit_report_matches_closed_form_at_the_largest_admitted_prime():
    p = 1999
    assert is_prime(p) and not any(is_prime(q) for q in range(p + 1, MAX_ORBIT_PRIME + 1))
    for kind in StabiliserKind:
        report = orbit_report(kind, p)
        assert report.match, kind
        assert report.brute_force_count == closed_form_orbits(kind, p), kind
