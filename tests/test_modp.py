import pytest
from hypothesis import example, given, settings

from oracles import identity, mat_apply, mat_mul, mat_power
from tatek.modp import (
    MAX_PRIME,
    ClosureExceedsBound,
    GENERIC_STABILISER_ORDER,
    Mat2P,
    ModulusMismatch,
    PrimeTooLarge,
    StabiliserKind,
    check_prime,
    coordinate_swap,
    group_closure,
    is_prime,
    negate_both,
    quarter_turn,
    sixth_turn,
    stabiliser_generators,
    stabiliser_group,
)
from test_orbits import small_generators

PRIMES_TO_97 = [p for p in range(2, 98) if is_prime(p)]


def test_modp_normalises_and_checks_prime():
    assert Mat2P(7, 0, 0, -1, 5).key() == (2, 0, 0, 4)
    with pytest.raises(ValueError):
        Mat2P(1, 0, 0, 1, 9)


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        Mat2P(1, 2, 2, 4, 5)


def test_mat_mul_identity():
    m = Mat2P(2, 3, 1, 4, 7)
    assert mat_mul(identity(7), m) == m
    assert mat_mul(m, identity(7)) == m


def test_swap_is_an_involution():
    swap = Mat2P(0, 1, 1, 0, 5)
    assert mat_mul(swap, swap) == identity(5)


def test_order_six_example_matrix():
    # [[0,-1],[1,1]] has characteristic polynomial x^2 - x + 1: order 6.
    m = Mat2P(0, -1, 1, 1, 7)
    power = m
    for _ in range(5):
        power = mat_mul(power, m)
    assert power == identity(7)
    assert mat_power(m, 6) == power
    assert mat_mul(mat_mul(m, m), m).key() != (1, 0, 0, 1)


def test_closure_refuses_mixed_moduli():
    with pytest.raises(ModulusMismatch, match="moduli differ: 5 vs 7"):
        group_closure([coordinate_swap(5), coordinate_swap(7)])


def test_determinant_multiplicative():
    import random

    rng = random.Random(7)
    for p in (3, 5, 13):
        mats = []
        while len(mats) < 8:
            entries = [rng.randrange(p) for _ in range(4)]
            if (entries[0] * entries[3] - entries[1] * entries[2]) % p:
                mats.append(Mat2P(*entries, p))
        for x in mats:
            for y in mats:
                assert mat_mul(x, y).det_value == x.det_value * y.det_value % p


def test_apply_is_the_column_action():
    m = Mat2P(0, 1, -1, 1, 5)
    assert mat_apply(m, (2, 3)) == (3, 1)  # (m, m - l)


def test_closure_of_identity():
    group = group_closure([identity(5)])
    assert group.order == 1


def test_closure_of_edge_generators_order_four():
    group = group_closure([coordinate_swap(5), negate_both(5)])
    assert group.order == 4


def test_closure_of_theta_example_generators_order_twelve():
    group = group_closure([coordinate_swap(7), Mat2P(0, -1, 1, 1, 7)])
    assert group.order == 12


def reference_closure(generators, bound: int) -> tuple[Mat2P, ...] | None:
    """The elements of the group the generators close, sorted by entries, by
    a breadth-first search over the oracle's product; None once it holds more
    than ``bound`` elements."""
    one = identity(generators[0].p)
    seen = {one.key(): one}
    frontier = [one]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                prod = mat_mul(m, g)
                if prod.key() not in seen:
                    seen[prod.key()] = prod
                    nxt.append(prod)
        if len(seen) > bound:
            return None
        frontier = nxt
    return tuple(seen[key] for key in sorted(seen))


def closure_or_none(generators, bound: int) -> tuple[Mat2P, ...] | None:
    try:
        return group_closure(generators, bound).elements
    except ClosureExceedsBound:
        return None


@settings(max_examples=100, deadline=None)
@given(small_generators())
@example([Mat2P(2, 3, 1, 1, 5)])
@example([coordinate_swap(7), Mat2P(1, 0, 3, 2, 7)])
def test_closure_matches_a_breadth_first_search_on_small_groups(generators):
    assert closure_or_none(generators, 400) == reference_closure(generators, 400)


def test_stabiliser_closures_match_a_breadth_first_search():
    for p in PRIMES_TO_97:
        for kind in StabiliserKind:
            generators = stabiliser_generators(kind, p)
            expected = reference_closure(generators, 4096)
            assert closure_or_none(generators, 4096) == expected, (kind, p)


def test_closure_bound_enforced():
    with pytest.raises(ClosureExceedsBound):
        group_closure([Mat2P(1, 1, 0, 1, 97)], bound=10)


def test_closure_idempotent():
    group = group_closure([coordinate_swap(7), sixth_turn(7)])
    again = group_closure(group.elements)
    assert {m.key() for m in again.elements} == {m.key() for m in group.elements}


def test_closure_contains_inverses_and_identity():
    for kind in StabiliserKind:
        group = stabiliser_group(kind, 11)
        keys = {m.key() for m in group.elements}
        assert identity(11).key() in keys
        for m in group.elements:
            assert any(mat_mul(m, y).key() == (1, 0, 0, 1) for y in group.elements)
            for y in group.elements:
                assert mat_mul(m, y).key() in keys


@pytest.mark.parametrize("kind", list(StabiliserKind))
def test_stabiliser_orders_generic(kind):
    for p in PRIMES_TO_97:
        order = stabiliser_group(kind, p).order
        if p >= 3:
            assert order == GENERIC_STABILISER_ORDER[kind], (kind, p)
        else:
            assert GENERIC_STABILISER_ORDER[kind] % order == 0, (kind, p)


def test_stabiliser_orders_at_small_primes():
    # Matrix coincidences at p = 2, 3 are handled purely by deduplication.
    assert stabiliser_group(StabiliserKind.EDGE, 2).order == 2
    assert stabiliser_group(StabiliserKind.EDGE, 3).order == 4
    assert stabiliser_group(StabiliserKind.ROSE_VERTEX, 2).order == 2
    assert stabiliser_group(StabiliserKind.ROSE_VERTEX, 3).order == 8
    assert stabiliser_group(StabiliserKind.THETA_VERTEX, 2).order == 6
    assert stabiliser_group(StabiliserKind.THETA_VERTEX, 3).order == 12


def test_edge_group_element_list_at_p5():
    group = stabiliser_group(StabiliserKind.EDGE, 5)
    expected = {
        identity(5).key(),
        negate_both(5).key(),
        coordinate_swap(5).key(),
        mat_mul(coordinate_swap(5), negate_both(5)).key(),
    }
    assert {m.key() for m in group.elements} == expected


def test_determinants_are_plus_minus_one():
    for kind in StabiliserKind:
        for p in (2, 3, 5, 7, 11, 13):
            for m in stabiliser_group(kind, p).elements:
                assert m.det_value in (1 % p, (p - 1) % p)


def test_rotation_relations():
    for p in (2, 3, 5, 7, 13):
        assert mat_mul(quarter_turn(p), quarter_turn(p)) == negate_both(p)
        assert mat_mul(mat_mul(sixth_turn(p), sixth_turn(p)), sixth_turn(p)) == negate_both(p)


def test_check_prime_refuses_moduli_above_the_bound():
    # 10**18 + 3 is prime: trial division would take about 10**9 steps.
    for p in (MAX_PRIME + 1, 10**18 + 3):
        with pytest.raises(PrimeTooLarge, match=f"p = {p} exceeds the supported bound"):
            check_prime(p)
    assert issubclass(PrimeTooLarge, ValueError)
    # The largest prime below the bound is still accepted.
    assert check_prime(99_999_999_977) == 99_999_999_977


def test_is_prime_runs_once_per_modulus():
    is_prime.cache_clear()
    group = group_closure(stabiliser_generators(StabiliserKind.THETA_VERTEX, 401))
    assert len(group.elements) == 12
    info = is_prime.cache_info()
    assert info.misses == 1 and info.hits > 12
    with pytest.raises(ValueError):
        Mat2P(1, 0, 0, 1, 9)
    with pytest.raises(ValueError):
        Mat2P(1, 0, 0, 1, 9)
