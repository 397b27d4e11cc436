import pytest
from hypothesis import example, given, settings

from oracles import (
    IDENTITY,
    NEGATE,
    QUARTER_TURN,
    SIXTH_TURN,
    SWAP,
    mat_apply,
    mat_mul,
    mat_power,
    reduced,
)
from tatek.modp import (
    MAX_PRIME,
    ClosureExceedsBound,
    GENERIC_STABILISER_ORDER,
    STABILISER_GENERATORS,
    PrimeTooLarge,
    StabiliserKind,
    check_prime,
    group_closure,
    is_prime,
    stabiliser_group,
)
from tatek.orbits import orbit_report
from test_orbits import small_generators

PRIMES_TO_97 = [p for p in range(2, 98) if is_prime(p)]


def test_modp_normalises_and_checks_prime():
    # The closure reduces its integer generators; the stabilisers check p.
    assert group_closure(5, [(7, 0, 0, -1)]) == group_closure(5, [(2, 0, 0, 4)])
    for kind in StabiliserKind:
        with pytest.raises(ValueError, match="modulus must be prime, got 9"):
            stabiliser_group(kind, 9)


def test_singular_matrix_rejected():
    # The tests' product refuses what the package's closure leaves to its
    # invertible generators.
    with pytest.raises(AssertionError, match="singular mod 5"):
        mat_mul(5, (1, 2, 2, 4), IDENTITY)


def test_mat_mul_identity():
    m = (2, 3, 1, 4)
    assert mat_mul(7, IDENTITY, m) == m
    assert mat_mul(7, m, IDENTITY) == m


def test_swap_is_an_involution():
    assert mat_mul(5, SWAP, SWAP) == IDENTITY


def test_order_six_example_matrix():
    # [[0,-1],[1,1]] has characteristic polynomial x^2 - x + 1: order 6.
    m = (0, 6, 1, 1)
    power = m
    for _ in range(5):
        power = mat_mul(7, power, m)
    assert power == IDENTITY
    assert mat_power(7, m, 6) == power
    assert mat_mul(7, mat_mul(7, m, m), m) != IDENTITY


def det(p: int, m: tuple) -> int:
    a, b, c, d = m
    return (a * d - b * c) % p


def test_determinant_multiplicative():
    import random

    rng = random.Random(7)
    for p in (3, 5, 13):
        mats = []
        while len(mats) < 8:
            entries = tuple(rng.randrange(p) for _ in range(4))
            if det(p, entries):
                mats.append(entries)
        for x in mats:
            for y in mats:
                assert det(p, mat_mul(p, x, y)) == det(p, x) * det(p, y) % p


def test_apply_is_the_column_action():
    assert mat_apply(5, SIXTH_TURN, (2, 3)) == (3, 1)  # (m, m - l)


def test_closure_of_identity():
    for generators in ([], [IDENTITY]):
        assert group_closure(5, generators).elements == (IDENTITY,)


def test_closure_of_edge_generators_order_four():
    group = group_closure(5, [SWAP, NEGATE])
    assert group.order == 4


def test_closure_of_theta_example_generators_order_twelve():
    group = group_closure(7, [SWAP, (0, -1, 1, 1)])
    assert group.order == 12


def reference_closure(p: int, generators, bound: int) -> tuple[tuple, ...] | None:
    """The elements of the group the generators close mod p, sorted by
    entries, by a breadth-first search over the oracle's product; None once it
    holds more than ``bound`` elements."""
    seen = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                prod = mat_mul(p, m, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        if len(seen) > bound:
            return None
        frontier = nxt
    return tuple(sorted(seen))


def closure_or_none(p: int, generators, bound: int) -> tuple[tuple, ...] | None:
    try:
        return group_closure(p, generators, bound).elements
    except ClosureExceedsBound:
        return None


@settings(max_examples=100, deadline=None)
@given(small_generators())
@example((5, [(2, 3, 1, 1)]))
@example((7, [SWAP, (1, 0, 3, 2)]))
def test_closure_matches_a_breadth_first_search_on_small_groups(drawn):
    p, generators = drawn
    assert closure_or_none(p, generators, 400) == reference_closure(p, generators, 400)


def test_stabiliser_closures_match_a_breadth_first_search():
    for p in PRIMES_TO_97:
        for kind in StabiliserKind:
            generators = STABILISER_GENERATORS[kind]
            expected = reference_closure(p, generators, 4096)
            assert closure_or_none(p, generators, 4096) == expected, (kind, p)


def test_closure_bound_enforced():
    with pytest.raises(ClosureExceedsBound):
        group_closure(97, [(1, 1, 0, 1)], bound=10)


def test_closure_idempotent():
    group = group_closure(7, [SWAP, SIXTH_TURN])
    assert group_closure(7, group.elements) == group


def test_closure_contains_inverses_and_identity():
    for kind in StabiliserKind:
        group = stabiliser_group(kind, 11)
        elements = set(group.elements)
        assert IDENTITY in elements
        for m in group.elements:
            assert any(mat_mul(11, m, y) == IDENTITY for y in group.elements)
            for y in group.elements:
                assert mat_mul(11, m, y) in elements


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
    expected = (IDENTITY, reduced(5, NEGATE), SWAP, mat_mul(5, SWAP, NEGATE))
    assert group.elements == tuple(sorted(expected))


def test_determinants_are_plus_minus_one():
    for kind in StabiliserKind:
        for p in (2, 3, 5, 7, 11, 13):
            for m in stabiliser_group(kind, p).elements:
                assert det(p, m) in (1 % p, (p - 1) % p)


def test_rotation_relations():
    for p in (2, 3, 5, 7, 13):
        minus_one = reduced(p, NEGATE)
        assert mat_power(p, QUARTER_TURN, 2) == minus_one
        assert mat_power(p, SIXTH_TURN, 3) == minus_one


def test_check_prime_refuses_moduli_above_the_bound():
    # 10**18 + 3 is prime: trial division would take about 10**9 steps.
    for p in (MAX_PRIME + 1, 10**18 + 3):
        with pytest.raises(PrimeTooLarge, match=f"p = {p} exceeds the supported bound"):
            check_prime(p)
    assert issubclass(PrimeTooLarge, ValueError)
    # The largest prime below the bound is still accepted.
    assert check_prime(99_999_999_977) == 99_999_999_977


def test_is_prime_runs_once_per_modulus():
    # An orbit report checks its prime in the orbit layer, in the stabiliser
    # closure and in the closed form; trial division runs once.
    stabiliser_group.cache_clear()
    is_prime.cache_clear()
    assert orbit_report(StabiliserKind.THETA_VERTEX, 401).match
    info = is_prime.cache_info()
    assert info.misses == 1 and info.hits >= 2
    for _ in range(2):
        with pytest.raises(ValueError):
            check_prime(9)
    assert is_prime.cache_info().misses == 2
