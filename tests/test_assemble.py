import time

import pytest

from tatek.assemble import (
    NonIntegral,
    Unknown,
    builtin_class_number,
    builtin_relative_class_number,
    emit_table,
    example_amalgam,
    example_gl,
    example_mcg,
    example_sl3,
    example_sp,
    rational_k,
    tate_k,
)
from tatek.classes import OutOfRange
from tatek.orbits import quotient_summary


def dims(result):
    return (result.dim_even, result.dim_odd)


def test_tate_examples():
    assert dims(tate_k(11, 12)) == (4, 1)
    assert dims(tate_k(5, 8)) == (7, 0)
    assert dims(tate_k(7, 6)) == (1, 0)
    assert dims(tate_k(3, 2)) == (1, 0)


def test_tate_unknown_cell():
    result = tate_k(7, 11)
    assert isinstance(result.dim_even, Unknown)
    assert isinstance(result.dim_odd, Unknown)
    assert result.dim_even.blocker == "F4SemidirectAutF4_Z2invariants"
    assert isinstance(result.weak_duality, Unknown)
    assert isinstance(result.euler_char, Unknown)


def test_tate_out_of_range_is_an_error_not_unknown():
    with pytest.raises(OutOfRange):
        tate_k(5, 9)


def seconds(p: int, n: int) -> float:
    start = time.perf_counter()
    tate_k(p, n)
    return time.perf_counter() - start


def test_tate_k_grows_linearly_in_its_classes():
    # From (5003, 10003) to (20011, 40019) the class count grows fourfold
    # (2,502 to 10,006) and so do the distinct citations.  Both sizes run in
    # one process, so host drift cancels; a quadratic merge of citations
    # took about 11 times as long, a linear one takes about 4.3 times.
    small = min(seconds(5003, 10003) for _ in range(3))
    assert seconds(20011, 40019) / small < 7


def blocked_parts(parts) -> list[str]:
    return [c.even.blocker for c in parts if isinstance(c.even, Unknown)]


def test_the_first_blocked_part_in_reading_order_blocks_the_result():
    # Class order: at (11, 16) the rose core comes before AutF6.
    result = tate_k(11, 16)
    assert blocked_parts(result.contributions) == ["F5SemidirectAutF5_Z2invariants", "AutF6"]
    assert result.blocker == "F5SemidirectAutF5_Z2invariants"
    assert result.dim_even == result.dim_odd == Unknown("F5SemidirectAutF5_Z2invariants")
    assert not result.known
    # The classes come before the identity's part, OutF11 here.
    result = rational_k(7, 11)
    assert result.outfn.even == Unknown("OutF11")
    assert result.blocker == result.tate.blocker == "F4SemidirectAutF4_Z2invariants"
    # Known classes, unknown identity: the identity's part blocks.
    result = rational_k(7, 8)
    assert result.tate.known and result.tate.blocker is None
    assert result.blocker == "OutF8"
    assert result.weak_duality == result.euler_char == Unknown("OutF8")


def test_contributions_itemized_phi_removal():
    for p in (5, 7, 11, 13):
        rest = [c for c in tate_k(p, p + 1).contributions if c.label != "phi"]
        assert (sum(c.even for c in rest), sum(c.odd for c in rest)) == (3, 0)


def test_rational_examples():
    assert dims(rational_k(5, 7)) == (5, 1)
    assert dims(rational_k(7, 4)) == (2, 0)
    assert dims(rational_k(5, 6)) == (6, 0)
    assert dims(rational_k(2, 2)) == (5, 0)


def test_rational_unknown_propagation():
    result = rational_k(11, 12)
    # The Tate part is known but H^*(Out(F_12); Q) is not.
    assert (result.tate.dim_even, result.tate.dim_odd) == (4, 1)
    assert isinstance(result.dim_even, Unknown)
    assert result.dim_even.blocker == "OutF12"


def test_weak_duality_examples():
    assert tate_k(5, 6).weak_duality is True
    assert tate_k(13, 14).weak_duality is False
    assert tate_k(7, 10).weak_duality is True


def test_weak_duality_pattern():
    for p in (5, 7, 11, 13, 17, 19, 23):
        for n in (p - 1, p, p + 2):
            assert tate_k(p, n).weak_duality is True, (p, n)
        if p >= 7:
            assert tate_k(p, p + 3).weak_duality is True
        assert tate_k(p, p + 1).weak_duality is (p in (5, 7))


def test_thm_even_dim_four_at_rank_p_plus_one():
    for p in (5, 7, 11, 13, 17, 19, 23):
        result = tate_k(p, p + 1)
        assert result.dim_even == 4
        assert result.dim_odd == quotient_summary(p).betti_one


def test_sl3():
    p2, p3 = example_sl3()
    assert dims(p2) == (4, 0)
    assert dims(p3) == (2, 0)
    assert p2.weak_duality is True and p3.weak_duality is True


def test_gl_family():
    for p, h in ((5, 1), (7, 1), (11, 2), (13, 3)):
        result = example_gl(p, h)
        expected = h * 2 ** ((p - 5) // 2)
        assert dims(result) == (expected, expected)
        assert result.euler_char == 0
        assert result.weak_duality is False


def test_sp_family():
    assert dims(example_sp(5, 1)) == (4, 0)
    assert dims(example_sp(7, 1)) == (8, 0)
    assert example_sp(11, 2).dim_even == 2 ** 5 * 2
    assert example_sp(7, 1).weak_duality is True


def test_mcg_family():
    assert example_mcg(5).dim_even == 4
    assert example_mcg(7).dim_even == 8
    assert example_mcg(11).dim_even == 20
    assert example_mcg(13).dim_even == 28
    assert example_mcg(11).weak_duality is True


def test_amalgam_family():
    assert dims(example_amalgam(5)) == (1, 3)
    assert dims(example_amalgam(3)) == (1, 1)
    assert example_amalgam(3).euler_char == 0
    assert example_amalgam(11).euler_char == -8


def test_family_input_validation():
    with pytest.raises(ValueError):
        example_gl(3)
    with pytest.raises(ValueError):
        example_sp(4)
    with pytest.raises(ValueError):
        example_amalgam(2)
    with pytest.raises(ValueError):
        example_gl(29)  # not in the bundled table, must be supplied
    with pytest.raises(ValueError):
        example_gl(5, 0)


def test_builtin_class_number_table():
    for p in (3, 5, 7, 11, 13, 17, 19):
        assert builtin_class_number(p) == 1
        assert builtin_relative_class_number(p) == 1
    assert builtin_class_number(23) == 3
    assert builtin_relative_class_number(23) == 3
    assert builtin_class_number(29) is None


def test_class_number_five_by_minkowski_bound():
    """Independent check that h = 1 for Q(zeta_5) and for Q(sqrt 5).

    Every ideal class contains an integral ideal of norm at most the
    Minkowski bound M = (n!/n^n) (4/pi)^{r_2} sqrt(|disc|); if M < 2 the
    ideal has norm 1 and the class group is trivial.

    Q(zeta_5): n = 4, r_2 = 2, disc = 125.  M < 2 is equivalent (after
    clearing denominators and squaring) to 1125 * 10^20 < 16 * 314159^4,
    using the rational lower bound pi > 3.14159.
    """
    assert 1125 * 10 ** 20 < 16 * 314159 ** 4
    # Q(sqrt 5): n = 2, r_2 = 0, disc = 5: M = sqrt(5)/2 < 2 iff 5 < 16.
    assert 5 < 16
    # Hence h_5 = 1, h(Q(sqrt 5)) = 1, and the relative number is 1/1.
    assert builtin_class_number(5) == 1
    assert builtin_relative_class_number(5) == 1


def test_mcg_divisibility_guard():
    # (p+1)(p-1) = p^2 - 1 is divisible by 24 for every prime p >= 5,
    # so the guard can only fire on a bad input path.
    for p in (5, 7, 11, 13, 17, 19, 23, 29):
        assert (p * p - 1) % 6 == 0


def test_table4_spot_cells():
    table = emit_table(4)
    assert dims(table.cell(8, 7)) == (4, 0)
    assert dims(table.cell(12, 11)) == (4, 1)
    blocked = table.cell(11, 7)
    assert not blocked.known
    assert blocked.blocker == "F4SemidirectAutF4_Z2invariants"
    assert table.cell(12, 5) is None
    assert table.cell(8, 7) == tate_k(7, 8)
    with pytest.raises(KeyError):
        table.cell(13, 2)


def test_table5_spot_cells():
    table = emit_table(5)
    assert dims(table.cell(2, 2)) == (5, 0)
    assert dims(table.cell(7, 5)) == (5, 1)
    assert dims(table.cell(7, 7)) == (4, 1)
    assert table.cell(7, 5) == rational_k(5, 7)


def test_emit_table_rejects_other_numbers():
    with pytest.raises(ValueError):
        emit_table(6)


def test_mcg_nonintegral_is_unreachable_for_valid_primes():
    with pytest.raises(ValueError):
        example_mcg(4)
    assert NonIntegral is not None
