"""Class enumeration tests, including the amalgam fusion oracle for (2, 2).

The (2, 2) class count is re-derived here from integer matrices: finite-order
elements of an amalgam of finite groups are conjugate into a vertex group,
and two vertex-group classes fuse exactly when they share an edge-group
element (transitively).  Applied to Out(F_2) = GL_2(Z) = D_4 *_{D_2} D_6.
"""

from itertools import product

import pytest

from tatek.classes import (
    AMALGAM,
    OutOfRange,
    centraliser_of,
    order_p_classes,
)
from tatek.modp import is_prime
from tatek.orbits import quotient_summary
from tatek.series import UnknownCohomology, even_odd_totals, series_of


def labels(class_list):
    return [c.label for c in class_list.classes]


def theta_parameters(c):
    """(s, t) of a class labelled ``theta(s,t)``."""
    s, t = c.label.removeprefix("theta(").removesuffix(")").split(",")
    return int(s), int(t)


def test_rank_below_torsion_bound_is_empty_and_complete():
    for p, n in ((5, 2), (5, 3), (7, 4), (11, 8)):
        class_list = order_p_classes(p, n)
        assert class_list.classes == ()


def test_class_list_examples():
    assert labels(order_p_classes(5, 4)) == ["theta(0,0)"]
    assert labels(order_p_classes(11, 12)) == [
        "rose(11)",
        "theta(0,2)",
        "theta(1,1)",
        "phi",
    ]
    assert labels(order_p_classes(7, 9)) == ["rose(7)", "theta(0,3)", "theta(1,2)"]
    assert labels(order_p_classes(5, 8)) == [
        "rose(5)",
        "theta(0,4)",
        "theta(1,3)",
        "theta(2,2)",
        "delta",
    ]


def test_class_counts_in_periodic_range():
    expected_by_offset = {-1: 1, 0: 2, 1: 4, 2: 3, 3: 4}
    for p in (5, 7, 11, 13, 17, 19, 23):
        for offset, expected in expected_by_offset.items():
            n = p + offset
            if n > 2 * p - 3:
                continue
            assert len(order_p_classes(p, n).classes) == expected, (p, n)


def test_theta_parameters():
    for p in (5, 7, 11, 13):
        for n in range(p - 1, 2 * p - 2):
            for c in order_p_classes(p, n).classes:
                if c.kind == "theta":
                    s, t = theta_parameters(c)
                    assert s + t == n - p + 1
                    assert 0 <= s <= t


def test_theta_aut_level_note_only_when_asymmetric():
    for c in order_p_classes(11, 12).classes:
        if c.kind == "theta":
            s, t = theta_parameters(c)
            assert bool(c.aut_level_note) == (s != t)


def test_out_of_range():
    with pytest.raises(OutOfRange):
        order_p_classes(5, 9)
    with pytest.raises(OutOfRange):
        order_p_classes(2, 3)
    with pytest.raises(OutOfRange):
        order_p_classes(3, 4)
    with pytest.raises(OutOfRange):
        order_p_classes(5, 1)


def test_centraliser_theta11_is_acyclic():
    (c,) = [c for c in order_p_classes(5, 6).classes if c.label == "theta(1,1)"]
    assert dict(series_of(centraliser_of(c)).pairs) == {0: 1}


def test_centraliser_phi_from_orbit_counts():
    (c,) = [c for c in order_p_classes(13, 14).classes if c.kind == "phi"]
    assert dict(series_of(centraliser_of(c)).pairs) == {0: 1, 1: 2}


def test_centraliser_rose_hits_unknown_at_core_rank_four():
    (c,) = [c for c in order_p_classes(7, 11).classes if c.kind == "rose"]
    with pytest.raises(UnknownCohomology) as info:
        series_of(centraliser_of(c))
    assert info.value.name == "F4SemidirectAutF4_Z2invariants"


def test_only_phi_contributes_odd_dimensions_for_large_p():
    for p in (11, 13, 17):
        for c in order_p_classes(p, p + 1).classes:
            even, odd = even_odd_totals(series_of(centraliser_of(c)))
            if c.kind == "phi":
                assert odd == quotient_summary(p).betti_one > 0
            else:
                assert odd == 0


def test_rose_theta_delta_have_even_cohomology_in_range():
    for p in (5, 7, 11, 13):
        for n in range(p - 1, min(p + 3, 2 * p - 3) + 1):
            for c in order_p_classes(p, n).classes:
                if c.kind == "phi":
                    continue
                try:
                    _, odd = even_odd_totals(series_of(centraliser_of(c)))
                except UnknownCohomology:
                    continue
                assert odd == 0, (p, n, c.label)
    for c in order_p_classes(5, 8).classes:
        _, odd = even_odd_totals(series_of(centraliser_of(c)))
        assert odd == 0


def test_special_case_2_2_is_four_acyclic_classes():
    class_list = order_p_classes(2, 2)
    assert len(class_list.classes) == 4
    for c in class_list.classes:
        assert c.kind == AMALGAM
        assert dict(series_of(centraliser_of(c)).pairs) == {0: 1}


# ---------------------------------------------------------------------------
# Amalgam fusion oracle over the integers


def imat_mul(a, b):
    return (
        (
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ),
        (
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ),
    )


IDENTITY = ((1, 0), (0, 1))


def iclosure(generators):
    seen = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        new = []
        for m in frontier:
            for g in generators:
                prod = imat_mul(m, g)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return seen


def iorder(m):
    k, x = 1, m
    while x != IDENTITY:
        x = imat_mul(x, m)
        k += 1
        if k > 24:
            raise AssertionError("unexpected infinite order")
    return k


def iinverse(m, group):
    for x in group:
        if imat_mul(m, x) == IDENTITY:
            return x
    raise AssertionError("no inverse found")


def conjugacy_classes(group):
    classes = []
    seen = set()
    for m in sorted(group):
        if m in seen:
            continue
        orbit = {imat_mul(imat_mul(x, m), iinverse(x, group)) for x in group}
        seen |= orbit
        classes.append(frozenset(orbit))
    return classes


def fused_class_count(prime_power_of):
    """Classes of elements of the given prime-power orders in D_4 *_{D_2} D_6.

    Vertex groups are realised inside GL_2(Z):  D_4 = <quarter turn, axis
    reflection>, D_6 = <sixth turn, swap>; the edge group is their
    intersection.  Finite-order elements of the amalgam are conjugate into a
    vertex group, and vertex classes are identified when connected through
    edge-group elements.
    """
    d4 = iclosure([((0, -1), (1, 0)), ((1, 0), (0, -1))])
    d6 = iclosure([((0, -1), (1, 1)), ((0, 1), (1, 0))])
    assert len(d4) == 8 and len(d6) == 12
    edge = d4 & d6
    assert len(edge) == 4
    assert all(m == IDENTITY or iorder(m) == 2 for m in edge)

    keep = lambda m: m != IDENTITY and prime_power_of(iorder(m))
    classes = []
    for tag, group in (("d4", d4), ("d6", d6)):
        for cls in conjugacy_classes(group):
            if keep(next(iter(cls))):
                classes.append((tag, cls))
    parent = list(range(len(classes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for m in edge:
        if not keep(m):
            continue
        touching = [i for i, (_, cls) in enumerate(classes) if m in cls]
        for i in touching[1:]:
            union(touching[0], i)
    return len({find(i) for i in range(len(classes))})


def test_amalgam_fusion_count_matches_curated_lists():
    is_two_power = lambda k: k > 1 and k & (k - 1) == 0
    assert fused_class_count(is_two_power) == len(order_p_classes(2, 2).classes)
    is_three_power = lambda k: k in (3, 9)
    assert fused_class_count(is_three_power) == len(order_p_classes(3, 2).classes)


def test_citations_present():
    for p, n in ((5, 4), (11, 12), (5, 8), (2, 2)):
        for c in order_p_classes(p, n).classes:
            assert c.citation.strip()
