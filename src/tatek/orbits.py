"""Fixed points and orbits of the stabiliser actions on nonzero vectors of (Z/p)^2.

Orbit counting is done twice on purpose: once by averaging fixed-point counts
over the group (the lemma that is not Burnside's), in O(|G|), and once by
explicitly partitioning the p^2 - 1 nonzero vectors.  The partition compares
every vector with its images under each group element and keeps a p^2-byte
mask over flat indices v = l*p + m whose zeros are the orbit minima; it is set
a row at a time by slice assignment.  The stabiliser groups hold -I and have
all their entries in {0, +-1}, so only the rows below p/2 are visited, once
per distinct first row (a, +-1) and once per other non-identity element: 7
passes over (p + 1)/2 rows for the theta group of order 12.
Primes above ``MAX_ORBIT_PRIME`` are refused before anything is allocated.
The closed forms are claims that the tests check against both computations,
never the implementation itself.  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from ._value import Value
from .modp import MatrixGroup, StabiliserKind, check_prime, stabiliser_group


# The explicit partition allocates a p^2-byte mask, 4 MB at the bound, and
# keeps the last one; ``iter_orbits`` holds one decoded orbit beside it.  The
# bound keeps the masks and the O(p^2) listing small.  Counting at p = 1999
# takes a few tens of milliseconds per kind.
MAX_ORBIT_PRIME = 2000


class NonIntegralOrbitCount(ArithmeticError):
    """The Burnside average failed to be an integer: an implementation bug."""


class OrbitPrimeTooLarge(ValueError):
    """The modulus is above ``MAX_ORBIT_PRIME``, the bound of the explicit partition."""


def check_orbit_prime(p: int) -> int:
    """``check_prime`` for the orbit layer: refuse p > MAX_ORBIT_PRIME first."""
    if p > MAX_ORBIT_PRIME:
        raise OrbitPrimeTooLarge(
            f"p = {p} exceeds the orbit partition bound {MAX_ORBIT_PRIME}"
        )
    return check_prime(p)


def fixed_points(p: int, m: tuple[int, int, int, int]) -> int:
    """The number of nonzero solutions of Mv = v over Z/p, for M = (a b; c d)
    given by its entries reduced mod p: p^k - 1, where k = dim ker(M - 1) is
    2 for M = 1, 1 when M - 1 is singular and 0 otherwise.  The tests check
    it against an enumeration of the p^2 - 1 vectors."""
    a, b, c, d = m
    if m == (1, 0, 0, 1):
        k = 2
    elif ((a - 1) * (d - 1) - b * c) % p == 0:
        k = 1
    else:
        k = 0
    return p**k - 1


def burnside_orbit_count(g: MatrixGroup) -> int:
    """Number of orbits on nonzero vectors: the average fixed-point count."""
    total = sum(fixed_points(g.p, m) for m in g.elements)
    orbits, remainder = divmod(total, g.order)
    if remainder != 0:
        raise NonIntegralOrbitCount(
            f"fixed-point total {total} not divisible by group order {g.order}"
        )
    return orbits


@lru_cache(maxsize=1)
def _minimum_mask(g: MatrixGroup) -> bytearray:
    """The brute-force partition as a p^2-byte map over flat indices
    v = l*p + m, whose order is the lexicographic order of (l, m): byte v is 0
    exactly when (l, m) is nonzero and no element of the group maps it to a
    smaller index, that is, when v is the smallest member of its orbit.

    For one element (a b; c d) and one row l, the m with g(l, m) < (l, m) form
    at most two cyclic windows of the row when the coefficient that decides
    (b, or d where b = 0 and a*l = l) is 0 or +-1; those windows are set by
    slice assignment.  Any other row is tested one vector at a time, so the
    map is exact for every group; the entries of the three stabiliser groups
    all lie in {0, +-1}, so for them that loop never runs.

    Three facts of the group cut the work.  When -I is in it and p > 2, -I
    maps row l to row p - l, so rows above p/2 are all ones, set a row at a
    time from one p-byte buffer; only rows below p/2 are visited.  Each
    element's case is chosen once, the identity is skipped, and an element
    with b = 0 and a != 1 needs the second coordinate on row 0 only.  The
    window of b = +-1 depends on the first row (a, b) alone, so it is set
    once per distinct first row and only the tie byte is tested for each
    (c, d).  So the visited rows are walked once per distinct first row
    (a, +-1) and once per other non-identity element, with at most two
    slices a row: for the edge, rose and theta groups 3, 5 and 7 passes over
    (p + 1)/2 rows, where each of their 4, 8 and 12 elements walked all p
    rows before.  O(p * |G|) slices on p^2 bytes.

    The last mask is kept: ``orbits --list`` counts a group's orbits through
    :func:`orbit_report` and then lists them through :func:`iter_orbits`,
    and so builds one mask per kind.  It is the ``bytearray`` it was built
    in, one p^2 buffer with no copy; its readers only ``count`` and ``find``
    in it, and none may write to it.
    """
    p = check_orbit_prime(g.p)
    minus_one = p - 1
    rows = p
    if p > 2 and (minus_one, 0, 0, minus_one) in g.elements:
        rows = (p + 1) // 2
    mask = bytearray(p * p)
    ones = memoryview(b"\x01" * p)
    for l in range(rows, p):
        mask[l * p : l * p + p] = ones
    windows: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a, b, c, d in g.elements:
        if b == 1 or b == minus_one:
            windows.setdefault((a, b), []).append((c, d))
            continue
        if b == 0 and a != 1:
            # The first coordinate a*l is the same along the row, and not l
            # for l >= 1: the row is all ones or untouched.
            for l in range(1, rows):
                if a * l % p < l:
                    mask[l * p : l * p + p] = ones
            second = range(1)
        elif b == 0 and c == 0 and d == 1:
            continue
        else:
            second = range(rows)
        if b == 0 and d == 1:
            # The second coordinate t + m, t = c*l, is below m once it wraps.
            for l in second:
                t = c * l % p
                mask[l * p + p - t : l * p + p] = ones[:t]
        elif b == 0 and d == minus_one:
            # t - m (mod p) is below m for m in (t/2, t] and in ((t + p)/2, p).
            for l in second:
                row, t = l * p, c * l % p
                half, wrap = t // 2 + 1, (t + p) // 2 + 1
                mask[row + half : row + t + 1] = ones[: t + 1 - half]
                mask[row + wrap : row + p] = ones[: p - wrap]
        else:
            for l in second:
                row = l * p
                for m in range(p):
                    x = (a * l + b * m) % p
                    if x < l or (x == l and (c * l + d * m) % p < m):
                        mask[row + m] = 1
    for (a, b), ties in windows.items():
        # The first coordinate a*l +- m is below l on a window of l cyclically
        # consecutive m, and equals l at one m, the tie; row 0 has neither.
        for l in range(1, rows):
            row = l * p
            if b == 1:
                start, tie = -a * l % p, (1 - a) * l % p
            else:
                start, tie = ((a - 1) * l + 1) % p, (a - 1) * l % p
            end = start + l
            if end <= p:
                mask[row + start : row + end] = ones[:l]
            else:
                mask[row + start : row + p] = ones[: p - start]
                mask[row : row + end - p] = ones[: end - p]
            for c, d in ties:
                if (c * l + d * tie) % p < tie:
                    mask[row + tie] = 1
    mask[0] = 1
    return mask


def _zeros(mask: bytearray) -> Iterator[int]:
    """The smallest flat index of each orbit, ascending: the zeros of the mask."""
    v = mask.find(0)
    while v >= 0:
        yield v
        v = mask.find(0, v + 1)


def iter_orbits(g: MatrixGroup) -> Iterator[list[tuple[int, int]]]:
    """Explicit orbit partition of the nonzero vectors; the independent oracle.

    Orbits come by their lexicographically smallest element, each orbit
    sorted, so the output is deterministic.  Each is decoded from its start,
    a zero of the minimum mask, when it is asked for: O(p^2) in all, holding
    the mask and one orbit.
    """
    mask = _minimum_mask(g)
    p = g.p
    for v in _zeros(mask):
        l, m = divmod(v, p)
        flat = {(a * l + b * m) % p * p + (c * l + d * m) % p for a, b, c, d in g.elements}
        yield [divmod(w, p) for w in sorted(flat)]


def enumerate_orbits(g: MatrixGroup) -> list[list[tuple[int, int]]]:
    """The whole partition of :func:`iter_orbits` as one list."""
    return list(iter_orbits(g))


def closed_form_orbits(kind: StabiliserKind, p: int) -> int:
    """The published orbit counts; p = 2, 3 are the only special cases."""
    check_prime(p)
    if kind is StabiliserKind.EDGE:
        if p == 2:
            return 2
        return (p - 1) * (p + 3) // 4
    if kind is StabiliserKind.ROSE_VERTEX:
        if p == 2:
            return 2
        return (p - 1) * (p + 5) // 8
    if kind is StabiliserKind.THETA_VERTEX:
        if p == 2:
            return 1
        if p == 3:
            return 2
        return (p - 1) * (p + 7) // 12
    raise ValueError(f"unknown stabiliser kind: {kind!r}")


class OrbitReport(Value):
    """Burnside count, brute-force count and closed form for one stabiliser."""

    kind: StabiliserKind
    p: int
    per_element_counts: tuple[tuple[tuple[int, int, int, int], int], ...]
    orbit_count: int
    brute_force_count: int
    closed_form: int

    @property
    def match(self) -> bool:
        return self.orbit_count == self.brute_force_count == self.closed_form


def orbit_report(kind: StabiliserKind, p: int) -> OrbitReport:
    """Burnside, the brute-force partition and the closed form for one kind.

    The partition is counted as the zeros of the minimum mask, without
    decoding its (l, m) tuples; :func:`iter_orbits` lists them.
    """
    check_orbit_prime(p)
    group = stabiliser_group(kind, p)
    per_element = tuple((m, fixed_points(p, m)) for m in group.elements)
    return OrbitReport(
        kind=kind,
        p=p,
        per_element_counts=per_element,
        orbit_count=burnside_orbit_count(group),
        brute_force_count=_minimum_mask(group).count(0),
        closed_form=closed_form_orbits(kind, p),
    )


class QuotientGraphSummary(Value):
    """Orbit counts and first Betti number of the quotient of the spine tree.

    The spine is a tree and the quotient is connected, so
    betti_one = edge_orbits - vertex_orbits + 1.
    """

    p: int
    vertex_orbits: int
    edge_orbits: int
    betti_one: int


def quotient_summary(p: int) -> QuotientGraphSummary:
    """Vertex/edge orbit counts of the quotient graph and its Betti number."""
    check_prime(p)
    rose = burnside_orbit_count(stabiliser_group(StabiliserKind.ROSE_VERTEX, p))
    theta = burnside_orbit_count(stabiliser_group(StabiliserKind.THETA_VERTEX, p))
    edges = burnside_orbit_count(stabiliser_group(StabiliserKind.EDGE, p))
    vertices = rose + theta
    betti = edges - vertices + 1
    if betti < 0:
        raise AssertionError(f"negative Betti number at p={p}: {betti}")
    return QuotientGraphSummary(
        p=p, vertex_orbits=vertices, edge_orbits=edges, betti_one=betti
    )


def betti_closed_form(p: int) -> int:
    """(p-7)(p-5)/24 for p >= 5, zero for p = 2, 3: a claim kept for tests."""
    check_prime(p)
    if p in (2, 3):
        return 0
    return (p - 7) * (p - 5) // 24
