"""Exact arithmetic over Z/p: invertible 2x2 matrices and small matrix groups.

Everything here is an immutable value computed with plain Python integers, so
results are exact and safe to share between threads.  The three dihedral
stabiliser groups at the bottom are the fixed ingredients of the orbit counts
in :mod:`tatek.orbits`.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable

from ._value import Value


class ModulusMismatch(ValueError):
    """Raised when combining values that live over different primes."""


class ClosureExceedsBound(RuntimeError):
    """Raised when a multiplicative closure grows past the caller's bound."""


MAX_PRIME = 10**11
"""The largest modulus :func:`check_prime` accepts.  Trial division up to its
square root (about 316,000 steps) takes about 0.06 s on a 2-vCPU Xeon with
Python 3.11, and every computation here needs a far smaller p (the orbit
partition stops at 2000)."""


class PrimeTooLarge(ValueError):
    """The modulus is above ``MAX_PRIME``, past which trial division is too slow."""


@lru_cache(maxsize=1024)
def is_prime(p: int) -> bool:
    """Trial-division primality check; inputs here are small and repeat, so
    each is tested once (``Mat2P`` checks its modulus on every matrix)."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if p > MAX_PRIME:
        raise PrimeTooLarge(f"p = {p} exceeds the supported bound {MAX_PRIME}")
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    return p


class Mat2P(Value):
    """An invertible 2x2 matrix over Z/p, stored row-major as (a, b, c, d)."""

    a: int
    b: int
    c: int
    d: int
    p: int

    def __post_init__(self) -> None:
        check_prime(self.p)
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, getattr(self, name) % self.p)
        if self.det_value == 0:
            raise ValueError(
                f"matrix {((self.a, self.b), (self.c, self.d))} is singular mod {self.p}"
            )

    @property
    def det_value(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.p

    def key(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


class MatrixGroup(Value):
    """A finite matrix group, given by its full element list.

    ``elements`` always contains the identity, is deduplicated, closed under
    products (hence under inverses, being finite), and is sorted by entry
    tuples so that iteration order is deterministic.
    """

    elements: tuple[Mat2P, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def p(self) -> int:
        return self.elements[0].p


def group_closure(generators: Iterable[Mat2P], bound: int = 4096) -> MatrixGroup:
    """Smallest multiplicatively closed set containing the generators and 1.

    Plain breadth-first closure on entry quadruples (a, b, c, d) reduced mod
    p; each element becomes a checked ``Mat2P`` once, at the end.  ``bound``
    caps the element count so a typo in a generator cannot send the
    enumeration off to all of GL_2.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator to fix the modulus")
    p = gens[0].p
    for g in gens:
        if g.p != p:
            raise ModulusMismatch(f"moduli differ: {p} vs {g.p}")
    keys = [g.key() for g in gens]
    seen = {(1, 0, 0, 1)}
    frontier = [(1, 0, 0, 1)]
    while frontier:
        nxt = []
        for a, b, c, d in frontier:
            for w, x, y, z in keys:
                prod = ((a * w + b * y) % p, (a * x + b * z) % p,
                        (c * w + d * y) % p, (c * x + d * z) % p)
                if prod not in seen:
                    if len(seen) >= bound:
                        raise ClosureExceedsBound(f"closure exceeded bound {bound} (modulus {p})")
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return MatrixGroup(tuple(Mat2P(*key, p) for key in sorted(seen)))


class StabiliserKind(Enum):
    """The three stabiliser types of the reduced spine action of Out(F_2)."""

    EDGE = "edge"
    ROSE_VERTEX = "rose"
    THETA_VERTEX = "theta"


# Generic orders of the three stabilisers, reached from p = 3 on.  At p = 2
# some of the defining matrices coincide and deduplication shrinks the groups
# to orders 2, 2 and 6, which divide the generic values.
GENERIC_STABILISER_ORDER = {
    StabiliserKind.EDGE: 4,
    StabiliserKind.ROSE_VERTEX: 8,
    StabiliserKind.THETA_VERTEX: 12,
}


def coordinate_swap(p: int) -> Mat2P:
    """(l, m) -> (m, l): the basis-exchange involution."""
    return Mat2P(0, 1, 1, 0, p)


def negate_both(p: int) -> Mat2P:
    """(l, m) -> (-l, -m): inversion of both generators."""
    return Mat2P(-1, 0, 0, -1, p)


def quarter_turn(p: int) -> Mat2P:
    """(l, m) -> (m, -l): the order-4 rose rotation; its square is -1."""
    return Mat2P(0, 1, -1, 0, p)


def sixth_turn(p: int) -> Mat2P:
    """(l, m) -> (m, m - l): the order-6 theta rotation; its cube is -1."""
    return Mat2P(0, 1, -1, 1, p)


def stabiliser_generators(kind: StabiliserKind, p: int) -> tuple[Mat2P, Mat2P]:
    swap = coordinate_swap(p)
    if kind is StabiliserKind.EDGE:
        return (swap, negate_both(p))
    if kind is StabiliserKind.ROSE_VERTEX:
        return (swap, quarter_turn(p))
    if kind is StabiliserKind.THETA_VERTEX:
        return (swap, sixth_turn(p))
    raise ValueError(f"unknown stabiliser kind: {kind!r}")


@lru_cache(maxsize=None)
def stabiliser_group(kind: StabiliserKind, p: int) -> MatrixGroup:
    """The edge, rose-vertex or theta-vertex stabiliser as a matrix group."""
    return group_closure(stabiliser_generators(kind, p), bound=64)
