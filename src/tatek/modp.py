"""Exact arithmetic over Z/p: primality and the three stabiliser groups.

A 2x2 matrix over Z/p is its row-major entry quadruple (a, b, c, d) reduced
mod p, a plain tuple of Python integers, so results are exact and safe to
share between threads.  The stabilisers of the spine action of Out(F_2) =
GL_2(Z) are stated once, by integer generators in ``STABILISER_GENERATORS``;
:func:`stabiliser_group` reduces and closes them, and :mod:`tatek.orbits`
counts their orbits.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable

from ._value import Value


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
    each is tested once (each layer a request passes through checks its
    modulus again, and so does every graph built at it)."""
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


class MatrixGroup(Value):
    """A finite subgroup of GL_2(Z/p), given by its full element list.

    ``elements`` holds the entry quadruples (a, b, c, d) of its matrices,
    reduced mod p.  It always contains the identity (1, 0, 0, 1), is
    deduplicated, closed under products (hence under inverses, being finite),
    and is sorted so that iteration order is deterministic.
    """

    p: int
    elements: tuple[tuple[int, int, int, int], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def group_closure(
    p: int, generators: Iterable[tuple[int, int, int, int]], bound: int = 4096
) -> MatrixGroup:
    """Smallest multiplicatively closed set containing the generators and 1.

    The generators are integer entry quadruples (a, b, c, d), reduced mod p
    here; invertible ones close to a group.  Plain breadth-first closure on
    reduced quadruples.  ``bound`` caps the element count so a typo in a
    generator cannot send the enumeration off to all of GL_2.
    """
    keys = [tuple(x % p for x in g) for g in generators]
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
    return MatrixGroup(p, tuple(sorted(seen)))


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


# The generators over Z of each stabiliser, as (swap, rotation) entry
# quadruples: the swap (l, m) -> (m, l) and a rotation whose square (edge),
# fourth power (rose) or sixth power (theta) is 1.  They generate the
# dihedral groups D2, D4 and D6 of GL_2(Z), every entry in {0, +-1}.
STABILISER_GENERATORS = {
    StabiliserKind.EDGE: ((0, 1, 1, 0), (-1, 0, 0, -1)),  # (l, m) -> (-l, -m)
    StabiliserKind.ROSE_VERTEX: ((0, 1, 1, 0), (0, 1, -1, 0)),  # (l, m) -> (m, -l)
    StabiliserKind.THETA_VERTEX: ((0, 1, 1, 0), (0, 1, -1, 1)),  # (l, m) -> (m, m - l)
}


@lru_cache(maxsize=None)
def stabiliser_group(kind: StabiliserKind, p: int) -> MatrixGroup:
    """The edge, rose-vertex or theta-vertex stabiliser as a group mod p."""
    return group_closure(check_prime(p), STABILISER_GENERATORS[kind], bound=64)
