"""Frozen per-element fixed-point counts of the three stabiliser tables.

Rows are words in the stabiliser generators: first the rotation powers
rot^k, then the reflections rot^k * swap.  Each row holds the expected count
of nonzero fixed vectors at p = 2, at p = 3, and a callable for the generic
count at p >= 5.
"""

from oracles import NEGATE, QUARTER_TURN, SIXTH_TURN, SWAP, mat_mul, mat_power
from tatek.modp import StabiliserKind

_ALL = lambda p: p * p - 1
_NONE = lambda p: 0
_LINE = lambda p: p - 1

# (count mod 2, count mod 3, generic count for p >= 5)
EDGE_ROWS = [
    (3, 8, _ALL),   # identity
    (3, 0, _NONE),  # negate both coordinates
    (1, 2, _LINE),  # swap
    (1, 2, _LINE),  # negate * swap
]
ROSE_ROWS = [
    (3, 8, _ALL),   # identity
    (1, 0, _NONE),  # quarter turn
    (3, 0, _NONE),  # half turn (= negate)
    (1, 0, _NONE),  # three-quarter turn
    (1, 2, _LINE),  # swap
    (3, 2, _LINE),  # quarter turn * swap
    (1, 2, _LINE),  # half turn * swap
    (3, 2, _LINE),  # three-quarter turn * swap
]
THETA_ROWS = [
    (3, 8, _ALL),   # identity
    (0, 0, _NONE),  # sixth turn
    (0, 2, _NONE),  # third turn
    (3, 0, _NONE),  # half turn (= negate)
    (0, 2, _NONE),  # two-thirds turn
    (0, 0, _NONE),  # five-sixths turn
    (1, 2, _LINE),  # the six reflections
    (1, 2, _LINE),
    (1, 2, _LINE),
    (1, 2, _LINE),
    (1, 2, _LINE),
    (1, 2, _LINE),
]

ROWS = {
    StabiliserKind.EDGE: EDGE_ROWS,
    StabiliserKind.ROSE_VERTEX: ROSE_ROWS,
    StabiliserKind.THETA_VERTEX: THETA_ROWS,
}
_ROTATIONS = {
    StabiliserKind.EDGE: NEGATE,
    StabiliserKind.ROSE_VERTEX: QUARTER_TURN,
    StabiliserKind.THETA_VERTEX: SIXTH_TURN,
}
ROTATION_ORDER = {
    StabiliserKind.EDGE: 2,
    StabiliserKind.ROSE_VERTEX: 4,
    StabiliserKind.THETA_VERTEX: 6,
}


def row_matrices(kind: StabiliserKind, p: int) -> list[tuple]:
    """The table's row words evaluated in GL_2(Z/p), in row order, as
    reduced entry quadruples."""
    rotations = [mat_power(p, _ROTATIONS[kind], k) for k in range(ROTATION_ORDER[kind])]
    return rotations + [mat_mul(p, r, SWAP) for r in rotations]


def expected_count(row: tuple, p: int) -> int:
    mod2, mod3, generic = row
    if p == 2:
        return mod2
    if p == 3:
        return mod3
    return generic(p)
