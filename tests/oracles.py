"""Pure references that the tests read beside the package.

Each computes, the slow and obvious way, something the package holds in
another form: the graph file's JSON object, an edge orbit walked out step by
step, the steps of a single-orbit graph's edge orbits and the isomorphism test
built on them, and the identity, product, column action and powers of
matrices over Z/p, the product being the oracle of ``modp.group_closure``.
A matrix is its row-major entry quadruple (a, b, c, d); the product and the
powers reduce it mod p and refuse a singular one, and the four named
stabiliser generators are written out here, apart from the package's table.
Beside them, ``random_valid_graph`` draws the scrambled graphs many tests
start from, and ``reference_loads`` is the graph file reader that parsed the
whole file into a tree of dicts, frozen when ``graphs.loads`` began to read
the half-edge records into columns as they are parsed.
"""

import json
from operator import itemgetter

from tatek._value import _shown
from tatek.graphs import (
    MAX_HALF_EDGES,
    EquivariantGraph,
    GraphStructureError,
    GraphTooLarge,
    _check_ints,
    _counts_up,
    canonical_graph,
    edge_orbit_refs,
    oriented_step,
    scramble_graph,
)


def to_json_obj(g) -> dict:
    """The graph file's object: ``graphs.dumps`` must write it as
    ``json.dumps(obj, indent=2, sort_keys=True)`` does, and the test fixtures
    edit it to build bad graph files."""
    return {
        "p": g.p,
        "vertices": g.n_vertices,
        "half_edges": [
            {"id": h, "partner": g.involution[h], "vertex": g.attach[h]}
            for h in range(g.n_half_edges)
        ],
        "vertex_action": list(g.vertex_action),
        "half_edge_action": list(g.half_edge_action),
    }


def _reference_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise GraphStructureError(f"{name} must be a list, got {type(value).__name__}")
    return value


def reference_from_json_obj(obj: dict):
    """The graph of a file's object, read from its tree of dicts: one dict per
    half-edge record, each field gathered by ``itemgetter``."""
    if not isinstance(obj, dict):
        raise GraphStructureError(f"graph must be an object, got {type(obj).__name__}")
    try:
        records = _reference_list(obj["half_edges"], "half_edges")
        if len(records) > MAX_HALF_EDGES:
            raise GraphTooLarge(
                f"graph has {len(records)} half-edges, above the bound {MAX_HALF_EDGES}"
            )
        vertices = obj.get("vertices")
        if type(vertices) is int and vertices > MAX_HALF_EDGES:
            raise GraphTooLarge(
                f"graph has {vertices} vertices, above the bound {MAX_HALF_EDGES}"
            )
        for r in records:
            if not isinstance(r, dict):
                raise GraphStructureError(
                    f"half_edges entry {_shown(r)} is not an object with id, partner and vertex"
                )
        ids = _check_ints(tuple(map(itemgetter("id"), records)), "half_edge id")
        if not _counts_up(ids):
            if not _counts_up(sorted(ids)):
                raise GraphStructureError("half_edge ids must be exactly 0..H-1")
            records = sorted(records, key=itemgetter("id"))
        return EquivariantGraph(
            p=obj["p"],
            n_vertices=obj["vertices"],
            involution=tuple(map(itemgetter("partner"), records)),
            attach=tuple(map(itemgetter("vertex"), records)),
            vertex_action=tuple(_reference_list(obj["vertex_action"], "vertex_action")),
            half_edge_action=tuple(_reference_list(obj["half_edge_action"], "half_edge_action")),
        )
    except KeyError as exc:
        raise GraphStructureError(f"missing graph field: {exc}") from exc


def reference_loads(text: str):
    """The graph of a graph file: ``json.loads`` builds the whole tree of
    dicts, and ``reference_from_json_obj`` reads it."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise GraphStructureError("graph file is nested too deeply to parse") from None
    return reference_from_json_obj(obj)


def random_valid_graph(p, max_rank, rng):
    """A canonical form of rank at most ``max_rank``, scrambled by inverse moves."""
    k = rng.randrange(0, (max_rank - 1) // p + 1)
    return scramble_graph(canonical_graph(p, k), rng)


def geometric_orbit(g, h) -> tuple[int, ...]:
    """All half-edges of the Z/p-orbit of the geometric edge through h."""
    out: set[int] = set()
    for start in (h, g.involution[h]):
        x = start
        while x not in out:
            out.add(x)
            x = g.half_edge_action[x]
    return tuple(sorted(out))


def unoriented_step(g, h) -> int:
    """The rotation step of h's edge orbit, either way round."""
    j = oriented_step(g, h)
    return min(j, g.p - j)


def orbit_step_multiset(g) -> list[int]:
    """Sorted unoriented steps of all edge orbits (single vertex orbit only):
    [0, ..., 0, 1] for the rose-cycle normal form."""
    return sorted(unoriented_step(g, r.half_edge) for r in edge_orbit_refs(g))


def isomorphic_single_orbit(g1, g2) -> bool:
    """Equivariant isomorphism test for free single-vertex-orbit graphs.

    Such a graph is determined up to equivariant isomorphism by p and the
    multiset of unoriented orbit steps: every orbit has exactly one half-edge
    pair based at each vertex, and matching orbits of equal step (choosing
    orientations) extends uniquely to an equivariant isomorphism.
    """
    if g1.p != g2.p:
        return False
    if len(g1._vertex_cycles.cycles) != 1 or len(g2._vertex_cycles.cycles) != 1:
        raise GraphStructureError("isomorphism test requires single vertex orbits")
    return orbit_step_multiset(g1) == orbit_step_multiset(g2)


IDENTITY = (1, 0, 0, 1)
SWAP = (0, 1, 1, 0)  # (l, m) -> (m, l)
NEGATE = (-1, 0, 0, -1)  # (l, m) -> (-l, -m)
QUARTER_TURN = (0, 1, -1, 0)  # (l, m) -> (m, -l)
SIXTH_TURN = (0, 1, -1, 1)  # (l, m) -> (m, m - l)


def reduced(p: int, m: tuple) -> tuple:
    """The entries of m reduced mod p, refused if m is singular mod p."""
    a, b, c, d = (x % p for x in m)
    assert (a * d - b * c) % p, f"{m} is singular mod {p}"
    return (a, b, c, d)


def mat_mul(p: int, x: tuple, y: tuple) -> tuple:
    """The matrix product mod p, written out entry by entry."""
    a, b, c, d = x
    e, f, g, h = y
    return reduced(p, (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))


def mat_apply(p: int, m: tuple, v: tuple[int, int]) -> tuple[int, int]:
    """Left action on a column vector (l, n)."""
    a, b, c, d = m
    l, n = v
    return ((a * l + b * n) % p, (c * l + d * n) % p)


def mat_power(p: int, m: tuple, k: int) -> tuple:
    """m to the power k >= 0 mod p, by repeated squaring."""
    result = IDENTITY
    while k:
        if k & 1:
            result = mat_mul(p, result, m)
        m = mat_mul(p, m, m)
        k >>= 1
    return result
