"""Frozen graph references that several test modules share.

These are earlier implementations of the graph moves, kept as they were:
every slide or expansion builds a new ``EquivariantGraph``, and every orbit
is walked out one step of the action at a time.  ``test_normalize_reference``
checks the package's moves and ``scramble_graph`` against them;
``test_validate_reference``, ``test_graphs`` and ``test_acceptance`` draw
their graphs from ``reference_random_valid_graph``.  ``arbitrary_graphs``
draws any permutation data at all.  No test is defined here.
"""

from hypothesis import strategies as st

from oracles import geometric_orbit
from tatek.graphs import (
    EdgeOrbitRef,
    EquivariantGraph,
    GraphStructureError,
    NotComposable,
    SameOrbit,
    _check_ints,
    _halfedge_of_family_at,
    canonical_graph,
    edge_orbit_refs,
)


def vertex_orbit(g, v):
    """The orbit of vertex v, walked out one step of the action at a time."""
    orbit = [v]
    x = g.vertex_action[v]
    while x != v:
        orbit.append(x)
        x = g.vertex_action[x]
    return orbit


def vertex_orbit_count(g):
    return len({min(vertex_orbit(g, v)) for v in range(g.n_vertices)})


def orbit_rep(g, h):
    return min(geometric_orbit(g, h))


def reference_slide(g, s, t):
    if vertex_orbit_count(g) != 1:
        raise GraphStructureError("slide requires a single vertex orbit")
    hs, ht = s.half_edge, t.half_edge
    if orbit_rep(g, hs) == orbit_rep(g, ht):
        raise SameOrbit(f"half-edges {hs} and {ht} lie in the same geometric edge orbit")
    if g.attach[g.involution[hs]] != g.attach[ht]:
        raise NotComposable(
            f"tau(s) = {g.attach[g.involution[hs]]} differs from iota(t) = {g.attach[ht]}"
        )
    new_attach = list(g.attach)
    src, dst = g.involution[hs], g.involution[ht]
    for _ in range(g.p):
        new_attach[src] = g.attach[dst]
        src = g.half_edge_action[src]
        dst = g.half_edge_action[dst]
    return EquivariantGraph(
        p=g.p,
        n_vertices=g.n_vertices,
        involution=g.involution,
        attach=tuple(new_attach),
        vertex_action=g.vertex_action,
        half_edge_action=g.half_edge_action,
    )


def reference_expand_orbit(g, vertex, moved):
    moved_set = sorted(set(_check_ints(tuple(moved), "moved half-edge")))
    for h in moved_set:
        if g.attach[h] != vertex:
            raise GraphStructureError(
                f"half-edge {h} is attached to {g.attach[h]}, not to {vertex}"
            )
    V, H, p = g.n_vertices, g.n_half_edges, g.p

    new_attach = list(g.attach)
    # w_k gets index V + k; the connecting half-edges are H + 2k (at the old
    # orbit) and H + 2k + 1 (at w_k).  ``x`` and ``moved_k`` step along the
    # action: they are action^k(vertex) and action^k of each moved half-edge.
    x, moved_k = vertex, moved_set
    for k in range(p):
        new_attach.append(x)
        new_attach.append(V + k)
        for h in moved_k:
            new_attach[h] = V + k
        x = g.vertex_action[x]
        moved_k = [g.half_edge_action[h] for h in moved_k]

    involution = list(g.involution) + [0] * (2 * p)
    half_action = list(g.half_edge_action) + [0] * (2 * p)
    for k in range(p):
        a, b = H + 2 * k, H + 2 * k + 1
        involution[a] = b
        involution[b] = a
        a2 = H + 2 * ((k + 1) % p)
        half_action[a] = a2
        half_action[b] = a2 + 1

    vertex_action = list(g.vertex_action) + [V + (k + 1) % p for k in range(p)]

    expanded = EquivariantGraph(
        p=p,
        n_vertices=V + p,
        involution=tuple(involution),
        attach=tuple(new_attach),
        vertex_action=tuple(vertex_action),
        half_edge_action=tuple(half_action),
    )
    return expanded, EdgeOrbitRef(H)


def reference_scramble_graph(g, rng, max_slides=6, max_expansions=4):
    """The scrambled graph and every graph on the way to it, oldest first."""
    trace = [g]
    if vertex_orbit_count(g) == 1 and len(edge_orbit_refs(g)) >= 2:
        for _ in range(rng.randrange(0, max_slides + 1)):
            s_ref, t_ref = rng.sample(edge_orbit_refs(g), 2)
            hs = s_ref.half_edge if rng.random() < 0.5 else g.involution[s_ref.half_edge]
            t_family = t_ref.half_edge if rng.random() < 0.5 else g.involution[t_ref.half_edge]
            ht = _halfedge_of_family_at(g, t_family, g.attach[g.involution[hs]])
            g = reference_slide(g, EdgeOrbitRef(hs), EdgeOrbitRef(ht))
            trace.append(g)
    for _ in range(rng.randrange(0, max_expansions + 1)):
        vertex = rng.randrange(g.n_vertices)
        moved = [h for h in g.half_edges_at(vertex) if rng.random() < 0.5]
        g, _ = reference_expand_orbit(g, vertex, moved)
        trace.append(g)
    return g, trace


def reference_random_valid_graph(p, max_rank, rng, max_slides=6, max_expansions=4):
    """``oracles.random_valid_graph`` on the reference scramble, with its trace."""
    k = rng.randrange(0, (max_rank - 1) // p + 1)
    return reference_scramble_graph(canonical_graph(p, k), rng, max_slides, max_expansions)


@st.composite
def arbitrary_graphs(draw):
    """Any permutation data at all: most of it violates several axioms."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 6))
    h = draw(st.integers(0, 12))
    return EquivariantGraph(
        p=p,
        n_vertices=n,
        involution=tuple(draw(st.permutations(range(h)))),
        attach=tuple(draw(st.lists(st.integers(0, n - 1), min_size=h, max_size=h))),
        vertex_action=tuple(draw(st.permutations(range(n)))),
        half_edge_action=tuple(draw(st.permutations(range(h)))),
    )
