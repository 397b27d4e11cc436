"""``validate`` and the orbit helpers against the quadratic code they replaced.

The reference functions below are the earlier implementations, frozen: they
apply each power of the action one step at a time and scan every half-edge
for every vertex, O(p^2 (V + H)).  Hypothesis feeds both sides mutated valid
graphs (swapped attachments, rewired pairings, actions whose cycle lengths do
not divide p, p = 2 midpoint flips, disjoint unions) and small arbitrary
permutation data; reports must agree code for code and message for message.
"""

from random import Random

from hypothesis import given, settings, strategies as st

from graph_references import arbitrary_graphs, reference_random_valid_graph
from oracles import geometric_orbit, random_valid_graph
from tatek.graphs import (
    EquivariantGraph,
    _WorkingGraph,
    edge_orbit_refs,
    validate,
)


def _act(perm, x, k, p):
    for _ in range(k % p):
        x = perm[x]
    return x


def reference_connected(g):
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for h in range(g.n_half_edges):
            if g.attach[h] == v:
                w = g.attach[g.involution[h]]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == g.n_vertices


def reference_validate(g):
    violations = []
    for h in range(g.n_half_edges):
        if g.involution[h] == h:
            violations.append(("InvolutionViolation", f"half-edge {h} is its own partner"))
            break
        if g.involution[g.involution[h]] != h:
            violations.append(("InvolutionViolation", f"pairing broken at half-edge {h}"))
            break

    v = list(range(g.n_vertices))
    hh = list(range(g.n_half_edges))
    for _ in range(g.p):
        v = [g.vertex_action[x] for x in v]
        hh = [g.half_edge_action[x] for x in hh]
    if v != list(range(g.n_vertices)) or hh != list(range(g.n_half_edges)):
        violations.append(("ActionOrderViolation", f"action order does not divide p = {g.p}"))

    for h in range(g.n_half_edges):
        if g.attach[g.half_edge_action[h]] != g.vertex_action[g.attach[h]]:
            violations.append(
                ("EquivarianceViolation", f"attach not equivariant at half-edge {h}")
            )
            break
    for h in range(g.n_half_edges):
        if g.involution[g.half_edge_action[h]] != g.half_edge_action[g.involution[h]]:
            violations.append(
                ("EquivarianceViolation", f"involution not equivariant at half-edge {h}")
            )
            break

    for k in range(1, g.p):
        fixed = [v0 for v0 in range(g.n_vertices) if _act(g.vertex_action, v0, k, g.p) == v0]
        if fixed:
            violations.append(
                ("FreenessViolation", f"power {k} of the action fixes vertex {fixed[0]}")
            )
            break
    else:
        stop = False
        for k in range(1, g.p):
            for h in range(g.n_half_edges):
                if _act(g.half_edge_action, h, k, g.p) == g.involution[h]:
                    violations.append(
                        (
                            "FreenessViolation",
                            f"power {k} maps half-edge {h} to its own partner "
                            "(fixed edge midpoint)",
                        )
                    )
                    stop = True
                    break
            if stop:
                break

    if not reference_connected(g):
        violations.append(("ConnectivityViolation", "graph is not connected"))
    return (not violations, tuple(violations))


def reference_orbit_rep(g, h):
    return min(geometric_orbit(g, h))


def assert_agrees(g):
    report = validate(g)
    assert (report.ok, report.violations) == reference_validate(g)
    # The graph and its working copy share one representative list, built
    # from cycle minima; here each half-edge's is walked out on its own.
    reps = [reference_orbit_rep(g, h) for h in range(g.n_half_edges)]
    assert list(g._edge_orbit_reps) == reps
    assert [r.half_edge for r in edge_orbit_refs(g)] == sorted(set(reps))
    work = _WorkingGraph(g)
    assert [work.orbit_rep(h) for h in range(g.n_half_edges)] == reps


def _graph(g, **changes):
    fields = dict(
        p=g.p,
        n_vertices=g.n_vertices,
        involution=g.involution,
        attach=g.attach,
        vertex_action=g.vertex_action,
        half_edge_action=g.half_edge_action,
    )
    fields.update({k: tuple(v) for k, v in changes.items()})
    return EquivariantGraph(**fields)


def swap_attach(g, rng):
    attach = list(g.attach)
    i, j = rng.randrange(len(attach)), rng.randrange(len(attach))
    attach[i], attach[j] = attach[j], attach[i]
    return _graph(g, attach=attach)


def rewire_pairs(g, rng):
    """Re-pair two edges (a, a'), (b, b') as (a, b), (a', b'); or, when the
    draw picks one edge twice, make both of its half-edges self-partnered.
    Where an earlier mutation left no pairs there, swap two partners."""
    inv = list(g.involution)
    a, b = rng.randrange(len(inv)), rng.randrange(len(inv))
    a2, b2 = inv[a], inv[b]
    paired = inv[a2] == a != a2 and inv[b2] == b != b2
    if paired and b in (a, a2):
        inv[a], inv[a2] = a, a2
    elif paired:
        inv[a], inv[b], inv[a2], inv[b2] = b, a, b2, a2
    else:
        inv[a], inv[b] = b2, a2
    return _graph(g, involution=inv)


def _transpose(perm, rng):
    perm = list(perm)
    i, j = rng.randrange(len(perm)), rng.randrange(len(perm))
    perm[i], perm[j] = perm[j], perm[i]
    return perm


def break_vertex_cycles(g, rng):
    """Compose the vertex action with a transposition: merges or splits
    cycles, so cycle lengths need no longer divide p."""
    return _graph(g, vertex_action=_transpose(g.vertex_action, rng))


def break_half_edge_cycles(g, rng):
    return _graph(g, half_edge_action=_transpose(g.half_edge_action, rng))


def shuffle_vertex_action(g, rng):
    perm = list(g.vertex_action)
    rng.shuffle(perm)
    return _graph(g, vertex_action=perm)


def midpoint_flip(g, rng):
    """At p = 2 make the action swap one edge's two half-edges (and pair up
    the two half-edges it used to map them to): a fixed edge midpoint."""
    if g.p != 2:
        return g
    act = list(g.half_edge_action)
    h = rng.randrange(len(act))
    h2 = g.involution[h]
    x, y = act[h], act[h2]
    if len({h, h2, x, y}) < 4 or (act[x], act[y]) != (h, h2):
        return g
    act[h], act[h2], act[x], act[y] = h2, h, y, x
    return _graph(g, half_edge_action=act)


def disjoint_union(g, rng):
    other, _ = reference_random_valid_graph(g.p, 2 * g.p + 1, rng, 2, 1)
    V, H = g.n_vertices, g.n_half_edges
    return EquivariantGraph(
        p=g.p,
        n_vertices=V + other.n_vertices,
        involution=g.involution + tuple(H + x for x in other.involution),
        attach=g.attach + tuple(V + x for x in other.attach),
        vertex_action=g.vertex_action + tuple(V + x for x in other.vertex_action),
        half_edge_action=g.half_edge_action + tuple(H + x for x in other.half_edge_action),
    )


MUTATIONS = {
    f.__name__: f
    for f in (
        swap_attach,
        rewire_pairs,
        break_vertex_cycles,
        break_half_edge_cycles,
        shuffle_vertex_action,
        midpoint_flip,
        disjoint_union,
    )
}


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from((2, 2, 3, 5, 7)),
    seed=st.integers(0, 2**32),
    mutations=st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=3),
)
def test_validate_matches_reference_on_mutated_graphs(p, seed, mutations):
    rng = Random(seed)
    g = random_valid_graph(p, 3 * p + 1, rng)
    for name in mutations:
        g = MUTATIONS[name](g, rng)
    assert_agrees(g)


@settings(max_examples=300, deadline=None)
@given(arbitrary_graphs())
def test_validate_matches_reference_on_arbitrary_permutations(g):
    assert_agrees(g)


def test_midpoint_flip_is_reported():
    g = random_valid_graph(2, 5, Random(4))
    flipped = midpoint_flip(g, Random(1))
    assert flipped is not g
    codes = [code for code, _ in validate(flipped).violations]
    assert "FreenessViolation" in codes
    assert_agrees(flipped)
