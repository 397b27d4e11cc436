import json
import tracemalloc
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

import tatek.graphs as G
from tatek.graphs import (
    EdgeOrbitRef,
    EquivariantGraph,
    GraphStructureError,
    InvalidGraph,
    Move,
    NormalizationError,
    NotAForest,
    NotComposable,
    SameOrbit,
    canonical_graph,
    dumps,
    edge_orbit_refs,
    expand_orbit,
    is_canonical_form,
    loads,
    normalize,
    rank,
    replay,
    slide,
    validate,
)
from graph_references import reference_random_valid_graph, reference_scramble_graph
from oracles import isomorphic_single_orbit, orbit_step_multiset, random_valid_graph, to_json_obj


def single_orbit_graph(p, steps):
    """Vertices 0..p-1 rotated by +1; one edge orbit k -> k+j per step j."""
    involution, attach, action = [], [], []
    base = 0
    for j in steps:
        for i in range(p):
            involution += [base + 2 * i + 1, base + 2 * i]
            attach += [i, (i + j) % p]
            ni = (i + 1) % p
            action += [base + 2 * ni, base + 2 * ni + 1]
        base += 2 * p
    return EquivariantGraph(
        p=p,
        n_vertices=p,
        involution=tuple(involution),
        attach=tuple(attach),
        vertex_action=tuple((i + 1) % p for i in range(p)),
        half_edge_action=tuple(action),
    )


def two_orbit_hexagon():
    """Six vertices, two vertex orbits, two edge orbits forming a hexagon."""
    return EquivariantGraph(
        p=3,
        n_vertices=6,
        involution=(1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10),
        attach=(0, 3, 1, 4, 2, 5, 3, 1, 4, 2, 5, 0),
        vertex_action=(1, 2, 0, 4, 5, 3),
        half_edge_action=(2, 3, 4, 5, 0, 1, 8, 9, 10, 11, 6, 7),
    )


def violation_codes(g):
    return {code for code, _ in validate(g).violations}


def test_canonical_graphs_validate():
    for p in (2, 3, 5, 7):
        for k in (0, 1, 3):
            g = canonical_graph(p, k)
            assert validate(g).ok
            assert rank(g) == p * k + 1
            assert is_canonical_form(g)


# (p, steps of the edge orbits of ``single_orbit_graph``) and whether the
# graph is the rose-cycle normal form: a cycle of step 2 or a second non-loop
# orbit is not.
CANONICAL_SHAPES = [
    (2, [1], True),
    (5, [1, 0], True),
    (5, [0, 4, 0], True),
    (5, [2, 0], False),
    (7, [3], False),
    (5, [1, 1], False),
    (5, [0, 1, 2], False),
    (3, [1, 0, 1], False),
]


def assert_canonical_shapes():
    for p, steps, canonical in CANONICAL_SHAPES:
        g = single_orbit_graph(p, steps)
        assert validate(g).ok
        assert is_canonical_form(g) is canonical, (p, steps)
    assert not is_canonical_form(two_orbit_hexagon())


def test_is_canonical_form_reads_the_shape():
    assert_canonical_shapes()


def test_validate_keeps_its_report_on_the_graph(monkeypatch):
    g, bad = canonical_graph(5, 1), single_orbit_graph(5, [0])
    report = validate(g)
    assert validate(g) is report and report.ok
    # A graph validated again is not walked again; another graph is.
    monkeypatch.setattr(G, "_connected", lambda g: False)
    assert validate(g) is report
    assert validate(canonical_graph(5, 1)).violations == (
        ("ConnectivityViolation", "graph is not connected"),
    )
    monkeypatch.undo()
    assert validate(bad).violations == (("ConnectivityViolation", "graph is not connected"),)
    assert validate(g) is report


def test_rank_examples():
    assert rank(canonical_graph(5, 1)) == 6
    assert rank(canonical_graph(3, 2)) == 7
    # A single vertex carrying two loops with the trivial action: rank is a
    # purely graph-theoretic quantity and ignores the (here invalid) action.
    rose = EquivariantGraph(
        p=2,
        n_vertices=1,
        involution=(1, 0, 3, 2),
        attach=(0, 0, 0, 0),
        vertex_action=(0,),
        half_edge_action=(0, 1, 2, 3),
    )
    assert rank(rose) == 2
    assert not validate(rose).ok


def test_validate_fixed_vertex_is_freeness_violation():
    # Three petals rotated around a fixed central vertex.
    petals = EquivariantGraph(
        p=3,
        n_vertices=1,
        involution=(1, 0, 3, 2, 5, 4),
        attach=(0, 0, 0, 0, 0, 0),
        vertex_action=(0,),
        half_edge_action=(2, 3, 4, 5, 0, 1),
    )
    assert ("FreenessViolation", "power 1 of the action fixes vertex 0") in validate(
        petals
    ).violations


def test_validate_theta_style_rotation_fixes_vertices():
    # Two vertices joined by three edges, rotated; both vertices are fixed.
    theta = EquivariantGraph(
        p=3,
        n_vertices=2,
        involution=(1, 0, 3, 2, 5, 4),
        attach=(0, 1, 0, 1, 0, 1),
        vertex_action=(0, 1),
        half_edge_action=(2, 3, 4, 5, 0, 1),
    )
    assert ("FreenessViolation", "power 1 of the action fixes vertex 0") in validate(
        theta
    ).violations


def test_validate_disconnected():
    g = canonical_graph(3, 0)
    h = canonical_graph(3, 0)
    union = EquivariantGraph(
        p=3,
        n_vertices=6,
        involution=tuple(list(g.involution) + [x + 6 for x in h.involution]),
        attach=tuple(list(g.attach) + [x + 3 for x in h.attach]),
        vertex_action=tuple(list(g.vertex_action) + [x + 3 for x in h.vertex_action]),
        half_edge_action=tuple(
            list(g.half_edge_action) + [x + 6 for x in h.half_edge_action]
        ),
    )
    assert violation_codes(union) == {"ConnectivityViolation"}


def test_validate_midpoint_flip_rejected():
    # p = 2: a single edge whose two half-edges are swapped by the action
    # maps the edge to itself reversed (a fixed midpoint).
    g = EquivariantGraph(
        p=2,
        n_vertices=2,
        involution=(1, 0),
        attach=(0, 1),
        vertex_action=(1, 0),
        half_edge_action=(1, 0),
    )
    assert "FreenessViolation" in violation_codes(g)


def test_constructor_rejects_malformed_data():
    with pytest.raises(GraphStructureError):
        EquivariantGraph(
            p=2, n_vertices=1, involution=(0, 1), attach=(0,),
            vertex_action=(0,), half_edge_action=(0, 1),
        )
    with pytest.raises(GraphStructureError):
        EquivariantGraph(
            p=2, n_vertices=2, involution=(1, 0), attach=(0, 5),
            vertex_action=(0, 1), half_edge_action=(1, 0),
        )
    with pytest.raises(ValueError):
        EquivariantGraph(
            p=4, n_vertices=1, involution=(1, 0), attach=(0, 0),
            vertex_action=(0,), half_edge_action=(0, 1),
        )


def reference_first_bad_attach(attach, n_vertices):
    """The per-half-edge range check the constructor used to run."""
    for v in attach:
        if not (0 <= v < n_vertices):
            return v
    return None


@settings(max_examples=200, deadline=None)
@given(
    n_vertices=st.integers(1, 4),
    attach=st.lists(st.integers(-3, 6), max_size=8),
)
@example(n_vertices=3, attach=[0, 5, -1, 7])
@example(n_vertices=3, attach=[1, -2, 9, 3])
@example(n_vertices=1, attach=[])
def test_attach_range_error_names_the_first_bad_value(n_vertices, attach):
    def build():
        return EquivariantGraph(
            p=2, n_vertices=n_vertices, involution=tuple(range(len(attach))),
            attach=tuple(attach), vertex_action=tuple(range(n_vertices)),
            half_edge_action=tuple(range(len(attach))),
        )

    bad = reference_first_bad_attach(attach, n_vertices)
    if bad is None:
        assert build().attach == tuple(attach)
    else:
        with pytest.raises(GraphStructureError) as exc:
            build()
        assert str(exc.value) == f"attach value {bad} out of range"


def test_collapse_hexagon():
    g = two_orbit_hexagon()
    assert validate(g).ok
    assert rank(g) == 1
    assert len(g._vertex_cycles.cycles) == 2
    collapsed = replay(g, [Move("collapse", edge_orbit_refs(g)[0].half_edge)])
    assert validate(collapsed).ok
    assert collapsed.n_vertices == 3
    assert len(collapsed._vertex_cycles.cycles) == 1
    assert rank(collapsed) == 1


def test_collapse_rejects_loops():
    g = canonical_graph(3, 1)
    loop_ref = next(
        r for r in edge_orbit_refs(g)
        if g.attach[r.half_edge] == g.attach[g.involution[r.half_edge]]
    )
    with pytest.raises(NotAForest):
        replay(g, [Move("collapse", loop_ref.half_edge)])


def test_collapse_rejects_the_cycle_orbit():
    g = canonical_graph(5, 0)
    with pytest.raises(NotAForest):
        replay(g, [Move("collapse", edge_orbit_refs(g)[0].half_edge)])


def test_expand_then_collapse_roundtrip():
    g = canonical_graph(3, 2)
    expanded, new_ref = expand_orbit(g, 0, g.half_edges_at(0)[:2])
    assert validate(expanded).ok
    assert rank(expanded) == rank(g)
    assert expanded.n_vertices == g.n_vertices + 3
    back = replay(expanded, [Move("collapse", new_ref.half_edge)])
    assert validate(back).ok
    assert back.n_vertices == g.n_vertices
    assert isomorphic_single_orbit(back, g)


def test_expand_rejects_wrong_vertex():
    g = canonical_graph(3, 1)
    other = [h for h in range(g.n_half_edges) if g.attach[h] != 0]
    with pytest.raises(GraphStructureError):
        expand_orbit(g, 0, [other[0]])


def test_expand_rejects_non_integer_half_edges():
    # int() would truncate these to half-edges 6 and 7, both attached at 0.
    g = canonical_graph(3, 1)
    with pytest.raises(GraphStructureError, match="moved half-edge entry 6.9 is not an integer"):
        expand_orbit(g, 0, [6.9, 7.2])
    with pytest.raises(GraphStructureError, match="entry True is not an integer"):
        expand_orbit(g, 0, [True])


# A scrambled graph of 12 vertices (four vertex orbits) and 36 half-edges,
# and moves on it that name an index outside it, with the refusal of each.
# -1 once counted from the end: as a vertex it was caught only by the
# constructor's range check on the frozen graph, as a moved half-edge not at
# all, and a collapse of -1 collapsed the orbit of the last half-edge.
SCRAMBLED_3_2 = (3, 2, 1)
EXPAND_REFUSALS = [
    (-1, [], "vertex -1 is not an index in 0..11"),
    (12, [], "vertex 12 is not an index in 0..11"),
    (1.0, [], "vertex 1.0 is not an index in 0..11"),
    (True, [], "vertex True is not an index in 0..11"),
    (0, [-1], "half-edge -1 is not an index in 0..35"),
    (0, [36], "half-edge 36 is not an index in 0..35"),
]
MOVE_REFUSALS = [
    (Move("collapse", -1), "half-edge -1 is not an index in 0..35"),
    (Move("collapse", 36), "half-edge 36 is not an index in 0..35"),
    (Move("collapse", 2.0), "half-edge 2.0 is not an index in 0..35"),
    (Move("slide", -2, 0), "half-edge -2 is not an index in 0..35"),
    (Move("slide", 0, 36), "half-edge 36 is not an index in 0..35"),
]


def scrambled_3_2():
    p, k, seed = SCRAMBLED_3_2
    return G.scramble_graph(canonical_graph(p, k), Random(seed))


def assert_refused(move, *args, message):
    try:
        move(scrambled_3_2(), *args)
    except GraphStructureError as exc:
        assert str(exc) == message
    else:
        raise AssertionError(f"{move.__name__}{args} was not refused")


def assert_expand_refusals():
    for vertex, moved, message in EXPAND_REFUSALS:
        assert_refused(expand_orbit, vertex, moved, message=message)


def assert_move_refusals():
    for move, message in MOVE_REFUSALS:
        assert_refused(replay, [move], message=message)


@pytest.mark.parametrize(
    "vertex, moved, message", EXPAND_REFUSALS, ids=[f"{v!r}-{m!r}" for v, m, _ in EXPAND_REFUSALS]
)
def test_expand_refuses_an_index_outside_the_graph(vertex, moved, message):
    assert_refused(expand_orbit, vertex, moved, message=message)


@pytest.mark.parametrize(
    "move, message", MOVE_REFUSALS, ids=[f"{m.op}-{m.source!r}-{m.target!r}" for m, _ in MOVE_REFUSALS]
)
def test_collapse_and_slide_refuse_an_index_outside_the_graph(move, message):
    assert_refused(replay, [move], message=message)


def test_index_bound_follows_the_collapses():
    after = replay(scrambled_3_2(), [Move("collapse", 35)])
    assert after.n_half_edges == 30
    with pytest.raises(GraphStructureError, match=r"^half-edge 30 is not an index in 0\.\.29$"):
        replay(after, [Move("collapse", 30)])


def test_slide_refuses_a_reference_outside_the_graph():
    g = canonical_graph(3, 1)
    with pytest.raises(GraphStructureError, match=r"^half-edge -1 is not an index in 0\.\.11$"):
        slide(g, EdgeOrbitRef(-1), EdgeOrbitRef(0))


def test_slide_loop_over_cycle_and_back():
    g = canonical_graph(3, 1)
    assert orbit_step_multiset(g) == [0, 1]
    cycle, loop = edge_orbit_refs(g)[0], edge_orbit_refs(g)[1]
    # Orient the loop at the cycle edge's start, slide it over the cycle.
    ht = G._halfedge_of_family_at(g, cycle.half_edge, g.attach[g.involution[loop.half_edge]])
    slid = slide(g, loop, EdgeOrbitRef(ht))
    assert validate(slid).ok
    assert orbit_step_multiset(slid) == [1, 1]
    # Slide back across the reversed cycle: isomorphic to the original.
    back_family = slid.involution[cycle.half_edge]
    ht_back = G._halfedge_of_family_at(
        slid, back_family, slid.attach[slid.involution[loop.half_edge]]
    )
    back = slide(slid, loop, EdgeOrbitRef(ht_back))
    assert validate(back).ok
    assert isomorphic_single_orbit(back, g)


def test_slide_same_orbit_rejected():
    g = canonical_graph(3, 1)
    cycle = edge_orbit_refs(g)[0]
    partner = EdgeOrbitRef(g.involution[cycle.half_edge])
    with pytest.raises(SameOrbit):
        slide(g, cycle, partner)


def test_slide_endpoint_mismatch_rejected():
    g = canonical_graph(5, 1)
    cycle, loop = edge_orbit_refs(g)[0], edge_orbit_refs(g)[1]
    end = g.attach[g.involution[loop.half_edge]]
    bad_t = G._halfedge_of_family_at(
        g, cycle.half_edge, g.vertex_action[g.vertex_action[end]]
    )
    with pytest.raises(NotComposable):
        slide(g, loop, EdgeOrbitRef(bad_t))


def test_slide_requires_single_vertex_orbit():
    g = two_orbit_hexagon()
    refs = edge_orbit_refs(g)
    with pytest.raises(GraphStructureError):
        slide(g, refs[0], refs[1])


def test_normalize_canonical_is_a_no_op():
    form, moves = normalize(canonical_graph(3, 2))
    assert (form.p, form.loops_per_vertex, form.rank) == (3, 2, 7)
    assert moves == ()


def test_normalize_hexagon():
    g = two_orbit_hexagon()
    form, moves = normalize(g)
    assert form.rank == 1
    assert form.loops_per_vertex == 0
    current = g
    for move in moves:
        current = replay(current, (move,))
        assert validate(current).ok
    assert is_canonical_form(current)


def test_normalize_p2_rank3():
    rng = Random(5)
    g = random_valid_graph(2, 3, rng)
    while rank(g) != 3:
        g = random_valid_graph(2, 3, rng)
    form, _ = normalize(g)
    assert (form.p, form.loops_per_vertex, form.rank) == (2, 1, 3)


def test_normalize_rejects_invalid_inputs():
    theta = EquivariantGraph(
        p=3,
        n_vertices=2,
        involution=(1, 0, 3, 2, 5, 4),
        attach=(0, 1, 0, 1, 0, 1),
        vertex_action=(0, 1),
        half_edge_action=(2, 3, 4, 5, 0, 1),
    )
    with pytest.raises(InvalidGraph):
        normalize(theta)


def test_normalize_nonstandard_lone_cycle_raises():
    # A single orbit forming a step-2 pentagon: valid, but no equivariant
    # move can turn it into the standard cycle (it realises a homotopically
    # trivial outer class, outside the intended input family).
    g = single_orbit_graph(5, [2])
    assert validate(g).ok
    with pytest.raises(NormalizationError):
        normalize(g)


def test_normalize_nonstandard_cycle_with_company_succeeds():
    g = single_orbit_graph(5, [2, 0])
    form, moves = normalize(g)
    assert (form.loops_per_vertex, form.rank) == (1, 6)
    current = g
    for move in moves:
        current = replay(current, (move,))
        assert validate(current).ok
    assert is_canonical_form(current)


# Move logs pinned by (p, steps), as (source, target) of each slide.
PINNED_SLIDES = {
    # Step 5 - 2 - 2 = 1 for the second orbit, then the first becomes loops.
    (13, (2, 5)): ((26, 7), (26, 3), (0, 29), (0, 27)),
    # Three slides back along the first orbit take the second to
    # 7 - 3 * 2 = 1, two more make the first loops.
    (23, (2, 7)): ((46, 11), (46, 7), (46, 3), (0, 49), (0, 47)),
}


@pytest.mark.parametrize(
    "p, steps", [(13, [2, 5]), (13, [3, 5]), (13, [0, 2, 8]), (17, [7, 12, 12]), (23, [2, 7])]
)
def test_normalize_builds_the_cycle_when_no_orbit_has_step_one(p, steps):
    # No orbit has step +-1, so Phase 2 slides one orbit to step 1 or p - 1.
    g = single_orbit_graph(p, steps)
    form, moves = normalize(g)
    assert (form.loops_per_vertex, form.rank) == (len(steps) - 1, rank(g))
    assert is_canonical_form(G.replay(g, moves))
    pinned = PINNED_SLIDES.get((p, tuple(steps)))
    if pinned is not None:
        assert moves == tuple(Move("slide", s, t) for s, t in pinned)


ROSE_COVER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def assert_rose_covers_within_budget(p):
    """Every rose cover, the orbits of steps (l, m) for a nonzero (l, m),
    normalises to one loop orbit in at most p - 1 slides: at most p // 2 to
    build the cycle and p // 2 to make the other orbit loops."""
    for l in range(p):
        for m in range(p):
            if (l, m) != (0, 0):
                form, moves = normalize(single_orbit_graph(p, [l, m]))
                assert (form.p, form.loops_per_vertex) == (p, 1), (l, m)
                assert len(moves) <= p - 1, (l, m, len(moves))


def test_normalize_slide_budget():
    # The loop-forming phase needs at most floor(p/2) slides per orbit.
    for p in (3, 5, 7):
        for j in range(1, p):
            g = single_orbit_graph(p, [1, j])
            _, moves = normalize(g)
            assert len(moves) <= p // 2
    for p in ROSE_COVER_PRIMES:
        assert_rose_covers_within_budget(p)


def test_move_log_indices_are_sequential():
    g, trace = reference_random_valid_graph(3, 15, Random(11))
    assert g == random_valid_graph(3, 15, Random(11))
    for before, after in zip(trace, trace[1:]):
        assert rank(before) == rank(after)
        assert validate(after).ok
    form, moves = normalize(g)
    replayed = g
    for move in moves:
        replayed = replay(replayed, (move,))
    assert is_canonical_form(replayed)
    assert rank(replayed) == form.rank


@pytest.mark.parametrize(
    "p, k, seed", [(2, 2499, 11), (3, 1666, 2), (5, 999, 3), (2, 200, 6), (3, 150, 7), (5, 100, 6)]
)
def test_normalize_scrambled_canonical_round_trip(p, k, seed):
    """Up to about 10,000 half-edges, with collapses and hundreds of slides,
    normalise back to (p, k), and the move log replays to a canonical form."""
    g = G.scramble_graph(canonical_graph(p, k), Random(seed))
    form, moves = normalize(g)
    assert (form.p, form.loops_per_vertex, form.rank) == (p, k, p * k + 1)
    assert {m.op for m in moves} == {"collapse", "slide"}
    assert is_canonical_form(G.replay(g, moves))


def count_built_graphs(monkeypatch, fn, *args, **kwargs):
    """fn's result and the number of ``EquivariantGraph`` objects it built:
    by the checked constructor, or by ``freeze``, which hands a working
    copy's arrays over without it."""
    built = []
    init, freeze = EquivariantGraph.__init__, G._WorkingGraph.freeze

    def counting_init(self, *a, **kw):
        built.append(self)
        init(self, *a, **kw)

    def counting_freeze(self):
        g = freeze(self)
        built.append(g)
        return g

    monkeypatch.setattr(EquivariantGraph, "__init__", counting_init)
    monkeypatch.setattr(G._WorkingGraph, "freeze", counting_freeze)
    try:
        return fn(*args, **kwargs), len(built)
    finally:
        monkeypatch.undo()


def test_normalize_builds_one_graph_whatever_the_move_count(monkeypatch):
    counts = []
    for seed in (1, 20):
        g = G.scramble_graph(canonical_graph(2, 199), Random(seed))
        (_, moves), built = count_built_graphs(monkeypatch, normalize, g)
        assert built == 1
        counts.append(len(moves))
    # Seed 1 needs 3 collapses, seed 20 two collapses and 75 slides.
    assert counts == [3, 77]


def test_scramble_builds_one_graph_for_all_its_moves(monkeypatch):
    steps = []
    for seed in (2, 5, 6, 7):
        start = canonical_graph(3, 30)
        g, built = count_built_graphs(monkeypatch, G.scramble_graph, start, Random(seed))
        _, trace = reference_scramble_graph(start, Random(seed))
        expansions = g.n_vertices // 3 - 1
        assert built == 1
        steps.append((len(trace) - 1 - expansions, expansions))
    # (slides, expansions) of each seed.
    assert steps == [(6, 2), (4, 1), (6, 2), (2, 4)]


def test_apply_move_validates_op():
    g = canonical_graph(3, 1)
    with pytest.raises(ValueError):
        replay(g, (Move("twist", 0),))
    with pytest.raises(ValueError):
        replay(g, (Move("slide", 0, None),))


def test_json_roundtrip():
    g = random_valid_graph(5, 16, Random(3))
    text = dumps(g)
    assert loads(text) == g
    assert dumps(loads(text)) == text


def reference_dumps(g):
    """The graph file as the JSON encoder lays it out: what ``dumps`` writes."""
    return json.dumps(to_json_obj(g), indent=2, sort_keys=True) + "\n"


def assert_writes_like_the_encoder(g):
    text = dumps(g)
    assert text == reference_dumps(g)
    assert loads(text) == g


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7)),
    max_rank=st.integers(1, 40),
    seed=st.integers(0, 2**32),
)
def test_dumps_matches_the_encoder_on_random_graphs(p, max_rank, seed):
    assert_writes_like_the_encoder(random_valid_graph(p, max_rank, Random(seed)))


@pytest.mark.parametrize("p, k", [(2, 0), (2, 1), (3, 0), (5, 2), (7, 0), (97, 1)])
def test_dumps_matches_the_encoder_on_canonical_graphs(p, k):
    assert_writes_like_the_encoder(canonical_graph(p, k))


def test_dumps_writes_empty_lists_as_the_encoder_does():
    # No half-edges: the graph fails validate, but it can still be written.
    g = EquivariantGraph(
        p=3, n_vertices=1, involution=(), attach=(), vertex_action=(0,), half_edge_action=()
    )
    assert '"half_edges": [],' in dumps(g)
    assert_writes_like_the_encoder(g)


def test_json_accepts_shuffled_half_edges():
    g = canonical_graph(3, 1)
    obj = to_json_obj(g)
    obj["half_edges"] = list(reversed(obj["half_edges"]))
    assert G.from_json_obj(obj) == g


def test_json_rejects_bad_ids():
    cases = [
        # One id repeated, the rest in order: the check must sort to see it.
        (3, 2, "half_edge ids must be exactly 0..H-1"),
        (0, 99, "half_edge ids must be exactly 0..H-1"),
        (2, None, "missing graph field: 'id'"),
    ]
    for index, value, message in cases:
        obj = to_json_obj(canonical_graph(3, 0))
        if value is None:
            del obj["half_edges"][index]["id"]
        else:
            obj["half_edges"][index]["id"] = value
        with pytest.raises(GraphStructureError) as info:
            G.from_json_obj(obj)
        assert str(info.value) == message
    with pytest.raises(GraphStructureError):
        G.from_json_obj({"p": 3})


def text_with_peak_reset(g):
    """``dumps(g)``, with tracemalloc's peak reset once it is written."""
    text = dumps(g)
    tracemalloc.reset_peak()
    return text


def traced_peak(parse, g) -> int:
    """The peak of traced memory while ``parse`` reads ``dumps(g)``, passed as a
    temporary so that only ``parse`` holds it."""
    tracemalloc.start()
    try:
        parse(text_with_peak_reset(g))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loads_peaks_at_the_parse():
    # The text dies at the parse, and the reader builds no sorted or range
    # copy of its records: building and checking the graph must not climb
    # above the parse itself.  The text kept alive adds about a tenth; the
    # text, a sorted copy of the records and range lists, about a quarter.
    g = G.scramble_graph(canonical_graph(2, 9999), Random(7))
    assert g.n_half_edges > 40_000
    assert traced_peak(G.loads, g) <= 1.05 * traced_peak(json.loads, g)
