"""``normalize``, the public moves and ``scramble_graph`` against the
frozen-graph code they replaced.

The reference functions, below and in ``graph_references.py``, are the earlier
implementations, frozen: every collapse, slide or expansion builds a new
``EquivariantGraph`` and re-derives its cycle index, so
``reference_normalize`` is quadratic in the half-edge count.  The package now runs every move on one mutable working copy, and a
frozen graph keeps the orbit representatives that copy kept current; a fresh
copy read back from its file must derive the same ones.  Hypothesis feeds
both sides scrambled graphs, graphs shaped like the benchmark's
(``bench/gen_graphs.py``), graphs that fail validation and lone cycles that
cannot be normalised; the normal form, the move log, and the type and message
of any exception must agree.  ``reference_scramble_graph`` keeps every graph
on its way, so the tests that check each scrambling step read its trace, and
the package's scramble must build the same graph from the same draws.
``freeze`` skips the constructor's checks and ``normalize`` checks its normal
form by shape alone, so the last properties here give every frozen graph to
the checked constructor and every normal form to the full ``validate``.

``reference_normalize`` builds the p-cycle by the same rule as the package,
on frozen graphs: a half-edge from vertex 0 to its rotate, else the slides
that take one other orbit along the lowest non-loop orbit to step 1 or p - 1
in the fewest moves (ties to the lowest orbit, then step 1, then forward).
It counts those slides by trying each count in turn, where the package
solves for it mod p.  Every orbit then needs at most p // 2 slides, so a
graph with k loop orbits per vertex normalises within (k + 1) * (p // 2).
"""

import importlib.util
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from graph_references import (
    arbitrary_graphs,
    orbit_rep,
    reference_expand_orbit,
    reference_random_valid_graph,
    reference_scramble_graph,
    reference_slide,
    vertex_orbit,
    vertex_orbit_count,
)
from oracles import geometric_orbit, orbit_step_multiset, random_valid_graph, unoriented_step
from tatek.graphs import (
    EdgeOrbitRef,
    EquivariantGraph,
    GraphStructureError,
    InvalidGraph,
    Move,
    NormalForm,
    NormalizationError,
    NotAForest,
    NotComposable,
    SameOrbit,
    _WorkingGraph,
    _halfedge_of_family_at,
    canonical_graph,
    dumps,
    edge_orbit_refs,
    expand_orbit,
    is_canonical_form,
    loads,
    normalize,
    oriented_step,
    rank,
    replay,
    scramble_graph,
    slide,
    validate,
)

GEN_GRAPHS = Path(__file__).resolve().parents[1] / "bench" / "gen_graphs.py"
PRIMES = (2, 3, 5, 7, 11, 13)


def _load_gen_graphs():
    spec = importlib.util.spec_from_file_location("bench_gen_graphs", GEN_GRAPHS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen_graphs = _load_gen_graphs()


# ---------------------------------------------------------------------------
# The frozen-graph implementations


def reference_collapse_orbit(g, e):
    h0 = e.half_edge
    u = g.attach[h0]
    w = g.attach[g.involution[h0]]
    if u == w:
        raise NotAForest(f"edge orbit of half-edge {h0} consists of loops")
    if w in vertex_orbit(g, u):
        raise NotAForest(
            f"edge orbit of half-edge {h0} joins vertex orbit {min(vertex_orbit(g, u))} "
            "to itself and is not a forest"
        )
    removed_half_edges = set(geometric_orbit(g, h0))
    merge = {}
    uk, wk = u, w
    for _ in range(g.p):
        merge[wk] = uk
        uk = g.vertex_action[uk]
        wk = g.vertex_action[wk]
    kept_vertices = [v for v in range(g.n_vertices) if v not in merge]
    new_vertex = {v: i for i, v in enumerate(kept_vertices)}
    kept_half = [h for h in range(g.n_half_edges) if h not in removed_half_edges]
    new_half = {h: i for i, h in enumerate(kept_half)}

    def vert(v):
        return new_vertex[merge.get(v, v)]

    return EquivariantGraph(
        p=g.p,
        n_vertices=len(kept_vertices),
        involution=tuple(new_half[g.involution[h]] for h in kept_half),
        attach=tuple(vert(g.attach[h]) for h in kept_half),
        vertex_action=tuple(new_vertex[g.vertex_action[v]] for v in kept_vertices),
        half_edge_action=tuple(new_half[g.half_edge_action[h]] for h in kept_half),
    )


def reference_apply_move(g, move):
    if move.op == "collapse":
        return reference_collapse_orbit(g, EdgeOrbitRef(move.source))
    return reference_slide(g, EdgeOrbitRef(move.source), EdgeOrbitRef(move.target))


def reference_slide_to_step(g, moving, over_family, target_step, moves):
    p = g.p
    j = oriented_step(g, over_family)
    if j == 0:
        raise GraphStructureError("cannot slide along a loop orbit")
    i = oriented_step(g, moving)
    if i == target_step:
        return g
    j_inv = pow(j, p - 2, p)
    forward = ((target_step - i) * j_inv) % p
    backward = ((i - target_step) * j_inv) % p
    if forward <= backward:
        count, family = forward, over_family
    else:
        count, family = backward, g.involution[over_family]
    for _ in range(count):
        tau = g.attach[g.involution[moving]]
        t_half = _halfedge_of_family_at(g, family, tau)
        g = reference_slide(g, EdgeOrbitRef(moving), EdgeOrbitRef(t_half))
        moves.append(Move("slide", moving, t_half))
    return g


def slides_to_step(g, moving, over_family, target_step):
    """The fewest slides of the orbit of ``moving`` along the family of
    ``over_family``, or of its reverse, to oriented step ``target_step``:
    each slide adds the step of ``over_family``, or takes it away."""
    i, j, p = oriented_step(g, moving), oriented_step(g, over_family), g.p
    return next(c for c in range(p) if target_step in {(i + c * j) % p, (i - c * j) % p})


def reference_unit_step_half(g):
    """The least half-edge at vertex 0 whose other end is the rotate of 0."""
    for h in g.half_edges_at(0):
        if g.attach[g.involution[h]] == g.vertex_action[0]:
            return h
    return None


def reference_normalize(g):
    report = validate(g)
    if not report.ok:
        raise InvalidGraph(report)
    input_rank = rank(g)
    moves = []

    while vertex_orbit_count(g) > 1:
        for ref in edge_orbit_refs(g):
            u = g.attach[ref.half_edge]
            w = g.attach[g.involution[ref.half_edge]]
            if w not in vertex_orbit(g, u):
                moves.append(Move("collapse", ref.half_edge))
                g = reference_collapse_orbit(g, ref)
                break
        else:
            raise AssertionError("connected graph with no inter-orbit edge orbit")

    cycle_half = reference_unit_step_half(g)
    if cycle_half is None:
        refs = [r.half_edge for r in edge_orbit_refs(g)]
        over = next(h for h in refs if oriented_step(g, h) != 0)
        candidates = [(h, step) for h in refs if h != over for step in (1, g.p - 1)]
        if not candidates:
            raise NormalizationError(
                f"the only edge orbit is a cycle of step {unoriented_step(g, over)}; "
                "no equivariant move can change it into the standard p-cycle"
            )
        moving, step = min(candidates, key=lambda c: slides_to_step(g, c[0], over, c[1]))
        g = reference_slide_to_step(g, moving, over, step, moves)
        cycle_half = reference_unit_step_half(g)

    for ref in edge_orbit_refs(g):
        if orbit_rep(g, ref.half_edge) == orbit_rep(g, cycle_half):
            continue
        g = reference_slide_to_step(g, ref.half_edge, cycle_half, 0, moves)

    steps = orbit_step_multiset(g)
    loops = steps.count(0)
    if not is_canonical_form(g):
        raise AssertionError(f"normalization ended off normal form: steps {steps}")
    if rank(g) != input_rank:
        raise AssertionError("normalization changed the rank")
    return NormalForm(p=g.p, loops_per_vertex=loops), tuple(moves)


# ---------------------------------------------------------------------------
# Comparison


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def assert_normalize_agrees(g):
    expected = _outcome(reference_normalize, g)
    assert _outcome(normalize, g) == expected
    return expected


def lone_cycle_graph(p, steps):
    """Vertices 0..p-1 rotated by +1; one edge orbit k -> k+j per step j."""
    involution, attach, action = [], [], []
    for index, j in enumerate(steps):
        base = 2 * p * index
        for i in range(p):
            involution += [base + 2 * i + 1, base + 2 * i]
            attach += [i, (i + j) % p]
            ni = (i + 1) % p
            action += [base + 2 * ni, base + 2 * ni + 1]
    return EquivariantGraph(
        p=p,
        n_vertices=p,
        involution=tuple(involution),
        attach=tuple(attach),
        vertex_action=tuple((i + 1) % p for i in range(p)),
        half_edge_action=tuple(action),
    )


def expand_randomly(g, rng, times):
    for _ in range(times):
        vertex = rng.randrange(g.n_vertices)
        moved = [h for h in g.half_edges_at(vertex) if rng.random() < 0.5]
        g, _ = reference_expand_orbit(g, vertex, moved)
    return g


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32),
    loops=st.integers(0, 6),
    slides=st.integers(0, 12),
    expansions=st.integers(0, 6),
)
# A scrambled graph with orbits of steps 3 and 5 and none of step +-1.
@example(p=13, seed=135, loops=1, slides=5, expansions=0)
def test_normalize_matches_reference_on_scrambled_graphs(p, seed, loops, slides, expansions):
    rng = Random(seed)
    g, _ = reference_scramble_graph(canonical_graph(p, loops), rng, slides, expansions)
    form, moves = assert_normalize_agrees(g)
    assert (form.p, form.loops_per_vertex) == (p, loops)
    assert sum(m.op == "slide" for m in moves) <= (loops + 1) * (p // 2)
    assert is_canonical_form(replay(g, moves))


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    k=st.integers(0, 20),
    seed=st.integers(0, 2**32),
)
def test_scramble_matches_reference(p, k, seed):
    """The same graph from the same random draws, in the same order, at the
    reference's caps of 6 slides and 4 expansions."""
    rng, twin = Random(seed), Random(seed)
    g = scramble_graph(canonical_graph(p, k), rng)
    expected, _ = reference_scramble_graph(canonical_graph(p, k), twin)
    assert g == expected
    assert rng.getstate() == twin.getstate()


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32),
    extra=st.integers(0, 8),
    slides=st.integers(1, 4),
    expansions=st.integers(1, 5),
)
def test_normalize_matches_reference_on_bench_shaped_graphs(p, seed, extra, slides, expansions):
    g = gen_graphs.scrambled(p, slides + extra, slides, expansions, Random(seed))
    form, moves = assert_normalize_agrees(g)
    ops = [m.op for m in moves]
    assert (form.loops_per_vertex, ops.count("collapse")) == (slides + extra, expansions)


@pytest.mark.parametrize("config", gen_graphs.GRAPH_CONFIGS, ids=str)
def test_normalize_matches_reference_on_the_bench_graphs(config):
    assert_normalize_agrees(gen_graphs.scrambled(*config, Random(1)))


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    steps=st.lists(st.integers(0, 12), min_size=1, max_size=3),
    seed=st.integers(0, 2**32),
    expansions=st.integers(0, 3),
)
def test_normalize_matches_reference_on_cycles_and_disconnected_graphs(p, steps, seed, expansions):
    """Edge orbits of given steps on one vertex orbit: a lone cycle of step
    other than +-1 ends in NormalizationError, all-loop graphs are
    disconnected and fail validation, and the rest normalise, many of them
    by sliding one orbit to step +-1 first."""
    g = lone_cycle_graph(p, [j % p for j in steps])
    g = expand_randomly(g, Random(seed), expansions)
    assert_normalize_agrees(g)


def test_lone_cycle_and_invalid_outcomes_are_drawn():
    lone = assert_normalize_agrees(lone_cycle_graph(5, [2]))
    assert lone[0] is NormalizationError and "step 2" in lone[1]
    expanded = assert_normalize_agrees(expand_randomly(lone_cycle_graph(7, [3]), Random(2), 2))
    assert expanded[0] is NormalizationError
    assert assert_normalize_agrees(lone_cycle_graph(3, [0]))[0] is InvalidGraph
    # Steps 2 and 5: two slides take the second orbit to step 1, two more
    # make the first one loops.
    form, moves = assert_normalize_agrees(lone_cycle_graph(13, [2, 5]))
    assert (form.loops_per_vertex, len(moves)) == (1, 4)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32),
    swaps=st.integers(1, 3),
)
def test_normalize_matches_reference_on_invalid_graphs(p, seed, swaps):
    rng = Random(seed)
    g = random_valid_graph(p, 3 * p + 1, rng)
    attach = list(g.attach)
    for _ in range(swaps):
        i, j = rng.randrange(len(attach)), rng.randrange(len(attach))
        attach[i], attach[j] = attach[j], attach[i]
    g = EquivariantGraph(
        p=g.p,
        n_vertices=g.n_vertices,
        involution=g.involution,
        attach=tuple(attach),
        vertex_action=g.vertex_action,
        half_edge_action=g.half_edge_action,
    )
    outcome = assert_normalize_agrees(g)
    assert validate(g).ok or outcome[0] is InvalidGraph


def partners_off_the_action_graph():
    """p = 3, the action +1 on the vertices and on each block of three
    half-edges, and an involution that does not commute with it: half-edges 0
    and 3 lie in different edge orbits, yet their partners 6 and 7 share an
    action cycle.  Sliding 0 across 3 rewrites that whole cycle."""
    return EquivariantGraph(
        p=3,
        n_vertices=3,
        involution=(6, 9, 10, 7, 11, 8, 0, 3, 5, 1, 2, 4),
        attach=tuple(h % 3 for h in range(12)),
        vertex_action=(1, 2, 0),
        half_edge_action=(1, 2, 0, 4, 5, 3, 7, 8, 6, 10, 11, 9),
    )


def test_slide_reads_every_end_before_writing_any():
    """On a valid graph the slid half-edges and the ends they take lie in two
    edge orbits; here they share a cycle, and each new end must still be the
    one before the move, as in the reference."""
    g = partners_off_the_action_graph()
    assert not validate(g).ok
    args = (g, EdgeOrbitRef(0), EdgeOrbitRef(3))
    assert slide(*args) == reference_slide(*args)
    assert slide(*args).attach[6:9] == (1, 2, 0)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_public_moves_match_reference(p, seed, data):
    """A one-collapse replay and slide on every kind of edge orbit of a valid
    graph, errors included, and replay against the move-by-move reference."""
    g, _ = reference_random_valid_graph(p, 4 * p + 1, Random(seed), 4, 2)
    h = data.draw(st.integers(0, g.n_half_edges - 1), label="collapse")
    assert _outcome(replay, g, [Move("collapse", h)]) == _outcome(
        reference_collapse_orbit, g, EdgeOrbitRef(h)
    )
    hs = data.draw(st.integers(0, g.n_half_edges - 1), label="s")
    ht = data.draw(st.integers(0, g.n_half_edges - 1), label="t")
    args = (g, EdgeOrbitRef(hs), EdgeOrbitRef(ht))
    assert _outcome(slide, *args) == _outcome(reference_slide, *args)

    _, moves = normalize(g)
    expected = g
    for move in moves:
        expected = reference_apply_move(expected, move)
    assert replay(g, moves) == expected


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_expand_orbit_matches_reference(p, seed, data):
    """Half-edges of the expanded vertex, with now and then one that is not
    attached there or not an integer index at all."""
    g, _ = reference_random_valid_graph(p, 4 * p + 1, Random(seed), 4, 2)
    vertex = data.draw(st.integers(0, g.n_vertices - 1), label="vertex")
    at = g.half_edges_at(vertex)
    moved = data.draw(st.lists(st.sampled_from(at), max_size=len(at)), label="moved")
    moved += data.draw(
        st.lists(st.integers(0, g.n_half_edges - 1) | st.booleans(), max_size=1), label="stray"
    )
    args = (g, vertex, moved)
    assert _outcome(expand_orbit, *args) == _outcome(reference_expand_orbit, *args)


def move_at_random(work, op, rng):
    """One move of kind ``op`` on a compact working graph, with its operands
    drawn from ``rng``; none if no move of that kind applies."""
    reps = work.orbit_reps()
    if op == "expand":
        vertex = rng.randrange(work.n_vertices)
        moved = [h for h, v in enumerate(work.attach) if v == vertex and rng.random() < 0.5]
        work.expand(vertex, moved)
    elif op == "slide" and work.n_vertex_orbits == 1 and len(reps) >= 2:
        s, t = rng.sample(reps, 2)
        hs = s if rng.random() < 0.5 else work.involution[s]
        ht = _halfedge_of_family_at(work, t, work.attach[work.involution[hs]])
        work.slide(hs, ht)
    elif op == "collapse":
        ends = [(work.attach[h], work.attach[work.involution[h]]) for h in reps]
        orbit = work.vertex_orbit_rep
        forests = [h for h, (u, w) in zip(reps, ends) if orbit(u) != orbit(w)]
        if forests:
            work.collapse(rng.choice(forests))
            work.compact()


def assert_representatives_fresh(g):
    fresh = loads(dumps(g))
    assert g._edge_orbit_reps == fresh._edge_orbit_reps
    assert g._vertex_orbit_reps == fresh._vertex_orbit_reps


# One failure reported: a wrong representative can also let a later slide or
# collapse break the graph.
@settings(max_examples=150, deadline=None, report_multiple_bugs=False)
@given(
    p=st.sampled_from(PRIMES),
    k=st.integers(0, 6),
    seed=st.integers(0, 2**32),
    ops=st.lists(st.sampled_from(["slide", "collapse", "expand"]), max_size=12),
    reload_at=st.integers(0, 12),
)
def test_frozen_representatives_equal_fresh_ones(p, k, seed, ops, reload_at):
    """Any mix of moves on one working copy, frozen and loaded again part way
    through: the representatives each frozen graph was handed are those a
    fresh copy derives from its cycle index."""
    rng = Random(seed)
    work = _WorkingGraph(canonical_graph(p, k))
    for i, op in enumerate(ops):
        if i == reload_at:
            g = work.freeze()
            assert_representatives_fresh(g)
            work = _WorkingGraph(g)
        move_at_random(work, op, rng)
    g = work.freeze()
    assert_representatives_fresh(g)
    assert validate(g).ok


def assert_constructor_accepts(g):
    """The checked constructor, given ``g``'s own arrays, builds ``g``."""
    try:
        again = EquivariantGraph(
            p=g.p,
            n_vertices=g.n_vertices,
            involution=g.involution,
            attach=g.attach,
            vertex_action=g.vertex_action,
            half_edge_action=g.half_edge_action,
        )
    except GraphStructureError as exc:
        raise AssertionError(f"the constructor refuses a frozen graph: {exc}") from exc
    assert again == g


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    k=st.integers(0, 6),
    seed=st.integers(0, 2**32),
    ops=st.lists(st.sampled_from(["slide", "collapse", "expand"]), max_size=12),
)
def test_frozen_graphs_pass_the_constructor_checks(p, k, seed, ops):
    """``freeze`` skips the constructor's checks: after any mix of scrambling
    moves, and after each move of the log that normalises the result, the
    frozen graph is the one the checked constructor builds from its arrays."""
    rng = Random(seed)
    work = _WorkingGraph(canonical_graph(p, k))
    for op in ops:
        move_at_random(work, op, rng)
    g = work.freeze()
    assert_constructor_accepts(g)
    _, moves = normalize(g)
    for move in moves:
        g = replay(g, [move])
        assert_constructor_accepts(g)


# Indices from just below 0 to just above the largest arbitrary graph.
INDICES = st.integers(-2, 14)


@settings(max_examples=300, deadline=None)
@given(
    g=arbitrary_graphs(),
    op=st.sampled_from(["collapse", "slide", "expand"]),
    first=INDICES,
    second=INDICES,
    moved=st.lists(INDICES, max_size=3),
)
# An expansion at vertex -1 would attach half-edges to vertex -1.
@example(g=canonical_graph(3, 1), op="expand", first=-1, second=0, moved=[])
def test_a_move_on_any_graph_freezes_what_the_constructor_accepts(g, op, first, second, moved):
    """Valid or not, a graph that passed the constructor stays one it passes
    under any move that is not refused, indices outside the graph included."""
    try:
        if op == "expand":
            out, _ = expand_orbit(g, first, moved)
        else:
            out = replay(g, [Move(op, first, second if op == "slide" else None)])
    except (GraphStructureError, NotAForest, SameOrbit, NotComposable):
        return
    assert_constructor_accepts(out)


def normalize_keeping_its_graph(g):
    """``normalize(g)`` and the graph it froze, its normal form."""
    frozen = []
    freeze = _WorkingGraph.freeze

    def keeping(self):
        frozen.append(freeze(self))
        return frozen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_WorkingGraph, "freeze", keeping)
        result = normalize(g)
    (normal,) = frozen
    return result, normal


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7, 13)),
    k=st.integers(0, 6),
    seed=st.integers(0, 2**32),
    slides=st.integers(0, 12),
    expansions=st.integers(0, 6),
)
def test_normal_forms_pass_the_full_validation(p, k, seed, slides, expansions):
    """``normalize`` checks its result by shape alone; each normal form it
    builds must also pass ``validate`` in full and be what its log replays to."""
    g, _ = reference_scramble_graph(canonical_graph(p, k), Random(seed), slides, expansions)
    (form, moves), normal = normalize_keeping_its_graph(g)
    assert (form.p, form.loops_per_vertex) == (p, k)
    assert validate(normal).ok and is_canonical_form(normal)
    assert orbit_step_multiset(normal) == [0] * k + [1]
    assert replay(g, moves) == normal
    assert_constructor_accepts(normal)
