"""Finite graphs with a free Z/p rotation, equivariant moves, and normal forms.

Graphs are stored combinatorially with half-edges: a fixed-point-free
involution pairs the two half-edges of each geometric edge, an attachment map
sends half-edges to vertices, and the Z/p action is a pair of permutations
(vertices, half-edges) commuting with both.  All moves are whole-orbit and
atomic: a single move collapses or slides an entire Z/p-orbit of edges, so
equivariance can never be transiently broken.  Graphs are immutable; the
public moves return new graphs.  Every move runs on one private mutable
working copy, ``_WorkingGraph``: ``slide``, ``expand_orbit`` (the inverse of
a collapse) and ``replay`` (a move log, such as one collapse
``[Move("collapse", h)]``) load it, make the moves and freeze the result;
``normalize`` and ``scramble_graph`` (demo and test graphs, built by inverse
moves) freeze one copy after all their moves.  A frozen graph keeps the orbit
representatives its copy kept current, so loading it walks no cycle index.

Each graph is checked once.  The constructor checks types, the prime and the
permutations of a graph that enters from outside (a file, ``canonical_graph``,
a caller); ``freeze`` hands its arrays over without those checks, since every
move refuses an index outside the graph and the moves take a graph that passes
them to one that passes them.  ``validate`` keeps its report on the graph,
which is immutable, so a graph validated again is not walked again.

The normal form is the rose-cycle graph: p vertices in a single orbit, one
edge orbit forming a p-cycle compatible with the rotation, and k loop orbits
(k loops at each vertex), of rank p*k + 1.  ``normalize`` reduces any valid
graph to this shape in three phases: collapse inter-orbit edge orbits down
to one vertex orbit, take an orbit of step +-1 as the cycle (first sliding
one other orbit to that step if none has it), and slide the rest to loops.
It returns a move log that replays the reduction step by step, of at most
p // 2 slides per edge orbit.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from operator import eq, itemgetter
from random import Random
from typing import Iterable, Sequence

from ._value import Value, _shown
from .modp import check_prime


class GraphStructureError(ValueError):
    """Malformed graph data: sizes, ranges, or non-permutation maps."""


class NotAForest(ValueError):
    """The edge orbit to collapse contains a loop or closes a cycle."""


class SameOrbit(ValueError):
    """Slide source and target lie in the same geometric edge orbit."""


class NotComposable(ValueError):
    """Slide endpoints do not match: need tau(s) = iota(t) for the given reps."""


class InvalidGraph(ValueError):
    """An operation that requires a valid graph received an invalid one."""

    def __init__(self, report: "ValidityReport"):
        lines = "; ".join(f"{code}: {msg}" for code, msg in report.violations)
        super().__init__(f"graph fails validation: {lines}")


class NormalizationError(RuntimeError):
    """The graph admits no move sequence to the rose-cycle normal form."""


# The largest graph file, in half-edges and in vertices, that ``from_json_obj``
# accepts; the CLI's demo graphs are held to the same bound.  ``normalize``
# grows about linearly in H: at the bound the slowest of 60 scrambled seeds
# (p = 2 and 3) took 0.26 s of process time (median 0.12 s) on a 2-vCPU Xeon
# with Python 3.11.  ``normalize --input`` on a scrambled file at the bound
# peaks at 54 MB RSS (p = 2, 100,000 half-edges) and 53 MB (p = 97, 97,194)
# on that host.
MAX_HALF_EDGES = 100_000

# The longest graph file, in characters, that ``normalize --input`` reads; a
# longer one is refused before it is parsed.  ``dumps`` writes 85 to 94
# characters per half-edge (8.47 MB for ``canonical_p2_k24999`` at the bound
# above, 9.38 MB for ``canonical_p49999_k0``), so no file that tatek writes
# comes near it.  ``normalize --input`` passes the text to ``loads`` as a
# temporary, which drops it once it is parsed, so the text is never held
# beside the graph built from it.
MAX_GRAPH_FILE_CHARS = 32 * 2**20


class GraphTooLarge(ValueError):
    """A graph has more than ``MAX_HALF_EDGES`` half-edges or vertices, or its
    file more than ``MAX_GRAPH_FILE_CHARS`` characters."""


def _check_ints(values: tuple, name: str) -> tuple[int, ...]:
    """Refuse floats, booleans, strings: ``int(x)`` would silently truncate them."""
    if not {int}.issuperset(map(type, values)):
        bad = next(x for x in values if type(x) is not int)
        raise GraphStructureError(f"{name} entry {_shown(bad)} is not an integer")
    return values


def _counts_up(values: Sequence[int]) -> bool:
    """Whether ``values`` is exactly 0, 1, ..., len(values) - 1, compared
    lazily: no list of the range is built."""
    return all(map(eq, values, range(len(values))))


def _check_perm(perm: Sequence[int], size: int, name: str) -> tuple[int, ...]:
    values = _check_ints(tuple(perm), name)
    if len(values) != size or not _counts_up(sorted(values)):
        raise GraphStructureError(f"{name} is not a permutation of 0..{size - 1}")
    return values


class _Cycles:
    """The cycles of a permutation, each listed from its smallest point in
    action order, with every point's cycle id and position in its cycle."""

    __slots__ = ("cycles", "cycle_id", "position")

    def __init__(self, perm: tuple[int, ...]) -> None:
        n = len(perm)
        cycle_id = [-1] * n
        position = [0] * n
        cycles: list[tuple[int, ...]] = []
        for start in range(n):
            if cycle_id[start] >= 0:
                continue
            c = len(cycles)
            cycle = [start]
            cycle_id[start] = c
            x = perm[start]
            while x != start:
                cycle_id[x] = c
                position[x] = len(cycle)
                cycle.append(x)
                x = perm[x]
            cycles.append(tuple(cycle))
        self.cycles = cycles
        self.cycle_id = cycle_id
        self.position = position

    def cycle(self, x: int) -> tuple[int, ...]:
        return self.cycles[self.cycle_id[x]]


class EquivariantGraph(Value):
    """A finite graph together with a Z/p action given by two permutations."""

    p: int
    n_vertices: int
    involution: tuple[int, ...]
    attach: tuple[int, ...]
    vertex_action: tuple[int, ...]
    half_edge_action: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.p) is not int:
            raise GraphStructureError(f"p must be an integer, got {_shown(self.p)}")
        if type(self.n_vertices) is not int:
            raise GraphStructureError(
                f"vertex count must be an integer, got {_shown(self.n_vertices)}"
            )
        check_prime(self.p)
        if self.n_vertices < 1:
            raise GraphStructureError("graph needs at least one vertex")
        h = len(self.involution)
        object.__setattr__(self, "involution", _check_perm(self.involution, h, "involution"))
        object.__setattr__(
            self, "half_edge_action", _check_perm(self.half_edge_action, h, "half_edge_action")
        )
        object.__setattr__(
            self,
            "vertex_action",
            _check_perm(self.vertex_action, self.n_vertices, "vertex_action"),
        )
        attach = _check_ints(tuple(self.attach), "attach")
        if len(attach) != h:
            raise GraphStructureError("attach must assign a vertex to every half-edge")
        if attach and (min(attach) < 0 or max(attach) >= self.n_vertices):
            bad = next(v for v in attach if not 0 <= v < self.n_vertices)
            raise GraphStructureError(f"attach value {bad} out of range")
        object.__setattr__(self, "attach", attach)

    # -- cycle index -------------------------------------------------------

    @cached_property
    def _vertex_cycles(self) -> _Cycles:
        """Cycles of ``vertex_action``, derived once per (immutable) graph."""
        return _Cycles(self.vertex_action)

    @cached_property
    def _half_edge_cycles(self) -> _Cycles:
        """Cycles of ``half_edge_action``, derived once per (immutable) graph."""
        return _Cycles(self.half_edge_action)

    @cached_property
    def _edge_orbit_reps(self) -> tuple[int, ...]:
        """Each half-edge's edge-orbit representative, the least half-edge of
        the Z/p-orbit of its geometric edge: the smaller of the cycle minima
        of h and of its partner."""
        cycles = self._half_edge_cycles
        minimum = list(map([c[0] for c in cycles.cycles].__getitem__, cycles.cycle_id))
        partner = map(minimum.__getitem__, self.involution)
        return tuple([a if a < b else b for a, b in zip(minimum, partner)])

    @cached_property
    def _vertex_orbit_reps(self) -> tuple[int, ...]:
        """Each vertex's vertex-orbit representative, the least of its cycle."""
        cycles = self._vertex_cycles
        return tuple(map([c[0] for c in cycles.cycles].__getitem__, cycles.cycle_id))

    @cached_property
    def _validity(self) -> "ValidityReport":
        """``validate``'s report, derived once per (immutable) graph."""
        return _axiom_report(self)

    # -- basic shape -------------------------------------------------------

    @property
    def n_half_edges(self) -> int:
        return len(self.involution)

    @property
    def n_edges(self) -> int:
        return self.n_half_edges // 2

    def half_edges_at(self, v: int) -> list[int]:
        return [h for h in range(self.n_half_edges) if self.attach[h] == v]


class EdgeOrbitRef(Value):
    """A Z/p-orbit of edges, named by one half-edge; the index also fixes an
    orientation (iota = attach[half_edge], tau = attach[involution[half_edge]])."""

    half_edge: int


def edge_orbit_refs(g: EquivariantGraph) -> list[EdgeOrbitRef]:
    """Canonical representatives (minimal half-edge index) of all edge orbits;
    O(H) from the cycle index."""
    return [EdgeOrbitRef(r) for r in sorted(set(g._edge_orbit_reps))]


# ---------------------------------------------------------------------------
# Validation


class ValidityReport(Value):
    ok: bool
    violations: tuple[tuple[str, str], ...]


def _connected(g: EquivariantGraph) -> bool:
    neighbours: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for h, partner in enumerate(g.involution):
        neighbours[g.attach[h]].append(g.attach[partner])
    seen = {0}
    stack = [0]
    while stack:
        for w in neighbours[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n_vertices


def _first_vertex_fixing_power(g: EquivariantGraph) -> int | None:
    """The least k in 1..p-1 such that action^k fixes some vertex, or None.

    A vertex is fixed by power k exactly when its cycle length divides k, so
    k is the least cycle length below p.
    """
    short = [len(c) for c in g._vertex_cycles.cycles if len(c) < g.p]
    return min(short) if short else None


def validate(g: EquivariantGraph) -> ValidityReport:
    """Check the action axioms; each violated invariant is named individually.

    Codes: InvolutionViolation, ActionOrderViolation, EquivarianceViolation,
    FreenessViolation, ConnectivityViolation.  O(V + H): the order and
    freeness checks read cycle lengths and positions from the graph's cycle
    index.  The report is kept on the graph, so validating it again is O(1).
    """
    return g._validity


def _axiom_report(g: EquivariantGraph) -> ValidityReport:
    violations: list[tuple[str, str]] = []
    inv, attach, action, rotate = g.involution, g.attach, g.half_edge_action, g.vertex_action
    for h in range(g.n_half_edges):
        if inv[h] == h:
            violations.append(("InvolutionViolation", f"half-edge {h} is its own partner"))
            break
        if inv[inv[h]] != h:
            violations.append(("InvolutionViolation", f"pairing broken at half-edge {h}"))
            break

    vertex_cycles, half_cycles = g._vertex_cycles, g._half_edge_cycles
    # action^p is the identity exactly when every cycle length divides p.
    if any(g.p % len(c) for c in vertex_cycles.cycles) or any(
        g.p % len(c) for c in half_cycles.cycles
    ):
        violations.append(("ActionOrderViolation", f"action order does not divide p = {g.p}"))

    for h in range(g.n_half_edges):
        if attach[action[h]] != rotate[attach[h]]:
            violations.append(
                ("EquivarianceViolation", f"attach not equivariant at half-edge {h}")
            )
            break
    for h in range(g.n_half_edges):
        if inv[action[h]] != action[inv[h]]:
            violations.append(
                ("EquivarianceViolation", f"involution not equivariant at half-edge {h}")
            )
            break

    k = _first_vertex_fixing_power(g)
    if k is not None:
        v0 = min(c[0] for c in vertex_cycles.cycles if k % len(c) == 0)
        violations.append(("FreenessViolation", f"power {k} of the action fixes vertex {v0}"))
    else:
        # For p = 2 a rotation may map an edge to itself reversed, fixing its
        # midpoint geometrically; combinatorially: some power sends a
        # half-edge to its partner.  Disallowed alongside vertex freeness.
        # action^k(h) = partner(h) exactly when the partner lies on h's cycle
        # at offset k mod the cycle length; take the least (k, h).
        flips = []
        cycle_id, position = half_cycles.cycle_id, half_cycles.position
        for h, partner in enumerate(inv):
            if cycle_id[partner] == cycle_id[h]:
                length = len(half_cycles.cycle(h))
                k = (position[partner] - position[h]) % length or length
                if k < g.p:
                    flips.append((k, h))
        if flips:
            k, h = min(flips)
            violations.append(
                (
                    "FreenessViolation",
                    f"power {k} maps half-edge {h} to its own partner "
                    "(fixed edge midpoint)",
                )
            )

    if not _connected(g):
        violations.append(("ConnectivityViolation", "graph is not connected"))

    return ValidityReport(ok=not violations, violations=tuple(violations))


def rank(g: EquivariantGraph) -> int:
    """First Betti number of a connected graph: edges - vertices + 1."""
    return g.n_edges - g.n_vertices + 1


# ---------------------------------------------------------------------------
# Moves


class _WorkingGraph:
    """A mutable copy of an :class:`EquivariantGraph` that whole-orbit moves
    update in place, each in O(p) apart from one O(H) renumbering.

    A slide rewrites the p attachments it moves, and an expansion appends p
    vertices and 2p half-edges.  A collapse marks the half-edges of its orbit
    removed and points each vertex of the merged orbit at the vertex it
    merges into (a union-find), so nothing is renumbered until
    :meth:`compact`.  Until then indices are those of the loaded graph, and
    :meth:`index_of` gives a half-edge's index in the collapsed graph.  The
    orbit representatives start as the loaded graph's, and the moves keep
    them current (a collapse removes one edge orbit and one vertex orbit
    whole, an expansion adds one of each) for :meth:`freeze` to hand over.

    Once compact, a working graph has the fields of an ``EquivariantGraph``
    (``p``, ``involution``, ``attach``, ``vertex_action``,
    ``half_edge_action``, ``n_vertices``, ``n_half_edges``), so the module's
    read-only helpers accept it.  The moves raise the errors of the public
    moves, with the working graph's indices in their messages: :meth:`apply`
    compacts first, so these are the caller's.
    """

    __slots__ = (
        "p", "involution", "attach", "vertex_action", "half_edge_action",
        "n_vertex_orbits", "_rep", "_orbit", "_merged", "_live", "_compact",
    )

    def __init__(self, g: EquivariantGraph) -> None:
        self.p = g.p
        self.involution = list(g.involution)
        self.attach = list(g.attach)
        self.vertex_action = list(g.vertex_action)
        self.half_edge_action = list(g.half_edge_action)
        self._rep = g._edge_orbit_reps
        self._orbit = g._vertex_orbit_reps
        self.n_vertex_orbits = len(set(self._orbit))
        self._merged = list(range(g.n_vertices))
        self._live = bytearray(b"\x01") * g.n_half_edges
        self._compact = True

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_action)

    @property
    def n_half_edges(self) -> int:
        return len(self.involution)

    def orbit_rep(self, h: int) -> int:
        return self._rep[h]

    def orbit_reps(self) -> list[int]:
        """The representative of every edge orbit, in index order."""
        return [h for h, rep in enumerate(self._rep) if h == rep]

    def vertex_orbit_rep(self, v: int) -> int:
        return self._orbit[self._find(v)]

    def _find(self, v: int) -> int:
        """The vertex that v has been merged into (v itself if none)."""
        merged = self._merged
        while merged[v] != v:
            merged[v] = merged[merged[v]]
            v = merged[v]
        return v

    def _check_half_edge(self, h: int) -> None:
        """Refuse an index that names no half-edge: a negative one would
        otherwise count from the end."""
        if type(h) is not int or not 0 <= h < len(self.involution):
            raise GraphStructureError(
                f"half-edge {_shown(h)} is not an index in 0..{len(self.involution) - 1}"
            )

    def index_of(self, h: int) -> int:
        """The index of live half-edge h once the graph is compacted."""
        return self._live.count(1, 0, h)

    def collapse(self, h0: int) -> None:
        """Contract the p disjoint edges of h0's orbit, an equivariant forest
        joining two vertex orbits: p vertices go and the rank stays.
        :class:`NotAForest` if the orbit is loops or joins an orbit to itself."""
        self._check_half_edge(h0)
        inv = self.involution
        u = self._find(self.attach[h0])
        w = self._find(self.attach[inv[h0]])
        if u == w:
            raise NotAForest(f"edge orbit of half-edge {h0} consists of loops")
        if self._orbit[u] == self._orbit[w]:
            raise NotAForest(
                f"edge orbit of half-edge {h0} joins vertex orbit {self._orbit[u]} "
                "to itself and is not a forest"
            )
        live, action = self._live, self.half_edge_action
        for x in (h0, inv[h0]):
            while live[x]:
                live[x] = 0
                x = action[x]
        # Merge each w_k = action^k(w) into u_k = action^k(u).
        merged, vertex_action = self._merged, self.vertex_action
        for _ in range(self.p):
            merged[w] = u
            u = vertex_action[u]
            w = vertex_action[w]
        self.n_vertex_orbits -= 1
        self._compact = False

    def slide(self, hs: int, ht: int) -> None:
        """Slide on a compact working graph: every attachment is current."""
        self._check_half_edge(hs)
        self._check_half_edge(ht)
        if self.n_vertex_orbits != 1:
            raise GraphStructureError("slide requires a single vertex orbit")
        if self._rep[hs] == self._rep[ht]:
            raise SameOrbit(
                f"half-edges {hs} and {ht} lie in the same geometric edge orbit"
            )
        attach, inv, action = self.attach, self.involution, self.half_edge_action
        if attach[inv[hs]] != attach[ht]:
            raise NotComposable(
                f"tau(s) = {attach[inv[hs]]} differs from iota(t) = {attach[ht]}"
            )
        # Read every new end before writing any, as if from the graph before
        # the move.
        src, dst = inv[hs], inv[ht]
        ends = []
        for _ in range(self.p):
            ends.append((src, attach[dst]))
            src = action[src]
            dst = action[dst]
        for src, v in ends:
            attach[src] = v

    def expand(self, vertex: int, moved: Iterable[int]) -> int:
        """``expand_orbit`` on a compact working graph: w_k = V + k is joined
        to action^k(vertex) by half-edges H + 2k and H + 2k + 1.  Returns H."""
        if type(vertex) is not int or not 0 <= vertex < self.n_vertices:
            raise GraphStructureError(
                f"vertex {_shown(vertex)} is not an index in 0..{self.n_vertices - 1}"
            )
        moved_k = sorted(set(_check_ints(tuple(moved), "moved half-edge")))
        attach, inv, action = self.attach, self.involution, self.half_edge_action
        for h in moved_k:
            self._check_half_edge(h)
            if attach[h] != vertex:
                raise GraphStructureError(
                    f"half-edge {h} is attached to {attach[h]}, not to {vertex}"
                )
        V, H, p = self.n_vertices, self.n_half_edges, self.p
        x = vertex  # action^k(vertex), as moved_k is action^k of each moved half-edge
        for k in range(p):
            attach += (x, V + k)
            for h in moved_k:
                attach[h] = V + k
            x = self.vertex_action[x]
            moved_k = [action[h] for h in moved_k]
        for k in range(p):
            nxt = H + 2 * ((k + 1) % p)
            inv += (H + 2 * k + 1, H + 2 * k)
            action += (nxt, nxt + 1)
        self.vertex_action += [V + (k + 1) % p for k in range(p)]
        self._rep = [*self._rep, *[H] * (2 * p)]
        self._orbit = [*self._orbit, *[V] * p]
        self._merged += range(V, V + p)
        self._live += b"\x01" * (2 * p)
        self.n_vertex_orbits += 1
        return H

    def apply(self, move: "Move") -> None:
        if move.op == "collapse":
            self.compact()
            self.collapse(move.source)
        elif move.op == "slide":
            if move.target is None:
                raise ValueError("slide move needs a target half-edge")
            self.compact()
            self.slide(move.source, move.target)
        else:
            raise ValueError(f"unknown move op: {move.op!r}")

    def compact(self) -> None:
        """Drop what collapses removed and renumber the rest in index order,
        as the collapsed graph numbers them: O(V + H)."""
        if self._compact:
            return
        kept = list(compress(range(self.n_half_edges), self._live))
        new_half = [-1] * self.n_half_edges
        for i, h in enumerate(kept):
            new_half[h] = i
        kept_vertices = [v for v, root in enumerate(self._merged) if v == root]
        new_vertex = [-1] * self.n_vertices
        for i, v in enumerate(kept_vertices):
            new_vertex[v] = i
        vertex_of = [new_vertex[self._find(v)] for v in range(self.n_vertices)]
        inv, attach, action, rep = self.involution, self.attach, self.half_edge_action, self._rep
        vertex_action, orbit = self.vertex_action, self._orbit
        self.involution = [new_half[inv[h]] for h in kept]
        self.attach = [vertex_of[attach[h]] for h in kept]
        self.half_edge_action = [new_half[action[h]] for h in kept]
        self._rep = [new_half[rep[h]] for h in kept]
        self.vertex_action = [new_vertex[vertex_action[v]] for v in kept_vertices]
        self._orbit = [new_vertex[orbit[v]] for v in kept_vertices]
        if -1 in self.involution or -1 in self.half_edge_action or -1 in self.vertex_action:
            # Only a graph that fails validate gets here: its involution or an
            # action leads from a kept half-edge or vertex to a removed one.
            raise GraphStructureError("a collapse removed the partner or image of a kept element")
        self._merged = list(range(len(kept_vertices)))
        self._live = bytearray(b"\x01") * len(kept)
        self._compact = True

    def freeze(self) -> EquivariantGraph:
        """The graph of the working copy, holding the representatives the
        moves kept current in place of deriving them from its cycle index.
        It is built without the constructor's checks (26 ms at 100,000
        half-edges): the copy was loaded from a checked graph, and each move
        checked the indices it was given."""
        self.compact()
        g = EquivariantGraph.__new__(EquivariantGraph)
        for name, value in (
            ("p", self.p),
            ("n_vertices", self.n_vertices),
            ("involution", tuple(self.involution)),
            ("attach", tuple(self.attach)),
            ("vertex_action", tuple(self.vertex_action)),
            ("half_edge_action", tuple(self.half_edge_action)),
            ("_edge_orbit_reps", tuple(self._rep)),
            ("_vertex_orbit_reps", tuple(self._orbit)),
        ):
            object.__setattr__(g, name, value)
        return g


def expand_orbit(
    g: EquivariantGraph, vertex: int, moved: Iterable[int]
) -> tuple[EquivariantGraph, EdgeOrbitRef]:
    """Equivariant expansion, the inverse of a collapse: a new vertex orbit
    w_k, joined to the orbit of ``vertex`` by a new edge orbit, takes the
    half-edges in ``moved`` (all attached at ``vertex``), replicated across
    the orbit.  Returns the new graph and a reference to the new edge orbit,
    oriented old -> new."""
    work = _WorkingGraph(g)
    h = work.expand(vertex, moved)
    return work.freeze(), EdgeOrbitRef(h)


def slide(g: EquivariantGraph, s: EdgeOrbitRef, t: EdgeOrbitRef) -> EquivariantGraph:
    """Equivariant Whitehead slide of orbit s across orbit t.

    Requires a single vertex orbit, distinct orbits, and representatives that
    form a coherently oriented length-2 path: tau(s) = iota(t).  The result
    differs only in that tau(s) becomes tau(t), replicated across the orbit;
    rank, freeness, connectivity and all orbit sizes are preserved.
    """
    work = _WorkingGraph(g)
    work.slide(s.half_edge, t.half_edge)
    return work.freeze()


# ---------------------------------------------------------------------------
# Single-orbit structure helpers


def oriented_step(g: EquivariantGraph, h: int) -> int:
    """j with tau(h) = action^j(iota(h)); defined when one vertex orbit."""
    src = g.attach[h]
    dst = g.attach[g.involution[h]]
    x = src
    for j in range(g.p):
        if x == dst:
            return j
        x = g.vertex_action[x]
    raise GraphStructureError("endpoints lie in different vertex orbits")


def canonical_graph(p: int, k: int) -> EquivariantGraph:
    """The rose-cycle normal form: a p-cycle orbit plus k loop orbits per vertex."""
    check_prime(p)
    if k < 0:
        raise ValueError("loop count must be >= 0")
    involution: list[int] = []
    attach: list[int] = []
    half_action: list[int] = []
    # Cycle half-edges: 2i from vertex i, 2i+1 from vertex i+1.
    for i in range(p):
        involution += [2 * i + 1, 2 * i]
        attach += [i, (i + 1) % p]
        nxt = (i + 1) % p
        half_action += [2 * nxt, 2 * nxt + 1]
    base = 2 * p
    for j in range(k):
        for i in range(p):
            a = base + 2 * (j * p + i)
            involution += [a + 1, a]
            attach += [i, i]
            ni = base + 2 * (j * p + (i + 1) % p)
            half_action += [ni, ni + 1]
    return EquivariantGraph(
        p=p,
        n_vertices=p,
        involution=tuple(involution),
        attach=tuple(attach),
        vertex_action=tuple((i + 1) % p for i in range(p)),
        half_edge_action=tuple(half_action),
    )


def _has_rose_cycle_shape(g: EquivariantGraph) -> bool:
    """p vertices in one vertex orbit, exactly 2p half-edges whose two ends
    differ by one rotation step, and every other half-edge a loop: one O(H)
    pass.  On a valid graph every edge orbit has 2p half-edges, all loops or
    none, so the 2p are one edge orbit, the p-cycle."""
    p, attach, rotate = g.p, g.attach, g.vertex_action
    if g.n_vertices != p or len(g._vertex_cycles.cycles) != 1:
        return False
    ends = [(u, w) for u, w in zip(attach, map(attach.__getitem__, g.involution)) if u != w]
    return len(ends) == 2 * p and all(rotate[u] == w or rotate[w] == u for u, w in ends)


def is_canonical_form(g: EquivariantGraph) -> bool:
    """Structurally the rose-cycle graph: valid, one vertex orbit, one cycle
    orbit of unoriented step 1, and loops otherwise."""
    return validate(g).ok and _has_rose_cycle_shape(g)


# ---------------------------------------------------------------------------
# Normal form


class NormalForm(Value):
    """Rose-cycle shape: rank = p * loops_per_vertex + 1."""

    p: int
    loops_per_vertex: int

    @property
    def rank(self) -> int:
        return self.p * self.loops_per_vertex + 1


class Move(Value):
    """One whole-orbit move, referring to half-edge indices of the graph it is
    applied to (indices shift across collapses, so logs replay sequentially)."""

    op: str  # "collapse" | "slide"
    source: int
    target: int | None = None


def replay(g: EquivariantGraph, moves: Iterable[Move]) -> EquivariantGraph:
    """Apply a move log in order on one working copy; each move's indices
    refer to the graph left by the moves before it."""
    work = _WorkingGraph(g)
    for move in moves:
        work.apply(move)
    return work.freeze()


def _unit_step_half(g: EquivariantGraph) -> int | None:
    """The least half-edge at vertex 0 whose other end is vertex 0's rotate,
    if any: a half-edge of an orbit of unoriented step 1 (one vertex orbit)."""
    attach, inv, rotate = g.attach, g.involution, g.vertex_action[0]
    return next((h for h, v in enumerate(attach) if v == 0 and attach[inv[h]] == rotate), None)


def _halfedge_of_family_at(g: EquivariantGraph, family_rep: int, vertex: int) -> int:
    """The unique half-edge of {action^k(family_rep)} attached at vertex."""
    h = family_rep
    for _ in range(g.p):
        if g.attach[h] == vertex:
            return h
        h = g.half_edge_action[h]
    raise GraphStructureError(
        f"no half-edge of the family of {family_rep} is attached at {vertex}"
    )


def _slide_plan(
    g: EquivariantGraph, moving: int, over_family: int, target_step: int
) -> tuple[int, int]:
    """The fewest slides that take the orbit of ``moving`` along the family
    of ``over_family``, or of its reverse, to oriented step ``target_step``,
    and the family to slide along; forward on a tie.  The two counts sum to
    0 mod p, so the fewer is at most p // 2."""
    p = g.p
    j = oriented_step(g, over_family)
    if j == 0:
        raise GraphStructureError("cannot slide along a loop orbit")
    forward = (target_step - oriented_step(g, moving)) * pow(j, p - 2, p) % p
    backward = -forward % p
    if forward <= backward:
        return forward, over_family
    return backward, g.involution[over_family]


def _slide_to_step(
    work: _WorkingGraph,
    moving: int,
    over_family: int,
    target_step: int,
    moves: list[Move],
) -> None:
    """Slide the orbit of ``moving`` as :func:`_slide_plan` says."""
    count, family = _slide_plan(work, moving, over_family, target_step)
    for _ in range(count):
        tau = work.attach[work.involution[moving]]
        t_half = _halfedge_of_family_at(work, family, tau)
        work.slide(moving, t_half)
        moves.append(Move("slide", moving, t_half))


def normalize(g: EquivariantGraph) -> tuple[NormalForm, tuple[Move, ...]]:
    """Reduce a valid graph to the rose-cycle normal form.

    Three phases: collapse edge orbits joining distinct vertex orbits until a
    single orbit remains; take an edge orbit of unoriented step 1 as the
    p-cycle, or, if there is none, slide one other orbit along the lowest
    non-loop orbit to step 1 or p - 1 in the fewest slides (ties to the
    lowest orbit, then to step 1, then forward); slide every other orbit
    along that cycle until it consists of loops.  Each orbit takes at most
    p // 2 slides, so a graph with k loop orbits per vertex normalises within
    (k + 1) * (p // 2) slides.  The returned move log replays to a canonical
    graph, each move in the indices of the graph the moves before it left;
    the input rank is preserved and equals p * k + 1.

    All moves run on one working copy and only the normal form is built as an
    ``EquivariantGraph``.  A slide costs O(p), a collapse O(p) plus an O(H)
    byte count for its logged index, and the working copy is renumbered once,
    after the last collapse.  Phase 2 is one O(H) scan for the cycle; with
    none found, one more O(H) pass picks the orbit to slide.  ``validate``
    runs once, on the input (and not again if the caller already validated
    it); the normal form is frozen without the constructor's checks and
    checked by its shape in one O(H) pass, since the moves keep a valid graph
    valid.  So the time grows about linearly in H on scrambled graphs, about
    1.5 us per half-edge: the slowest of 10 seeds at p = 2 took 5 ms at 4,000
    half-edges, 44 ms at 32,000 and 0.20 s at 100,000, and
    ``scrambled_p5_k4999_seed1`` (H = 50,030) 70 ms, in process time on a
    2-vCPU Xeon with Python 3.11.
    """
    report = validate(g)
    if not report.ok:
        raise InvalidGraph(report)
    input_rank = rank(g)
    work = _WorkingGraph(g)
    moves: list[Move] = []

    # Phase 1: one vertex orbit.  A connected graph with several vertex
    # orbits always has an edge orbit joining two of them, and that orbit is
    # an equivariant forest.  Collapses only merge vertex orbits, so an edge
    # orbit passed over once never joins two of them later: each search for
    # the lowest such orbit resumes where the last one stopped.
    reps = iter(work.orbit_reps())
    while work.n_vertex_orbits > 1:
        for h in reps:
            u = work.attach[h]
            w = work.attach[work.involution[h]]
            if work.vertex_orbit_rep(u) != work.vertex_orbit_rep(w):
                break
        else:
            raise AssertionError("connected graph with no inter-orbit edge orbit")
        moves.append(Move("collapse", work.index_of(h)))
        work.collapse(h)
    work.compact()

    # Phase 2: an edge orbit of unoriented step 1, the p-cycle: an edge from
    # vertex 0 to its rotate.  If none has that step, the lowest non-loop
    # orbit is a cycle of another step; one other orbit is slid along it to
    # step 1 or p - 1, in at most p // 2 slides, and becomes the only one.
    # With no other orbit there is nothing to slide and no move sequence can
    # reach the normal form.
    cycle_half = _unit_step_half(work)
    if cycle_half is None:
        reps = work.orbit_reps()
        over = next(h for h in reps if oriented_step(work, h) != 0)
        choices = [(h, step) for h in reps if h != over for step in (1, work.p - 1)]
        if not choices:
            j = oriented_step(work, over)
            raise NormalizationError(
                f"the only edge orbit is a cycle of step {min(j, work.p - j)}; "
                "no equivariant move can change it into the standard p-cycle"
            )
        moving, step = min(choices, key=lambda c: _slide_plan(work, c[0], over, c[1])[0])
        _slide_to_step(work, moving, over, step, moves)
        cycle_half = _unit_step_half(work)

    # Phase 3: every other orbit becomes loops (step 0); an orbit of loops
    # takes no slide.
    cycle_orbit = work.orbit_rep(cycle_half)
    attach, inv = work.attach, work.involution
    for h in work.orbit_reps():
        if h != cycle_orbit and attach[h] != attach[inv[h]]:
            _slide_to_step(work, h, cycle_half, 0, moves)

    # The moves keep a valid graph valid, so the result is checked by its
    # shape alone; the tests validate every output in full.
    g = work.freeze()
    if not _has_rose_cycle_shape(g):
        raise AssertionError("normalization ended off the rose-cycle shape")
    if rank(g) != input_rank:
        raise AssertionError("normalization changed the rank")
    # A canonical form has n_edges / p edge orbits, and all but the cycle are loops.
    loops = g.n_edges // g.p - 1
    return NormalForm(p=g.p, loops_per_vertex=loops), tuple(moves)


# ---------------------------------------------------------------------------
# Randomized valid inputs (inverse moves from canonical forms)


# Most slides and expansions one scramble draws.
SCRAMBLE_SLIDES = 6
SCRAMBLE_EXPANSIONS = 4


def scramble_graph(g: EquivariantGraph, rng: Random) -> EquivariantGraph:
    """Apply random inverse moves: up to ``SCRAMBLE_SLIDES`` slides (while a
    single vertex orbit with at least two edge orbits allows them), then up to
    ``SCRAMBLE_EXPANSIONS`` equivariant expansions.  Each step leaves a valid
    graph.

    All the moves run on one working copy, frozen once; no intermediate
    graph is built.  Slides keep every edge orbit, so the representatives are
    listed once.
    """
    work = _WorkingGraph(g)
    reps = work.orbit_reps()
    if work.n_vertex_orbits == 1 and len(reps) >= 2:
        for _ in range(rng.randrange(0, SCRAMBLE_SLIDES + 1)):
            s, t = rng.sample(reps, 2)
            hs = s if rng.random() < 0.5 else work.involution[s]
            t_family = t if rng.random() < 0.5 else work.involution[t]
            ht = _halfedge_of_family_at(work, t_family, work.attach[work.involution[hs]])
            work.slide(hs, ht)
    for _ in range(rng.randrange(0, SCRAMBLE_EXPANSIONS + 1)):
        vertex = rng.randrange(work.n_vertices)
        moved = [h for h, v in enumerate(work.attach) if v == vertex and rng.random() < 0.5]
        work.expand(vertex, moved)
    return work.freeze()


# ---------------------------------------------------------------------------
# File format


def _check_list(value, name: str) -> list:
    """Refuse a JSON value of the wrong shape before indexing into it."""
    if not isinstance(value, list):
        raise GraphStructureError(f"{name} must be a list, got {type(value).__name__}")
    return value


def from_json_obj(obj: dict) -> EquivariantGraph:
    if not isinstance(obj, dict):
        raise GraphStructureError(f"graph must be an object, got {type(obj).__name__}")
    try:
        records = _check_list(obj["half_edges"], "half_edges")
        if len(records) > MAX_HALF_EDGES:
            raise GraphTooLarge(
                f"graph has {len(records)} half-edges, above the bound {MAX_HALF_EDGES}"
            )
        # A connected graph has at most H/2 + 1 vertices, so this refuses no
        # valid graph under the half-edge bound.
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
        # ``dumps`` writes the records in id order; only another order is sorted.
        if not _counts_up(ids):
            if not _counts_up(sorted(ids)):
                raise GraphStructureError("half_edge ids must be exactly 0..H-1")
            records = sorted(records, key=itemgetter("id"))
        return EquivariantGraph(
            p=obj["p"],
            n_vertices=obj["vertices"],
            involution=tuple(map(itemgetter("partner"), records)),
            attach=tuple(map(itemgetter("vertex"), records)),
            vertex_action=tuple(_check_list(obj["vertex_action"], "vertex_action")),
            half_edge_action=tuple(_check_list(obj["half_edge_action"], "half_edge_action")),
        )
    except KeyError as exc:
        raise GraphStructureError(f"missing graph field: {exc}") from exc


# One half-edge record and one integer of a graph file, at the depth and
# indent that ``json.dumps(..., indent=2, sort_keys=True)`` gives them.
_HALF_EDGE_RECORD = '    {\n      "id": %d,\n      "partner": %d,\n      "vertex": %d\n    }'
_LIST_INT = "    %d"


def _json_list(items: Iterable[str]) -> str:
    """Laid-out items as a list at the file's second level."""
    body = ",\n".join(items)
    return f"[\n{body}\n  ]" if body else "[]"


def dumps(g: EquivariantGraph) -> str:
    """The graph file: the object that ``from_json_obj`` reads, as
    ``json.dumps(obj, indent=2, sort_keys=True)`` lays it out, plus a
    newline, byte for byte.  Every field is an exact ``int``, so each list is
    formatted in one pass of ``%`` over its values, not by the per-value
    Python encoder that ``indent`` selects."""
    records = map(_HALF_EDGE_RECORD.__mod__, zip(range(g.n_half_edges), g.involution, g.attach))
    return (
        f'{{\n  "half_edge_action": {_json_list(map(_LIST_INT.__mod__, g.half_edge_action))},\n'
        f'  "half_edges": {_json_list(records)},\n'
        f'  "p": {g.p},\n'
        f'  "vertex_action": {_json_list(map(_LIST_INT.__mod__, g.vertex_action))},\n'
        f'  "vertices": {g.n_vertices}\n}}\n'
    )


def loads(text: str) -> EquivariantGraph:
    """The graph of a graph file, checked as ``from_json_obj`` checks it.
    ``loads`` keeps no reference to the text once it is parsed, so a text
    passed as a temporary is freed before the graph is built."""
    import json

    try:
        obj = json.loads(text)
    except RecursionError:
        raise GraphStructureError("graph file is nested too deeply to parse") from None
    # CPython moves call arguments into the callee's frame, so when the caller
    # passes the text as a temporary this drop frees it before the graph is
    # built: at the half-edge bound, 8.5 MB that would outlive the parse.
    del text
    return from_json_obj(obj)
