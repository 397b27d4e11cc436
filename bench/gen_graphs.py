"""Write the seeded graph files of the oracle_normalize workload.

Run from the repository root with the package on the path:

    PYTHONPATH=src python3 bench/gen_graphs.py --seed 1 --out DIR

It writes one JSON graph per entry of GRAPH_CONFIGS into DIR and prints a
JSON manifest ``[{"file", "p", "k", "half_edges"}, ...]`` on stdout.

Each graph starts from the rose-cycle normal form ``canonical_graph(p, k)``
and takes a fixed number of inverse moves.  First, ``slides`` loop orbits are
slid across the cycle orbit; each becomes a non-loop orbit, so ``normalize``
has to slide it back.  Then ``expansions`` equivariant expansions each add a
vertex orbit and carry a random set of whole loops over to it, so
``normalize`` has to collapse.  Moving whole loops only keeps the expansion
edge the one orbit that joins two vertex orbits, so the move log holds
exactly ``expansions`` collapses and ``slides`` slides whatever the seed, and
the work per graph does not depend on the seed.  ``scramble_graph`` draws its
move counts from ``randrange(0, max + 1)`` and can return a graph that
normalises in zero moves; this generator never does.
"""

from __future__ import annotations

import argparse
import json
import os
from random import Random

from tatek.graphs import EdgeOrbitRef, canonical_graph, dumps, edge_orbit_refs, expand_orbit, oriented_step, slide

# (p, k, slides, expansions).  Half-edges: 2p(k + 1) + 2p * expansions, from
# about 500 to 2,700, on the three primes whose O(p^2 H) validation differ.
GRAPH_CONFIGS = (
    (31, 4, 2, 3),
    (31, 12, 3, 4),
    (31, 24, 3, 6),
    (61, 6, 2, 3),
    (61, 14, 3, 5),
    (97, 2, 2, 3),
    (97, 9, 3, 4),
)


def _family_half_edge_at(g, rep: int, vertex: int) -> int:
    """The half-edge of the Z/p-family of ``rep`` attached at ``vertex``."""
    h = rep
    for _ in range(g.p):
        if g.attach[h] == vertex:
            return h
        h = g.half_edge_action[h]
    raise AssertionError(f"family of half-edge {rep} misses vertex {vertex}")


def scrambled(p: int, k: int, slides: int, expansions: int, rng: Random):
    g = canonical_graph(p, k)
    # Half-edges 0 and 1 are the two orientations of the cycle family.
    for _ in range(slides):
        loops = [r.half_edge for r in edge_orbit_refs(g) if oriented_step(g, r.half_edge) == 0]
        hs = rng.choice(loops)
        if rng.random() < 0.5:
            hs = g.involution[hs]
        ht = _family_half_edge_at(g, rng.choice((0, 1)), g.attach[g.involution[hs]])
        g = slide(g, EdgeOrbitRef(hs), EdgeOrbitRef(ht))
    moved = sum(oriented_step(g, r.half_edge) != 0 for r in edge_orbit_refs(g))
    if moved != slides + 1:
        raise AssertionError(f"p={p} k={k}: {moved} non-loop orbits after {slides} slides")
    for _ in range(expansions):
        vertex = rng.randrange(g.n_vertices)
        loops = sorted({min(h, g.involution[h]) for h in g.half_edges_at(vertex) if g.attach[g.involution[h]] == vertex})
        g, _ = expand_orbit(g, vertex, [x for h in loops if rng.random() < 0.5 for x in (h, g.involution[h])])
    return g


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    manifest = []
    for index, (p, k, slides, expansions) in enumerate(GRAPH_CONFIGS):
        g = scrambled(p, k, slides, expansions, Random(args.seed * 1000 + index))
        path = os.path.join(args.out, f"g{index:02d}_p{p}_k{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(g))
        manifest.append({"file": path, "p": p, "k": k, "half_edges": g.n_half_edges})
    print(json.dumps(manifest))


if __name__ == "__main__":
    main()
