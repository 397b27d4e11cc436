"""Byte-identical ``normalize --format records`` output on large scrambled graphs.

The golden files in ``tests/data/golden_moves/`` were written by this module's
``scrambled`` builder and ``cli.main`` before the cycle index replaced the
quadratic orbit walks in ``tatek.graphs``.  Each input graph is rebuilt here
from ``canonical_graph`` plus seeded ``slide`` and ``expand_orbit`` moves, and
its serialization hash pins the builder moves too.

Regenerate (only when an output change is intended and explained):

    PYTHONPATH=src python tests/test_golden_moves.py
"""

import hashlib
from pathlib import Path
from random import Random

import pytest

from tatek import cli
from tatek.graphs import EdgeOrbitRef, canonical_graph, dumps, edge_orbit_refs, expand_orbit, slide

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden_moves"

# (name, p, k, slides, expansions, seed, sha256 of dumps(input graph))
CASES = (
    ("p31_k16", 31, 16, 6, 3, 101, "84499ac9787110ae14289904642cbfa037ce36e5abc6815e6ff70ed554696bb1"),
    ("p61_k8", 61, 8, 6, 3, 202, "d8260e5d35667d3b91357def5fb5f2885951abfa185e398a93051e9d7561b479"),
    ("p97_k5", 97, 5, 6, 3, 303, "86712b4af5d7bbb66322a863240c72e9c52a978b32c954c786464bb72c7f7904"),
)


def _family_half_edge_at(g, rep: int, vertex: int) -> int:
    h = rep
    for _ in range(g.p):
        if g.attach[h] == vertex:
            return h
        h = g.half_edge_action[h]
    raise AssertionError(f"family of half-edge {rep} misses vertex {vertex}")


def scrambled(p: int, k: int, slides: int, expansions: int, seed: int):
    """Random orbits slid a random number of times along the p-cycle orbit
    (half-edges 0 and 1), then random single slides between any two orbits,
    then random expansions."""
    rng = Random(seed)
    g = canonical_graph(p, k)
    for i in range(2 * slides):
        refs = edge_orbit_refs(g)
        if i < slides:
            s, t, times = rng.choice(refs[1:]), refs[0], rng.randrange(1, p // 2)
        else:
            (s, t), times = rng.sample(refs, 2), 1
        hs = s.half_edge if rng.random() < 0.5 else g.involution[s.half_edge]
        family = t.half_edge if rng.random() < 0.5 else g.involution[t.half_edge]
        for _ in range(times):
            ht = _family_half_edge_at(g, family, g.attach[g.involution[hs]])
            g = slide(g, EdgeOrbitRef(hs), EdgeOrbitRef(ht))
    for _ in range(expansions):
        vertex = rng.randrange(g.n_vertices)
        moved = [h for h in g.half_edges_at(vertex) if rng.random() < 0.5]
        g, _ = expand_orbit(g, vertex, moved)
    return g


def records_output(g, tmp_dir: Path, capsys) -> str:
    path = tmp_dir / "graph.json"
    path.write_text(dumps(g), encoding="utf-8")
    assert cli.main(["normalize", "--input", str(path), "--format", "records"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return out.out


@pytest.mark.parametrize("name,p,k,slides,expansions,seed,digest", CASES, ids=[c[0] for c in CASES])
def test_golden_move_log(name, p, k, slides, expansions, seed, digest, tmp_path, capsys):
    g = scrambled(p, k, slides, expansions, seed)
    assert g.n_half_edges >= 1000
    assert hashlib.sha256(dumps(g).encode()).hexdigest() == digest
    golden = (GOLDEN_DIR / f"{name}.records").read_text(encoding="utf-8")
    assert records_output(g, tmp_path, capsys) == golden


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    for name, p, k, slides, expansions, seed, _ in CASES:
        g = scrambled(p, k, slides, expansions, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.json"
            path.write_text(dumps(g), encoding="utf-8")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(["normalize", "--input", str(path), "--format", "records"]) == 0
        (GOLDEN_DIR / f"{name}.records").write_text(buf.getvalue(), encoding="utf-8")
        print(name, g.n_half_edges, hashlib.sha256(dumps(g).encode()).hexdigest(), buf.getvalue().count("\n"))
