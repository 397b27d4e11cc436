"""Seeded request lists of the two workloads.

Every workload is a closed loop with one client: the next request is sent
when the previous one has finished.  A run is a sequence of *rounds* and
stops at the round boundary nearest to the run time.  A round has the same
shape for every seed: the same fixed requests and the same kinds of seeded
draws, in a seeded order.  Each round draws afresh from the seed and its
index, so a run averages over many draws, and its medians and tails compare
across seeds.  Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

from references import KINDS, TABLE4, TABLE4_BLOCKED, TABLE5, Request, betti, primes_between

# The ten commands of acceptance criterion 10, each run in both formats.
CLI_COMMANDS = (
    ("orbits", "--p", "5"),
    ("orbits", "--p", "7", "--kind", "theta", "--list"),
    ("classes", "--p", "11", "--n", "12"),
    ("tate", "--p", "11", "--n", "12"),
    ("rational", "--p", "5", "--n", "7"),
    ("table", "--which", "4"),
    ("table", "--which", "5"),
    ("normalize", "--demo", "scrambled_p5_k2_seed3"),
    ("example", "--name", "amalgam", "--p", "7"),
    ("selftest", "--max-p", "13"),
)

ORBIT_ORACLE_RANGE = (200, 450)


def _request(args, check, ref, fmt, cite, expect_exit=0, units=1) -> Request:
    """``units`` is the request's work in its workload's unit; 1 counts requests."""
    flags = ("--format", fmt) + (() if cite else ("--no-cite",))
    return Request(tuple(args) + flags, check, ref, expect_exit, units)


def orbits(p, fmt="records", cite=True, kind=None, listed=False) -> Request:
    args = ["orbits", "--p", str(p)] + (["--kind", kind] if kind else []) + (["--list"] if listed else [])
    kinds = (kind,) if kind else KINDS
    ref = {"p": p, "kinds": kinds, "list": listed}
    return _request(args, "orbits", ref, fmt, cite)


def classes(p, n, fmt="text", cite=True) -> Request:
    return _request(["classes", "--p", str(p), "--n", str(n)], "classes", {"p": p, "n": n}, fmt, cite)


def tate(p, n, fmt="text", cite=True) -> Request:
    args = ["tate", "--p", str(p), "--n", str(n)]
    if (n, p) in TABLE4:
        dims = TABLE4[(n, p)]
    elif (n, p) in TABLE4_BLOCKED:
        ref = {"p": p, "n": n, "blocker": TABLE4_BLOCKED[(n, p)]}
        return _request(args, "tate", ref, fmt, cite, expect_exit=4)
    elif n > 2 * p - 3:
        return _request(args, "domain_error", {"error": "OutOfRange"}, fmt, cite, expect_exit=3)
    elif n == p + 1:  # the rank p+1 theorem
        dims = (4, betti(p))
    else:
        raise ValueError(f"no reference for tate at (p, n) = ({p}, {n})")
    return _request(args, "tate", {"p": p, "n": n, "dims": dims}, fmt, cite)


def rational(p, n, fmt="text", cite=True) -> Request:
    ref = {"p": p, "n": n, "dims": TABLE5[(n, p)]}
    return _request(["rational", "--p", str(p), "--n", str(n)], "rational", ref, fmt, cite)


def table(which, fmt="text", cite=True) -> Request:
    return _request(["table", "--which", str(which)], "table", {"which": which}, fmt, cite)


def normalize_demo(name, p, k, fmt="text", cite=True) -> Request:
    return _request(["normalize", "--demo", name], "normalize", {"p": p, "k": k}, fmt, cite)


def normalize_file(path, p, k, half_edges, needs_moves=True) -> Request:
    ref = {"p": p, "k": k, "needs_moves": needs_moves}
    return _request(["normalize", "--input", path], "normalize", ref, "records", True, units=half_edges)


def example(name, p=None, fmt="text", cite=True) -> Request:
    if name == "sl3":
        results = [(2, 4, 0), (3, 2, 0)]
    elif name == "amalgam":
        results = [(p, 1, p - 2)]
    elif name == "gl":  # class number 1 for p <= 19
        results = [(p, 2 ** ((p - 5) // 2), 2 ** ((p - 5) // 2))]
    elif name == "sp":
        results = [(p, 2 ** ((p - 1) // 2), 0)]
    else:
        results = [(p, (p * p - 1) // 6, 0)]
    args = ["example", "--name", name] + (["--p", str(p)] if p else [])
    return _request(args, "example", {"results": results}, fmt, cite)


def selftest(max_p, fmt="text", cite=True) -> Request:
    return _request(["selftest", "--max-p", str(max_p)], "selftest", {}, fmt, cite)


def _criterion_10(args, fmt) -> Request:
    sub, opts = args[0], dict(zip(args[1::2], args[2::2]))
    if sub == "orbits":
        return orbits(int(opts["--p"]), fmt, kind=opts.get("--kind"), listed="--list" in args)
    if sub in ("classes", "tate", "rational"):
        build = {"classes": classes, "tate": tate, "rational": rational}[sub]
        return build(int(opts["--p"]), int(opts["--n"]), fmt)
    if sub == "table":
        return table(int(opts["--which"]), fmt)
    if sub == "normalize":
        return normalize_demo(opts["--demo"], 5, 2, fmt)
    if sub == "example":
        return example(opts["--name"], int(opts["--p"]), fmt)
    return selftest(int(opts["--max-p"]), fmt)


def cli_mix(seed: int, index: int = 0) -> list[Request]:
    """Round ``index``: the criterion-10 commands in both formats plus 21
    seeded small requests covering every subcommand, both formats, --no-cite
    on and off, and the exit codes 3 and 4."""
    rng = Random(f"cli_mix/{seed}/{index}")
    small = primes_between(5, 31)
    p = rng.choice(small)
    cells4 = sorted(key for key in TABLE4 if key[1] > 2)
    cells5 = sorted(TABLE5)
    menu = [_criterion_10(args, fmt) for args in CLI_COMMANDS for fmt in ("text", "records")]
    menu += [
        orbits(rng.choice(small), "records", cite=False),
        orbits(rng.choice(primes_between(5, 13)), "text", kind=rng.choice(KINDS), listed=True),
        classes(p, rng.randrange(p - 1, 2 * p - 2), "records", cite=False),
        classes(p, rng.randrange(p - 1, 2 * p - 2), "text", cite=False),
        tate(*reversed(rng.choice(cells4)), "text", cite=False),
        tate(p, p + 1, "records", cite=False),
        tate(7, 11, "text"),
        tate(7, 11, "records", cite=False),
        tate(7, 30, "text"),
        tate(7, rng.randrange(12, 41), "records"),
        rational(*reversed(rng.choice(cells5)), "records", cite=False),
        rational(*reversed(rng.choice(cells5)), "text"),
        table(4, "records", cite=False),
        table(5, "text", cite=False),
        _demo(rng, "canonical", "records"),
        _demo(rng, "scrambled", "text", cite=False),
        example("sl3", fmt="records"),
        example("gl", rng.choice(primes_between(5, 19)), "text", cite=False),
        example("sp", rng.choice(primes_between(5, 19)), "records"),
        example("mcg", rng.choice(primes_between(5, 31)), "text"),
        # A small bound: the two --max-p 13 runs above are the round's only
        # heavy requests, so p90 does not sit on the edge of a cluster whose
        # size changes with the draw.
        selftest(rng.randrange(2, 6), "records", cite=False),
    ]
    rng.shuffle(menu)
    return menu


def _demo(rng: Random, shape: str, fmt: str, cite: bool = True) -> Request:
    p, k = rng.choice((3, 5)), rng.randrange(1, 5)
    name = f"canonical_p{p}_k{k}" if shape == "canonical" else f"scrambled_p{p}_k{k}_seed{rng.randrange(100)}"
    return normalize_demo(name, p, k, fmt, cite)


def oracle_normalize(seed: int, manifest: list[dict], index: int = 0) -> list[Request]:
    """``orbits`` at one prime of each consecutive pair of primes in
    ORBIT_ORACLE_RANGE, chosen by the seed (work: the 3 (p^2 - 1) nonzero
    vectors partitioned), and ``normalize`` on every generated graph (work:
    its half-edges), mixed in a seeded order.  One prime per pair halves the
    round and keeps the spread of sizes the same for every seed and round
    ``index``; the graphs, written once per seed, are the same in every round."""
    rng = Random(f"oracle_normalize/{seed}/{index}")
    primes = primes_between(*ORBIT_ORACLE_RANGE)
    chosen = [rng.choice(primes[i:i + 2]) for i in range(0, len(primes), 2)]
    requests = [replace(orbits(p), units=3 * (p * p - 1)) for p in chosen]
    requests += [normalize_file(g["file"], g["p"], g["k"], g["half_edges"]) for g in manifest]
    rng.shuffle(requests)
    return requests


# A fixed tiny request per subcommand, replayed at the end of every traced
# run so that every layer reports a measured time on every workload.
def probe(graph_file: str) -> list[Request]:
    return [
        orbits(5),
        classes(7, 8, "records"),
        tate(7, 8, "records"),
        rational(5, 6, "records"),
        table(5, "records"),
        normalize_file(graph_file, 5, 2, 0, needs_moves=False),
        example("amalgam", 7, "records"),
        selftest(5),
    ]

