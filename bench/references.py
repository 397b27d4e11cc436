"""Reference values and output checks, held by the benchmark itself.

Nothing here imports ``tatek`` or the test suite: the published table cells
and the closed forms are frozen copies, so a regression in the package cannot
move its own expectations.  Every checker takes the request and the captured
output and returns ``None`` when the output is right, or a one-line reason.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

# Published (even, odd) dimensions keyed by (n, p): Tables 4 and 5.
TABLE4 = {
    (2, 2): (4, 0), (2, 3): (1, 0), (3, 3): (2, 0), (4, 5): (1, 0),
    (5, 5): (2, 0), (6, 5): (4, 0), (6, 7): (1, 0), (7, 5): (3, 0),
    (7, 7): (2, 0), (8, 5): (7, 0), (8, 7): (4, 0), (9, 7): (3, 0),
    (10, 7): (6, 0), (10, 11): (1, 0), (11, 11): (2, 0), (12, 11): (4, 1),
}
TABLE4_BLOCKED = {(11, 7): "F4SemidirectAutF4_Z2invariants"}
TABLE5 = {
    (2, 2): (5, 0), (2, 3): (2, 0), (2, 5): (1, 0), (2, 7): (1, 0),
    (3, 3): (3, 0), (3, 5): (1, 0), (3, 7): (1, 0),
    (4, 5): (3, 0), (4, 7): (2, 0),
    (5, 5): (3, 0), (5, 7): (1, 0),
    (6, 5): (6, 0), (6, 7): (3, 0),
    (7, 5): (5, 1), (7, 7): (4, 1),
}
TABLE_SHAPE = {4: (range(2, 13), (2, 3, 5, 7, 11)), 5: (range(2, 8), (2, 3, 5, 7))}

KINDS = ("edge", "rose", "theta")
GROUP_ORDER = {"edge": 4, "rose": 8, "theta": 12}


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def closed_form(kind: str, p: int) -> int:
    """Orbit counts on nonzero vectors of (Z/p)^2, for p >= 5."""
    if kind == "edge":
        return (p - 1) * (p + 3) // 4
    if kind == "rose":
        return (p - 1) * (p + 5) // 8
    return (p - 1) * (p + 7) // 12


def betti(p: int) -> int:
    """First Betti number of the spine quotient, for p >= 5."""
    return (p - 7) * (p - 5) // 24


def class_count(p: int, n: int) -> int:
    """Order-p classes of Out(F_n) for odd p and p-1 <= n <= 2p-3: one rose
    class when n >= p, the theta classes theta(s, t) with s + t = n - p + 1,
    and the phi class at n = p + 1.  At (p, n) = (5, 8), one rose class,
    three theta classes and the diagonal class."""
    if (p, n) == (5, 8):
        return 5
    return (n >= p) + (n - p + 1) // 2 + 1 + (n == p + 1)


_TOKEN = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)=("(?:[^"\\]|\\.)*"|\S+)')


def parse_records(text: str) -> list[dict[str, str]]:
    out = []
    for line in text.splitlines():
        if line.strip():
            out.append(
                {
                    m.group(1): json.loads(m.group(2)) if m.group(2).startswith('"') else m.group(2)
                    for m in _TOKEN.finditer(line)
                }
            )
    return out


@dataclass(frozen=True)
class Request:
    """One tatek invocation and what its output must show."""

    args: tuple[str, ...]
    check: str
    ref: dict = field(default_factory=dict, hash=False, compare=False)
    expect_exit: int = 0
    units: int = 1  # work done, in the workload's unit (vectors, half-edges, ...)

    @property
    def fmt(self) -> str:
        return self.args[self.args.index("--format") + 1] if "--format" in self.args else "text"

    @property
    def cite(self) -> bool:
        return "--no-cite" not in self.args


def verify(req: Request, code: int, out: str, err: str) -> str | None:
    """Exit code plus the per-command reference check."""
    if code != req.expect_exit:
        return f"exit {code}, expected {req.expect_exit}: {err.strip()[:200]}"
    try:
        return CHECKS[req.check](req, out, err)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return f"unparseable output ({type(exc).__name__}: {exc})"


def _citations(req: Request, present: bool) -> str | None:
    if present != req.cite:
        return f"citations {'present' if present else 'absent'} with cite={req.cite}"
    return None


_ORBIT_LINE = re.compile(
    r"(\w+) stabiliser at p=(\d+): order (\d+); orbits: (\d+) "
    r"\(burnside (\d+), brute-force (\d+), closed-form (\d+)\)"
)
_QUOTIENT_LINE = re.compile(
    r"quotient graph at p=(\d+): vertex orbits (\d+), edge orbits (\d+), betti_1 (\d+)"
)


def check_orbits(req: Request, out: str, err: str) -> str | None:
    p, kinds, listed = req.ref["p"], req.ref["kinds"], req.ref["list"]
    if req.fmt == "records":
        recs = parse_records(out)
        reports = [
            (r["kind"], int(r["p"]), int(r["group_order"]), int(r["orbits"]),
             int(r["burnside"]), int(r["brute_force"]), int(r["closed_form"]), r["match"] == "true")
            for r in recs if r["record"] == "orbit_report"
        ]
        quotient = [(int(r["p"]), int(r["vertex_orbits"]), int(r["edge_orbits"]), int(r["betti_one"]))
                    for r in recs if r["record"] == "quotient"]
        n_fixed = sum(r["record"] == "fixed_points" for r in recs)
        sizes = [int(r["size"]) for r in recs if r["record"] == "orbit"]
    else:
        reports = [
            (m[1], int(m[2]), int(m[3]), int(m[4]), int(m[5]), int(m[6]), int(m[7]), True)
            for m in _ORBIT_LINE.finditer(out)
        ]
        quotient = [tuple(int(x) for x in m.groups()) for m in _QUOTIENT_LINE.finditer(out)]
        n_fixed = out.count("  fixed points of ")
        sizes = [int(x) for x in re.findall(r"^  orbit size (\d+):", out, re.M)]
    if [r[0] for r in reports] != list(kinds):
        return f"stabiliser reports {[r[0] for r in reports]}, expected {list(kinds)}"
    for kind, rp, order, orbits, burnside, brute, closed, match in reports:
        want = closed_form(kind, p)
        if not match or rp != p or order != GROUP_ORDER[kind] or not (
            orbits == burnside == brute == closed == want
        ):
            return f"{kind} at p={p}: {orbits}/{burnside}/{brute}/{closed}, closed form {want}"
    if len(kinds) == 3:
        want = (p, closed_form("rose", p) + closed_form("theta", p), closed_form("edge", p), betti(p))
        if quotient != [want]:
            return f"quotient {quotient}, expected {want}"
    elif quotient:
        return "quotient reported for a single stabiliser"
    if listed:
        expect_fixed = sum(GROUP_ORDER[k] for k in kinds)
        expect_orbits = sum(closed_form(k, p) for k in kinds)
        if n_fixed != expect_fixed or len(sizes) != expect_orbits or sum(sizes) != len(kinds) * (p * p - 1):
            return f"listing: {n_fixed} fixed-point rows, {len(sizes)} orbits covering {sum(sizes)}"
    elif n_fixed or sizes:
        return "listing printed without --list"
    return None


def check_classes(req: Request, out: str, err: str) -> str | None:
    p, n = req.ref["p"], req.ref["n"]
    count = class_count(p, n)
    if req.fmt == "records":
        recs = parse_records(out)
        head = recs[0]
        classes = [r for r in recs if r["record"] == "class"]
        got = (head["record"], int(head["p"]), int(head["n"]), int(head["count"]), head["complete"], len(classes))
        if got != ("class_list", p, n, count, "true", count):
            return f"class list {got}, expected {count} classes"
        return _citations(req, any("citation" in r for r in classes))
    header = f"order-{p} torsion classes of Out(F_{n}): {count} (complete)"
    if out.splitlines()[0] != header:
        return f"header {out.splitlines()[0]!r}, expected {header!r}"
    cited = out.count("    citation: ")
    if cited not in (0, count):
        return f"{cited} citation lines for {count} classes"
    return _citations(req, cited == count and count > 0)


def check_tate(req: Request, out: str, err: str) -> str | None:
    want, blocker = req.ref.get("dims"), req.ref.get("blocker")
    p, n = req.ref["p"], req.ref["n"]
    if req.fmt == "records":
        recs = parse_records(out)
        head = recs[0]
        if (head["record"], int(head["p"]), int(head["n"])) != ("tate", p, n):
            return f"head record {head}"
        if blocker:
            if (head["status"], head.get("blocker")) != ("unknown", blocker):
                return f"expected unknown blocked on {blocker}, got {head}"
        elif head["status"] != "known" or (int(head["even"]), int(head["odd"])) != tuple(want):
            return f"expected {want}, got {head}"
        contributions = sum(r["record"] == "contribution" for r in recs)
        cited = any(r["record"] == "citation" for r in recs)
    else:
        lines = out.splitlines()
        if lines[0] != f"Farrell-Tate K-theory of Out(F_{n}) at p={p}":
            return f"title {lines[0]!r}"
        if blocker:
            if lines[1] != f"even: unknown, odd: unknown (blocked on {blocker})":
                return f"expected blocker {blocker}, got {lines[1]!r}"
        else:
            m = re.fullmatch(r"even: (\d+), odd: (\d+)", lines[1])
            if not m or (int(m[1]), int(m[2])) != tuple(want):
                return f"expected {want}, got {lines[1]!r}"
        contributions = sum(1 for line in lines if re.match(r"  \S+: even ", line))
        cited = "citations:" in lines
    if contributions != class_count(p, n):
        return f"{contributions} contributions, expected {class_count(p, n)}"
    return _citations(req, cited)


def check_rational(req: Request, out: str, err: str) -> str | None:
    (even, odd), p, n = req.ref["dims"], req.ref["p"], req.ref["n"]
    if req.fmt == "records":
        recs = parse_records(out)
        head = recs[0]
        got = (head["record"], int(head["p"]), int(head["n"]), head["status"], int(head["even"]), int(head["odd"]))
        if got != ("rational", p, n, "known", even, odd):
            return f"rational record {got}, expected ({even}, {odd})"
        cited = any(r["record"] == "citation" for r in recs)
    else:
        lines = out.splitlines()
        if lines[1] != f"even: {even}, odd: {odd}":
            return f"expected ({even}, {odd}), got {lines[1]!r}"
        cited = "citations:" in lines
    return _citations(req, cited)


def check_table(req: Request, out: str, err: str) -> str | None:
    which = req.ref["which"]
    ranks, primes = TABLE_SHAPE[which]
    expected = TABLE4 if which == 4 else TABLE5
    blocked = TABLE4_BLOCKED if which == 4 else {}
    cells: dict[tuple[int, int], object] = {}
    if req.fmt == "records":
        recs = parse_records(out)
        for r in recs:
            if r["record"] == "cell":
                key = (int(r["n"]), int(r["p"]))
                cells[key] = (int(r["even"]), int(r["odd"])) if r["status"] == "known" else r.get("blocker", "?")
        cited = any(r["record"] == "citation" for r in recs)
    else:
        lines = out.splitlines()
        header = lines[1].split()
        if header[1:] != [str(p) for p in primes]:
            return f"table header {lines[1]!r}"
        for line in lines[2:2 + len(ranks)]:
            row = line.split()
            for p, text in zip(primes, row[1:]):
                cells[(int(row[0]), p)] = tuple(int(x) for x in text.split("/")) if text != "?" else "?"
        for (n, p), name in blocked.items():
            if f"unknown at (n={n}, p={p}): blocked on {name}" in lines:
                cells[(n, p)] = name
        cited = "citations:" in lines
    if len(cells) != len(ranks) * len(primes):
        return f"{len(cells)} cells, expected {len(ranks) * len(primes)}"
    for key, dims in expected.items():
        if cells.get(key) != dims:
            return f"cell (n, p) = {key}: {cells.get(key)}, expected {dims}"
    for key, name in blocked.items():
        if cells.get(key) != name:
            return f"cell (n, p) = {key}: {cells.get(key)}, expected blocker {name}"
    return _citations(req, cited)


def check_normalize(req: Request, out: str, err: str) -> str | None:
    p, k = req.ref["p"], req.ref["k"]
    if req.fmt == "records":
        recs = parse_records(out)
        head = recs[0]
        got = (head["record"], int(head["p"]), int(head["k"]), int(head["rank"]))
        ops = [r["op"] for r in recs[1:] if r["record"] == "move"]
        declared = int(head["moves"])
    else:
        lines = out.splitlines()
        m = re.fullmatch(r"normal form: p=(\d+), k=(\d+), rank (\d+)", lines[1])
        got = ("normal_form", int(m[1]), int(m[2]), int(m[3]))
        declared = int(re.fullmatch(r"moves: (\d+)", lines[2])[1])
        ops = [re.match(r"  \d+\. (collapse|slide) ", line)[1] for line in lines[3:]]
    if got != ("normal_form", p, k, p * k + 1):
        return f"normal form {got[1:]}, expected (p, k, rank) = ({p}, {k}, {p * k + 1})"
    if declared != len(ops):
        return f"{declared} moves declared, {len(ops)} listed"
    if req.ref.get("needs_moves") and not ("collapse" in ops and "slide" in ops):
        return f"move log {ops.count('collapse')} collapses, {ops.count('slide')} slides; needs both"
    return None


def check_example(req: Request, out: str, err: str) -> str | None:
    want = [tuple(x) for x in req.ref["results"]]  # (p, even, odd)
    if req.fmt == "records":
        recs = parse_records(out)
        got = [(int(r["p"]), int(r["even"]), int(r["odd"])) for r in recs if r["record"] == "example"]
        cited = any(r["record"] == "citation" for r in recs)
    else:
        lines = out.splitlines()
        got = []
        for i, line in enumerate(lines):
            m = re.fullmatch(r"Farrell-Tate K-theory of .* at p=(\d+)", line)
            if m:
                d = re.fullmatch(r"even: (\d+), odd: (\d+)", lines[i + 1])
                got.append((int(m[1]), int(d[1]), int(d[2])))
        cited = "citations:" in lines
    if got != want:
        return f"example results {got}, expected {want}"
    return _citations(req, cited)


def check_selftest(req: Request, out: str, err: str) -> str | None:
    """Every check line reads ``ok ...: N passed, 0 failed`` and the total
    line adds them up."""
    *checks, total = out.splitlines()
    counts = [re.fullmatch(r"ok   .+: (\d+) passed, 0 failed", line) for line in checks]
    if not checks or not all(counts):
        return f"selftest reports a failure: {out[:300]!r}"
    passed = sum(int(m[1]) for m in counts)
    if total != f"selftest total: {passed} passed, 0 failed":
        return f"selftest total {total!r}, expected {passed} passed"
    return None


def check_domain_error(req: Request, out: str, err: str) -> str | None:
    want = f"error: {req.ref['error']}: "
    if out or not err.startswith(want) or err.count("\n") != 1:
        return f"expected one stderr line starting {want!r}, got {err!r}"
    return None


CHECKS = {
    "orbits": check_orbits,
    "classes": check_classes,
    "tate": check_tate,
    "rational": check_rational,
    "table": check_table,
    "normalize": check_normalize,
    "example": check_example,
    "selftest": check_selftest,
    "domain_error": check_domain_error,
}
