#!/usr/bin/env python3
"""The tatek benchmark: two seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1          # both workloads in turn

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics; ``--trace 1`` replays one round of it in this process with spans
around every layer and prints the per-layer metrics.  The metric names and
units are those of BENCHMARK.json.  Every output is checked against the
references in ``references.py``.  The last line of output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import tracing
import workloads
from references import Request, verify

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Work rates printed beside the metrics: (request check, name) pairs.
WORK_RATES = {"oracle_normalize": (("orbits", "vectors_per_s"), ("normalize", "half_edges_per_s"))}
MIN_REQUESTS = {"cli_mix": 100}
SETUP_REPEATS = 5
STARTUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
# The speed of a shared host drifts by a third or more within a minute, and
# CPU time moves with wall time.  So every timed figure is scaled to a fixed
# reference speed: a fixed piece of pure-Python work, the probe, is timed
# before the first request and after each one, and a figure measured between
# two probes that took c1 and c2 ms is reported as
# figure * REF_PROBE_MS / ((c1 + c2) / 2).  The probe builds and reads a dict
# of a few MB, because allocation and cache misses slow down with the host as
# the requests do, and a small arithmetic loop follows them less closely.
# REF_PROBE_MS is about what the probe takes on the host it was written on.
PROBE_KEYS = 20_000
PROBE_REPEATS = 3
REF_PROBE_MS = 4.0


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    wall_ns: int
    cpu_ns: int
    maxrss_kb: int
    timed_out: bool


def child_env() -> dict[str, str]:
    """Children see the default registry and cache their bytecode, as a
    user's ``python -m tatek`` does."""
    env = dict(os.environ)
    env.pop("TATEK_REGISTRY", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class Spawner:
    """The small process that starts every child of a run (see spawner.py),
    so that a child's peak RSS is its own and not this process's.  ``run``
    times a child from fork to exit; CPU and peak RSS come from ``os.wait4``,
    and a child past ``timeout`` is killed."""

    def __enter__(self) -> "Spawner":
        WORK.mkdir(parents=True, exist_ok=True)
        self.out, self.err = WORK / "child.out", WORK / "child.err"
        self.proc = subprocess.Popen([sys.executable, "-S", str(BENCH / "spawner.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=child_env(), text=True)
        return self

    def run(self, argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> Outcome:
        self.proc.stdin.write("\t".join([str(timeout), str(self.out), str(self.err), *argv]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner ended with code {self.proc.wait()}")
        code, wall, cpu, maxrss, timed_out = map(int, line.split())
        out, err = (path.read_text(encoding="utf-8") for path in (self.out, self.err))
        return Outcome(code, out, err, wall, cpu, maxrss, bool(timed_out))

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is not None:
            self.proc.terminate()  # it kills and waits for its child
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def probe_ms() -> float:
    """The host's speed right now: the median time of a fixed piece of work, in ms."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter_ns()
        table = {(i, i ^ 0x5A5B): i for i in range(PROBE_KEYS)}
        total = 0
        for key in table:
            total += table[key]
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1e6


class SpeedScale:
    """Factors that turn figures measured between two probes into reference-speed figures."""

    def __init__(self) -> None:
        self.last = probe_ms()
        self.raw_probes = [self.last]

    def next(self) -> float:
        """Probe again; the factor for what ran since the previous probe."""
        now = probe_ms()
        self.raw_probes.append(now)
        factor = 2 * REF_PROBE_MS / (self.last + now)
        self.last = now
        return factor


def pin_to_one_cpu() -> None:
    """Run this process and the children it starts on one CPU, so that the
    speed probe measures the CPU the requests run on: the CPUs of a shared
    host do not keep the same speed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def tatek_argv(req: Request) -> list[str]:
    return [sys.executable, "-m", "tatek", *req.args]


class Tally:
    """Requests attempted, and the reason for each one that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict[object, object] = {}

    def record(self, key, answer, reason: str | None) -> None:
        """Count one request; ``answer`` must repeat exactly for a repeated ``key``."""
        self.attempted += 1
        if reason is None and self._first.setdefault(key, answer) != answer:
            reason = "output differs from an earlier run of the same request"
        if reason is not None:
            self.failures.append(f"{key}: {reason}")


# -- set-up --------------------------------------------------------------------


def prepare(name: str, seed: int, spawner: Spawner) -> tuple[Callable[[int], list[Request]], Request]:
    """The workload's rounds of requests, by round index, and its warm-up request."""
    if name == "cli_mix":
        return partial(workloads.cli_mix, seed), workloads.selftest(13)
    out_dir = WORK / f"graphs-{seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    gen = spawner.run([sys.executable, str(BENCH / "gen_graphs.py"), "--seed", str(seed), "--out", str(out_dir)])
    if gen.code != 0:
        raise RuntimeError(f"graph generation failed: {gen.err.strip()}")
    return partial(workloads.oracle_normalize, seed, json.loads(gen.out)), workloads.orbits(31)


def setup(name: str, seed: int, tally: Tally, spawner: Spawner) -> tuple[Callable[[int], list[Request]], float]:
    """Input generation plus one untimed warm-up call (it also compiles the
    package's bytecode on a first run), repeated; returns the median time,
    scaled to the reference speed."""
    times = []
    scale = SpeedScale()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rounds, warm = prepare(name, seed, spawner)
        o = spawner.run(tatek_argv(warm))
        elapsed = time.perf_counter() - start
        times.append(elapsed * scale.next())
        reason = verify(warm, o.code, o.out, o.err)
        if reason:
            tally.record(("warm-up", name), None, reason)
    return rounds, statistics.median(times)


# -- timed runs ------------------------------------------------------------------


def timed_cli(name: str, round_of: Callable[[int], list[Request]], seconds: float, tally: Tally,
              spawner: Spawner):
    """Closed loop, one client: whole rounds, stopping at the round boundary
    nearest to ``seconds`` once the workload's minimum count is reached.
    Each sample holds the measured wall and CPU time and the speed factor."""
    samples, peak_kb = [], 0
    scale = SpeedScale()
    start = time.perf_counter_ns()
    rounds = 0
    while True:
        for req in round_of(rounds):
            o = spawner.run(tatek_argv(req))
            factor = scale.next()
            reason = "timed out" if o.timed_out else verify(req, o.code, o.out, o.err)
            tally.record(req.args, (o.code, o.out, o.err), reason)
            samples.append((o.wall_ns, o.cpu_ns, factor, req.units, req.check))
            peak_kb = max(peak_kb, o.maxrss_kb)
        rounds += 1
        elapsed = time.perf_counter_ns() - start
        if elapsed + elapsed / rounds / 2 >= seconds * 1e9 and len(samples) >= MIN_REQUESTS.get(name, 1):
            break
    return samples, peak_kb, scale.raw_probes


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(name: str, seed: int, seconds: float, tally: Tally, spawner: Spawner) -> tuple[dict[str, float], dict]:
    round_of, setup_s = setup(name, seed, tally, spawner)
    samples, peak_kb, probes = timed_cli(name, round_of, seconds, tally, spawner)
    wall_ms = [s[0] / 1e6 for s in samples]
    ref_ms = [s[0] * s[2] / 1e6 for s in samples]
    metrics = {
        "setup_s": setup_s,
        "latency_p50": statistics.median(ref_ms),
        "latency_p90": p90(ref_ms),
        "requests_per_s": len(samples) / (sum(ref_ms) / 1e3),
        "cpu_p50": statistics.median(s[1] * s[2] / 1e6 for s in samples),
        "peak_rss_mb": peak_kb / 1024,
    }
    extra = {
        "requests": len(samples),
        "round": len(round_of(0)),
        "measured_ms": {"latency_p50": statistics.median(wall_ms), "latency_p90": p90(wall_ms),
                        "cpu_p50": statistics.median(s[1] / 1e6 for s in samples)},
        "probe_ms": {"ref": REF_PROBE_MS, "min": min(probes), "median": statistics.median(probes),
                     "max": max(probes)},
    }
    for check, label in WORK_RATES.get(name, ()):
        # Units per reference second of the requests that do this kind of work.
        busy_ms = sum(s[0] * s[2] / 1e6 for s in samples if s[4] == check)
        extra[label] = sum(s[3] for s in samples if s[4] == check) / (busy_ms / 1e3) if busy_ms else 0.0
    if name == "oracle_normalize":
        extra["graphs"] = [{"p": r.ref["p"], "k": r.ref["k"], "half_edges": r.units}
                           for r in round_of(0) if r.check == "normalize"]
    return metrics, extra


# -- traced run ------------------------------------------------------------------


def measure_startup(spawner: Spawner) -> dict[str, float]:
    """The bare interpreter start and the import of tatek.cli, in children."""
    interp = [spawner.run([sys.executable, "-c", "pass"]).wall_ns / 1e6 for _ in range(STARTUP_SAMPLES)]
    imports = []
    for _ in range(STARTUP_SAMPLES):
        o = spawner.run([sys.executable, "-X", "importtime", "-c", "import tatek.cli"])
        imports.append(tracing.parse_importtime(o.err))
    figures = {"startup.interp_ms": statistics.median(interp)}
    figures.update({f"startup.import_ms.{k}": v for k, v in tracing.median_dict(imports).items()})
    return figures


def traced(name: str, seed: int, tally: Tally, spawner: Spawner) -> tuple[dict[str, float], dict]:
    """Replay the first round in this process: once untraced, once traced."""
    round_of, _ = setup(name, seed, tally, spawner)
    requests = round_of(0)
    sys.path.insert(0, str(SRC))
    os.environ.pop("TATEK_REGISTRY", None)
    import tatek
    import tatek.cli
    from tatek import graphs, modp, series

    WORK.mkdir(parents=True, exist_ok=True)
    probe_graph = WORK / "probe_p5_k2.json"
    probe_graph.write_text(graphs.dumps(tatek.cli.demo_graph("scrambled_p5_k2_seed3")), encoding="utf-8")

    def cold_start() -> None:
        """Drop the caches a fresh CLI process would not have."""
        modp.stabiliser_group.cache_clear()
        series.reset_default_registry()

    def call(req: Request) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = tatek.cli.main(list(req.args))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()

    def timed_call(req: Request, tracer=None):
        cold_start()
        if tracer:
            tracer.install()
            root = tracer.begin("replay.request")
        start = time.perf_counter_ns()
        try:
            return call(req), time.perf_counter_ns() - start
        finally:
            if tracer:
                tracer.end(root)
                tracer.uninstall()

    items = requests + workloads.probe(str(probe_graph))
    tracer = tracing.Tracer()
    plain_ns = traced_ns = 0
    for index, req in enumerate(items):
        tracer.request = index
        # Alternate which pass goes first, so that neither profits from the
        # other having warmed the allocator or the CPU caches.
        if index % 2:
            (spanned, t_ns), (plain, p_ns) = timed_call(req, tracer), timed_call(req)
        else:
            (plain, p_ns), (spanned, t_ns) = timed_call(req), timed_call(req, tracer)
        plain_ns += p_ns
        traced_ns += t_ns
        tally.record(req.args, plain, verify(req, *plain))
        tally.record(req.args, spanned, None)
    overhead = 100 * (traced_ns - plain_ns) / plain_ns
    metrics = tracing.layer_metrics(tracer, measure_startup(spawner), overhead, len(requests))
    top = sorted(tracing.LAYERS, key=lambda layer: -metrics[f"self_ms.{layer}"])
    return metrics, {"replayed": len(items), "probe": len(items) - len(requests), "layers_by_self_time": top}


# -- reporting -------------------------------------------------------------------


def run_record(seed: int, load_start: float) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": git_sha(),
        "seed": seed,
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": loadavg(),
    }


def loadavg() -> float | None:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return float(fh.read().split()[0])
    except OSError:
        return None


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict[str, float]]:
    load_start = loadavg()
    tally = Tally()
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    with Spawner() as spawner:
        if trace:
            metrics, extra = traced(name, seed, tally, spawner)
        else:
            metrics, extra = end_to_end(name, seed, seconds, tally, spawner)
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    units = {m["name"]: m["unit"] for m in spec}
    for metric in spec:
        print(f"{name} {metric['name']} = {metrics[metric['name']]:.6g} {metric['unit']}")
    failed_ratio = len(tally.failures) / max(tally.attempted, 1)
    for _, label in () if trace else WORK_RATES.get(name, ()):
        print(f"{name} {label} = {extra[label]:.6g} 1/ref_s")
    print(f"{name} failed_ratio = {failed_ratio:.6g} (attempted {tally.attempted}, failed {len(tally.failures)})")
    for reason in tally.failures[:10]:
        print(f"{name} FAILED {reason}")
    print(json.dumps({"run_record": run_record(seed, load_start), "workload": name, **extra}))
    return tally, {k: {"value": metrics[k], "unit": units[k]} for k in units}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "tatek" / "__init__.py").is_file():
        print(f"error: no tatek sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    pin_to_one_cpu()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    attempted = sum(t.attempted for t, _ in results.values())
    failed = sum(len(t.failures) for t, _ in results.values())
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.workload == "all":
        summary["workloads"] = {name: m for name, (_, m) in results.items()}
    else:
        summary["metrics"] = results[args.workload][1]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
