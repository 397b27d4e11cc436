#!/usr/bin/env python3
"""Smoke check of the benchmark itself; not part of the test suite.

Run from the repository root:

    python3 bench/smoke.py

It runs one request of each workload and
one traced run of a single cli_mix request, then asserts that every metric
of BENCHMARK.json is reported, that end-to-end metrics are positive, and
that no request failed.  It takes about ten seconds.
"""

from __future__ import annotations

import shutil
import sys

import run

SEED = 1


def one_request(prepare):
    def prepared(name: str, seed: int, spawner):
        round_of, warm = prepare(name, seed, spawner)
        return (lambda index: round_of(index)[:1]), warm

    return prepared


def main() -> int:
    run.prepare = one_request(run.prepare)
    run.MIN_REQUESTS.clear()
    problems = []
    jobs = [(name, False) for name in run.WORKLOADS] + [("cli_mix", True)]
    for name, trace in jobs:
        tally, metrics = run.run_workload(name, SEED, 0, trace)
        if tally.failures:
            problems.append(f"{name}: failed_ratio {len(tally.failures)}/{tally.attempted}")
        spec = run.SPEC["per_layer" if trace else "end_to_end"]
        for metric in spec:
            value = metrics.get(metric["name"], {}).get("value")
            if value is None or (not trace and not value > 0):
                problems.append(f"{name}: metric {metric['name']} = {value}")
    shutil.rmtree(run.WORK, ignore_errors=True)
    for problem in problems:
        print("SMOKE FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
