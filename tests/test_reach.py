"""Which functions of ``tatek`` real traffic never enters.

One fresh interpreter traces every call under ``sys.setprofile``, from the
import of the package on, while it runs in process:

- every golden CLI invocation of ``test_golden_cli``, with its environment;
- one ``tate`` request under the README's ``TATEK_REGISTRY`` override, the
  bundled registry document written as a JSON file;
- the seven graphs of ``bench/gen_graphs.py``, built as the benchmark builds
  them, each written by ``graphs.dumps`` and read back by ``normalize --input``.

A function is keyed by the file and first line of its code object, which a
profile event also carries, and named by its qualified name.  The set of
functions never entered must equal ``NEVER_ENTERED``: a function that traffic
stops reaching, or a new one that it never reaches, fails the test until the
map says why the function stays.  Four reasons hold: an error path, the
process entry, a target of the benchmark's tracer, and library API that the
README names.  A function that only tests call has none of them and belongs
in ``tests/``.  To print the set, run from the repository root::

    PYTHONPATH=src:tests python tests/test_reach.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"
GEN_GRAPHS = TESTS_DIR.parent / "bench" / "gen_graphs.py"
TRACING = TESTS_DIR.parent / "bench" / "tracing.py"
README = TESTS_DIR.parent / "README.md"

TRACER = "tracer target: bench/tracing.py wraps it"
ERROR_PATH = "error path: only bad input, a broken invariant or a failed stream reaches it"
PROCESS_ENTRY = "process entry: in-process runs call cli.main instead"
LIBRARY_API = "library API: the README's Library API section names it"
REASONS = {TRACER, ERROR_PATH, PROCESS_ENTRY, LIBRARY_API}

NEVER_ENTERED = {
    "_value.Value.__delattr__": ERROR_PATH,
    "_value.Value.__setattr__": ERROR_PATH,
    "_value._shown": ERROR_PATH,
    "cli._fault_code": ERROR_PATH,
    "cli.run": PROCESS_ENTRY,
    "graphs.InvalidGraph.__init__": ERROR_PATH,
    "graphs._Cycles.cycle": ERROR_PATH,
    "orbits.enumerate_orbits": TRACER,
    "records.parse_record": LIBRARY_API,
    "records.parse_records": LIBRARY_API,
    "records.render_records": LIBRARY_API,
    "series.FreeAbelian.__str__": LIBRARY_API,
    "series.GroupExpr.series": ERROR_PATH,
    "series.NoSuchEntry.__init__": ERROR_PATH,
}


def _functions(module) -> dict[tuple[str, int], str]:
    """(file, first line) -> qualified name of each function and method
    defined in ``module``."""
    short = module.__name__.removeprefix("tatek.")
    found = []
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, type):
            for member in vars(value).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    found += [f for f in (member.fget, member.fset, member.fdel) if f]
                    continue
                found.append(getattr(member, "func", member))  # cached_property
        else:
            found.append(value)
    out = {}
    for fn in found:
        code = getattr(getattr(fn, "__wrapped__", fn), "__code__", None)  # lru_cache
        if code is not None and code.co_filename == module.__file__:
            out[code.co_filename, code.co_firstlineno] = f"{short}.{fn.__qualname__}"
    return out


def never_entered() -> list[str]:
    """Run the traffic under the profiler and name each function never entered."""
    import importlib.util
    import pkgutil
    import tempfile
    from random import Random

    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    import tatek.cli  # loads every layer, as a ``tatek`` process does

    # The test helpers are loaded untraced: only the traffic counts.  The
    # generator is loaded as ``test_normalize_reference`` loads it, without
    # importing that module and Hypothesis with it.
    sys.setprofile(None)
    from tatek.bundled import COHOMOLOGY_REGISTRY
    from test_golden_cli import INVOCATIONS, run_main

    spec = importlib.util.spec_from_file_location("bench_gen_graphs", GEN_GRAPHS)
    gen_graphs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_graphs)

    sys.setprofile(record)
    try:
        for argv in INVOCATIONS:
            run_main(argv)
        with tempfile.TemporaryDirectory() as tmp:
            # The README's starting override: the bundled document as a file.
            registry = os.path.join(tmp, "registry.json")
            with open(registry, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(COHOMOLOGY_REGISTRY))
            argv = ["tate", "--p", "5", "--n", "6", "--format", "records"]
            assert run_main(argv, registry=registry) == run_main(argv)
            for index, config in enumerate(gen_graphs.GRAPH_CONFIGS):
                path = os.path.join(tmp, f"graph{index}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(tatek.graphs.dumps(gen_graphs.scrambled(*config, Random(1))))
                assert run_main(["normalize", "--input", path])["exit"] == 0
    finally:
        sys.setprofile(None)
    entered = {(code.co_filename, code.co_firstlineno) for code in codes}
    functions = {}
    for info in pkgutil.iter_modules(tatek.__path__, "tatek."):
        if info.name != "tatek.__main__":  # importing it would run the CLI
            functions.update(_functions(importlib.import_module(info.name)))
    return sorted(name for key, name in functions.items() if key not in entered)


def test_traffic_enters_every_function_but_those_named():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_DIR), str(TESTS_DIR)]))
    result = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    found = json.loads(result.stdout)
    unnamed = sorted(set(found) - set(NEVER_ENTERED))
    assert not unnamed, (
        f"traffic never enters {unnamed}: name each in NEVER_ENTERED as an error "
        "path, the process entry, a tracer target or library API that the README "
        "names, or move it to tests/ if only tests call it"
    )
    stale = sorted(set(NEVER_ENTERED) - set(found))
    assert not stale, f"traffic enters {stale}, or they are gone: drop them from NEVER_ENTERED"


def test_each_reason_points_where_it_says():
    import importlib.util

    assert set(NEVER_ENTERED.values()) <= REASONS
    readme = README.read_text(encoding="utf-8")
    start = readme.index("### Library API\n")
    library_api = readme[start : readme.index("\n#", start)]
    for name, reason in NEVER_ENTERED.items():
        if reason == LIBRARY_API:
            assert f"`{name}`" in library_api, name
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = {f"{module.removeprefix('tatek.')}.{fn}" for module, fn, *_ in tracing.SPANS}
    for name, reason in NEVER_ENTERED.items():
        if reason == TRACER:
            assert name in wrapped, name


if __name__ == "__main__":
    print(json.dumps(never_entered(), indent=1))
