import copy
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from random import Random

import pytest

from tatek import bundled, cli, graphs, selftest
from tatek.graphs import (
    MAX_GRAPH_FILE_CHARS,
    MAX_HALF_EDGES,
    EquivariantGraph,
    canonical_graph,
    dumps as graph_dumps,
)
from tatek.modp import ClosureExceedsBound, StabiliserKind
from tatek.orbits import NonIntegralOrbitCount, orbit_report
from tatek.records import parse_records
from tatek.series import REGISTRY_ENV_VAR, reset_default_registry
from oracles import to_json_obj
from test_golden_cli import run_main
from test_normalize_reference import gen_graphs, lone_cycle_graph

# Representative invocations of every documented subcommand, both formats.
COMMANDS = [
    ["orbits", "--p", "5"],
    ["orbits", "--p", "5", "--kind", "edge"],
    ["orbits", "--p", "3", "--kind", "rose", "--list"],
    ["classes", "--p", "11", "--n", "12"],
    ["classes", "--p", "5", "--n", "8", "--no-cite"],
    ["tate", "--p", "11", "--n", "12"],
    ["tate", "--p", "5", "--n", "8", "--no-cite"],
    ["rational", "--p", "5", "--n", "7"],
    ["table", "--which", "4"],
    ["table", "--which", "5"],
    ["normalize", "--demo", "canonical_p3_k2"],
    ["normalize", "--demo", "scrambled_p3_k2_seed7"],
    ["example", "--name", "sl3"],
    ["example", "--name", "gl", "--p", "5", "--class-number", "1"],
    ["example", "--name", "sp", "--p", "7"],
    ["example", "--name", "mcg", "--p", "11"],
    ["example", "--name", "amalgam", "--p", "5"],
]


SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def child_env():
    """This environment, with ``src`` first on the child's import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
    return env


def run_cli(*args, env=None):
    full_env = child_env()
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "tatek", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def test_tate_text_output():
    result = run_cli("tate", "--p", "11", "--n", "12")
    assert result.returncode == 0
    assert "even: 4, odd: 1" in result.stdout
    assert "phi: even 1, odd 1" in result.stdout


def test_orbits_text_output():
    result = run_cli("orbits", "--p", "5", "--kind", "edge")
    assert result.returncode == 0
    assert "orbits: 8 (burnside 8, brute-force 8, closed-form 8)" in result.stdout


def test_normalize_demo_output():
    result = run_cli("normalize", "--demo", "canonical_p3_k2")
    assert result.returncode == 0
    assert "normal form: p=3, k=2, rank 7" in result.stdout
    assert "moves: 0" in result.stdout


def test_normalize_from_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(graph_dumps(canonical_graph(5, 1)), encoding="utf-8")
    result = run_cli("normalize", "--input", str(path))
    assert result.returncode == 0
    assert "normal form: p=5, k=1, rank 6" in result.stdout


def test_normalize_needs_exactly_one_source(tmp_path):
    result = run_cli("normalize")
    assert result.returncode == 3
    result = run_cli("normalize", "--demo", "canonical_p3_k1", "--input", "x.json")
    assert result.returncode == 3


@pytest.mark.parametrize("args", COMMANDS, ids=lambda a: " ".join(a))
def test_commands_are_deterministic(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr


@pytest.mark.parametrize("args", COMMANDS, ids=lambda a: " ".join(a))
def test_records_mode_roundtrips(args):
    result = run_cli(*args, "--format", "records")
    assert result.returncode == 0, result.stderr
    records = parse_records(result.stdout)
    assert records, "records output should not be empty"
    from tatek.records import render_records

    assert render_records(records) == result.stdout


def test_records_content_tate():
    result = run_cli("tate", "--p", "11", "--n", "12", "--format", "records")
    records = parse_records(result.stdout)
    head = records[0]
    assert head["record"] == "tate"
    assert (head["even"], head["odd"]) == ("4", "1")
    labels = [r["label"] for r in records if r["record"] == "contribution"]
    assert labels == ["rose(11)", "theta(0,2)", "theta(1,1)", "phi"]


def test_exit_code_unknown_result():
    result = run_cli("tate", "--p", "7", "--n", "11")
    assert result.returncode == 4
    assert "blocked on F4SemidirectAutF4_Z2invariants" in result.stdout


def test_exit_code_domain_errors():
    result = run_cli("tate", "--p", "4", "--n", "5")
    assert result.returncode == 3
    assert "error:" in result.stderr
    result = run_cli("tate", "--p", "5", "--n", "9")
    assert result.returncode == 3
    assert "OutOfRange" in result.stderr
    result = run_cli("normalize", "--demo", "not_a_demo")
    assert result.returncode == 3


def test_exit_code_usage_error():
    result = run_cli("tate", "--p", "5")
    assert result.returncode == 2


def test_no_cite_suppresses_citations():
    with_cite = run_cli("tate", "--p", "5", "--n", "6")
    without = run_cli("tate", "--p", "5", "--n", "6", "--no-cite")
    assert "citations:" in with_cite.stdout
    assert "citations:" not in without.stdout


def test_table_text_contains_blocked_footnote():
    result = run_cli("table", "--which", "4")
    assert result.returncode == 0
    assert "blocked on F4SemidirectAutF4_Z2invariants" in result.stdout


def test_registry_override_env_var(tmp_path):
    data = _bundled_registry()
    # Flip AutF4 to unknown: (7, 10) needs it through theta(0,4).
    data["entries"]["AutF4"] = {"status": "unknown", "citation": "test override"}
    override = tmp_path / "registry.json"
    override.write_text(json.dumps(data), encoding="utf-8")
    normal = run_cli("tate", "--p", "7", "--n", "10")
    assert normal.returncode == 0 and "even: 6, odd: 0" in normal.stdout
    overridden = run_cli(
        "tate", "--p", "7", "--n", "10", env={REGISTRY_ENV_VAR: str(override)}
    )
    assert overridden.returncode == 4
    assert "blocked on AutF4" in overridden.stdout


def test_selftest_passes():
    result = run_cli("selftest", "--max-p", "13")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 failed" in result.stdout.splitlines()[-1]


def test_version_flag():
    result = run_cli("--version")
    assert result.returncode == 0
    assert result.stdout.startswith("tatek ")


def _main_in_process(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def _bad_graph_objs():
    """Graph JSON objects with one wrongly typed value each; 1.0 and true
    stand where a 1 was, so truncating them with int() would pass."""
    base = to_json_obj(canonical_graph(3, 1))
    cases = {"p_string": dict(base, p="3"), "vertices_string": dict(base, vertices="3")}
    records = [dict(r) for r in base["half_edges"]]
    records[1]["id"] = "1"
    cases["id_string"] = dict(base, half_edges=records)
    for field in ("vertex_action", "half_edge_action"):
        for label, bad in (("float", 1.0), ("bool", True)):
            values = list(base[field])
            values[values.index(1)] = bad
            cases[f"{field}_{label}"] = dict(base, **{field: values})
    for key in ("partner", "vertex"):
        for label, bad in (("float", 1.0), ("bool", True)):
            records = [dict(r) for r in base["half_edges"]]
            index = next(i for i, r in enumerate(records) if r[key] == 1)
            records[index][key] = bad
            cases[f"{key}_{label}"] = dict(base, half_edges=records)
    return cases


@pytest.mark.parametrize("name", sorted(_bad_graph_objs()))
def test_normalize_rejects_wrongly_typed_graph_json(name, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(_bad_graph_objs()[name]), encoding="utf-8")
    code, out, err = _main_in_process(capsys, "normalize", "--input", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: GraphStructureError: ")
    assert err.count("\n") == 1


def test_orbits_refuses_prime_above_bound(capsys):
    code, out, err = _main_in_process(capsys, "orbits", "--p", "1000003")
    assert code == 3
    assert out == ""
    assert err == (
        "error: OrbitPrimeTooLarge: p = 1000003 exceeds the orbit partition bound 2000\n"
    )


def _misshapen_graph_objs():
    """Graph JSON documents of the wrong shape: not an object, or a list or
    record where the other is expected."""
    base = to_json_obj(canonical_graph(3, 1))
    return {
        "top_level_list": [1, 2],
        "top_level_int": 5,
        "half_edges_ints": dict(base, half_edges=[5]),
        "half_edges_object": dict(base, half_edges={"id": 0}),
        "half_edge_list_record": dict(base, half_edges=[[0, 1, 0]] + base["half_edges"][1:]),
        "vertex_action_int": dict(base, vertex_action=5),
        "half_edge_action_string": dict(base, half_edge_action="012"),
    }


@pytest.mark.parametrize("name", sorted(_misshapen_graph_objs()))
def test_normalize_rejects_misshapen_graph_json(name, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(_misshapen_graph_objs()[name]), encoding="utf-8")
    code, out, err = _main_in_process(capsys, "normalize", "--input", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: GraphStructureError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "change, message",
    [
        ({"vertex_action": [0, 0]}, "vertex_action is not a permutation of 0..1"),
        ({"vertices": 0}, "graph needs at least one vertex"),
    ],
    ids=["vertex_action_not_a_permutation", "no_vertices"],
)
def test_normalize_rejects_graph_of_bad_structure(change, message, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(dict(to_json_obj(canonical_graph(2, 1)), **change)), encoding="utf-8")
    code, out, err = _main_in_process(capsys, "normalize", "--input", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: GraphStructureError: {message}\n"


def _graph_objs_with_a_huge_value():
    """Graph JSON objects whose one wrong value is a list of 1,000,000 zeros."""
    base = to_json_obj(canonical_graph(3, 1))
    huge = [0] * 1_000_000
    values = list(base["vertex_action"])
    values[1] = huge
    return {
        "half_edges_entry": dict(base, half_edges=[huge] + base["half_edges"][1:]),
        "vertex_action_entry": dict(base, vertex_action=values),
        "p": dict(base, p=huge),
    }


@pytest.mark.parametrize("name", sorted(_graph_objs_with_a_huge_value()))
def test_graph_file_error_echoes_a_short_value(name, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(_graph_objs_with_a_huge_value()[name]), encoding="utf-8")
    code, out, err = _main_in_process(capsys, "normalize", "--input", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: GraphStructureError: ") and err.count("\n") == 1
    assert len(err.encode()) < 200
    assert "[0, 0, 0, " in err and "..." in err


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda tmp: tmp / "missing.json", "FileNotFoundError"),
        (lambda tmp: tmp, "IsADirectoryError"),
    ],
    ids=["missing", "directory"],
)
def test_normalize_reports_unreadable_input(make, error, tmp_path, capsys):
    path = str(make(tmp_path))
    code, out, err = _main_in_process(capsys, "normalize", "--input", path)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {error}: ")
    assert path in err
    assert err.count("\n") == 1


def test_import_loads_every_layer_but_not_dataclasses():
    # The bench tracer patches functions in each layer module, and its
    # startup.import_ms.<module> figures are parsed from `python -X importtime
    # -c "import tatek.cli"`: both rely on `import tatek.cli` loading all eight
    # layers eagerly.  `dataclasses` (which loads `inspect`) cost about 25 ms
    # of that import before the value classes moved to tatek._value.
    # `argparse` (which loads `gettext`; building its parser loads `locale`)
    # is imported only for help and usage errors, not to parse a canonical
    # command line, and `json` only where JSON is read or quoted.
    layers = ("records", "modp", "orbits", "graphs", "series", "classes", "assemble", "selftest")
    unwanted = ("dataclasses", "inspect", "argparse", "gettext", "locale", "json")
    code = (
        "import sys, tatek.cli; "
        "tatek.cli.build_parser().parse_args(['tate', '--p', '11', '--n', '12']); "
        f"print(' '.join(sorted(m for m in sys.modules if m in {unwanted!r}))); "
        f"print(' '.join(m for m in {layers!r} if 'tatek.' + m not in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n\n"


def test_startup_compiles_no_pattern_and_bare_requests_load_no_json():
    # The median request of the orbit workload is an `orbits --format
    # records` run. Importing the layers compiles no pattern, and answering
    # it, a demo graph, an example, a selftest or a request that reads the
    # bundled registry or class numbers, or quotes a citation, loads no JSON
    # codec: the bundled data is Python, and plain values are quoted directly.
    argvs = [
        ["orbits", "--p", "5", "--format", "records"],
        ["orbits", "--p", "7", "--kind", "theta", "--list", "--format", "records"],
        ["normalize", "--demo", "scrambled_p5_k2_seed3", "--format", "records"],
        ["example", "--name", "amalgam", "--p", "7"],
        *(
            [*request, "--format", fmt, *cite]
            for request in (
                ["tate", "--p", "11", "--n", "12"],
                ["rational", "--p", "5", "--n", "7"],
                ["table", "--which", "5"],
            )
            for fmt in ("text", "records")
            for cite in ([], ["--no-cite"])
        ),
        ["classes", "--p", "11", "--n", "12", "--format", "records"],
        ["example", "--name", "gl", "--p", "7"],
        ["example", "--name", "sp", "--p", "7"],
        ["selftest", "--max-p", "5"],
    ]
    code = (
        "import re, sys\n"
        "compiled = []\n"
        "real_compile = re.compile\n"
        "re.compile = lambda *a, **k: compiled.append(a[0]) or real_compile(*a, **k)\n"
        "import tatek.cli\n"
        "print(compiled, file=sys.stderr)\n"
        f"codes = [tatek.cli.main(argv) for argv in {argvs!r}]\n"
        "print(codes, file=sys.stderr)\n"
        "print(sorted(m for m in sys.modules if m in ('json', '_json')), file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == f"[]\n{[0] * len(argvs)}\n[]\n"
    assert result.stdout.startswith("record=orbit_report kind=edge p=5 ")
    assert 'record=citation text="' in result.stdout


def test_import_and_a_tate_request_load_no_json_or_resources_without_site():
    # Under `python -S` nothing else loads them.  `importlib.resources` would
    # bring `pathlib`, `zipfile` and more into `import tatek.cli`.
    code = (
        "import sys, tatek.cli\n"
        "code = tatek.cli.main(['tate', '--p', '11', '--n', '12', '--format', 'records'])\n"
        "unwanted = ('json', '_json', 'importlib.resources')\n"
        "print(code, sorted(m for m in sys.modules if m in unwanted), file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert result.stderr == "0 []\n"
    assert result.stdout.startswith("record=tate group=Out(F_12) p=11 n=12 ")


def test_import_of_the_root_loads_no_layer():
    # The root holds only the version; each layer is imported as tatek.<layer>.
    code = (
        "import sys, tatek; print(tatek.__version__); "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('tatek.'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0.1.0\n\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["tate", "--p", "1000000000000000003", "--n", "5"],
        ["classes", "--p", "1000000000000000003", "--n", "5"],
        ["rational", "--p", "1000000000000000003", "--n", "5"],
        ["example", "--name", "mcg", "--p", "1000000000000000003"],
        ["normalize", "--demo", "canonical_p1000000000000000003_k1"],
    ],
    ids=lambda argv: argv[0],
)
def test_prime_above_bound_is_refused(argv, capsys):
    code, out, err = _main_in_process(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "error: PrimeTooLarge: p = 1000000000000000003 exceeds the supported bound "
        "100000000000\n"
    )


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "argv",
    [
        ["example", "--name", "gl", "--p", "100003", "--class-number", "1"],
        ["example", "--name", "sp", "--p", "100003", "--class-number", "1"],
        # Unbounded, this one would compute 2^49999999988, about 6 GB.
        ["example", "--name", "sp", "--p", "99999999977", "--class-number", "1"],
    ],
    ids=lambda argv: f"{argv[2]}_{argv[4]}",
)
def test_example_prime_above_bound_is_refused_before_any_work(argv):
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "tatek", *argv], capture_output=True, text=True,
        env=child_env(), preexec_fn=_limit_memory, timeout=10,
    )
    elapsed = time.perf_counter() - start
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("error: ExamplePrimeTooLarge: ")
    assert result.stderr.count("\n") == 1
    assert elapsed < 1.0


def test_example_prime_at_bound_runs(capsys):
    code, out, err = _main_in_process(
        capsys, "example", "--name", "gl", "--p", "4999", "--class-number", "1"
    )
    assert (code, err) == (0, "")
    assert out.startswith("Farrell-Tate K-theory of GL_4998(Z) at p=4999\n")


def test_graph_json_prime_above_bound_is_refused(tmp_path, capsys):
    path = tmp_path / "graph.json"
    obj = dict(to_json_obj(canonical_graph(3, 1)), p=1000000000000000003)
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = _main_in_process(capsys, "normalize", "--input", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: PrimeTooLarge: ") and err.count("\n") == 1


@pytest.fixture
def registry_override(tmp_path, monkeypatch):
    """Point the registry override at a file the test writes (or leaves missing)."""
    path = tmp_path / "registry.json"
    monkeypatch.setenv(REGISTRY_ENV_VAR, str(path))
    reset_default_registry()
    yield path
    reset_default_registry()


def _bundled_registry() -> dict:
    """A copy of the bundled registry document, free to edit."""
    return copy.deepcopy(bundled.COHOMOLOGY_REGISTRY)


def _with_entry(name: str, body) -> dict:
    data = _bundled_registry()
    data["entries"][name] = body
    return data


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        (
            _with_entry("AutF4", {"status": "known", "citation": "x"}),
            ["tate", "--p", "5", "--n", "6"],
            "registry entry AutF4: dims missing or not an object",
        ),
        (
            {"version": 1},
            ["tate", "--p", "5", "--n", "6"],
            "registry document: entries missing or not an object",
        ),
        (
            dict(_bundled_registry(), version="2"),
            ["tate", "--p", "5", "--n", "6"],
            "registry document: version '2' is not an integer",
        ),
        (
            dict(_bundled_registry(), version=True),
            ["tate", "--p", "5", "--n", "6"],
            "registry document: version True is not an integer",
        ),
        (
            dict(_bundled_registry(), version=False),
            ["tate", "--p", "5", "--n", "6"],
            "registry document: version False is not an integer",
        ),
        (
            _with_entry("AutF4", ["known"]),
            ["table", "--which", "4"],
            "registry entry AutF4: not an object",
        ),
        (
            _with_entry("AutF4", {"status": "known", "citation": "x", "dims": {"4": "y"}}),
            ["tate", "--p", "5", "--n", "6"],
            "registry entry AutF4: bad dims: invalid literal for int() with base 10: 'y'",
        ),
        (
            _with_entry("AutF2", {"status": "known", "citation": "x", "dims": {"99": 1, "0": 1}}),
            ["tate", "--p", "5", "--n", "6"],
            "class theta(0,2): the registry dims of finite x finite x AutF2 reach degree 99, "
            "above 2n = 12",
        ),
        (
            _with_entry("AutF2", {"status": "known", "citation": "x", "dims": {"0": 1, "1": 2.7}}),
            ["tate", "--p", "5", "--n", "6"],
            "registry entry AutF2: dims value 2.7 is not an integer",
        ),
        (
            _with_entry("AutF2", {"status": "known", "citation": "x", "dims": {"0": 1, "1": True}}),
            ["tate", "--p", "5", "--n", "6"],
            "registry entry AutF2: dims value True is not an integer",
        ),
        (
            _with_entry("AutF2", {"status": "known", "citation": "x", "dims": {"0": 1, "1": "3"}}),
            ["tate", "--p", "5", "--n", "6"],
            "registry entry AutF2: dims value '3' is not an integer",
        ),
        (
            _with_entry(
                "AutF2", {"status": "known", "citation": "x", "dims": {"0": 1, "1": 2, "01": 0}}
            ),
            ["tate", "--p", "5", "--n", "6"],
            "registry entry AutF2: dims degree '01' is not a canonical decimal",
        ),
        (
            _with_entry("AutF2", {"status": "known", "citation": 7, "dims": {"0": 1}}),
            ["tate", "--p", "5", "--n", "6"],
            "registry entry AutF2: citation 7 is not a string",
        ),
        (
            _with_entry(
                "AutF2", {"status": "known", "citation": "x", "dims": {"0": 1, "1": float("inf")}}
            ),
            ["tate", "--p", "5", "--n", "6"],
            "registry entry AutF2: bad dims: cannot convert float infinity to integer",
        ),
    ],
    ids=[
        "known_without_dims", "no_entries", "version", "version_true", "version_false",
        "entry_not_object", "bad_dims", "above_2n",
        "float_dim", "bool_dim", "string_dim", "leading_zero_degree", "citation_not_text",
        "infinite_dim",
    ],
)
def test_registry_data_errors(doc, argv, message, registry_override, capsys):
    registry_override.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _main_in_process(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: RegistryDataError: {message}\n"


# At p = 5, n = 6 the centraliser of theta(0,2) is finite x finite x AutF2, so
# an AutF2 series meets the degree bound 2n = 12 of ``tate_k`` at degree 12.
TATE_5_6_RECORDS = ["tate", "--p", "5", "--n", "6", "--format", "records"]
# The identity's class of Out(F_4) has the centraliser OutF4, whose series
# meets the same bound 2n = 8 of ``rational_k`` at degree 8.
RATIONAL_5_4_RECORDS = ["rational", "--p", "5", "--n", "4", "--format", "records"]


def _reaching(tmp_path, name: str, degree: int) -> str:
    """An override file whose ``name`` series has one more class, in ``degree``."""
    path = tmp_path / f"{name}_degree_{degree}.json"
    dims = {"0": 1, str(degree): 1}
    doc = _with_entry(name, {"status": "known", "citation": "x", "dims": dims})
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def assert_series_at_degree_2n_is_summed(tmp_path):
    result = run_main(TATE_5_6_RECORDS, registry=_reaching(tmp_path, "AutF2", 12))
    assert (result["exit"], result["stderr"]) == (0, "")
    lines = result["stdout"].splitlines()
    assert lines[0] == (
        "record=tate group=Out(F_6) p=5 n=6 status=known even=5 odd=0 weak_duality=true euler=5"
    )
    assert "record=contribution label=theta(0,2) even=2 odd=0" in lines


def assert_series_above_degree_2n_is_refused(tmp_path):
    result = run_main(TATE_5_6_RECORDS, registry=_reaching(tmp_path, "AutF2", 13))
    assert (result["exit"], result["stdout"]) == (3, "")
    assert result["stderr"] == (
        "error: RegistryDataError: class theta(0,2): the registry dims of finite x finite x "
        "AutF2 reach degree 13, above 2n = 12\n"
    )


def assert_identity_series_at_degree_2n_is_summed(tmp_path):
    result = run_main(RATIONAL_5_4_RECORDS, registry=_reaching(tmp_path, "OutF4", 8))
    assert (result["exit"], result["stderr"]) == (0, "")
    assert result["stdout"].splitlines()[0] == (
        "record=rational p=5 n=4 status=known even=3 odd=0 tate_even=1 tate_odd=0 "
        "outfn_even=2 outfn_odd=0"
    )


def assert_identity_series_above_degree_2n_is_refused(tmp_path):
    result = run_main(RATIONAL_5_4_RECORDS, registry=_reaching(tmp_path, "OutF4", 9))
    assert (result["exit"], result["stdout"]) == (3, "")
    assert result["stderr"] == (
        "error: RegistryDataError: class identity: the registry dims of OutF4 reach degree 9, "
        "above 2n = 8\n"
    )


def test_registry_series_at_degree_2n_is_summed(tmp_path):
    assert_series_at_degree_2n_is_summed(tmp_path)


def test_registry_series_at_degree_2n_plus_1_is_refused(tmp_path):
    assert_series_above_degree_2n_is_refused(tmp_path)


def test_identity_series_at_degree_2n_is_summed(tmp_path):
    assert_identity_series_at_degree_2n_is_summed(tmp_path)


def test_identity_series_at_degree_2n_plus_1_is_refused(tmp_path):
    """``rational`` bounds the identity's part, ``OutF<n>``, as ``tate`` bounds
    each centraliser; an ``OutF4`` series reaching degree 9 was once summed."""
    assert_identity_series_above_degree_2n_is_refused(tmp_path)


def _registries_with_a_huge_value() -> dict[str, dict]:
    """Registry documents each holding one bad value of several MB."""
    zeros = [0] * 1_000_000
    return {
        "status": _with_entry("OutF2", {"status": zeros}),
        "version": dict(_bundled_registry(), version=zeros),
        "entry_name": _with_entry("X" * 1_000_000, ["known"]),
        "dims": _with_entry(
            "AutF4", {"status": "known", "citation": "x", "dims": {"4": "y" * 1_000_000}}
        ),
    }


@pytest.mark.parametrize("name", sorted(_registries_with_a_huge_value()))
def test_registry_file_error_echoes_a_short_value(name, registry_override, capsys):
    doc = _registries_with_a_huge_value()[name]
    registry_override.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _main_in_process(capsys, "tate", "--p", "5", "--n", "6")
    assert (code, out) == (3, "")
    assert err.startswith("error: RegistryDataError: ") and err.count("\n") == 1
    assert len(err.encode()) < 200
    assert "..." in err


@pytest.mark.parametrize(
    "argv",
    [["tate", "--p", "5", "--n", "6"], ["rational", "--p", "5", "--n", "6"], ["table", "--which", "4"]],
    ids=" ".join,
)
def test_registry_series_of_huge_degree_echoes_a_short_degree(argv, registry_override, capsys):
    doc = _with_entry("AutF2", {"status": "known", "citation": "x", "dims": {"9" * 4000: 1, "0": 1}})
    registry_override.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _main_in_process(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "error: RegistryDataError: class theta(0,2): the registry dims of finite x finite x "
        f"AutF2 reach degree {'9' * 57}..., above 2n = 12\n"
    )
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "dims, message",
    [
        ({"0": 0, "1": 1}, "dims[0] must be >= 1"),
        ({"0": 1, "1": -1}, "bad dims: bad series entry 1: -1"),
    ],
    ids=["dim_0_zero", "negative_dim"],
)
def test_registry_dims_out_of_range(dims, message, registry_override, capsys):
    doc = _with_entry("AutF2", {"status": "known", "citation": "x", "dims": dims})
    registry_override.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _main_in_process(capsys, "tate", "--p", "5", "--n", "6")
    assert (code, out) == (3, "")
    assert err == f"error: RegistryDataError: registry entry AutF2: {message}\n"


def test_unreadable_registry_override(registry_override, capsys):
    code, out, err = _main_in_process(capsys, "tate", "--p", "5", "--n", "6")
    assert (code, out) == (3, "")
    assert err == (
        f"error: RegistryDataError: cannot read {REGISTRY_ENV_VAR}={registry_override}: "
        "No such file or directory\n"
    )


def test_registry_override_reaches_rational_and_table(registry_override, capsys):
    citation = "test override: OutF7 with two odd classes"
    doc = _with_entry(
        "OutF7", {"status": "known", "dims": {"0": 1, "2": 3, "5": 2}, "citation": citation}
    )
    registry_override.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = _main_in_process(
        capsys, "rational", "--p", "5", "--n", "7", "--format", "records"
    )
    assert code == 0
    records = parse_records(out)
    head = records[0]
    # The torsion part stays (3, 0); OutF7 now adds (4, 2) instead of (2, 1).
    assert [head[k] for k in ("tate_even", "tate_odd", "outfn_even", "outfn_odd")] == [
        "3", "0", "4", "2"
    ]
    assert (head["even"], head["odd"]) == ("7", "2")
    cited = [r["text"] for r in records if r["record"] == "citation"]
    assert cited[-1] == citation and not any("Bartholdi" in text for text in cited)

    code, out, _ = _main_in_process(capsys, "table", "--which", "5", "--format", "records")
    assert code == 0
    records = parse_records(out)
    (cell,) = [r for r in records if r["record"] == "cell" and (r["n"], r["p"]) == ("7", "5")]
    assert (cell["status"], cell["even"], cell["odd"]) == ("known", "7", "2")
    assert citation in [r["text"] for r in records if r["record"] == "citation"]


def test_selftest_refuses_max_p_above_the_orbit_bound(monkeypatch, capsys):
    # Refused before any sweep starts: a sweep that ran would call this.
    def no_sweep(limit):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr("tatek.selftest.primes_up_to", no_sweep)
    code, out, err = _main_in_process(capsys, "selftest", "--max-p", "2003")
    assert (code, out) == (3, "")
    assert err == (
        "error: OrbitPrimeTooLarge: max_p = 2003 exceeds the orbit partition bound 2000\n"
    )


def assert_selftest_accepts_the_orbit_bound(tmp_path=None):
    # The bound itself passes the refusal.  No sweep over the primes runs, so
    # only the tables, the examples and the graph check do.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("tatek.selftest.primes_up_to", lambda limit: [])
        result = run_main(["selftest", "--max-p", "2000"])
    assert (result["exit"], result["stderr"]) == (0, "")
    assert result["stdout"].splitlines()[-1].endswith(" passed, 0 failed")


def test_selftest_accepts_max_p_at_the_orbit_bound():
    assert_selftest_accepts_the_orbit_bound()


# Each prime bound is itself let through to the primality test: none of the
# three bounds is prime, so each is refused as a composite, not as too large.
COMPOSITES_AT_THE_PRIME_BOUNDS = {
    "modp.MAX_PRIME": ["tate", "--p", "100000000000", "--n", "3"],
    "orbits.MAX_ORBIT_PRIME": ["orbits", "--p", "2000"],
    "assemble.MAX_EXAMPLE_PRIME": ["example", "--name", "gl", "--p", "5000"],
}


def assert_composite_at_the_bound_is_refused(bound, tmp_path=None):
    argv = COMPOSITES_AT_THE_PRIME_BOUNDS[bound]
    p = argv[argv.index("--p") + 1]
    result = run_main(argv)
    assert (result["exit"], result["stdout"]) == (3, "")
    assert result["stderr"] == f"error: ValueError: modulus must be prime, got {p}\n"


@pytest.mark.parametrize("bound", sorted(COMPOSITES_AT_THE_PRIME_BOUNDS))
def test_composite_at_each_prime_bound_is_refused_as_composite(bound):
    assert_composite_at_the_bound_is_refused(bound)


def test_selftest_sweep_draws_the_same_graphs(monkeypatch):
    """The graph check's 30 inputs, pinned by digest: a changed draw would
    otherwise hide behind an unchanged pass count."""
    inputs = []
    normalize = graphs.normalize

    def recording(g):
        inputs.append(graphs.dumps(g))
        return normalize(g)

    monkeypatch.setattr(graphs, "normalize", recording)
    assert selftest.run_selftest(5)[1]
    assert len(inputs) == 30
    assert hashlib.sha256("".join(inputs).encode()).hexdigest() == (
        "da88112144f6c4e43a3371bdd2c2e3f9ed159e2e9fa87402157b8c6ecc878985"
    )


def test_selftest_reports_each_failed_fact(monkeypatch, capsys):
    monkeypatch.setitem(selftest.EXPECTED_TABLE4, (2, 2), (5, 0))
    monkeypatch.setitem(selftest.EXPECTED_TABLE5, (3, 5), (9, 9))
    code, out, err = _main_in_process(capsys, "selftest", "--max-p", "5")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "ok   stabiliser group orders: 9 passed, 0 failed",
        "ok   orbit counts: burnside == brute force == closed form: 9 passed, 0 failed",
        "ok   quotient graph Betti numbers: 3 passed, 0 failed",
        "ok   rank p+1 assembly: even dim 4, odd dim from orbit counting: 2 passed, 0 failed",
        "ok   weak duality pattern across the supported ranks: 4 passed, 0 failed",
        "ok   class counts over the periodic range: 4 passed, 0 failed",
        "FAIL published table cells: 30 passed, 2 failed",
        "     - table 4 cell (n=2, p=2): got (4, 0)",
        "     - table 5 cell (n=3, p=5): got (1, 0)",
        "ok   example families: 34 passed, 0 failed",
        "ok   equivariant graph moves and normal forms: 90 passed, 0 failed",
        "selftest total: 185 passed, 2 failed",
    ]


# A scrambled name is refused from its worst case: 2p(k+1) half-edges and up
# to four expansions of 2p each.
@pytest.mark.parametrize(
    "name, half_edges",
    [
        ("canonical_p1000003_k2", 6000018),
        ("canonical_p5_k100000000", 1000000010),
        ("scrambled_p1000003_k2_seed1", 14000042),
        ("scrambled_p5_k100000000_seed7", 1000000050),
        ("canonical_p2_k25000", 100004),
        ("scrambled_p2_k24996_seed19", 100004),
        ("scrambled_p2_k24999_seed19", 100016),
        ("scrambled_p3_k16662_seed1", 100002),
        ("scrambled_p49999_k0_seed5", 499990),
    ],
)
def test_normalize_demo_above_the_size_bound_is_refused(name, half_edges, capsys):
    code, out, err = _main_in_process(capsys, "normalize", "--demo", name)
    assert (code, out) == (3, "")
    count = "2p(k+1)" if name.startswith("canonical") else "up to 2p(k+5)"
    assert err == (
        f"error: DemoGraphTooLarge: demo graph {name} has {count} = {half_edges} "
        f"half-edges, above the bound {MAX_HALF_EDGES}\n"
    )


def test_normalize_demo_at_the_size_bound_runs(capsys):
    assert MAX_HALF_EDGES == 100_000
    code, out, err = _main_in_process(
        capsys, "normalize", "--demo", "canonical_p2_k24999", "--format", "records"
    )
    assert (code, out, err) == (0, "record=normal_form p=2 k=24999 rank=49999 moves=0\n", "")


def test_largest_scrambled_demo_runs_at_the_size_bound(capsys):
    # Seed 5 draws all four expansions: 2p(k+5) = 100,000 half-edges.
    name = "scrambled_p2_k24995_seed5"
    assert cli.demo_graph(name).n_half_edges == MAX_HALF_EDGES
    code, out, err = _main_in_process(capsys, "normalize", "--demo", name, "--format", "records")
    assert (code, err) == (0, "")
    assert out.startswith("record=normal_form p=2 k=24995 rank=49991 moves=")


@pytest.fixture
def no_graph_built(monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(EquivariantGraph, "__init__", no_graph)


def test_normalize_input_above_the_size_bound_is_refused(tmp_path, no_graph_built, capsys):
    # Refused from the length of the parsed half_edges list: the records are
    # not even looked at, and no graph is built.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 2, "half_edges": [{}] * (MAX_HALF_EDGES + 1)}))
    code, out, err = _main_in_process(capsys, "normalize", "--input", str(path))
    assert (code, out) == (3, "")
    assert err == (
        f"error: GraphTooLarge: graph has {MAX_HALF_EDGES + 1} half-edges, "
        f"above the bound {MAX_HALF_EDGES}\n"
    )


def test_normalize_input_with_more_vertices_than_the_bound_is_refused(
    tmp_path, no_graph_built, capsys
):
    # A connected graph under the half-edge bound has at most 50,001 vertices.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"p": 2, "vertices": MAX_HALF_EDGES + 1, "half_edges": []}))
    code, out, err = _main_in_process(capsys, "normalize", "--input", str(path))
    assert (code, out) == (3, "")
    assert err == (
        f"error: GraphTooLarge: graph has {MAX_HALF_EDGES + 1} vertices, "
        f"above the bound {MAX_HALF_EDGES}\n"
    )


def test_deeply_nested_graph_file_is_refused(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = _main_in_process(capsys, "normalize", "--input", str(path))
    assert (code, out, err) == (
        3, "", "error: GraphStructureError: graph file is nested too deeply to parse\n"
    )


def test_deeply_nested_registry_is_refused(registry_override, capsys):
    registry_override.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = _main_in_process(capsys, "tate", "--p", "5", "--n", "6")
    assert (code, out, err) == (
        3, "", "error: RegistryDataError: registry document is nested too deeply to parse\n"
    )


def test_normalize_input_at_the_size_bound_runs(tmp_path, capsys):
    k = MAX_HALF_EDGES // 4 - 1
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(to_json_obj(canonical_graph(2, k))), encoding="utf-8")
    code, out, err = _main_in_process(capsys, "normalize", "--input", str(path), "--format", "records")
    assert (code, out, err) == (0, f"record=normal_form p=2 k={k} rank={2 * k + 1} moves=0\n", "")


@pytest.mark.parametrize(
    "length, parsed", [(MAX_GRAPH_FILE_CHARS, True), (MAX_GRAPH_FILE_CHARS + 1, False)]
)
def test_normalize_input_file_above_the_length_bound_is_never_parsed(
    length, parsed, tmp_path, monkeypatch, capsys
):
    # A file of NUL characters: one at the bound reaches the parser, one a
    # character longer is refused from its length before it is parsed.
    seen = []

    def loads(text):
        seen.append(len(text))
        raise ValueError("not parsed here")

    monkeypatch.setattr(cli, "graph_loads", loads)
    path = tmp_path / "long.json"
    with open(path, "wb") as fh:
        fh.truncate(length)
    code, out, err = _main_in_process(capsys, "normalize", "--input", str(path))
    assert (code, out) == (3, "")
    if parsed:
        assert (seen, err) == ([length], "error: ValueError: not parsed here\n")
    else:
        assert seen == []
        assert err == (
            f"error: GraphTooLarge: graph file {path} is longer than the bound of "
            f"{MAX_GRAPH_FILE_CHARS} characters\n"
        )


def test_reading_a_graph_file_holds_its_bytes_and_its_text_and_no_more(tmp_path):
    # Reading with a length makes the reader allocate a buffer of that length:
    # through ``read(MAX_GRAPH_FILE_CHARS + 1)`` a 40 KB file peaked at 33.6 MB.
    path = tmp_path / "graph.json"
    path.write_text(graph_dumps(gen_graphs.scrambled(31, 4, 2, 3, Random(1))), encoding="utf-8")
    size = path.stat().st_size
    assert size > 35_000
    tracemalloc.start()
    try:
        cli._read_graph_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * size


def test_after_the_read_nothing_in_normalize_input_climbs_above_it(tmp_path, monkeypatch, capsys):
    # Reading a graph file holds its bytes and its text together, about twice
    # the file, and that is the request's high-water mark: the parse (the
    # text, the records' columns and the action lists), the graph it builds,
    # validate's cycle indexes, normalize's working copy and the output all
    # stay under it, on every benchmark graph.  With a dict per record the
    # parse alone climbed to 2.2 times the read.
    read_file, marks = cli._read_graph_file, []

    def reading(path):
        tracemalloc.reset_peak()
        text = read_file(path)
        marks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return text

    monkeypatch.setattr(cli, "_read_graph_file", reading)
    for config in gen_graphs.GRAPH_CONFIGS:
        path = tmp_path / "graph.json"
        path.write_text(graph_dumps(gen_graphs.scrambled(*config, Random(1))), encoding="utf-8")
        tracemalloc.start()
        try:
            code = cli.main(["normalize", "--input", str(path), "--format", "records"])
            after = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().out.startswith("record=normal_form")
        assert after <= marks[-1], config


class _LineCounter(io.TextIOBase):
    """A stdout that keeps nothing but the number of lines written to it."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


def test_orbits_list_is_written_one_line_at_a_time(monkeypatch):
    # The listing names all p^2 - 1 vectors three times over; only the
    # p^2-byte mask and the current orbit are held while it is written.
    p = 97
    sink = _LineCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.main(["orbits", "--p", str(p), "--list", "--format", "records"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    reports = [orbit_report(kind, p) for kind in StabiliserKind]
    expected = sum(1 + len(r.per_element_counts) + r.brute_force_count for r in reports) + 1
    assert sink.lines == expected
    assert peak < 1_000_000


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    def broken(graph):
        raise AssertionError("normalization ended off normal form: steps [2]")

    monkeypatch.setattr(cli, "normalize", broken)
    code, out, err = _main_in_process(capsys, "normalize", "--demo", "canonical_p3_k1")
    assert (code, out) == (cli.EXIT_INTERNAL_ERROR, "")
    assert cli.EXIT_INTERNAL_ERROR == 5
    assert err == (
        "internal error: AssertionError: normalization ended off normal form: steps [2]\n"
    )


@pytest.mark.parametrize(
    "error",
    [
        NonIntegralOrbitCount("Burnside sum 7 is not divisible by the group order 2"),
        ClosureExceedsBound("closure grew past 10 elements"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_internal_faults_are_not_reported_as_domain_errors(error, monkeypatch, capsys):
    # Neither can be reached from command-line input: each means a bug.
    def broken(group):
        raise error

    monkeypatch.setattr("tatek.orbits.burnside_orbit_count", broken)
    code, out, err = _main_in_process(capsys, "orbits", "--p", "5")
    assert (code, out) == (cli.EXIT_INTERNAL_ERROR, "")
    assert err == f"internal error: {type(error).__name__}: {error}\n"


def test_registry_without_a_named_entry_is_a_domain_error(registry_override, capsys):
    data = _bundled_registry()
    del data["entries"]["AutF2"]
    registry_override.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = _main_in_process(capsys, "tate", "--p", "5", "--n", "6")
    assert (code, out, err) == (3, "", "error: NoSuchEntry: 'AutF2'\n")


def test_graph_with_no_move_to_the_normal_form_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(graph_dumps(lone_cycle_graph(5, [2])), encoding="utf-8")
    code, out, err = _main_in_process(capsys, "normalize", "--input", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: NormalizationError: the only edge orbit is a cycle of step 2; ")
    assert err.count("\n") == 1


# The exit code of every exception class of the package when a command raises
# it: 3 for a domain error, 5 for a bug.  A new class fails the test below
# until its line here says which it is.
EXIT_CODE_OF_ERROR = {
    "_value.FrozenInstanceError": 5,
    "assemble.ExamplePrimeTooLarge": 3,
    "assemble.NonIntegral": 5,
    "classes.OutOfRange": 3,
    "cli.DemoGraphTooLarge": 3,
    "graphs.GraphStructureError": 3,
    "graphs.GraphTooLarge": 3,
    "graphs.InvalidGraph": 3,
    "graphs.NormalizationError": 3,
    "graphs.NotAForest": 3,
    "graphs.NotComposable": 3,
    "graphs.SameOrbit": 3,
    "modp.ClosureExceedsBound": 5,
    "modp.PrimeTooLarge": 3,
    "orbits.NonIntegralOrbitCount": 5,
    "orbits.OrbitPrimeTooLarge": 3,
    "series.NoSuchEntry": 3,
    "series.RegistryDataError": 3,
    # Only ``tate_k`` reaches the code that raises it, and catches it there.
    "series.UnknownCohomology": 5,
}


def _package_errors() -> dict[str, type]:
    found, pending = {}, [Exception]
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        if cls.__module__.startswith("tatek."):
            found[f"{cls.__module__.removeprefix('tatek.')}.{cls.__qualname__}"] = cls
    return found


def test_every_package_error_has_its_exit_code(monkeypatch, capsys):
    def exit_code(cls):
        def raising(args):
            raise cls.__new__(cls)

        monkeypatch.setattr(cli, "cmd_tate", raising)
        return cli.main(["tate", "--p", "5", "--n", "6"])

    codes = {name: exit_code(cls) for name, cls in _package_errors().items()}
    assert codes == EXIT_CODE_OF_ERROR


@pytest.mark.parametrize("module", ["tatek", "tatek.cli"])
def test_closed_stdout_exits_141_without_stderr(module):
    # A reader that stops early (`tatek orbits --list | head`) is not a fault
    # of tatek's: the exit is 128 + SIGPIPE, as a shell reports for `cat`.
    proc = subprocess.Popen(
        [sys.executable, "-m", module, "orbits", "--p", "211", "--list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=60)
    err = proc.stderr.read()
    proc.stderr.close()
    assert first.startswith(b"edge stabiliser at p=211: ")
    assert (code, err) == (141, b"")
    assert cli.EXIT_BROKEN_PIPE == 141


_EXIT_PATHS = {
    "success": (["tate", "--p", "11", "--n", "12"], 0),
    "usage_error": (["tate", "--p", "11"], 2),
    "version": (["--version"], 0),
    "domain_error": (["tate", "--p", "3", "--n", "9"], 3),
    "internal_error": (["normalize", "--demo", "canonical_p3_k1"], 5),
}


def _exit_code(call):
    try:
        return call()
    except SystemExit as exc:
        return exc.code


class _Exit(BaseException):
    """Raised in place of ``os._exit``, with the code it was given."""


@pytest.fixture
def exit_steps(monkeypatch):
    """``run``'s last steps in order: the exit functions, then ``os._exit``,
    which raises ``_Exit``; ``_run_process_entry`` adds the flushes between
    them."""
    steps = []

    def exit_(code):
        steps.append(("_exit", code))
        raise _Exit(code)

    monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: steps.append("exit functions"))
    monkeypatch.setattr(cli.os, "_exit", exit_)
    return steps


def _run_process_entry(monkeypatch, argv, steps) -> int:
    # The streams are patched here, in the test's body, where capsys has
    # already put its own in place.
    monkeypatch.setattr(sys.stdout, "flush", lambda: steps.append("flush stdout"))
    monkeypatch.setattr(sys.stderr, "flush", lambda: steps.append("flush stderr"))
    monkeypatch.setattr(sys, "argv", ["tatek", *argv])
    with pytest.raises(_Exit) as raised:
        cli.run()
    return raised.value.args[0]


@pytest.mark.parametrize("argv, code", _EXIT_PATHS.values(), ids=_EXIT_PATHS)
def test_run_ends_the_process_with_mains_code_and_main_never(
    argv, code, exit_steps, monkeypatch
):
    def broken(graph):
        raise AssertionError("only the internal_error path normalizes")

    monkeypatch.setattr(cli, "normalize", broken)
    assert _exit_code(lambda: cli.main(list(argv))) == code
    assert exit_steps == []
    assert _run_process_entry(monkeypatch, argv, exit_steps) == code
    assert exit_steps == ["exit functions", "flush stdout", "flush stderr", ("_exit", code)]


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_run_on_a_closed_stdout_exits_141_without_stderr(exit_steps, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    argv = ["tate", "--p", "11", "--n", "12"]
    assert _run_process_entry(monkeypatch, argv, exit_steps) == 141
    assert exit_steps == ["exit functions", "flush stdout", "flush stderr", ("_exit", 141)]
    assert capsys.readouterr().err == ""


def buffered_child_env():
    """``child_env()`` without PYTHONUNBUFFERED: the child's stdout is block
    buffered, as it is for a user, and only a flush writes its last block."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_run_calls_the_exit_functions(tmp_path):
    # Tools such as coverage write their data from an atexit handler.
    mark = tmp_path / "exit_function_ran"
    script = (
        "import atexit, pathlib, sys\n"
        "from tatek import cli\n"
        f"atexit.register(pathlib.Path({str(mark)!r}).write_text, 'ran')\n"
        "sys.argv = ['tatek', 'tate', '--p', '3', '--n', '9']\n"
        "cli.run()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=buffered_child_env()
    )
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("error: OutOfRange: ")
    assert mark.read_text() == "ran"


def test_run_writes_every_buffered_byte(capsys):
    # About 1.5 MB of records, far more than one buffer: a missing flush of
    # the last block would show as a short stdout.
    argv = ["orbits", "--p", "211", "--list", "--format", "records"]
    code, out, err = _main_in_process(capsys, *argv)
    result = subprocess.run(
        [sys.executable, "-m", "tatek", *argv], capture_output=True, env=buffered_child_env()
    )
    assert len(out) > 1_000_000
    assert (result.returncode, result.stdout, result.stderr) == (code, out.encode(), err.encode())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_failed_flush_of_stdout_is_one_internal_error_line():
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "tatek", "orbits", "--p", "5"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=buffered_child_env(),
        )
    assert result.returncode == cli.EXIT_INTERNAL_ERROR
    assert result.stderr == "internal error: OSError: [Errno 28] No space left on device\n"


def test_exit_functions_print_before_the_last_flush():
    # CPython's own shutdown order: exit functions, then the stdio flushes.
    script = (
        "import atexit, sys\n"
        "from tatek import cli\n"
        "atexit.register(print, 'bye')\n"
        "sys.argv = ['tatek', '--version']\n"
        "cli.run()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=buffered_child_env()
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "tatek 0.1.0\nbye\n", "")


# A stderr that takes no write: paths that write nothing there keep their
# code, and every other path exits 5 without a line.
_UNWRITABLE_STDERR = {
    "success": (["tate", "--p", "11", "--n", "12"], 0),
    "domain_error": (["tate", "--p", "3", "--n", "9"], 5),
    "all_unknown": (["rational", "--p", "5", "--n", "8"], 4),
    "usage_error": (["tate", "--p", "11"], 5),
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv, code", _UNWRITABLE_STDERR.values(), ids=_UNWRITABLE_STDERR)
def test_stderr_on_a_full_device_exits_with_one_code(argv, code, capsys):
    _exit_code(lambda: cli.main(list(argv)))
    out = capsys.readouterr().out
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "tatek", *argv],
            stdout=subprocess.PIPE, stderr=full, text=True, env=buffered_child_env(),
        )
    assert (result.returncode, result.stdout) == (code, out)


def test_stderr_closed_by_its_reader_exits_141():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "tatek", "tate", "--p", "3", "--n", "9"],
            stdout=subprocess.PIPE, stderr=write_end, env=buffered_child_env(),
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stdout) == (cli.EXIT_BROKEN_PIPE, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["full", "closed_pipe"])
def test_usage_error_on_an_unwritable_stderr_ignores_pythonunbuffered(sink, unbuffered):
    # argparse's own writer would swallow the failed write of an unbuffered
    # stderr and exit 2, where a buffered one fails at the last flush.
    env = buffered_child_env()
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    if sink == "full":
        stderr = os.open("/dev/full", os.O_WRONLY)
        expected = cli.EXIT_INTERNAL_ERROR
    else:
        read_end, stderr = os.pipe()
        os.close(read_end)
        expected = cli.EXIT_BROKEN_PIPE
    try:
        result = subprocess.run(
            [sys.executable, "-m", "tatek", "orbits", "--bogus"],
            stdout=subprocess.PIPE, stderr=stderr, env=env,
        )
    finally:
        os.close(stderr)
    assert (result.returncode, result.stdout) == (expected, b"")


def test_usage_error_with_stderr_closed_before_start_exits_5():
    # `tatek orbits --bogus 2>&-`: `sys.stderr` is None, so the usage fails as
    # a domain error's message would; argparse alone would exit 2, after
    # writing the usage to stdout.
    result = subprocess.run(
        [sys.executable, "-m", "tatek", "orbits", "--bogus"],
        stdout=subprocess.PIPE, env=buffered_child_env(), preexec_fn=lambda: os.close(2),
    )
    assert (result.returncode, result.stdout) == (cli.EXIT_INTERNAL_ERROR, b"")


@pytest.mark.parametrize(
    "argv",
    [["tate", "--p", "5", "--n", "6"], ["--version"], ["--help"], ["tate", "--help"]],
    ids=" ".join,
)
def test_stdout_closed_before_start_is_one_internal_error_line(argv):
    # `tatek tate --p 5 --n 6 >&-`: the interpreter starts with fd 1 closed,
    # so `sys.stdout` is None; the first write fails and `run`'s flushes skip
    # the missing stream.  Help and --version fail the same way: argparse
    # would write them to stderr instead and exit 0.
    result = subprocess.run(
        [sys.executable, "-m", "tatek", *argv],
        stderr=subprocess.PIPE, text=True, env=buffered_child_env(),
        preexec_fn=lambda: os.close(1),
    )
    assert result.returncode == cli.EXIT_INTERNAL_ERROR
    assert result.stderr.startswith("internal error: AttributeError: ")
    assert result.stderr.count("\n") == 1, result.stderr


def test_installed_script_goes_through_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(SRC_DIR).parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["tatek"] == "tatek.cli:run"
