"""Golden CLI outputs: stdout, stderr and exit code of every invocation below,
replayed in process through ``cli.main`` and compared byte for byte with the
fixtures in ``tests/data/golden_cli/``.  A few of them are also run as
``python -m tatek`` processes, through the process entry ``cli.run``.

The fixtures were captured from the code before the CLI was restructured.  To
record them again after an intended output change, run from the repository
root::

    PYTHONPATH=src python tests/test_golden_cli.py --write

``--write NAME ...`` records only the named fixtures (file names without
``.json``) and leaves every other fixture as it is.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tatek import cli
from tatek.modp import is_prime
from tatek.series import REGISTRY_ENV_VAR, reset_default_registry

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden_cli"

# The ten commands of acceptance criterion 10.
CRITERION_10 = [
    ["orbits", "--p", "5"],
    ["orbits", "--p", "7", "--kind", "theta", "--list"],
    ["classes", "--p", "11", "--n", "12"],
    ["tate", "--p", "11", "--n", "12"],
    ["rational", "--p", "5", "--n", "7"],
    ["table", "--which", "4"],
    ["table", "--which", "5"],
    ["normalize", "--demo", "scrambled_p5_k2_seed3"],
    ["example", "--name", "amalgam", "--p", "7"],
    ["selftest", "--max-p", "13"],
]

EXAMPLES = [
    ["example", "--name", "sl3"],
    ["example", "--name", "gl", "--p", "5"],
    ["example", "--name", "gl", "--p", "29", "--class-number", "2"],
    ["example", "--name", "sp", "--p", "7"],
    ["example", "--name", "sp", "--p", "23"],
    ["example", "--name", "sp", "--p", "29", "--class-number", "4"],
    ["example", "--name", "mcg", "--p", "11"],
    ["example", "--name", "amalgam", "--p", "5"],
]

# Commands shown in both formats, with and without citations.
FULL = CRITERION_10 + EXAMPLES + [
    ["tate", "--p", "7", "--n", "11"],
    ["rational", "--p", "7", "--n", "11"],
    ["classes", "--p", "5", "--n", "8"],
    ["classes", "--p", "2", "--n", "2"],
    ["classes", "--p", "7", "--n", "3"],
]

# Commands shown in both formats only.
BOTH_FORMATS = [
    ["tate", "--p", "3", "--n", "9"],
    ["tate", "--p", "5", "--n", "6"],
    # The first contributions that take a flip-square of more than a point:
    # theta(4,4) at p = 11 and theta(5,5) at p = 13.
    ["tate", "--p", "11", "--n", "18"],
    ["tate", "--p", "13", "--n", "22"],
    ["rational", "--p", "3", "--n", "3"],
    ["rational", "--p", "5", "--n", "8"],
    ["normalize", "--demo", "canonical_p3_k2"],
    ["normalize", "--demo", "scrambled_p3_k2_seed7"],
    ["normalize", "--demo", "scrambled_p2_k3_seed1"],
] + [
    ["orbits", "--p", str(p), "--list", *kind]
    for p in (2, 3)
    for kind in ([], ["--kind", "edge"], ["--kind", "rose"], ["--kind", "theta"])
]

# Domain and usage errors, text format.
ERRORS = [
    ["tate", "--p", "4", "--n", "5"],
    ["tate", "--p", "5", "--n", "9"],
    ["orbits", "--p", "4"],
    ["orbits", "--p", "2003"],
    ["example", "--name", "sl3", "--p", "5"],
    ["example", "--name", "sl3", "--class-number", "1"],
    ["example", "--name", "gl"],
    ["example", "--name", "gl", "--p", "3"],
    ["example", "--name", "gl", "--p", "29"],
    ["example", "--name", "gl", "--p", "5", "--class-number", "0"],
    ["example", "--name", "sp", "--p", "29"],
    ["example", "--name", "sp", "--p", "3"],
    ["example", "--name", "mcg", "--p", "11", "--class-number", "1"],
    ["example", "--name", "mcg", "--p", "4"],
    ["example", "--name", "mcg", "--p", "3"],
    ["example", "--name", "amalgam", "--p", "5", "--class-number", "1"],
    ["example", "--name", "amalgam", "--p", "2"],
    ["selftest", "--max-p", "1"],
    ["normalize"],
    ["normalize", "--demo", "not_a_demo"],
    ["normalize", "--demo", "canonical_p4_k2"],
    ["normalize", "--demo", "canonical_p3_k1", "--input", "graph.json"],
    [],
    ["tate", "--p", "5"],
    ["orbits", "--p", "five"],
]

# Command lines that ``cli.Parser`` hands to argparse because they are not in
# canonical form: help, the version, an abbreviated option, ``--opt=value``,
# a repeated option and a value that starts with "-".
FALLBACK = [
    ["--help"],
    ["orbits", "--help"],
    ["--version"],
    ["tate", "--p", "5", "--n", "7", "--form", "records"],
    ["tate", "--p=5", "--n", "7"],
    ["orbits", "--p", "5", "--p", "7"],
    ["normalize", "--input", "-x"],
]

INVOCATIONS = (
    [
        [*args, "--format", fmt, *cite]
        for args in FULL
        for fmt in ("text", "records")
        for cite in ([], ["--no-cite"])
    ]
    + [[*args, "--format", fmt] for args in BOTH_FORMATS for fmt in ("text", "records")]
    + ERRORS
    + FALLBACK
)


def fixture_name(argv: list[str]) -> str:
    return "_".join(a.lstrip("-").replace(".", "_") for a in argv) or "no_arguments"


def run_main(argv: list[str], registry: str | None = None) -> dict:
    """Run ``cli.main`` in process; the bundled registry, or the override file
    ``registry`` if given, and an 80-column terminal for argparse's messages."""
    saved = {key: os.environ.pop(key, None) for key in (REGISTRY_ENV_VAR, "COLUMNS")}
    os.environ["COLUMNS"] = "80"
    if registry is not None:
        os.environ[REGISTRY_ENV_VAR] = registry
    reset_default_registry()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        del os.environ["COLUMNS"]
        os.environ.pop(REGISTRY_ENV_VAR, None)
        os.environ.update({k: v for k, v in saved.items() if v is not None})
        reset_default_registry()
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_invocation_names_are_unique():
    names = [fixture_name(argv) for argv in INVOCATIONS]
    assert len(set(names)) == len(names)
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(names)


@pytest.mark.parametrize("argv", INVOCATIONS, ids=fixture_name)
def test_cli_output_matches_golden(argv):
    expected = json.loads((GOLDEN_DIR / f"{fixture_name(argv)}.json").read_text(encoding="utf-8"))
    assert run_main(argv) == expected


# SHA-256 over the stdout of ``classes --p P --n N --format records``, run in
# the order of ``class_list_pairs``: every class list of the enumeration
# pinned at once, where the fixtures above show only a few.
CLASS_LISTS_SHA256 = "0bae8292d8b21ddad3159f642b78ae176b646a3297de1f16fe34209c39726fec"


def class_list_pairs():
    """(2, 2), every prime P < 60 at the ranks N = 2..2P-3, then (5, 8)."""
    yield 2, 2
    for p in range(3, 60):
        if is_prime(p):
            for n in range(2, 2 * p - 2):
                yield p, n
    yield 5, 8


def test_class_lists_match_their_digest():
    digest = hashlib.sha256()
    for p, n in class_list_pairs():
        result = run_main(["classes", "--p", str(p), "--n", str(n), "--format", "records"])
        assert (result["exit"], result["stderr"]) == (0, ""), (p, n)
        digest.update(result["stdout"].encode())
    assert digest.hexdigest() == CLASS_LISTS_SHA256


# SHA-256 over the stdout and exit code of ``tate --p P --n N`` and
# ``rational --p P --n N``, both in records, run in the order of
# ``class_list_pairs``: every assembled answer of the enumeration, with its
# contributions, blocker and citations, pinned at once.
ANSWERS_SHA256 = "a248ffc7f9d7feaec4fa3c3901c092a072042d93b0db17731cce5d0fdf02aa56"


def test_tate_and_rational_answers_match_their_digest():
    digest = hashlib.sha256()
    for p, n in class_list_pairs():
        for command in ("tate", "rational"):
            result = run_main([command, "--p", str(p), "--n", str(n), "--format", "records"])
            assert result["stderr"] == "", (command, p, n)
            digest.update(f"{result['exit']}\n{result['stdout']}".encode())
    assert digest.hexdigest() == ANSWERS_SHA256


# SHA-256 over the stdout of ``orbits --p P`` and ``orbits --p P --list``,
# each in text then records, for every prime P < 60 in turn: every
# per-element fixed-point row and orbit listing pinned at once.
ORBIT_LISTINGS_SHA256 = "526ddc7d17b129a981d993982bc47179d4695386cf6b3d5ef1f0277d1bab2e59"


def test_orbit_listings_match_their_digest():
    digest = hashlib.sha256()
    for p in filter(is_prime, range(60)):
        for listing in ([], ["--list"]):
            for fmt in ("text", "records"):
                result = run_main(["orbits", "--p", str(p), *listing, "--format", fmt])
                assert (result["exit"], result["stderr"]) == (0, ""), (p, listing, fmt)
                digest.update(result["stdout"].encode())
    assert digest.hexdigest() == ORBIT_LISTINGS_SHA256


# Exits 0, 2, 3 and 4, argparse's stdout and stderr, and both formats.
THROUGH_A_PROCESS = [
    "help",
    "version",
    "no_arguments",
    "tate_p_5",
    "orbits_p_2003",
    "tate_p_7_n_11_format_records",
    "table_which_4_format_text",
    "selftest_max-p_13_format_records",
    "orbits_p_7_kind_theta_list_format_text",
]


@pytest.mark.parametrize("name", THROUGH_A_PROCESS)
def test_process_output_matches_golden(name):
    """The fixture, written by a ``python -m tatek`` process: the bundled
    registry, an 80-column terminal and a block-buffered stdout."""
    from test_cli import buffered_child_env

    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    env = buffered_child_env()
    env.pop(REGISTRY_ENV_VAR, None)
    env["COLUMNS"] = "80"
    result = subprocess.run(
        [sys.executable, "-m", "tatek", *expected["argv"]], capture_output=True, env=env
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        expected["exit"], expected["stdout"].encode(), expected["stderr"].encode()
    )


if __name__ == "__main__" and sys.argv[1:2] == ["--write"]:
    names = sys.argv[2:]
    unknown = set(names) - {fixture_name(argv) for argv in INVOCATIONS}
    if unknown:
        sys.exit(f"no invocation is named {', '.join(sorted(unknown))}")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    if not names:
        for stale in GOLDEN_DIR.glob("*.json"):
            stale.unlink()
    chosen = [argv for argv in INVOCATIONS if not names or fixture_name(argv) in names]
    for argv in chosen:
        text = json.dumps(run_main(argv), indent=1) + "\n"
        (GOLDEN_DIR / f"{fixture_name(argv)}.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(chosen)} fixtures to {GOLDEN_DIR}")
