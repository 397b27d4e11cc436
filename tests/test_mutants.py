"""Named mutants: each replaces one function of the pipeline, in every
``tatek`` module that holds it by name, and the oracles paired with it must
then fail.  A mutant that nothing catches marks an oracle to strengthen."""

import json
import sys

import pytest

from tatek import series
from test_golden_cli import GOLDEN_DIR, fixture_name, run_main


def patch_everywhere(monkeypatch, original, replacement) -> list[str]:
    """Point every loaded ``tatek`` module's name for ``original`` at
    ``replacement``; the names of the patched modules."""
    patched = []
    for name, module in list(sys.modules.items()):
        if name == "tatek" or name.startswith("tatek."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
                    patched.append(name)
    return patched


def plain_square(s: series.PoincareSeries) -> series.PoincareSeries:
    """S(x)^2: the flip-square without the flip, keeping every pair twice."""
    return s.convolve(s)


# The contributions that tell the flip-square from a plain square, as
# (label, (even, odd) of the real one, (even, odd) of the mutant): the totals
# of both invocations are blocked on a rose core.
FLIP_SQUARE_PINS = {
    ("tate", "--p", "11", "--n", "18"): ("theta(4,4)", (3, 0), (4, 0)),
    ("tate", "--p", "13", "--n", "22"): ("theta(5,5)", (1, 1), (2, 2)),
}


def contribution_line(fmt: str, label: str, dims: tuple[int, int]) -> str:
    even, odd = dims
    if fmt == "text":
        return f"  {label}: even {even}, odd {odd}"
    return f"record=contribution label={label} even={even} odd={odd}"


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("args", sorted(FLIP_SQUARE_PINS), ids=" ".join)
def test_plain_square_mutant_fails_the_flip_square_fixtures(monkeypatch, args, fmt):
    argv = [*args, "--format", fmt]
    expected = json.loads((GOLDEN_DIR / f"{fixture_name(argv)}.json").read_text(encoding="utf-8"))
    assert run_main(argv) == expected
    assert "tatek.series" in patch_everywhere(monkeypatch, series.flip_symmetric_square, plain_square)
    mutated = run_main(argv)
    assert mutated != expected
    label, real, mutant = FLIP_SQUARE_PINS[args]
    assert contribution_line(fmt, label, real) in expected["stdout"].splitlines()
    assert contribution_line(fmt, label, mutant) in mutated["stdout"].splitlines()
