"""The benchmark's tracer patches names in the package from outside
(``bench/tracing.py``): every ``cmd_*``, ``build_parser``, ``render_record``,
``series_of``, ``Registry.lookup`` and more.  Renaming one of them breaks
``bench/run.py --trace 1`` but no other test, so install the tracer here."""

import importlib.util
from pathlib import Path

from tatek import cli, series

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (argv, first stdout record, the assemble span it must open); ``rational``
# also reaches the registry through ``registry_lookup`` for ``OutF<n>``.
RUNS = (
    (["tate", "--p", "5", "--n", "6"], "record=tate ", "assemble.tate_k"),
    (["rational", "--p", "5", "--n", "7"], "record=rational ", "assemble.rational_k"),
)


def test_tracer_installs_over_the_cli_and_uninstalls(capsys):
    tracing = _load_tracing()

    def patched():
        return (cli.cmd_tate, cli.build_parser, series.series_of, series.Registry.lookup)

    originals = patched()
    for argv, head, layer in RUNS:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert cli.main([*argv, "--format", "records"]) == 0
        finally:
            tracer.uninstall()
        assert patched() == originals
        assert capsys.readouterr().out.startswith(head)
        names = {span[0] for span in tracer.spans}
        assert {"cli.parse", f"cli.main.{argv[0]}", layer, "assemble.tate_k"} <= names
        assert {"series.series_of", "series.lookup"} <= names
        assert {"classes.order_p_classes", "records.render"} <= names
        assert tracer.counts["series.convolve"] > 0
