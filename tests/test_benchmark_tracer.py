"""The benchmark's tracer still attaches to every layer it names.

perfbench/tracing.py patches flagricci functions by name; a renamed or
removed one would otherwise break only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import flagricci.cli

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_attaches_and_counts(capsys):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert flagricci.cli.main(["verify", "--family", "su", "--params", "1,1,1"]) == 0
        assert flagricci.cli.main(["basins", "--family", "g2u2", "--res", "16"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in ("equilibria.seeds_tried", "equilibria.found", "flowgen.rhs.points"):
        assert tracer.counters.get(name, 0) > 0, name
