"""The benchmark tracer reports every per-layer metric BENCHMARK.json names.

The tracer wraps engine functions and reads memo tables by name, and it
skips a name that no longer exists; this test fails instead.
"""

import json
from pathlib import Path

from hyperalg import isocheck
from hyperalg.rootdata import build_root_system
from hyperalg.straighten import Engine

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_reports_every_per_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        isocheck.verify(isocheck.MapSpec("Thm5.5-first", "A1", 2, 1, 1))
        eng = Engine(build_root_system("A2"), 3)
        eng.multiply(eng.divided_power((1, 1), 2, 2), eng.divided_power((-1, -1), 2, 2))
    finally:
        tracer.remove()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = {m["name"] for m in declared}
    assert set(tracer.per_layer(0.0)) == names
