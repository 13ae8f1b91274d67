"""The benchmark's tracer installs on the library and removes cleanly.

``bench/tracer.py`` wraps methods and functions it finds by name in the
library's class and module dictionaries.  When a refactor moves one of them,
``bench/run.py --trace 1`` fails with a ``KeyError``; this test notices in
the fast suite.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_attribute():
    t = load_tracer().Tracer()
    try:
        t.install()
    finally:
        patched = list(t._patches)
        t.remove()
    names = {(getattr(owner, "__name__", None), attr)
             for owner, attr, _ in patched}
    for name in [("PoleChartBlock", "__init__"), ("PoleChartBlock", "omega"),
                 ("PoleData", "__init__"), ("FlowState", "connection"),
                 ("FlowState", "from_connection"),
                 ("Connection", "from_polar_parts"),
                 ("Connection", "from_ratmat")]:
        assert name in names
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
