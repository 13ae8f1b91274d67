"""The benchmark's tracer installs on the library and removes cleanly.

``bench/tracer.py`` wraps methods and functions it finds by name in the
library's class and module dictionaries.  When a refactor moves one of them,
``bench/run.py --trace 1`` fails with a ``KeyError``; this test notices in
the fast suite.  A traced run must also keep its bits and count what the
untraced run evaluates, which ``bench/test_bench.py`` checks only on whole
workloads.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from isomonodromy import cli, monodromy
from isomonodromy import serialize as ser
from isomonodromy.states import FlowState, PoleData

from conftest import random_fuchsian_matrices

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


def test_traced_monodromy_run_keeps_its_bits_and_counts(tmp_path,
                                                        monkeypatch):
    """One in-process ``monodromy`` run on a 3-pole spec, traced and not:
    transport records its spans, the traced ``solve_ivp`` evaluations equal
    the untraced run's, and the artifact is byte-identical."""
    mats = random_fuchsian_matrices(np.random.default_rng(3), 2, 3)
    state = FlowState(2, tuple(PoleData(t, 1, np.eye(2), M)
                               for t, M in zip([0.0, 1.5, -1.2], mats)))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"state": ser.flow_state(state)}))

    def run(out):
        assert cli.main(["monodromy", "--input", str(spec),
                         "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out / "monodromy.json").read_bytes()

    nfev = []
    real = monodromy.solve_ivp

    def counting(*args, **kwargs):
        sol = real(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    with monkeypatch.context() as m:
        m.setattr(monodromy, "solve_ivp", counting)
        untraced = run("untraced")
    t = load_tracer().Tracer()
    try:
        t.install()
        traced = run("traced")
    finally:
        t.remove()
    assert any(span[0] == "monodromy.transport" for span in t.spans)
    assert t.ivp["monodromy.solve_ivp"][0] == sum(nfev) > 0
    assert traced == untraced


def test_traced_flow_run_keeps_its_bits_and_counts(tmp_path, monkeypatch):
    """One in-process ``flow`` run, whose verification transports loops at
    every sample, traced and not: the traced transport evaluations equal
    the untraced run's, and both artifacts are byte-identical."""
    mats = [0.4 * M for M in
            random_fuchsian_matrices(np.random.default_rng(5), 2, 3)]
    state = FlowState(2, tuple(PoleData(t, 1, np.eye(2), M)
                               for t, M in zip([0.0, 1.5, -1.2], mats)))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "state": ser.flow_state(state), "samples": 3,
        "path": {"kind": "line", "pole": 1, "displacement": [0.2, 0.1]}}))

    def run(out):
        assert cli.main(["flow", "--input", str(spec),
                         "--out", str(tmp_path / out)]) == 0
        return [(tmp_path / out / name).read_bytes()
                for name in ("trajectory.csv", "drift.json")]

    nfev = []
    real = monodromy.solve_ivp

    def counting(*args, **kwargs):
        sol = real(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    with monkeypatch.context() as m:
        m.setattr(monodromy, "solve_ivp", counting)
        untraced = run("untraced")
    t = load_tracer().Tracer()
    try:
        t.install()
        traced = run("traced")
    finally:
        t.remove()
    assert t.ivp["monodromy.solve_ivp"][0] == sum(nfev) > 0
    assert traced == untraced
