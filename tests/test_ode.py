"""The library's DOP853 (``isomonodromy.ode``) is scipy's, and the library
loads no more of scipy than LAPACK.

scipy is the oracle here: on the flows' own right-hand sides and events,
every run of the library's ``solve_ivp`` takes the steps, evaluations and
bits of scipy's (``scipy.integrate.solve_ivp(method="DOP853")``), and an
aborting flow is located where scipy's ``t_events`` put it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853 as ScipyDOP853
from scipy.integrate import solve_ivp as scipy_solve_ivp

import isomonodromy
import isomonodromy.flows as flows
from isomonodromy import ode
from isomonodromy import serialize as ser
from isomonodromy.flows import (
    FlowPath,
    extend_state,
    integrate_extended,
    integrate_flow,
)
from isomonodromy.monodromy import _LinearDOP853
from isomonodromy.symplectic import chart_conditioning

from conftest import fuchsian_state, irregular_state, random_fuchsian_matrices

SRC = Path(isomonodromy.__file__).resolve().parents[1]
HEAVY = ("scipy.linalg", "scipy.integrate", "scipy.optimize", "scipy.special",
         "scipy.sparse")


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


@pytest.fixture
def paired(monkeypatch):
    """Every ``solve_ivp`` run of the flows also goes through scipy's, on
    the same right-hand side, events (terminal, as they fall through zero)
    and tolerances; the runs are kept as ``(library, scipy)`` pairs."""
    runs = []
    ours = flows.solve_ivp

    def both(fun, t_span, y0, events=(), **options):
        sol = ours(fun, t_span, y0, events=events, **options)
        for event in events:
            event.terminal, event.direction = True, -1
        runs.append((sol, scipy_solve_ivp(fun, t_span, y0, method="DOP853",
                                          events=events, **options)))
        return sol

    monkeypatch.setattr(flows, "solve_ivp", both)
    return runs


def check_runs(runs):
    """Each pair takes the same evaluations and steps to the bit, and ends
    at the same bits or at the same located event."""
    assert runs
    for ours, theirs in runs:
        assert ours.nfev == theirs.nfev
        assert len(ours.t) == len(theirs.t)
        assert same_bytes(np.array(ours.t), theirs.t)
        assert ours.status == theirs.status
        if theirs.status == 1:
            fired = [i for i, te in enumerate(theirs.t_events) if te.size]
            assert fired == [ours.event]
            assert same_bytes(ours.t_event, theirs.t_events[ours.event][0])
        else:
            assert same_bytes(ours.y, theirs.y[:, -1])


class TestScipyOracle:
    def test_tableau_is_scipys(self):
        for name in ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"):
            assert np.array_equal(getattr(ode, name),
                                  getattr(ScipyDOP853, name)), name
        assert ode.N_STAGES == ScipyDOP853.n_stages
        assert ode.ERROR_ESTIMATOR_ORDER == ScipyDOP853.error_estimator_order

    @pytest.mark.parametrize("kind", ["n2", "n3", "irregular"])
    def test_flow_takes_scipys_steps_and_bits(self, rng, paired, kind):
        if kind == "irregular":
            state = irregular_state(rng)
            path = FlowPath.irregular_line(state, 0, [[0.8, -0.5]],
                                           length=0.5)
        else:
            state = fuchsian_state([-2.1, -0.35, 1.15, 2.6],
                                   random_fuchsian_matrices(rng,
                                                            int(kind[1]), 4))
            path = FlowPath.line(state, 1, 0.3 + 0.2j)
        traj = integrate_flow(state, path, n_samples=3)
        assert traj.status == "completed" and len(paired) == 2
        check_runs(paired)

    def test_extended_system_takes_scipys_steps_and_bits(self, rng, paired):
        state = fuchsian_state([0.0, 1.5, -1.2],
                               random_fuchsian_matrices(rng, 2, 3))
        _, _, (status, _) = integrate_extended(
            extend_state(state), FlowPath.line(state, 0, 0.2 + 0.1j),
            n_samples=3)
        assert status == "completed"
        check_runs(paired)

    def test_collision_located_where_scipy_locates_it(self, rng, paired):
        state = fuchsian_state([0.0, 1.0], random_fuchsian_matrices(rng, 2, 2))
        traj = integrate_flow(state, FlowPath.line(state, 0, 1.0),
                              n_samples=5)
        assert traj.abort_kind == "pole_collision"
        check_runs(paired)
        assert traj.abort_at == paired[-1][1].t_events[0][0]

    def test_blowup_located_where_scipy_locates_it(self, rng, paired,
                                                  monkeypatch):
        state = fuchsian_state([0.0, 1.0, -1.5],
                               random_fuchsian_matrices(rng, 2, 3))
        monkeypatch.setattr(flows, "N_MAX",
                            1.01 * np.max(np.abs(state.flat()[3:])))
        traj = integrate_flow(state, FlowPath.line(state, 0, 0.5),
                              n_samples=5)
        assert traj.abort_kind == "movable_singularity"
        assert 0.0 < traj.abort_at < 0.25
        check_runs(paired)
        assert traj.abort_at == paired[-1][1].t_events[1][0]

    def test_degenerate_chart_located_where_scipy_locates_it(
            self, rng, paired, monkeypatch):
        state = fuchsian_state([0.0, 1.4, -1.1],
                               random_fuchsian_matrices(rng, 3, 3))
        path = FlowPath.line(state, 1, -0.3 - 0.2j)
        end = integrate_flow(state, path, n_samples=2).states[-1]
        paired.clear()
        monkeypatch.setattr(flows, "TAU_RANK", 0.5 * (
            chart_conditioning(state) + chart_conditioning(end)))
        traj = integrate_flow(state, path, n_samples=2)
        assert traj.abort_kind == "degenerate_chart"
        check_runs(paired)
        assert traj.abort_at == paired[-1][1].t_events[2][0]


def test_step_size_that_is_not_finite_fails_the_run():
    # a NaN field makes the first step size NaN, which passes the minimum
    # step guard; the run must fail rather than cut it forever
    calls = []

    def nan_field(t, y):
        calls.append(t)
        if len(calls) > 100:
            raise RuntimeError("the step size is cut forever")
        return np.full_like(y, np.nan)

    sol = ode.solve_ivp(nan_field, (0.0, 1.0), np.ones(2, dtype=complex),
                        rtol=1e-8, atol=1e-8)
    assert sol.status == -1 and not sol.success
    assert sol.message == "step size nan is not finite"
    assert sol.nfev == 2 and sol.t == [0.0]


def harmonic(t, y):
    return np.array([y[1], -y[0]])


def decay(t, y):
    return -y


@pytest.mark.parametrize("case", ["empty system", "empty span",
                                  "event at the start of an empty span"])
def test_a_run_with_nothing_to_integrate_ends_at_once(case):
    # as scipy's: one evaluation and no attempt, and an event that is zero
    # where the run starts fires there
    y0 = np.zeros(0) if case == "empty system" else np.array([1.0, 0.5])
    t_span = (0.0, 6.0) if case == "empty system" else (2.0, 2.0)
    events = [counted(2.0)] if case.startswith("event") else []
    ours = ode.solve_ivp(decay, t_span, y0, events=events, rtol=1e-8,
                         atol=1e-8)
    for event in events:
        event.terminal, event.direction = True, -1
    theirs = scipy_solve_ivp(decay, t_span, y0, method="DOP853",
                             events=events, rtol=1e-8, atol=1e-8)
    assert ours.nfev == theirs.nfev == 1
    assert ours.status == theirs.status == (1 if events else 0)
    assert same_bytes(np.array(ours.t), theirs.t)
    assert same_bytes(ours.y, theirs.y[:, -1])
    if events:
        assert ours.event == 0 and ours.t_event == theirs.t_events[0][0]


def never(t, y):
    pytest.fail("the right-hand side was evaluated")


@pytest.mark.parametrize("run", [
    lambda: ode.solve_ivp(never, (1.0, 0.0), np.ones(2), rtol=1e-8,
                          atol=1e-8),
    lambda: ode.DOP853(never, 1.0, np.ones(2), 0.0, rtol=1e-8, atol=1e-8)],
    ids=["solve_ivp", "DOP853"])
def test_integration_runs_forward_only(run):
    # the flows and transport integrate over increasing s; an interval
    # that ends before it starts is refused before any evaluation
    with pytest.raises(ValueError, match="forward only"):
        run()


def test_a_step_size_below_the_minimum_step_is_raised_to_it():
    # at the start of a step, as scipy's: the step is 10 ulps of t
    y0 = np.array([1.0, 0.0])
    ours = ode.DOP853(harmonic, 1.0, y0, 2.0, rtol=1e-8, atol=1e-8)
    theirs = ScipyDOP853(harmonic, 1.0, y0, 2.0, rtol=1e-8, atol=1e-8)
    ours.h_abs[0] = theirs.h_abs = 0.0
    steps = []
    for _ in range(3):
        assert ours.step() is None and theirs.step() is None
        assert same_bytes(ours.t, theirs.t)
        assert same_bytes(ours.y, theirs.y)
        steps.append(ours.t - ours.t_old)
    assert steps[0] == 10 * np.spacing(1.0) < steps[1]


def run_both(events):
    """``ode.solve_ivp`` and scipy's on the harmonic oscillator over [0, 6],
    with the events terminal as they fall through zero."""
    t_span, y0 = (0.0, 6.0), np.array([1.0, 0.0], dtype=complex)
    ours = ode.solve_ivp(harmonic, t_span, y0, events=events, rtol=1e-8,
                         atol=1e-8)
    for event in events:
        event.terminal, event.direction = True, -1
    return ours, scipy_solve_ivp(harmonic, t_span, y0, method="DOP853",
                                 events=events, rtol=1e-8, atol=1e-8)


def counted(root):
    def event(t, y):
        event.calls += 1
        return root - t
    event.calls = 0
    return event


class TestEvents:
    def test_two_events_on_one_step_end_at_the_earlier_root(self):
        # the earlier root belongs to the later event; both are located
        # (each is called off the grid of step ends)
        late, early = counted(2.0 + 1e-7), counted(2.0)
        sol, theirs = run_both([late, early])
        assert sol.status == 1 and sol.event == 1
        assert early.calls > len(sol.t) and late.calls > len(sol.t)
        assert sol.t_event == sol.t[-1]
        assert same_bytes(sol.t_event, theirs.t_events[1][0])

    def test_a_tie_goes_to_the_lower_index(self):
        first, second = counted(2.0), counted(2.0)
        sol, theirs = run_both([first, second])
        assert second.calls > len(sol.t)
        assert sol.status == 1 and sol.event == 0
        assert same_bytes(sol.t_event, theirs.t_events[0][0])

    @pytest.mark.parametrize("end", ["interior", "last"])
    def test_a_root_on_a_step_end_is_that_end(self, end):
        # the run without events fixes the step ends, and an event adds none
        ends = run_both([])[0].t
        t_k = ends[len(ends) // 2] if end == "interior" else ends[-1]
        event = counted(t_k)
        sol, theirs = run_both([event])
        assert event(t_k, None) == 0.0
        assert sol.status == 1 and sol.event == 0
        assert sol.t == ends[:ends.index(t_k) + 1] and sol.t_event == t_k
        assert same_bytes(sol.t_event, theirs.t_events[0][0])
        assert same_bytes(sol.y, theirs.y[:, -1])


# a flow and a monodromy run through the CLI, in the child's own process,
# then a flow whose pole collision aborts it, whose event location imports
# scipy.optimize and with it scipy.linalg; prints the scipy modules the first
# two loaded beyond those of scipy's top-level package (neither
# scipy.integrate nor scipy.integrate._ivp among them), then whether
# scipy.linalg.lapack exports the library's ztrtrs, loaded before it
CLI_RUN = """
import json, sys
import scipy
before = set(sys.modules)
from isomonodromy import cli, monodromy
spec, collision, out = sys.argv[1:]
for command in ("flow", "monodromy"):
    assert cli.main([command, "--input", spec, "--out", out + command]) == 0
footprint = sorted(m for m in set(sys.modules) - before
                   if m.startswith("scipy."))
assert cli.main(["flow", "--input", collision, "--out", out + "abort"]) == 3
from scipy.linalg import lapack
print(json.dumps(footprint))
print(lapack.ztrtrs is monodromy.ztrtrs)
"""


def test_cli_runs_load_no_more_of_scipy_than_lapack(tmp_path):
    mats = [0.4 * M for M in
            random_fuchsian_matrices(np.random.default_rng(5), 2, 3)]
    state = fuchsian_state([0.0, 1.5, -1.2], mats)
    spec, collision = tmp_path / "spec.json", tmp_path / "collision.json"
    for path, pole, displacement in ((spec, 1, [0.2, 0.1]),
                                     (collision, 0, [1.5, 0.0])):
        path.write_text(json.dumps({
            "state": ser.flow_state(state), "samples": 3,
            "path": {"kind": "line", "pole": pole,
                     "displacement": displacement}}))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_RUN, str(spec), str(collision),
         str(tmp_path / "out-")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out-flow" / "drift.json").exists()
    assert (tmp_path / "out-monodromy" / "monodromy.json").exists()
    assert "aborted: pole_collision" in proc.stdout
    footprint, same_routine = proc.stdout.splitlines()[-2:]
    assert json.loads(footprint) == [
        "scipy.integrate._ivp.dop853_coefficients", "scipy.linalg._flapack"]
    assert same_routine == "True"


def test_no_module_imports_the_heavy_scipy_packages():
    # the one exception: the event location imports brentq, and only a run
    # whose event fires reaches it
    found = []
    for path in sorted((SRC / "isomonodromy").glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = {id(node): f"{path.stem}.{fn.name}"
                  for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module + "." + a.name for a in node.names]
            else:
                continue
            found += [(scopes.get(id(node)), name) for name in names
                      if name.startswith(HEAVY)]
    assert found == [("ode._locate", "scipy.optimize.brentq")]


def test_one_step_loop():
    # the step-size control and the error norm each have one call site, in
    # ode.DOP853's loop and its norms; transport's stepper keeps no loop of
    # its own
    sites = {"step_factor": [], "error_norm": []}
    for path in sorted((SRC / "isomonodromy").glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = {id(node): f"{path.stem}.{cls.name}.{fn.name}"
                  for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                if name in sites:
                    sites[name].append(scopes.get(id(node)))
    assert sites == {"step_factor": ["ode.DOP853.step"],
                     "error_norm": ["ode.DOP853._error_norms"]}
    assert not hasattr(ode, "Stepper")
    assert _LinearDOP853.__bases__ == (ode.DOP853,)
    assert not {"step", "_step_impl"} & set(vars(_LinearDOP853))
