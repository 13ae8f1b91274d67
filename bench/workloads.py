"""Seeded inputs, case runners and output checks for the four workloads.

Every workload is a fixed list of cases generated from the seed.  A case
drives the library the way a user does: the ``flow`` and ``monodromy``
subcommands run in-process through ``isomonodromy.cli.main`` on spec files
written at set-up, and the extended system (which has no subcommand) runs
through the public API.  After each case the outputs are checked against
residuals that do not come from the code path being timed, each with its
stated tolerance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from isomonodromy import cli, flows
from isomonodromy import serialize as ser
from isomonodromy.connection import Connection
from isomonodromy.states import FlowState, PoleData

# Tolerances: the CLI defaults, written into every spec so that a change of
# default cannot loosen them, plus the stated bounds of the output checks.
SPEC_TOL = {"flow": 1e-10, "transport": 1e-10, "drift": 1e-6}
DRIFT_TOL = 1e-6          # conjugacy-invariant drift along a flow
FORMAL_TOL = 1e-8         # formal-type tracking at the order-2 pole
ENDPOINT_TOL = 1e-8       # moved pole reaches the end of its path
PROJECTION_TOL = 1e-6     # extended system against the plain flow
EXTENDED_TOL = 1e-9       # integrate_extended tolerance (as in test_09)
MONO_TOL = 1e-8           # |M - I| at twist points, product defect
EIG_TOL = 1e-8            # loop eigenvalues vs exp(2 pi i eig(residue))

FUCHSIAN_POLES = (-2.1, -0.35, 1.15, 2.6)
FUCHSIAN_SHIFT = 0.3 + 0.2j        # the README's line displacement
EXTENDED_POLES = (-1.2, 0.4, 1.9)
EXTENDED_SHIFT = 0.5 + 0.3j        # test_09's line
IRREGULAR_POLES = (0.0, 2.3, -2.0)  # order-2 pole first, as in test_03
IRREGULAR_LENGTH = 0.5
TWIST_POLES = (1.3, -1.3)          # test_07's two-pole connections


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------

def fuchsian_residues(rng, n, n_poles):
    """Residues with entries uniform in the unit disk, projected to sum zero.

    The same draw as ``tests/conftest.random_fuchsian_matrices``, kept here
    so that the benchmark's inputs do not change with the test helpers.
    """
    mats = []
    for _ in range(n_poles):
        r = np.sqrt(rng.uniform(0, 1, (n, n)))
        phi = rng.uniform(0, 2 * np.pi, (n, n))
        mats.append(r * np.exp(1j * phi))
    mean = sum(mats) / n_poles
    return [M - mean for M in mats]


def fuchsian_state(rng, n, positions):
    mats = fuchsian_residues(rng, n, len(positions))
    return FlowState(n, tuple(PoleData(t, 1, np.eye(n), M)
                              for t, M in zip(positions, mats)))


def irregular_state(rng):
    """test_03-style: an order-2 pole with a regular diagonal leading type
    (gap at least 0.7) and two simple poles, residues summing to zero."""
    lead = np.array([rng.uniform(-0.6, -0.35), rng.uniform(0.35, 0.6)],
                    dtype=complex)
    small = lambda: 0.25 * (rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
    lam0, A1 = small(), small()
    t0, t1, t2 = IRREGULAR_POLES
    return FlowState(2, (PoleData(t0, 2, np.eye(2), lam0, [lead]),
                         PoleData(t1, 1, np.eye(2), A1),
                         PoleData(t2, 1, np.eye(2), -(lam0 + A1))))


def irregular_rate(rng, lead):
    """A rate row for the leading type.  Draws whose path would bring the two
    leading eigenvalues within 0.25 of each other are redrawn: a clustered
    leading term is outside the library's domain (``RegularityError``)."""
    while True:
        rate = rng.uniform(-0.8, 0.8, 2).astype(complex)
        ends = lead + IRREGULAR_LENGTH * rate
        if abs(ends[1] - ends[0]) >= 0.25 and (ends[1] - ends[0]).real > 0:
            return rate


def twisted_spec(rng):
    """test_07-style: two Fuchsian poles pushed across a normal-form twist."""
    mats = [0.4 * M for M in fuchsian_residues(rng, 2, 2)]
    p = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
    c = complex(rng.standard_normal())
    site = {"p": ser.cx(p), "params": [ser.cx(0.0), ser.cx(c)]}
    conn = Connection.from_polar_parts(
        [(t, [M]) for t, M in zip(TWIST_POLES, mats)], n=2)
    spec = {"state": {"connection": ser.connection(conn),
                      "twists": {"sites": [site]}},
            "tol": SPEC_TOL}
    return spec, {"residues": list(zip(TWIST_POLES, mats)),
                  "twist_points": [p]}


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

@dataclass
class Case:
    """One unit of work: a class label, how to run it, and check data."""

    label: str                 # e.g. "fuchsian-sweep/0/n3"
    cls: str                   # case class, e.g. "n3"
    kind: str                  # "flow", "monodromy" or "extended"
    spec: dict | None = None   # CLI spec (flow, monodromy)
    data: dict = field(default_factory=dict)
    spec_path: Path | None = None
    out_dir: Path | None = None


@dataclass
class Result:
    residuals: dict            # name -> (value, tolerance)
    digest: str | None         # sha256 of the deterministic artifacts
    cause: str | None = None   # why the case failed, None if it passed
    silent: bool = False       # exit 0, yet a residual over its tolerance


def flow_spec(state, path):
    return {"state": ser.flow_state(state), "path": path, "samples": 3,
            "tol": SPEC_TOL}


def fuchsian_cases(rng):
    """4-pole Fuchsian flows at ranks 2, 3 and 4, pole 1 along a line."""
    cases = []
    for n in (2, 3, 4):
        st = fuchsian_state(rng, n, FUCHSIAN_POLES)
        path = {"kind": "line", "pole": 1,
                "displacement": ser.cx(FUCHSIAN_SHIFT)}
        cases.append(Case(f"fuchsian/n{n}", f"fuchsian-n{n}", "flow",
                          flow_spec(st, path),
                          {"pole": 1,
                           "end": FUCHSIAN_POLES[1] + FUCHSIAN_SHIFT}))
    return cases


def irregular_case(rng):
    """Order-2 irregular type moving along a seeded rate row."""
    st = irregular_state(rng)
    lead = st.poles[0].lam_irr[0]
    rate = irregular_rate(rng, lead)
    path = {"kind": "irregular", "pole": 0,
            "rate": [[ser.cx(v) for v in rate]], "length": IRREGULAR_LENGTH}
    return Case("irregular", "irregular", "flow", flow_spec(st, path),
                {"lead": lead, "rate": rate})


def extended_case(rng):
    """test_09-style extended system against the plain flow (API only)."""
    return Case("extended", "extended", "extended",
                data={"state": fuchsian_state(rng, 2, EXTENDED_POLES),
                      "shift": EXTENDED_SHIFT})


def extended_irregular_probe(rng):
    """The extended system on an irregular direction, run once outside the
    timed cases: it raises ``TypeError`` at the time of writing, and a fix
    should lower the failure count without moving the timed metrics."""
    st = irregular_state(rng)
    rate = irregular_rate(rng, st.poles[0].lam_irr[0])
    return Case("probe/extended-irregular", "extended-irregular", "extended",
                data={"state": st, "rate": rate})


def flow_sweep(rng):
    """One case of each flow class, and the probe."""
    cases = fuchsian_cases(rng) + [irregular_case(rng), extended_case(rng)]
    return cases, extended_irregular_probe(rng)


def monodromy_scan(rng):
    """The ``monodromy`` subcommand on 64 connections given as states:
    Fuchsian at ranks 2 and 3, order-2, and twisted."""
    cases = []
    for k in range(8):
        for n in (2, 3):
            for j in range(2):
                st = fuchsian_state(rng, n, FUCHSIAN_POLES)
                cases.append(Case(
                    f"{k}/fuchsian-n{n}/{j}", f"fuchsian-n{n}", "monodromy",
                    {"state": ser.flow_state(st), "tol": SPEC_TOL},
                    {"residues": [(p.t, p.lam_res) for p in st.poles]}))
        for j in range(2):
            st = irregular_state(rng)
            cases.append(Case(
                f"{k}/order2/{j}", "order2", "monodromy",
                {"state": ser.flow_state(st), "tol": SPEC_TOL},
                {"residues": [(p.t, p.lam_res) for p in st.poles
                              if p.l == 1]}))
        for j in range(2):
            spec, data = twisted_spec(rng)
            cases.append(Case(f"{k}/twist/{j}", "twist", "monodromy",
                              spec, data))
    return cases, None


# name -> (generator, salt of the seed)
WORKLOADS = {
    "flow-sweep": (flow_sweep, 1),
    "monodromy-scan": (monodromy_scan, 4),
}
# passes over the case list per run: about 40 s of measured work at the
# time of writing, which leaves room under the run length on a slower host
REPEATS = {"flow-sweep": 3, "monodromy-scan": 4}


def generate(workload, seed, out_root):
    """Build the workload's case list from the seed and write its specs.

    Each spec is read back and parsed, as the CLI will parse it, so that a
    malformed input fails at set-up rather than inside a timed pass.
    Returns the cases and the probe (or None).
    """
    gen, salt = WORKLOADS[workload]
    cases, probe = gen(np.random.default_rng([salt, seed]))
    for i, case in enumerate(cases):
        case.label = f"{workload}/{case.label}"
        case.out_dir = out_root / f"case{i:02d}"
        if case.spec is not None:
            case.out_dir.mkdir(parents=True, exist_ok=True)
            case.spec_path = case.out_dir / "spec.json"
            case.spec_path.write_text(json.dumps(case.spec))
            ser.un_flow_state(json.loads(case.spec_path.read_text())["state"])
    return cases, probe


# ---------------------------------------------------------------------------
# running and checking
# ---------------------------------------------------------------------------

def _cli(command, case, artifacts):
    """Run one subcommand on the case's spec with its console output
    captured.  Artifacts of an earlier run are removed first.  Returns the
    exit code and the last line printed, or a failed Result when an
    artifact is missing."""
    for name in artifacts:
        (case.out_dir / name).unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main([command, "--input", str(case.spec_path),
                         "--out", str(case.out_dir)])
    lines = buf.getvalue().strip().splitlines()
    last = lines[-1] if lines else ""
    missing = [n for n in artifacts if not (case.out_dir / n).exists()]
    if missing:
        return code, last, Result({}, None,
                                  f"exit {code}: {last} (no {missing})")
    return code, last, None


def _digest(out_dir, names):
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def _judge(exit_code, message, residuals, digest):
    over = [f"{k} {v:.3e} >= {tol:.0e}" for k, (v, tol) in residuals.items()
            if not v < tol]
    if exit_code not in (0, None):
        return Result(residuals, digest, f"exit {exit_code}: {message}")
    if over:
        return Result(residuals, digest, "; ".join(over), silent=True)
    return Result(residuals, digest)


def run_flow(case):
    artifacts = ("trajectory.csv", "drift.json")
    code, msg, missing = _cli("flow", case, artifacts)
    if missing:
        return missing
    drift = json.loads((case.out_dir / "drift.json").read_text())
    residuals = {"drift": (float(drift["max_drift"]), DRIFT_TOL)}
    if "lead" in case.data:
        lead, rate = case.data["lead"], case.data["rate"]
        track = 0.0
        for s, sample in zip(drift["samples"], drift["formal"]):
            got = np.sort_complex(np.array([ser.un_cx(v)
                                            for v in sample[0][0]]))
            want = np.sort_complex(lead + s * IRREGULAR_LENGTH * rate)
            track = max(track, float(np.max(np.abs(got - want))))
        residuals["formal_tracking"] = (track, FORMAL_TOL)
    if code == 0 and "end" in case.data:
        last = (case.out_dir / "trajectory.csv").read_text().splitlines()[-1]
        cells = [float(x) for x in last.split(",")]
        i = case.data["pole"]
        end = complex(cells[1 + 2 * i], cells[2 + 2 * i])
        residuals["endpoint"] = (abs(end - case.data["end"]), ENDPOINT_TOL)
    return _judge(code, msg, residuals, _digest(case.out_dir, artifacts))


def _eig_mismatch(M, R):
    """Distance between eig(M) and exp(2 pi i eig(R)) under the best
    matching of the two spectra, relative to the size of ``M`` (a transport
    error of ``tol * |M|`` moves the eigenvalues by about that much)."""
    got = np.linalg.eigvals(M)
    want = np.exp(2j * np.pi * np.linalg.eigvals(R))
    best = min(max(abs(got[p] - w) for p, w in zip(perm, want))
               for perm in itertools.permutations(range(len(got))))
    return float(best) / max(1.0, float(np.linalg.norm(M, 2)))


def run_monodromy(case):
    artifacts = ("monodromy.json",)
    code, msg, missing = _cli("monodromy", case, artifacts)
    if missing:
        return missing
    rep = json.loads((case.out_dir / "monodromy.json").read_text())
    points = [ser.un_cx(p) for p in rep["poles"]]
    mats = [ser.un_matrix(M) for M in rep["matrices"]]

    def loop_at(t):
        k = int(np.argmin([abs(p - t) for p in points]))
        if abs(points[k] - t) > 1e-9:
            raise KeyError(f"monodromy.json has no loop around {t}")
        return mats[k]

    residuals = {}
    eig = [_eig_mismatch(loop_at(t), R) for t, R in case.data["residues"]]
    residuals["loop_eigenvalues"] = (max(eig), EIG_TOL)
    if case.data.get("twist_points"):
        eye = np.eye(mats[0].shape[0])
        residuals["twist_identity"] = (
            max(float(np.max(np.abs(loop_at(p) - eye)))
                for p in case.data["twist_points"]), MONO_TOL)
    if rep["product_defect"] is not None:
        residuals["product_defect"] = (float(rep["product_defect"]), MONO_TOL)
    return _judge(code, msg, residuals, _digest(case.out_dir, artifacts))


def run_extended(case):
    st = case.data["state"]
    if "rate" in case.data:
        path = flows.FlowPath.irregular_line(st, 0, [case.data["rate"]],
                                             length=IRREGULAR_LENGTH)
    else:
        path = flows.FlowPath.line(st, 1, case.data["shift"])
    _, exts, status = flows.integrate_extended(
        flows.extend_state(st), path, tol=EXTENDED_TOL, n_samples=3)
    traj = flows.integrate_flow(st, path, tol=SPEC_TOL["flow"], n_samples=3)
    if traj.status != "completed" or status[0] != "completed":
        return Result({}, None,
                      f"aborted: flow {traj.status}, extended {status}")
    worst = 0.0
    h = hashlib.sha256()
    for e, s in zip(exts, traj.states):
        pos_e = np.array([p.t for p in e.state.poles])
        pos_s = np.array([p.t for p in s.poles])
        worst = max(worst,
                    float(np.max(np.abs(e.state.chart_vector()
                                        - s.chart_vector()))),
                    float(np.max(np.abs(pos_e - pos_s))))
        h.update(e.state.chart_vector().tobytes())
        h.update(s.chart_vector().tobytes())
    return _judge(None, "", {"projection": (worst, PROJECTION_TOL)},
                  h.hexdigest())


RUNNERS = {"flow": run_flow, "monodromy": run_monodromy,
           "extended": run_extended}


def run_case(case):
    """Run one case and check it; an exception is a failure with its cause."""
    try:
        return RUNNERS[case.kind](case)
    except Exception as exc:  # noqa: BLE001 - every failure is reported
        return Result({}, None, f"{type(exc).__name__}: {exc}")


def cause_kind(cause):
    """A failure cause with its numbers masked, for grouping."""
    return re.sub(r"[-+]?\d[\d.]*(e[-+]?\d+)?", "#", cause)
