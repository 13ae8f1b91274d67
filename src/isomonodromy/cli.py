"""Batch front end: one self-describing JSON spec in, artifacts out.

Subcommands: ``flow``, ``monodromy``, ``hamiltonian``, ``verify``,
``pairing``.  Exit codes: 0 success, 2 invariant violation beyond tolerance,
3 numeric abort, 4 parse error.  Identical spec and seed give byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FsPath

import numpy as np

from . import serialize as ser
from .errors import IntegrationAbort, IsomonodromyError, MalformedInputError
from .flows import (
    Direction,
    FlowPath,
    direction_differential,
    integrate_flow,
    verify_isomonodromy,
)
from .monodromy import TAU_MONO, conjugacy_invariants, monodromy_rep
from .symplectic import (
    IrregularCotangent,
    hamiltonian_beta_B,
    hamiltonian_vector_field,
    residue_pairing,
    translation_hamiltonian_values,
)

DEFAULT_TOLS = {"flow": 1e-10, "transport": 1e-10, "drift": 1e-6,
                "pairing": 1e-10, "mono": TAU_MONO}


def _load_spec(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise _ParseFail(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except OSError as exc:
        raise _ParseFail(str(exc))


class _ParseFail(Exception):
    pass


def _tols(spec, override=None):
    tols = dict(DEFAULT_TOLS)
    given = spec.get("tol", {})
    if isinstance(given, (int, float)):
        tols["flow"] = tols["transport"] = float(given)
    else:
        for k, v in given.items():
            if k not in tols or float(v) <= 0:
                raise _ParseFail(f"tol.{k}: unknown field or non-positive value")
            tols[k] = float(v)
    if override is not None:
        tols["flow"] = tols["transport"] = float(override)
    return tols


def _state_of(spec):
    if "state" in spec:
        return ser.un_flow_state(spec["state"])
    if "connection" in spec:
        return ser.un_flow_state({"connection": spec["connection"],
                                  "twists": spec.get("twists")})
    raise _ParseFail("spec needs a 'state' or 'connection' field")


def _pole_index(value, state, where):
    idx = int(value)
    if not 0 <= idx < len(state.poles):
        raise _ParseFail(f"{where}: pole index {idx} is not in "
                         f"0..{len(state.poles) - 1}")
    return idx


def _path_of(spec, state, pinned):
    p = spec.get("path", {"kind": "stationary"})
    kind = p.get("kind")
    moved = []
    if kind == "stationary":
        path = FlowPath.stationary(state)
    elif kind == "line":
        idx = _pole_index(p["pole"], state, "path.pole")
        moved = [idx]
        path = FlowPath.line(state, idx, ser.un_cx(p["displacement"]))
    elif kind == "semicircle":
        idx = _pole_index(p["pole"], state, "path.pole")
        moved = [idx]
        path = FlowPath.semicircle(state, idx, ser.un_cx(p["diameter"]),
                                   upper=bool(p.get("upper", True)))
    elif kind == "irregular":
        idx = _pole_index(p["pole"], state, "path.pole")
        rate = np.array([[ser.un_cx(v) for v in row] for row in p["rate"]],
                        dtype=complex)
        path = FlowPath.irregular_line(state, idx, rate,
                                       length=float(p.get("length", 1.0)))
    else:
        raise _ParseFail(f"unknown path.kind {kind!r}")
    for idx in moved:
        if idx in pinned:
            raise _ParseFail(f"path moves pole {idx}, which is pinned")
    return path


def _base_point(spec):
    bp = spec.get("base_point", "auto")
    return None if bp == "auto" else ser.un_cx(bp)


def _write(outdir, name, text):
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_flow(spec, args, verify_only=False):
    tols = _tols(spec, args.tol)
    state = _state_of(spec)
    pinned = set(_pole_index(i, state, "--pin") for i in (args.pin or []))
    if len(pinned) > 3:
        raise _ParseFail("at most three poles can be pinned")
    path = _path_of(spec, state, pinned)
    out = FsPath(args.out)

    traj = integrate_flow(state, path, tol=tols["flow"],
                          n_samples=int(spec.get("samples", 9)))
    report = verify_isomonodromy(traj, tol=tols["transport"],
                                 base_point=_base_point(spec))
    if not verify_only:
        _write(out, "trajectory.csv", ser.trajectory_csv(traj))
    _write(out, "drift.json", ser.dumps(ser.drift_report_out(report)))
    if traj.status != "completed":
        print(f"aborted: {traj.abort_kind} at s={traj.abort_at}")
        return 3
    print(f"max conjugacy-invariant drift {report.max_drift:.3e} "
          f"(tolerance {tols['drift']:.1e})")
    return 0 if report.max_drift <= tols["drift"] else 2


def cmd_monodromy(spec, args):
    tols = _tols(spec, args.tol)
    if "connection" in spec:
        conn = ser.un_connection(spec["connection"])
    else:
        conn = _state_of(spec).connection()
    bp = _base_point(spec)
    if bp is None:
        from .flows import auto_base_point
        bp = auto_base_point(conn.all_finite_poles())
    rep = monodromy_rep(conn, bp, tol=tols["transport"])
    inv = conjugacy_invariants(rep)
    _write(FsPath(args.out), "monodromy.json",
           ser.dumps(ser.monodromy_rep_out(rep, inv)))
    if rep.product_defect is not None and rep.product_defect > tols["mono"]:
        print(f"ordered product defect {rep.product_defect:.3e} exceeds "
              f"{tols['mono']:.1e}")
        return 2
    return 0


def cmd_hamiltonian(spec, args):
    state = _state_of(spec)
    out = {"translations": [ser.cx(v)
                            for v in translation_hamiltonian_values(state)],
           "irregular": None, "field": None}
    direction = spec.get("direction")
    if direction and direction.get("kind") == "irregular":
        idx = _pole_index(direction["pole"], state, "direction.pole")
        beta = IrregularCotangent(
            idx, np.array([[ser.un_cx(v) for v in row]
                           for row in direction["beta"]], dtype=complex))
        out["irregular"] = ser.cx(hamiltonian_beta_B(beta, state))
    if spec.get("field"):
        fld = direction or {"kind": "translation", "pole": 0}
        if fld.get("kind", "translation") != "translation":
            raise _ParseFail("field output is supported for translations")
        idx = _pole_index(fld.get("pole", 0), state, "direction.pole")
        dH = direction_differential(Direction.translation(idx), state)
        X = hamiltonian_vector_field(dH, state)
        out["field"] = [ser.cx(v) for v in X.flatten()]
    _write(FsPath(args.out), "hamiltonian.json", ser.dumps(out))
    return 0


def cmd_pairing(spec, args):
    tols = _tols(spec, args.tol)
    site = ser.un_twist_site(spec["site"])
    a = np.stack([ser.un_matrix(M) for M in spec["a"]])
    b_coeffs = [ser.un_matrix(M) for M in spec["b"]]
    from .ratfun import LaurentJet
    n = a.shape[1]
    l = len(b_coeffs)
    bc = np.zeros((l + 6, n, n), dtype=complex)
    for k, C in enumerate(b_coeffs, start=1):
        bc[l - k] = C
    b = LaurentJet(0.0, -l, bc, 1)
    frame = spec.get("frame", "U1")
    value = residue_pairing(a, b, site, frame)

    checks = spec.get("checks", {})
    count = int(checks.get("count", 0))
    worst = 0.0
    if count:
        rng = np.random.default_rng(int(args.seed))
        for _ in range(count):
            F = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            F += 0.5 * np.eye(n)
            Finv = np.linalg.inv(F)
            aF = np.einsum("kij,jl->kil", a, F)
            bF = LaurentJet(0.0, b.k_min,
                            np.einsum("ij,kjl,lm->kim", Finv, b.coeffs, F), 1)
            v2 = residue_pairing(aF, bF, site.right_multiply(F), frame)
            worst = max(worst, abs(v2 - value))
    _write(FsPath(args.out), "pairing.json",
           ser.dumps({"value": ser.cx(value), "frame": frame,
                      "invariance_checks": count,
                      "max_deviation": worst}))
    if count and worst > tols["pairing"] * max(1.0, abs(value)):
        print(f"invariance deviation {worst:.3e} exceeds tolerance")
        return 2
    return 0


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="isomonodromy",
        description="monodromy-preserving deformation flows at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("flow", "monodromy", "hamiltonian", "verify", "pairing"):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="JSON run spec")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=None,
                       help="override integration tolerances")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized checks")
        p.add_argument("--pin", type=int, nargs="*", default=None,
                       help="indices of up to three pinned poles")
    args = parser.parse_args(argv)

    try:
        spec = _load_spec(args.input)
        if args.command == "flow":
            return cmd_flow(spec, args)
        if args.command == "verify":
            return cmd_flow(spec, args, verify_only=True)
        if args.command == "monodromy":
            return cmd_monodromy(spec, args)
        if args.command == "hamiltonian":
            return cmd_hamiltonian(spec, args)
        if args.command == "pairing":
            return cmd_pairing(spec, args)
    except _ParseFail as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except (MalformedInputError, KeyError, ValueError, TypeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except IntegrationAbort as exc:
        print(f"numeric abort ({exc.kind}): {exc}", file=sys.stderr)
        return 3
    except IsomonodromyError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
