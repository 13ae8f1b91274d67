"""Batch front end: one self-describing JSON spec in, artifacts out.

``COMMANDS`` maps each subcommand, ``flow``, ``monodromy``, ``hamiltonian``,
``verify``, ``pairing``, to its command.  Exit codes: 0 success, 2 invariant
violation beyond tolerance, 3 numeric abort, 4 parse error (of the spec or the
command line).  Identical spec and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path as FsPath

import numpy as np

from . import serialize as ser
from .errors import IntegrationAbort, IsomonodromyError, MalformedInputError
from .flows import (
    FLOW_TOL,
    Direction,
    FlowPath,
    direction_differential,
    integrate_flow,
    verify_isomonodromy,
)
from .monodromy import (
    DEFAULT_TOL,
    auto_base_point,
    conjugacy_invariants,
    monodromy_rep,
    pole_near,
)
from .ratfun import LaurentJet
from .symplectic import (
    hamiltonian_beta_B,
    hamiltonian_vector_field,
    residue_pairing,
    translation_hamiltonian_values,
)

DEFAULT_TOLS = {"flow": FLOW_TOL, "transport": DEFAULT_TOL, "drift": 1e-6,
                "pairing": 1e-10, "mono": 1e-8}


def _load_spec(path):
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except OSError as exc:
        raise MalformedInputError(str(exc))
    return _object(spec, "spec")


def _object(value, where):
    """``value`` if it is a JSON object, else a parse failure at ``where``."""
    if not isinstance(value, dict):
        raise MalformedInputError(f"{where} must be a JSON object, "
                                  f"not {type(value).__name__}")
    return value


def _positive(value, where):
    """``value``, a JSON number, as a float, which must be finite and
    positive."""
    x = float(ser.un_typed(value, ser.NUMBER, where))
    if not (np.isfinite(x) and x > 0):
        raise MalformedInputError(
            f"{where}: {x} is not a finite positive tolerance")
    return x


def _tols(spec, override=None):
    tols = dict(DEFAULT_TOLS)
    given = spec.get("tol", {})
    if isinstance(given, (int, float)):
        tols["flow"] = tols["transport"] = _positive(given, "tol")
    else:
        for k, v in _object(given, "tol").items():
            if k not in tols:
                raise MalformedInputError(f"tol.{k}: unknown field")
            tols[k] = _positive(v, f"tol.{k}")
    if override is not None:
        tols["flow"] = tols["transport"] = _positive(override, "--tol")
    return tols


def _state_of(spec):
    if "state" in spec:
        return ser.un_flow_state(_object(spec["state"], "state"))
    if "connection" in spec:
        return ser.un_flow_state({
            "connection": _object(spec["connection"], "connection"),
            "twists": spec.get("twists")})
    raise MalformedInputError("spec needs a 'state' or 'connection' field")


def _pole_index(value, state, where):
    idx = ser.un_typed(value, int, where)
    if not 0 <= idx < len(state.poles):
        raise MalformedInputError(f"{where}: pole index {idx} is not in "
                                  f"0..{len(state.poles) - 1}")
    return idx


def _irregular_pole(value, state, where, higher_ok):
    """``_pole_index`` of a pole of order 2, or >= 2 when ``higher_ok``."""
    idx = _pole_index(value, state, where)
    l = state.poles[idx].l
    if l < 2 or (l > 2 and not higher_ok):
        need = "order >= 2" if higher_ok else "order 2"
        raise MalformedInputError(
            f"{where}: pole {idx} has order {l}; an irregular "
            f"{where.split('.')[0]} needs {need}")
    return idx


def _path_of(spec, state, pinned):
    p = _object(spec.get("path", {"kind": "stationary"}), "path")
    kind = p.get("kind")
    moved = []
    if kind == "stationary":
        path = FlowPath.stationary(state)
    elif kind == "line":
        idx = _pole_index(p["pole"], state, "path.pole")
        moved = [idx]
        path = FlowPath.line(state, idx, ser.un_cx(p["displacement"],
                                                   "path.displacement"))
    elif kind == "semicircle":
        idx = _pole_index(p["pole"], state, "path.pole")
        moved = [idx]
        path = FlowPath.semicircle(
            state, idx, ser.un_cx(p["diameter"], "path.diameter"),
            upper=ser.un_typed(p.get("upper", True), bool, "path.upper"))
    elif kind == "irregular":
        idx = _irregular_pole(p["pole"], state, "path.pole", higher_ok=False)
        rate = ser.un_matrix(p["rate"], "path.rate")
        length = float(ser.un_typed(p.get("length", 1.0), ser.NUMBER,
                                    "path.length"))
        if not np.isfinite(length):
            raise MalformedInputError(f"path.length: {length} is not finite")
        path = FlowPath.irregular_line(state, idx, rate, length=length)
    else:
        raise MalformedInputError(f"unknown path.kind {kind!r}")
    for idx in moved:
        if idx in pinned:
            raise MalformedInputError(
                f"path moves pole {idx}, which is pinned")
    return path


def _base_point(spec, poles):
    """The spec's base point, clear of the finite ``poles``; None for
    ``"auto"``."""
    bp = spec.get("base_point", "auto")
    if bp == "auto":
        return None
    z0 = ser.un_cx(bp, "base_point")
    p = pole_near(z0, poles)
    if p is not None:
        raise MalformedInputError(
            f"base_point: base point {z0} too close to pole {p}")
    return z0


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
        raise MalformedInputError("at most three poles can be pinned")
    path = _path_of(spec, state, pinned)
    twist_points = state.twist.points() if state.twist is not None else []
    base_point = _base_point(spec, [p.t for p in state.poles] + twist_points)
    out = FsPath(args.out)

    traj = integrate_flow(state, path, tol=tols["flow"],
                          n_samples=ser.un_typed(spec.get("samples", 9), int,
                                                 "samples"))
    report = verify_isomonodromy(traj, tol=tols["transport"],
                                 base_point=base_point)
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
    if "connection" in spec and not spec.get("twists"):   # keeps its tail
        conn = ser.un_connection(_object(spec["connection"], "connection"))
    else:
        conn = _state_of(spec).connection()
    bp = _base_point(spec, conn.all_finite_poles())
    if bp is None:
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
    direction = _object(spec.get("direction") or {}, "direction")
    out = {"translations": None, "irregular": None, "field": None}
    irregular = direction.get("kind") == "irregular"
    if irregular:
        idx = _irregular_pole(direction["pole"], state, "direction.pole",
                              higher_ok=True)
        beta = ser.un_matrix(direction["beta"], "direction.beta")
    field_pole = None
    if ser.un_typed(spec.get("field", False), bool, "field"):
        fld = direction or {"kind": "translation", "pole": 0}
        if fld.get("kind", "translation") != "translation":
            raise MalformedInputError(
                "field output is supported for translations")
        field_pole = _pole_index(fld.get("pole", 0), state, "direction.pole")
    if irregular:
        out["irregular"] = ser.cx(hamiltonian_beta_B(state, idx, beta))
    out["translations"] = [ser.cx(v)
                           for v in translation_hamiltonian_values(state)]
    if field_pole is not None:
        dH = direction_differential(Direction.translation(field_pole), state)
        X = hamiltonian_vector_field(dH, state)
        out["field"] = [ser.cx(v) for v in X]
    _write(FsPath(args.out), "hamiltonian.json", ser.dumps(out))
    return 0


def cmd_pairing(spec, args):
    tols = _tols(spec, args.tol)
    site = ser.un_twist_site(spec["site"])
    checks = _object(spec.get("checks", {}), "checks")
    count = ser.un_typed(checks.get("count", 0), int, "checks.count")
    if count < 0:
        raise MalformedInputError(f"checks.count: {count} is negative")
    a = np.stack([ser.un_matrix(M, "a") for M in spec["a"]])
    b_coeffs = [ser.un_matrix(M, "b") for M in spec["b"]]
    n = a.shape[1]
    l = len(b_coeffs)
    bc = np.zeros((l + 6, n, n), dtype=complex)
    for k, C in enumerate(b_coeffs, start=1):
        bc[l - k] = C
    b = LaurentJet(0.0, -l, bc, 1)
    frame = spec.get("frame", "U1")
    value = residue_pairing(a, b, site, frame)

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


COMMANDS = {"flow": cmd_flow, "monodromy": cmd_monodromy,
            "hamiltonian": cmd_hamiltonian,
            "verify": functools.partial(cmd_flow, verify_only=True),
            "pairing": cmd_pairing}


# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """argparse, with usage errors on the parse-error exit code 4."""

    def error(self, message):
        self.exit(4, f"{self.format_usage()}{self.prog}: error: {message}\n")


@functools.cache
def _parser():
    parser = _ArgumentParser(
        prog="isomonodromy",
        description="monodromy-preserving deformation flows at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        # each subcommand accepts the options it reads, and no other
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="JSON run spec")
        p.add_argument("--out", default=".", help="output directory")
        if name != "hamiltonian":
            p.add_argument("--tol", type=float, default=None,
                           help="override integration tolerances")
        if name == "pairing":
            p.add_argument("--seed", type=int, default=0,
                           help="seed for randomized checks")
        if name in ("flow", "verify"):
            p.add_argument("--pin", type=int, nargs="*", default=None,
                           help="indices of up to three pinned poles")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        return COMMANDS[args.command](_load_spec(args.input), args)
    except (MalformedInputError, KeyError, ValueError, TypeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except IntegrationAbort as exc:
        print(f"numeric abort ({exc.kind}): {exc}", file=sys.stderr)
        return 3
    except IsomonodromyError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
