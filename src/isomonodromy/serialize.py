"""JSON and CSV codecs for the CLI's specs and artifacts.

Conventions: complex numbers are two-element arrays ``[re, im]``; the point
at infinity is the string ``"inf"``; matrices are nested lists of complex
pairs; polynomial matrices are lists of matrices in ascending powers.
Emitted JSON round-trips bit-exactly (shortest-roundtrip float formatting,
sorted keys), and CSV cells carry 17 significant digits.
"""

from __future__ import annotations

import json

import numpy as np

from .connection import BasePole, Connection, near
from .errors import MalformedInputError
from .monodromy import LineSegment
from .ratfun import INFINITY, is_infinity
from .states import FlowState, PoleData, _shaped
from .twist import MatrixDivisor, TwistSite, normal_form


# ---------------------------------------------------------------------------
# scalars and matrices
# ---------------------------------------------------------------------------

def cx(z):
    z = complex(z)
    return [z.real, z.imag]


def un_cx(v, where=None):
    """``[re, im]`` as a complex number.

    The pair must hold two finite JSON numbers: the point at infinity is
    only ever written ``"inf"``, and only where ``point`` writes it, so an
    ``"inf"`` or a non-finite pair here is an input error, reported at the
    field ``where``.
    """
    if v == "inf":
        problem = "'inf' is not finite"
    elif not (isinstance(v, (list, tuple)) and len(v) == 2):
        problem = f"expected [re, im], got {v!r}"
    else:
        re, im = (float(un_typed(x, NUMBER, where or "[re, im]")) for x in v)
        z = complex(re, im)
        if z.real - z.real == 0 and z.imag - z.imag == 0:   # both finite
            return z
        problem = f"{v!r} is not finite"
    raise MalformedInputError(f"{where}: {problem}" if where else problem)


NUMBER = (int, float)    # a JSON number; a bool is not one


def un_typed(v, kind, where):
    """``v``, which must be a JSON value of type ``kind``: ``int``,
    ``bool`` or ``NUMBER``.  ``int(v)`` would read 2.5 as 2, ``bool(v)``
    "false" as true, and ``float(v)`` true as 1.0 and "1e-3" as 0.001.
    Anything else is an input error at the field ``where``."""
    if type(v) not in (kind if kind is NUMBER else (kind,)):
        name = "number" if kind is NUMBER else kind.__name__
        raise MalformedInputError(f"{where}: expected {name}, got {v!r}")
    return v


def point(p):
    return "inf" if is_infinity(p) else cx(p)


def un_point(v, where):
    """``point``'s output: ``"inf"`` as the point at infinity, or else a
    finite ``[re, im]``."""
    return INFINITY if v == "inf" else un_cx(v, where)


def matrix(M):
    M = np.asarray(M, dtype=complex)
    return [[cx(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])]


def un_matrix(rows, where=None):
    """Nested lists of ``[re, im]`` pairs as a complex array, whose rows
    must all have one length."""
    rows = [[un_cx(e, where) for e in row] for row in rows]
    if len({len(row) for row in rows}) > 1:
        problem = "rows of different lengths"
        raise MalformedInputError(f"{where}: {problem}" if where else problem)
    return np.array(rows, dtype=complex)


# ---------------------------------------------------------------------------
# connections, twists, states
# ---------------------------------------------------------------------------

def connection(conn):
    """A connection as a spec: the polar parts at the divisor's points, in
    its order, then those at the twist points.  A finite base pole's
    residue ``(k/n) I`` is implied by ``k`` and not listed."""
    pole_data, tail = conn.polar_parts
    poles = conn.divisor_polar_parts + [
        (t, Cs) for t, Cs in pole_data
        if near(t, conn.twist_points) is not None]
    out = {"n": conn.n, "poles": [],
           "tail": [matrix(M) for M in tail] if tail.size else None,
           "base_pole": None}
    for t, Cs in poles:
        # JSON stores orders -l .. -1; internal lists are C_1 .. C_l
        out["poles"].append({"t": cx(t), "l": len(Cs),
                             "coeffs": [matrix(C) for C in Cs[::-1]]})
    if conn.base_pole is not None:
        out["base_pole"] = {"point": point(conn.base_pole.point),
                            "k": conn.base_pole.k}
    if conn.twist_points:
        out["twist_points"] = [cx(p) for p in conn.twist_points]
    return out


def un_square(rows, n, where):
    """``un_matrix``, which must be ``n`` by ``n``."""
    return _shaped(un_matrix(rows, where), where, (n, n))


def un_connection(d):
    n = un_typed(d["n"], int, "n")
    pole_data = []
    for i, p in enumerate(d["poles"]):
        t = un_cx(p["t"], f"poles[{i}].t")
        if not p["coeffs"]:
            raise MalformedInputError(f"poles[{i}].coeffs: a pole needs at "
                                      f"least one coefficient")
        coeffs = [un_square(M, n, f"poles[{i}].coeffs") for M in p["coeffs"]]
        coeffs.reverse()   # back to C_1 .. C_l
        pole_data.append((t, coeffs))
    tail = [un_square(M, n, "tail") for M in d["tail"]] if d.get("tail") \
        else None
    base = None
    if d.get("base_pole"):
        bp = d["base_pole"]
        base = BasePole(un_typed(bp["k"], int, "base_pole.k"),
                        un_point(bp["point"], "base_pole.point"))
        if not is_infinity(base.point):
            if near(base.point, [t for t, _ in pole_data]) is not None:
                raise MalformedInputError(
                    "poles: a pole at the base point; its residue (k/n) I "
                    "is implied by base_pole.k")
            pole_data.append((base.point, [base.k / n * np.eye(n)]))
    twist_points = [un_cx(p, "twist_points")
                    for p in d.get("twist_points") or ()]
    return Connection.from_polar_parts(pole_data, n=n, tail=tail,
                                       twist_points=twist_points,
                                       base_pole=base)


def twist_site(site):
    return {"p": cx(site.point),
            "T": [matrix(site.germ[k]) for k in range(site.germ.shape[0])]}


def un_twist_site(d):
    p = un_cx(d["p"], "site.p")
    if "params" in d:
        return normal_form(p, [un_cx(c, "site.params") for c in d["params"]])
    return TwistSite(p, np.stack([un_matrix(M, "site.T") for M in d["T"]]))


def matrix_divisor(div):
    return {"sites": [twist_site(s) for s in div.sites]}


def un_matrix_divisor(d):
    return MatrixDivisor(tuple(un_twist_site(s) for s in d["sites"]))


def flow_state(state):
    poles = []
    for p in state.poles:
        entry = {"t": cx(p.t), "l": p.l, "h": matrix(p.h),
                 "res": matrix(p.lam_res),
                 "irr": [[cx(v) for v in row] for row in p.lam_irr]}
        if p.u.size:
            entry["u"] = [matrix(p.u[k]) for k in range(p.u.shape[0])]
        poles.append(entry)
    out = {"n": state.n, "poles": poles}
    if state.twist is not None:
        out["twists"] = matrix_divisor(state.twist)
    return out


def un_flow_state(d):
    """A state spec as a state.  A state given by its ``connection`` numbers
    its poles in the listed order, not in the divisor's."""
    twist = un_matrix_divisor(d["twists"]) if d.get("twists") else None
    if "connection" in d:
        conn = un_connection(d["connection"])
        if conn.twist_points:
            raise MalformedInputError(
                "twist_points: a state holds its twists in 'twists'")
        state = FlowState.from_connection(conn, twist)
        at = [conn.divisor.points.index(un_cx(p["t"]))
              for p in d["connection"]["poles"]]
        return FlowState(state.n, tuple(state.poles[i] for i in at), twist)
    poles = []
    for i, p in enumerate(d["poles"]):
        l = un_typed(p["l"], int, f"poles[{i}].l")
        if l == 1 and p.get("irr"):
            raise MalformedInputError(f"poles[{i}].irr: a pole of order 1 "
                                      f"has no irregular type")
        irr = un_matrix(p.get("irr", []), f"poles[{i}].irr").reshape(
            l - 1, -1) if l > 1 else None
        u = np.stack([un_matrix(M, f"poles[{i}].u") for M in p["u"]]) \
            if p.get("u") else None
        poles.append(PoleData(un_cx(p["t"], f"poles[{i}].t"), l,
                              un_matrix(p["h"], f"poles[{i}].h"),
                              un_matrix(p["res"], f"poles[{i}].res"), irr, u))
    return FlowState(un_typed(d["n"], int, "n"), tuple(poles), twist)


# ---------------------------------------------------------------------------
# monodromy output
# ---------------------------------------------------------------------------

def path_segments(path):
    out = []
    for seg in path.segments:
        if isinstance(seg, LineSegment):
            out.append({"kind": "line", "start": cx(seg.start),
                        "end": cx(seg.end)})
        else:
            out.append({"kind": "arc", "center": cx(seg.center),
                        "radius": seg.radius, "theta0": seg.theta0,
                        "theta1": seg.theta1})
    return out


def monodromy_rep_out(rep, invariants):
    return {"base": cx(rep.base_point),
            "poles": [cx(p) for p in rep.pole_points],
            "loops": [path_segments(lp) for lp in rep.loops],
            "matrices": [matrix(M) for M in rep.matrices],
            "invariants": [cx(v) for v in invariants],
            "product_defect": rep.product_defect,
            "tol": rep.tol}


def drift_report_out(report):
    return {
        "samples": list(report.samples),
        "max_drift": report.max_drift,
        "conjugacy_residual": list(report.conjugacy_residual),
        "formal_residue_drift": report.formal_residue_drift,
        "base_point": cx(report.base_point),
        "invariants": [[cx(v) for v in row] for row in report.invariants],
        "formal": [[[ [cx(v) for v in branch] for branch in pole]
                    for pole in sample] for sample in report.formal],
        "notes": list(report.notes),
    }


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------

def _fmt(x):
    return f"{x:.17g}"


def trajectory_csv(traj):
    """Lossless CSV: sample parameter, then each entry of the flat vector
    (pole positions, chart coordinates, irregular entries), named by the
    states' plan; real and imaginary parts in separate columns."""
    plan = traj.states[0].plan
    names = np.empty(plan.size, dtype=object)
    names[plan.positions] = [f"t{i}" for i in range(plan.m)]
    names[plan.chart] = [f"c{k}" for k in range(plan.dim)]
    for i, irr in enumerate(plan.irr):
        names[irr.ravel()] = [f"irr{i}_{j}" for j in range(irr.size)]
    lines = [",".join(["s"] + [f"{x}.{z}" for x in names
                               for z in ("re", "im")])]
    for s, st in zip(traj.samples, traj.states):
        row = [_fmt(s)]
        for v in st.flat():
            row += [_fmt(v.real), _fmt(v.imag)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=1)
