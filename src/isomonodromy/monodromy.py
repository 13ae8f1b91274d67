"""Parallel transport of fundamental solutions and monodromy representations.

The transported system is ``dY/dz = A(z) Y`` along piecewise line/arc paths
in the punctured plane, with adaptive high-order Runge-Kutta (DOP853) on the
complexified matrix system.  The system is linear, so each DOP853 step is
taken as one batched evaluation of ``A dz`` at the step's nodes and one
triangular solve for all of its stages (``_LinearDOP853``); the start, the
error estimate, the step-size control and the step loop are the library's
DOP853 (``ode``).  Several paths are integrated in lock-step, one lane
each with its own step control, at the bits each gets alone, and a run
stacks the legs of one segment class (lines, or arcs); a monodromy
representation sends all of its loops through one ``transport`` call, and
``monodromy_reps`` those of several connections (the samples of a
trajectory), each lane evaluating its own connection.  Loops around poles
are deterministic keyholes: a radial approach from the base point, a full
positively-oriented circle, and the radial return.  The return leg is not
integrated: with ``L`` the transport of the approach leg and ``C`` that of
the circle, a keyhole's generator is ``L^-1 C L``.  With loops ordered by
increasing argument from the base point, the product ``M_l ... M_1`` is the
monodromy of a loop around everything, hence the identity whenever the
form is regular at infinity.

The triangular solve is LAPACK's ``ztrtrs`` from scipy's extension
``scipy.linalg._flapack``, the very routine ``scipy.linalg.lapack``
re-exports, which ``ode.load_alone`` loads by itself unless it is loaded
already: importing ``scipy.linalg`` would load some 300 modules more, 75
of them scipy's.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from math import isqrt

import numpy as np

from . import ode
from .connection import TAU_SEP, near
from .errors import IntegrationAbort, PreconditionError
from .ode import solve_ivp

DEFAULT_TOL = 1e-10

ztrtrs = ode.load_alone("scipy.linalg._flapack").ztrtrs


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineSegment:
    start: complex
    end: complex

    def at(self, s):
        return self.point_and_rate(s)[0]

    @cached_property
    def delta(self):
        """``end - start``, the rate."""
        return self.end - self.start

    def point_and_rate(self, s):
        """``at(s)`` and its derivative in ``s``."""
        return self.start + s * self.delta, self.delta

    def reversed(self):
        return LineSegment(self.end, self.start)

    def distance_to(self, p):
        d = self.delta
        L2 = abs(d) ** 2
        if L2 == 0.0:
            return abs(p - self.start)
        t = ((p - self.start) * np.conj(d)).real / L2
        t = min(1.0, max(0.0, t))
        return abs(p - (self.start + t * d))


@dataclass(frozen=True)
class ArcSegment:
    center: complex
    radius: float
    theta0: float
    theta1: float

    def at(self, s):
        return self.point_and_rate(s)[0]

    @cached_property
    def dtheta(self):
        """``theta1 - theta0``, the angle swept."""
        return self.theta1 - self.theta0

    @cached_property
    def rate(self):
        """``1j dtheta radius``, the rate's factor before ``exp``."""
        return (1j * self.dtheta) * self.radius

    def point_and_rate(self, s):
        """``at(s)`` and its derivative in ``s``, from one ``exp`` per
        parameter."""
        e = np.exp(1j * (self.theta0 + s * self.dtheta))
        return self.center + self.radius * e, self.rate * e

    def reversed(self):
        return ArcSegment(self.center, self.radius, self.theta1, self.theta0)

    def distance_to(self, p):
        v = p - self.center
        r = abs(v)
        if r == 0.0:
            return self.radius
        ang = np.angle(v)
        lo, hi = sorted((self.theta0, self.theta1))
        if hi - lo >= 2 * np.pi - 1e-12:
            return abs(r - self.radius)
        # bring ang into [lo, lo + 2pi), from either side
        while ang < lo:
            ang += 2 * np.pi
        while ang >= lo + 2 * np.pi:
            ang -= 2 * np.pi
        if ang <= hi:
            return abs(r - self.radius)
        return min(abs(p - self.at(0.0)), abs(p - self.at(1.0)))


@dataclass(frozen=True)
class Path:
    """Piecewise-smooth curve with a declared clearance from all poles."""

    segments: tuple
    clearance: float = 2 * TAU_SEP

    def __init__(self, segments, clearance=2 * TAU_SEP):
        segments = tuple(segments)
        for a, b in zip(segments, segments[1:]):
            if abs(a.at(1.0) - b.at(0.0)) > 1e-9:
                raise PreconditionError("path segments do not join continuously")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "clearance", float(clearance))

    def distance_to(self, p):
        return min(s.distance_to(p) for s in self.segments)

    def reverse(self):
        return Path(tuple(seg.reversed() for seg in reversed(self.segments)),
                    self.clearance)

    def concatenate(self, other):
        return Path(self.segments + other.segments,
                    min(self.clearance, other.clearance))

    @classmethod
    def line(cls, a, b, clearance=2 * TAU_SEP):
        return cls((LineSegment(complex(a), complex(b)),), clearance)

    @classmethod
    def circle(cls, center, radius, theta0=0.0, turns=1.0,
               clearance=2 * TAU_SEP):
        return cls((ArcSegment(complex(center), float(radius), theta0,
                               theta0 + 2 * np.pi * turns),), clearance)

    @classmethod
    def keyhole(cls, base, pole, radius, clearance=2 * TAU_SEP):
        """Radial approach, full positive circle, radial return."""
        base = complex(base)
        pole = complex(pole)
        phi = np.angle(base - pole)
        entry = pole + radius * np.exp(1j * phi)
        return cls((LineSegment(base, entry),
                    ArcSegment(pole, radius, phi, phi + 2 * np.pi),
                    LineSegment(entry, base)), clearance)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def _compiled_eval(conn):
    """Evaluator ``ev(z, dz) -> [A(z) dz flattened, tr A(z) dz]``.

    Every polar coefficient of every pole, then every coefficient of the
    polynomial tail, is one row of the stacked array ``C`` of shape
    ``(K, n*n + 1)``; the last column holds the row's trace.  Row ``r`` is
    weighted by ``dz * u[idx[r]]**pw[r]`` with ``u = (1/(z - t_1), ...,
    1/(z - t_m), z)``, so the tail rows carry the powers of ``z``.  For a
    Fuchsian form without tail, a coefficient per pole, the weights are
    ``dz / (z - t_i)`` themselves, with no ``z`` column and no gather.
    Points ``z`` and rates ``dz`` broadcast: an array of points gives a row
    per point, in C order, from one ``(k, K) @ (K, n*n + 1)`` product, a
    scalar point gives one vector.  Each call returns a new array.
    """
    pole_data, tail = conn.polar_parts
    n = conn.n
    rows, idx, pw = [], [], []
    for i, (_, coeffs) in enumerate(pole_data):
        rows += coeffs
        idx += [i] * len(coeffs)
        pw += range(1, len(coeffs) + 1)
    rows += list(tail)
    idx += [len(pole_data)] * len(tail)
    pw += range(len(tail))
    C = np.array(rows, dtype=complex).reshape(len(rows), n * n)
    C = np.column_stack([C, C[:, ::n + 1].sum(axis=1)])
    # the weights are u itself when its rows are the poles, in order
    plain = idx == list(range(len(pole_data)))
    idx = np.array(idx, dtype=int)
    pw = np.array(pw, dtype=int)
    points = np.array([t for t, _ in pole_data], dtype=complex)
    # x**1 is exactly x, so only the rows from the first power other than 1
    # to the last are raised: none at all for a Fuchsian form without tail
    raised = np.flatnonzero(pw != 1)
    span = slice(raised[0], raised[-1] + 1) if raised.size else slice(0)
    pw = pw[span]

    def ev(z, dz):
        z = np.asarray(z, dtype=complex)
        if plain:
            w = z[..., None] - points
            np.divide(1.0, w, out=w)
        else:
            u = np.empty(z.shape + (len(points) + 1,), dtype=complex)
            np.divide(1.0, z[..., None] - points, out=u[..., :-1])
            u[..., -1] = z
            w = u[..., idx]
            if pw.size:
                w[..., span] **= pw
        w *= np.asarray(dz)[..., None]
        return w @ C if w.ndim < 3 else w.reshape(z.size, len(C)) @ C

    return ev


def _stacked(segments):
    """One segment of the common class of ``segments`` whose fields are
    columns, a row per segment: the class's own ``point_and_rate`` then
    evaluates each segment at its row of parameters, all at once, and the
    columns it derives from the fields (a line's ``delta``, an arc's
    ``dtheta`` and ``rate``) are computed once, when first read."""
    out = object.__new__(type(segments[0]))
    for f in fields(out):
        object.__setattr__(out, f.name, np.array(
            [getattr(seg, f.name) for seg in segments])[:, None])
    return out


class _LinearDOP853(ode.DOP853):
    """DOP853 for stacked *lanes* ``y_k = [Y_k flattened, log det_k]`` with
    ``Y_k' = B_k(s) Y_k`` and ``(log det_k)' = tr B_k(s)``: ``ode.DOP853``'s
    loop, with a lane per segment and an attempt for a linear system.

    ``fun`` is a tuple of evaluators ``ev(z, dz)`` (``_compiled_eval``) of
    connections of one rank, and lane ``k``'s connection is
    ``fun[owners[k]]``.  Lane ``k`` runs along ``segments[k]``, so that
    ``B_k(s)`` is ``A(z) dz`` at ``z, dz = segments[k].point_and_rate(s)``,
    and ``names[k]`` labels it in a failure message.  For a linear system
    the stages ``K_s = B_s (Y + h sum_j a_sj K_j)`` of an explicit
    Runge-Kutta step are the solution of one unit-lower-triangular block
    system (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4-5), so an
    attempted step is one evaluation at the nodes ``t + c_s h``, ``s = 1 ..
    11`` (``c_11 = 1`` also gives the FSAL stage), and one ``ztrtrs`` solve
    of size ``11 n``.

    A round computes, for its live lanes at once: the nodes, their points
    and rates, the evaluations, the block matrices, the right-hand sides,
    the stages and ``y_new``; every lane reads and writes its rows of the
    solver's state in place (``ode.DOP853``).  What is fixed for a set of
    live lanes is built by ``_set_live`` when the set changes: each run of
    consecutive lanes of one owner, which is one ``ev`` call a round (one
    call when the owners are in order), and the lanes' segments stacked
    (``_stacked``), whose ``point_and_rate`` gives every lane's points at
    once from columns derived once, straight to the evaluator; a run's
    segments are of one class (``transport`` makes a run per class of a
    leg).  The tableau rows ``B``, ``E3`` and ``E5`` are cast to complex
    once, for the complex products that read them.  These products stay as
    they are, because they set the bits each lane gets alone: ``Bs @ X``,
    one stacked 2x2 ``zgemm`` per stage; one ``ztrtrs`` solve per lane;
    ``E5 @ K`` and ``E3 @ K`` as two vector products; and the start's
    evaluations, one point (a vector product) at a time.  ``nfev`` counts
    what the nonlinear ``ode.DOP853`` counts: 2 evaluations per lane at
    the start and 12 per lane per attempted step.
    """

    # tableau slices of _attempt, and the rows of its complex products
    nodes = ode.C[1:]
    a0 = ode.A[1:, 0][:, None, None]
    B, E3, E5 = (ode.B.astype(complex), ode.E3.astype(complex),
                 ode.E5.astype(complex))

    def __init__(self, fun, t0, y0, t_bound, segments, names, owners, rtol,
                 atol):
        self.evs, self.owners = fun, owners
        self.segments, self.names = segments, names
        self.lanes = len(segments)
        n = self.dim = isqrt(len(y0) // self.lanes - 1)
        m = ode.N_STAGES - 1
        # -a_sj at [j, 0, s, :], a contiguous stage row per (j, s), for
        # _blocks; h * (-a) is (-h) * a to the bit
        self.neg_aT = np.ascontiguousarray(np.broadcast_to(
            (-ode.A[1:, 1:].T)[:, None, :, None], (m, 1, m, n)))
        super().__init__(fun, t0, y0, t_bound, rtol, atol)

    def _lane_rhs(self, k, s, y):
        self.nfev += 1
        ev = self.evs[self.owners[k]]
        out = ev(*self.segments[k].point_and_rate(s))
        n = self.dim
        out[:-1] = (out[:-1].reshape(n, n) @ y[:-1].reshape(n, n)).ravel()
        return out

    def _set_live(self, lanes):
        # the unfinished lanes, their runs of one owner (each evaluates its
        # rows of a round's points), and their segments stacked (a round's
        # points), none once no lane is live
        super()._set_live(lanes)
        self.runs = []
        for i, k in enumerate(self.live):
            if i and self.owners[k] == self.owners[self.live[i - 1]]:
                self.runs[-1][0] = slice(self.runs[-1][0].start, i + 1)
            else:
                self.runs.append([slice(i, i + 1), self.evs[self.owners[k]]])
        self.stacked = (_stacked([self.segments[k] for k in self.live])
                        if self.live else None)

    def _blocks(self, Bs, h):
        # every lane's block matrix, built transposed and C-ordered, so
        # that its transpose reaches LAPACK in Fortran order without a copy
        return np.multiply(
            h[:, None, None, None, None] * self.neg_aT,
            np.ascontiguousarray(Bs.transpose(0, 3, 1, 2))[:, None])

    def _attempt(self, y, t, h):
        # K_s - h sum_{1 <= j < s} a_sj B_s K_j = B_s (Y + h a_s0 K_0) for
        # every live lane
        n, m, P = self.dim, ode.N_STAGES - 1, len(y)
        s = t[:, None] + self.nodes * h[:, None]
        z, dz = self.stacked.point_and_rate(s)
        if len(self.runs) == 1:
            E = self.runs[0][1](z, dz)
        else:
            E = np.concatenate([ev(z[rows], dz[rows])
                                for rows, ev in self.runs])
        E = E.reshape(P, m, self.width)
        Bs = E[..., :-1].reshape(P, m, n, n)
        f = self.f[self.rows]
        Y = y[:, :-1].reshape(P, 1, n, n)
        K0 = f[:, :-1].reshape(P, 1, n, n)
        rhs = (Bs @ (Y + (h[:, None, None, None] * self.a0) * K0)
               ).reshape(P, m * n, n)
        T = self._blocks(Bs, h).reshape(P, m * n, m * n)
        K = np.empty((P, ode.N_STAGES + 1, self.width), dtype=complex)
        K[:, 0] = f
        K[:, 1:-1, -1] = E[..., -1]
        for T_i, rhs_i, K_i in zip(T, rhs, K[:, 1:-1, :-1]):
            X, _ = ztrtrs(T_i.T, rhs_i, 1, 0, 1)
            K_i[...] = X.reshape(m, n * n)
        y_new = y + h[:, None] * np.matmul(self.B, K[:, :-1])
        f_new = E[:, -1]
        f_new[:, :-1] = (Bs[:, -1] @ y_new[:, :-1].reshape(P, n, n)
                         ).reshape(P, n * n)
        K[:, -1] = f_new
        self.nfev += ode.N_STAGES * P
        return y_new, f_new, K


def _check_path(conn, path):
    """Refuse a path with a point that is not finite, or one that comes
    closer to a pole than its clearance (a NaN distance included)."""
    for seg in path.segments:
        for z in (seg.at(0.0), seg.at(1.0)):
            if not np.isfinite(z):
                raise PreconditionError(f"path point {z} of {seg} is not "
                                        "finite")
    if not path.clearance >= 2 * TAU_SEP:
        raise PreconditionError(
            f"path clearance {path.clearance} below the minimum {2 * TAU_SEP}")
    for p in conn.all_finite_poles():
        d = path.distance_to(p)
        if not d >= path.clearance:
            raise PreconditionError(
                f"path comes within {d:.3e} of the pole {p}; clearance is "
                f"{path.clearance:.3e}")


SAFETY = 1e-2   # controller margin so the local-error contract holds strictly


def transport(conn, path, tol=DEFAULT_TOL, with_logdet=False, Y0=None):
    """Fundamental-solution transport ``Y(end)`` with ``Y(start) = I``.

    Integrates ``dY/dz = A(z) Y`` along the path with local error at most
    ``tol`` (the embedded error controller is run a fixed safety margin
    below the requested bound); the log-determinant (integral of ``tr A``)
    rides along so callers can run the Liouville determinant check.

    When the last segment retraces the first (every keyhole does), the
    first leg is integrated once from the identity to ``L`` and the last
    leg is taken as ``L^-1``: the result is ``L^-1 (middle) L Y0``, and the
    log-determinant is the middle legs' integral.

    ``path`` may also be a sequence of paths; the result is then a list
    with one entry per path.  ``conn`` may also be a sequence of
    connections of one rank, the samples of a family, with ``path`` a
    sequence of path sequences, one per connection; the result is then a
    list of lists.  The ``j``-th legs of all paths are integrated
    together, one lane each of one ``_LinearDOP853`` run per segment class
    (lines, arcs), a lane evaluating its own connection, and every path
    gets the bits it gets alone.  A failure names the path, its segment
    and, with several connections, its sample.  A path point or ``Y0``
    that is not finite is refused with ``PreconditionError``.
    """
    many = isinstance(conn, (list, tuple))
    conns, groups = (list(conn), path) if many else ([conn], [path])
    paths = [[p] if isinstance(p, Path) else list(p) for p in groups]
    n = conns[0].n if conns else 0
    if any(c.n != n for c in conns):
        raise PreconditionError("connections of different ranks in one "
                                "transport")
    lanes = [(c, i, p) for c, ps in enumerate(paths)
             for i, p in enumerate(ps)]
    for c, _, p in lanes:
        _check_path(conns[c], p)
    eye = np.eye(n, dtype=complex)
    Y = eye if Y0 is None else np.array(Y0, dtype=complex)
    if not np.isfinite(Y).all():
        raise PreconditionError("start matrix Y0 is not finite")
    evs = tuple(_compiled_eval(c) for c in conns)
    rtol = max(SAFETY * tol, 1e-13)
    legs, retraced, ys = [], [], []
    for _, _, p in lanes:
        segs = p.segments
        retraced.append(len(segs) > 1 and segs[-1] == segs[0].reversed())
        legs.append(segs[:-1] if retraced[-1] else segs)
        ys.append(np.append(eye if retraced[-1] else Y, 0.0))
    Ls = [None] * len(lanes)
    for j in range(max(map(len, legs), default=0)):
        # a run per segment class of the leg, in order of first appearance
        classes = {}
        for q, segs in enumerate(legs):
            if j < len(segs):
                classes.setdefault(type(segs[j]), []).append(q)
        for live in classes.values():
            segs = [legs[q][j] for q in live]
            names = [(f"sample {lanes[q][0]}, " if len(conns) > 1 else "")
                     + f"path {lanes[q][1]}, {seg}"
                     for q, seg in zip(live, segs)]
            sol = solve_ivp(evs, (0.0, 1.0),
                            np.concatenate([ys[q] for q in live]),
                            method=_LinearDOP853, segments=segs, names=names,
                            owners=[lanes[q][0] for q in live],
                            rtol=rtol, atol=SAFETY * tol)
            if not sol.success:
                raise IntegrationAbort(f"transport failed on {sol.message}")
            for q, y in zip(live, sol.y.reshape(len(live), -1)):
                if j == 0 and retraced[q]:
                    Ls[q] = y[:-1].reshape(n, n)
                    y = np.append(Ls[q] @ Y, 0.0)
                ys[q] = y
    out = [[] for _ in conns]
    for (c, _, _), y, L in zip(lanes, ys, Ls):
        Yp, logdet = y[:-1].reshape(n, n), y[-1]
        if L is not None:
            Yp = np.linalg.solve(L, Yp)
        out[c].append((Yp, logdet) if with_logdet else Yp)
    if many:
        return out
    return out[0][0] if isinstance(path, Path) else out[0]


# ---------------------------------------------------------------------------
# monodromy representations
# ---------------------------------------------------------------------------

@dataclass
class MonodromyRep:
    """Ordered loops around the finite poles and their transport matrices.
    When the form is regular at infinity, ``product_defect`` and
    ``error_scale`` are ``product_check``'s of the matrices."""

    base_point: complex
    pole_points: list
    loops: list
    matrices: list
    product_defect: float | None = None
    tol: float = DEFAULT_TOL
    error_scale: float | None = None

    def matrix_for_pole(self, p):
        """The matrix of the loop around the pole ``near`` ``p``; a
        ``KeyError`` when no pole is."""
        q = near(complex(p), self.pole_points)
        if q is None:
            raise KeyError(f"no loop around {p}")
        return self.matrices[self.pole_points.index(q)]


def product_check(matrices, n):
    """``(defect, error_scale)`` of the ordered product ``M_l ... M_1`` of
    the ``n x n`` ``matrices`` ``(M_1, ..., M_l)``: ``defect = max|M_l
    ... M_1 - I|``, and ``error_scale = eps max(S)`` with ``S = sum_i |M_l
    ... M_{i+1}| |M_i| |M_{i-1} ... M_1|``, moduli taken entrywise.  To
    first order, rounding every entry once and forming the product in
    floating point move the product by a small multiple of
    ``error_scale`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3), so a defect far above it is the matrices' own.
    The prefix products are the product's, the suffix products one pass
    back."""
    prefixes = [np.eye(n, dtype=complex)]
    for M in matrices:
        prefixes.append(M @ prefixes[-1])
    defect = float(np.max(np.abs(prefixes[-1] - np.eye(n))))
    S, suffix = np.zeros((n, n)), np.eye(n, dtype=complex)
    for M, prefix in zip(reversed(matrices), reversed(prefixes[:-1])):
        S += np.abs(suffix) @ np.abs(M) @ np.abs(prefix)
        suffix = suffix @ M
    return defect, float(ode.EPS * S.max())


def loop_ordering(pole_points, z0):
    """Indices sorted by increasing argument of ``t - z0``, ties by modulus."""
    def key(i):
        v = pole_points[i] - z0
        return (np.angle(v), abs(v))
    return sorted(range(len(pole_points)), key=key)


def pole_near(z0, poles):
    """The first of the finite ``poles`` within ``2 TAU_SEP`` of the base
    point ``z0``, too close for a keyhole around it; None if there is none."""
    return next((p for p in poles if abs(z0 - p) <= 2 * TAU_SEP), None)


def min_separation(points):
    """The smallest distance between two of the ``points``; inf for fewer
    than two."""
    return min((abs(a - b) for i, a in enumerate(points)
                for b in points[i + 1:]), default=np.inf)


def auto_base_point(positions):
    """Deterministic base point below the pole cluster with clear rays;
    the origin when there are no poles."""
    pos = np.array(positions, dtype=complex)
    if pos.size == 0:
        return 0j
    c = pos.mean()
    spread = max(1.0, float(max(abs(pos - c))) * 2.0)
    min_sep = min_separation(pos) if len(pos) > 1 else spread

    s2 = np.sqrt(0.5)
    directions = (-1j, 1j, -1.0, 1.0,
                  s2 * (-1 - 1j), s2 * (1 - 1j), s2 * (-1 + 1j), s2 * (1 + 1j))
    for mult in (1.5, 2.5, 4.0, 6.0):
        for direction in directions:
            z0 = c + direction * mult * spread
            ok = all(abs(z0 - p) > 0.3 * spread for p in pos)
            for i, t in enumerate(pos):
                seg = LineSegment(z0, t)
                for j, q in enumerate(pos):
                    if j != i and seg.distance_to(q) < 0.2 * min_sep:
                        ok = False
            if ok:
                return z0
    raise PreconditionError("no clear base point found for this configuration")


def monodromy_reps(conns, z0, tol=DEFAULT_TOL):
    """``monodromy_rep`` of each of ``conns``, connections of one rank (the
    samples of a family), at one base point.  Every keyhole of every
    connection goes through one ``transport`` call, one ``solve_ivp`` run
    per leg, and each representation gets the bits it gets alone."""
    z0 = complex(z0)
    if not np.isfinite(z0):
        raise PreconditionError(f"base point {z0} is not finite")
    ordered, loops = [], []
    for conn in conns:
        poles = conn.all_finite_poles()
        p = pole_near(z0, poles)
        if p is not None:
            raise PreconditionError(f"base point {z0} too close to pole {p}")
        min_sep = min_separation(poles)
        clearance = 0.05 * min_sep if np.isfinite(min_sep) else \
            0.05 * min((abs(z0 - p) for p in poles), default=np.inf)
        ordered.append([])
        loops.append([])
        for i in loop_ordering(poles, z0):
            t = poles[i]
            others = [abs(t - poles[j]) for j in range(len(poles)) if j != i]
            nearest = min(others) if others else abs(z0 - t)
            radius = min(0.25 * nearest, 0.5 * abs(z0 - t))
            ordered[-1].append(t)
            loops[-1].append(Path.keyhole(z0, t, radius, clearance))
    reps = []
    for conn, poles, paths, mats in zip(conns, ordered, loops,
                                        transport(conns, loops, tol)):
        defect = scale = None
        if conn.is_regular_at_infinity():
            defect, scale = product_check(mats, conn.n)
        reps.append(MonodromyRep(z0, poles, paths, mats, defect, tol, scale))
    return reps


def monodromy_rep(conn, z0, tol=DEFAULT_TOL):
    """Keyhole monodromy generators around every finite pole: the
    one-connection case of ``monodromy_reps``.

    Loops are ordered by increasing argument from the base point; when the
    form is regular at infinity the ordered product ``M_l ... M_1`` is
    checked against the identity, and the defect and the product's error
    scale (``product_check``) are stored on the result.
    """
    return monodromy_reps([conn], z0, tol)[0]


def conjugacy_invariants(rep):
    """Flat list of conjugation invariants of the representation.

    Characteristic-polynomial coefficients of every loop matrix, then the
    traces of consecutive products ``M_i M_{i+1}``.
    """
    out = []
    for M in rep.matrices:
        out.extend(np.poly(M).astype(complex).tolist())
    for M1, M2 in zip(rep.matrices, rep.matrices[1:]):
        out.append(complex(np.trace(M1 @ M2)))
    return out


def conjugacy_residual(before, after):
    """Smallest singular value of the stacked Sylvester operator
    ``vec(X) -> (after_i X - X before_i)_i``, which vanishes when one ``X``
    conjugates the tuple ``before`` into ``after``, over the Frobenius norm
    ``(sum_i |before_i|^2 + |after_i|^2)^(1/2)``: blind to the matrices'
    scale.  0.0 for empty tuples."""
    if not len(before):
        return 0.0
    eye = np.eye(len(before[0]))
    K = np.concatenate([np.kron(eye, B) - np.kron(A.T, eye)
                        for A, B in zip(before, after)])
    scale = np.linalg.norm(np.concatenate([before, after]))
    return float(np.linalg.svd(K, compute_uv=False)[-1] / scale)
