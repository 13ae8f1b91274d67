"""Test-only references: slow or roundabout routes to quantities the library
computes another way, kept out of ``src/`` because no library code calls
them."""

import numpy as np

from isomonodromy.connection import TAU_SEP
from isomonodromy.monodromy import LineSegment
from isomonodromy.ratfun import RatMat, RatScalar


def form_at_infinity(f):
    """w-chart dw coefficient of the 1-form ``f dz``: ``-f(1/w)/w**2``."""
    if isinstance(f, RatMat):
        return RatMat([[form_at_infinity(e) for e in row] for row in f.entries])
    g = f.at_infinity() * (-1.0)
    return g * RatScalar(np.array([1.0 + 0j]), [(0.0 + 0j, 2)])


def regular_at_infinity_by_chart(conn, tol=1e-11):
    """``Connection.is_regular_at_infinity`` the long way: rebuild the form
    in the chart at infinity and require every polar coefficient at
    ``w = 0`` below ``tol``."""
    w_form = form_at_infinity(conn.matrix)
    return all(e.pole_order(0.0) == 0 or
               np.max(np.abs(e.laurent(0.0, -1).coeffs)) < tol
               for row in w_form.entries for e in row)


def from_partial_fractions(terms, poly=None):
    """The ``RatScalar`` with polar terms ``(pole, order, coefficient)`` and
    polynomial part ``poly``: the inverse of ``RatScalar.partial_fractions``."""
    out = RatScalar(poly if poly is not None else np.zeros(1, dtype=complex))
    for p, order, c in terms:
        out = out + RatScalar.simple_pole(p, c, order)
    return out


def mult_at(divisor, p):
    """Multiplicity of the polar divisor at ``p`` (0 off its support)."""
    for t, l in zip(divisor.points, divisor.mults):
        if abs(t - complex(p)) <= TAU_SEP:
            return l
    return 0


def velocity(seg, s):
    """Derivative in ``s`` of ``seg.at(s)`` for a line or arc segment, each
    factor written out: the reference for ``point_and_rate``."""
    if isinstance(seg, LineSegment):
        return seg.end - seg.start
    th = seg.theta0 + s * (seg.theta1 - seg.theta0)
    return 1j * (seg.theta1 - seg.theta0) * seg.radius * np.exp(1j * th)
