"""Matrix divisors: pointwise twists of the trivial bundle.

A twist site is a polynomial matrix germ ``T(zeta)`` in the local coordinate
``zeta = z - p`` whose determinant is ``c zeta**mu``, vanishing at the site
alone; its image cuts a subsheaf of the trivial bundle.  The degree of the
divisor is the total vanishing order of the determinants.  Connections
transfer across the inclusion by the gauge formula ``A0 = T^-1 A1 T -
T^-1 dT``, which trades the twist for extra integer-residue poles with
identity monodromy; only this gauge reads a connection's rational matrix.
A divisor acts site by site: pushed across in order, pulled back from the
last.  A site has one inverse, ``adj T / (c zeta**mu)`` from the adjugate
it computes once, with its pole at the site by construction, so no root is
found: a rational matrix (``inverse_ratmat``) or its Laurent polynomial at
the site (``inverse_jet``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import Connection, _off_divisor, check_separated, near
from .errors import MalformedInputError, PreconditionError
from .ratfun import (
    TAU_DET,
    LaurentJet,
    RatMat,
    RatScalar,
    det_order,
    polymat_adjugate,
    polymat_det,
)


@dataclass(frozen=True)
class TwistSite:
    """One site: point ``p`` and polynomial germ ``T`` in ``zeta = z - p``.

    ``germ`` has shape ``(deg+1, n, n)``, ascending powers of ``zeta``.  Its
    determinant must be ``c zeta**mu`` (every other coefficient vanishing by
    ``det_order``'s rule), so it vanishes at the site alone.
    """

    point: complex
    germ: np.ndarray

    def __init__(self, point, germ):
        germ = np.asarray(germ, dtype=complex)
        if germ.ndim != 3 or germ.shape[1] != germ.shape[2]:
            raise MalformedInputError("germ must have shape (deg+1, n, n)")
        object.__setattr__(self, "point", complex(point))
        object.__setattr__(self, "germ", germ)
        d = self.det_poly()
        if np.all(np.abs(d) == 0):
            raise MalformedInputError("identically singular germ")
        mu = det_order(d)
        if np.any(np.abs(d[mu + 1:]) > TAU_DET * np.max(np.abs(d))):
            raise MalformedInputError(
                f"det of the germ at {self.point} is not c*zeta**{mu}: it "
                f"vanishes away from the site (coefficients {d.tolist()})")
        object.__setattr__(self, "_det_term", (d[mu], mu))
        object.__setattr__(self, "_adjugate", polymat_adjugate(germ))

    @property
    def n(self):
        return self.germ.shape[1]

    def det_poly(self):
        return polymat_det(self.germ)

    def vanishing_order(self):
        return self._det_term[1]

    def as_ratmat(self):
        """The germ as a global polynomial matrix in z."""
        return RatMat.from_poly_matrix(self.germ, center=self.point)

    def inverse_ratmat(self):
        """``T^-1`` as a rational matrix in z, ``adj T / (c zeta**mu)`` with
        ``det T = c zeta**mu``: its only pole is the site, and no root is
        found."""
        c, mu = self._det_term
        den = RatScalar(np.array([1.0 / c]), [(self.point, mu)] if mu else [])
        return RatMat.from_poly_matrix(self._adjugate,
                                       center=self.point) * den

    def inverse_jet(self, k_max):
        """Laurent jet of ``T^-1`` at the site, in ``zeta``, through order
        ``k_max``: ``adj T / (c zeta**mu)`` is a Laurent polynomial, so its
        coefficients are the adjugate's times ``1/c`` at orders ``-mu ..
        k_max``, padded with zeros."""
        c, mu = self._det_term
        out = np.zeros((k_max + mu + 1, self.n, self.n), dtype=complex)
        adj = self._adjugate[: len(out)]
        out[: len(adj)] = adj * (1.0 / c)
        return LaurentJet(0.0, -mu, out, 0)

    def right_multiply(self, F):
        """Site with germ ``T F`` for a polynomial (or constant) germ ``F``."""
        F = np.asarray(F, dtype=complex)
        if F.ndim == 2:
            F = F[None, :, :]
        out = np.zeros((self.germ.shape[0] + F.shape[0] - 1, self.n, self.n),
                       dtype=complex)
        for i in range(self.germ.shape[0]):
            for j in range(F.shape[0]):
                out[i + j] += self.germ[i] @ F[j]
        return TwistSite(self.point, out)


@dataclass(frozen=True)
class MatrixDivisor:
    """Finite collection of pairwise-separated twist sites."""

    sites: tuple

    def __init__(self, sites):
        sites = tuple(sites)
        check_separated([s.point for s in sites], "twist sites")
        object.__setattr__(self, "sites", sites)

    def points(self):
        return [s.point for s in self.sites]

    def check_rank(self, n):
        """Raise ``MalformedInputError`` unless every site has rank ``n``."""
        for s in self.sites:
            if s.n != n:
                raise MalformedInputError(
                    f"twists: the site at {s.point} has rank {s.n}, "
                    f"expected {n}")


def normal_form(p, params):
    """Canonical degree-one site from a position and hyperplane data.

    ``params = (T1, ..., Tn)``: the vanishing point is ``p + T1`` (the local
    coordinate is recentred so the determinant vanishes exactly at the site)
    and the germ there is the companion-style matrix with first row
    ``(zeta, -T2, ..., -Tn)`` over identity rows; its determinant is ``zeta``.
    """
    params = [complex(c) for c in params]
    n = len(params)
    germ = np.zeros((2, n, n), dtype=complex)
    for j in range(1, n):
        germ[0, 0, j] = -params[j]
        germ[0, j, j] = 1.0
    germ[1, 0, 0] = 1.0
    return TwistSite(p + params[0], germ)


def degree(divisor):
    """Total vanishing order of the site determinants (a first Chern drop)."""
    if isinstance(divisor, TwistSite):
        return divisor.vanishing_order()
    return sum(s.vanishing_order() for s in divisor.sites)


def _sites(divisor, n):
    """A site's or divisor's sites, rank-checked against ``n``."""
    if isinstance(divisor, TwistSite):
        divisor = MatrixDivisor((divisor,))
    divisor.check_rank(n)
    return divisor.sites


def push_connection(divisor, conn):
    """Transfer a connection across the inclusion into the ambient bundle.

    Across a site with germ ``T`` the ambient form is ``A0 = T^-1 A1 T -
    T^-1 dT``: the gauge of the fundamental-solution system ``dY = A Y``
    whose transition matrix carries ambient-frame coordinates to
    twisted-frame coordinates.  A divisor pushes across its sites in turn,
    in order, which is the gauge by the ordered product of their germs.
    New poles appear exactly at the twist points; since the solution is
    gauged by a single-valued rational matrix, the monodromy around them is
    the identity, and the sum of trace residues drops by ``deg T``.  The
    result's ``twist_points`` are the connection's own, then the new sites,
    so pushing across two divisors in turn is pushing across both at once.
    """
    sites = _sites(divisor, conn.n)
    _check_disjoint(sites, conn)
    for s in sites:
        T, Tinv = s.as_ratmat(), s.inverse_ratmat()
        A0 = (Tinv @ conn.matrix @ T) - (Tinv @ T.derivative())
        conn = Connection.from_ratmat(
            A0, twist_points=conn.twist_points + (s.point,),
            base_pole=conn.base_pole)
    return conn


def pull_connection(divisor, conn0):
    """Inverse transfer: ``A1 = T A0 T^-1 + dT T^-1`` across each site, from
    the last.  Each pulled site leaves the ``twist_points``, and the other
    twist points stay."""
    for s in reversed(_sites(divisor, conn0.n)):
        T, Tinv = s.as_ratmat(), s.inverse_ratmat()
        A1 = (T @ conn0.matrix @ Tinv) + (T.derivative() @ Tinv)
        conn0 = Connection.from_ratmat(
            A1, twist_points=tuple(p for p in conn0.twist_points
                                   if near(p, (s.point,)) is None),
            base_pole=conn0.base_pole)
    return conn0


def total_trace_residue(conn):
    """Sum of ``res tr`` over all finite poles of the connection form: of
    ``tr C_1`` over its ``polar_parts``."""
    return complex(sum(np.trace(Cs[0]) for _, Cs in conn.polar_parts[0]))


def _check_disjoint(sites, conn):
    """Raise ``PreconditionError`` if a site is ``near`` a point of the
    connection's polar divisor, one of its twist points or its finite base
    point."""
    for s in sites:
        if near(s.point, conn.divisor.points) is not None:
            raise PreconditionError(
                f"twist site {s.point} overlaps the polar divisor")
        t = near(s.point, conn.twist_points)
        if t is not None:
            raise PreconditionError(
                f"twist site {s.point} overlaps the twist point {t}")
        if near(s.point, _off_divisor((), conn.base_pole)) is not None:
            raise PreconditionError("twist site overlaps the base pole")
