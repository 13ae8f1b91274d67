"""Meromorphic connections on the trivial rank-n bundle over the sphere.

A connection is stored as the rational matrix-valued 1-form ``A = nabla - d``
in the frame that is flat for the trivial reference connection; the ODE it
defines is ``dY/dz = A(z) Y`` and the monodromy of a loop is realized by the
transport of that system.  With this convention a simple pole with residue
``R`` has local monodromy conjugate to ``exp(2 pi i R)``.

Poles come in three flavours: the polar divisor ``D`` (the honest
singularities, order ``l_i`` at ``t_i``), twist points ``E`` contributed by
matrix-divisor transfers (identity monodromy), and an optional normalizing
pole carrying the scalar residue ``(k/n) I`` that a nonzero-degree bundle
forces (monodromy ``exp(2 pi i k / n) I``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MalformedInputError, PoleDomainError, RegularityError
from .ratfun import (
    INFINITY,
    LaurentJet,
    RatMat,
    is_infinity,
)

TAU_SEP = 1e-6     # minimum pole separation / evaluation clearance
TAU_REG = 1e-8     # eigenvalue gap below which a leading term is non-regular


@dataclass(frozen=True)
class PolarDivisor:
    """Positive divisor ``sum l_i t_i`` with multiplicities stored non-increasing."""

    points: tuple
    mults: tuple

    def __init__(self, points, mults):
        pts = [complex(p) for p in points]
        ms = [int(m) for m in mults]
        if len(pts) != len(ms) or any(m <= 0 for m in ms):
            raise MalformedInputError("divisor needs one positive multiplicity per point")
        order = sorted(range(len(pts)),
                       key=lambda i: (-ms[i], pts[i].real, pts[i].imag))
        pts = [pts[i] for i in order]
        ms = [ms[i] for i in order]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if abs(pts[i] - pts[j]) <= TAU_SEP:
                    raise MalformedInputError(
                        f"divisor points {pts[i]} and {pts[j]} closer than {TAU_SEP}")
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "mults", tuple(ms))

    def __len__(self):
        return len(self.points)

    def mult_at(self, p):
        for t, l in zip(self.points, self.mults):
            if abs(t - complex(p)) <= TAU_SEP:
                return l
        return 0


@dataclass(frozen=True)
class BasePole:
    """Fixed normalizing pole for nonzero-degree bundles.

    ``point`` defaults to infinity; the residue in the ``dY = A Y``
    convention is ``(k/n) I``, giving monodromy ``exp(2 pi i k/n) I``.
    """

    k: int
    point: complex = INFINITY


@dataclass(frozen=True)
class Connection:
    """Rational 1-form ``A = nabla - d`` plus its polar bookkeeping."""

    n: int
    matrix: RatMat
    divisor: PolarDivisor
    twist_points: tuple = ()
    base_pole: BasePole | None = None

    @classmethod
    def from_polar_parts(cls, pole_data, n=None, tail=None,
                         twist_points=(), base_pole=None):
        """Build from ``[(t_i, [C_1, ..., C_l])]``, ``C_k / (z-t_i)**k`` terms.

        ``tail`` is an optional polynomial matrix (list of constant matrices,
        ascending powers of z).
        """
        pole_data = [(complex(t), [np.asarray(C, dtype=complex) for C in Cs])
                     for t, Cs in pole_data]
        if n is None:
            n = pole_data[0][1][0].shape[0] if pole_data else \
                (np.asarray(tail[0]).shape[0] if tail else 1)
        A = RatMat.zero(n)
        points, mults = [], []
        for t, Cs in pole_data:
            A = A + RatMat.from_polar_part(t, Cs)
            points.append(t)
            mults.append(len(Cs))
        if tail is not None:
            coeffs = np.stack([np.asarray(M, dtype=complex) for M in tail])
            A = A + RatMat.from_poly_matrix(coeffs)
        return cls(n, A, PolarDivisor(points, mults),
                   tuple(twist_points), base_pole)

    @classmethod
    def from_ratmat(cls, A, twist_points=(), base_pole=None):
        """Wrap a rational matrix, detecting the finite polar divisor.

        Detected poles at declared twist points (or the base point) are kept
        out of the divisor.
        """
        special = [complex(p) for p in twist_points]
        if base_pole is not None and not is_infinity(base_pole.point):
            special.append(complex(base_pole.point))
        points, mults = [], []
        for p in A.pole_points():
            if any(abs(p - q) <= TAU_SEP for q in special):
                continue
            points.append(p)
            mults.append(A.pole_order(p))
        return cls(A.n, A, PolarDivisor(points, mults),
                   tuple(twist_points), base_pole)

    def __post_init__(self):
        if self.matrix.n != self.n:
            raise MalformedInputError("matrix size does not match rank")
        allowed = list(self.divisor.points) + [complex(p) for p in self.twist_points]
        if self.base_pole is not None and not is_infinity(self.base_pole.point):
            allowed.append(complex(self.base_pole.point))
        for p in self.matrix.pole_points():
            if not any(abs(p - q) <= TAU_SEP for q in allowed):
                raise MalformedInputError(
                    f"connection matrix has a pole at {p} outside D, E and the "
                    f"base point")
        # the divisor must cover the actual polar structure; the actual order
        # may drop below the declared one when leading coefficients vanish
        # (zero residues, degenerate states along flows)
        for t, l in zip(self.divisor.points, self.divisor.mults):
            got = self.matrix.pole_order(t)
            if got > l:
                raise MalformedInputError(
                    f"pole order {got} at {t} exceeds divisor entry {l}")

    # -- evaluation -----------------------------------------------------------

    def all_finite_poles(self):
        pts = list(self.divisor.points) + [complex(p) for p in self.twist_points]
        if self.base_pole is not None and not is_infinity(self.base_pole.point):
            pts.append(complex(self.base_pole.point))
        return pts

    def eval(self, z):
        """Value of the dz coefficient at a regular point."""
        z = complex(z)
        for p in self.all_finite_poles():
            if abs(z - p) <= TAU_SEP:
                raise PoleDomainError(f"evaluation at {z} is within {TAU_SEP} "
                                      f"of the pole {p}")
        return self.matrix.eval(z)

    @cached_property
    def polar_parts(self):
        """``polar_decompose(self.matrix)``, computed once per connection."""
        return polar_decompose(self.matrix)

    def laurent(self, p, k_max):
        return self.matrix.laurent(p, k_max)

    def residue_matrix(self, p):
        return self.matrix.residue(p)

    def is_regular_at_infinity(self, tol=1e-11):
        """True when the form extends holomorphically to infinity."""
        from .ratfun import form_at_infinity
        w_form = form_at_infinity(self.matrix)
        return all(e.pole_order(0.0) == 0 or
                   np.max(np.abs(e.laurent(0.0, -1).coeffs)) < tol
                   for row in w_form.entries for e in row)


def polar_decompose(A):
    """Split a rational matrix into polar parts and a polynomial tail.

    Returns ``(pole_data, tail)`` with ``pole_data = [(t, [C_1, ..., C_l])]``
    (``C_k`` the coefficient of ``(z-t)**-k``) and ``tail`` an array of shape
    ``(deg+1, n, n)`` (empty when the tail vanishes).
    """
    n = A.n
    pole_data = []
    for p in A.pole_points():
        l = A.pole_order(p)
        jet = A.laurent(p, -1)
        coeffs = [np.array(jet.coefficient(-k)) for k in range(1, l + 1)]
        pole_data.append((p, coeffs))
    polys = [[e.partial_fractions()[1] for e in row] for row in A.entries]
    deg = max(p.size for row in polys for p in row)
    tail = np.zeros((deg, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            tail[: polys[i][j].size, i, j] = polys[i][j]
    if np.all(tail == 0):
        tail = np.zeros((0, n, n), dtype=complex)
    return pole_data, tail


def extension_jet(C, k, dist, m_max):
    """Taylor coefficients at orders 0..m_max of ``C/(zeta+dist)**k``: the
    polar term ``C/(z-t)**k`` seen from a point at ``dist`` from ``t``."""
    out = np.zeros((m_max + 1,) + np.shape(C), dtype=complex)
    for m in range(m_max + 1):
        out[m] = C * ((-1) ** m * math.comb(k + m - 1, m)
                      * dist ** (-(k + m)))
    return out


def gauge_transform(conn, g):
    """Act by the bundle map ``g``: ``A -> -dg g^-1 + g A g^-1``.

    ``g`` may be any generically invertible rational matrix; zeros of
    ``det g`` enter the pole set of the result.
    """
    if isinstance(g, np.ndarray):
        g = RatMat.from_constant(g)
    ginv = g.inverse()  # raises on identically singular g
    new = (-(g.derivative() @ ginv)) + (g @ conn.matrix @ ginv)
    return Connection.from_ratmat(new, base_pole=conn.base_pole)


def spectral_quadratic(conn):
    """The scalar ``q = tr(A^2)`` of the spectral quadratic differential
    ``q dz^2``, as a ``RatScalar``.

    Its poles are bounded by twice the divisor plus twice the twist locus.
    """
    return (conn.matrix @ conn.matrix).trace()


# ---------------------------------------------------------------------------
# formal diagonalization at a pole
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalJetPair:
    """Holomorphic frame jet ``Z`` and diagonal 1-form jet ``B`` with
    ``A = dZ Z^-1 + Z B Z^-1`` through the requested truncation.

    ``dB`` holds the diagonals of ``B``'s tangents along the jet variations
    ``diagonalize_jet`` was given, shape ``(dim, orders, n)``; else None.
    """

    Z: LaurentJet
    B: LaurentJet
    dB: np.ndarray | None = None

    @property
    def b_diag(self):
        """Diagonal entries of B as an array of shape (orders, n)."""
        return np.einsum("kii->ki", self.B.coeffs).copy()


def _sorted_eig(M):
    """Eigen-decomposition with the deterministic (re, im) lexicographic order."""
    w, V = np.linalg.eig(M)
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    V = V[:, order]
    # fix column scale: largest-modulus entry equal to 1
    for j in range(V.shape[1]):
        k = np.argmax(np.abs(V[:, j]))
        V[:, j] = V[:, j] / V[k, j]
    return w, V


def _check_regular(w, scale):
    n = len(w)
    for a in range(n):
        for b in range(a + 1, n):
            if abs(w[a] - w[b]) <= TAU_REG * scale:
                raise RegularityError(
                    f"leading eigenvalues {w[a]} and {w[b]} closer than "
                    f"{TAU_REG} * {scale}")


def diagonalize_jet(Ajet, order, include_derivative=True, dA=None):
    """Order-by-order diagonalization of a matrix 1-form jet.

    With the derivative term this produces the gauge normal form
    ``A = dZ Z^-1 + Z B Z^-1``; without it, ``B`` holds the pointwise
    eigenvalue jets of the matrix (similarity only).

    ``dA`` of shape ``(dim, K, n, n)``, aligned with ``Ajet.coeffs``, stacks
    ``dim`` variations of the jet; their tangents ride through the same
    recursion by the product rule and come back as the pair's ``dB``.  The
    leading eigenframe moves by ``V X`` with ``X_ab = (V^-1 dA_-l V)_ab /
    (w_b - w_a)`` off the diagonal, so ``d(V^-1 A_i V) = V^-1 dA_i V +
    [V^-1 A_i V, X]``.  ``X`` has zero diagonal: ``B`` does not change under
    diagonal rescaling of ``V``, so the column normalization needs no
    derivative.
    """
    k_min = Ajet.k_min
    Ajet = Ajet.drop_leading_zeros()
    l = -Ajet.k_min
    n = Ajet.n
    lead = Ajet.coefficient(-l)
    scale = max(1.0, float(np.max(np.abs(lead))))
    w, V = _sorted_eig(lead)
    _check_regular(w, scale)
    Vinv = np.linalg.inv(V)

    def acoef(i):
        if i > Ajet.k_max:
            raise MalformedInputError(
                f"need A through order {i} for this truncation; jet stops at "
                f"{Ajet.k_max}")
        return Vinv @ Ajet.coefficient(i) @ V

    D = np.diag(np.diag(acoef(-l)))
    d = np.diag(D)
    U = [np.eye(n, dtype=complex)]
    B = [D]
    fuchsian = (l == 1) and include_derivative
    if dA is not None:
        # tangents of every acoef(i), row i + l
        At = Vinv @ Ajet.coeffs @ V
        dAt = Vinv @ np.asarray(dA)[:, Ajet.k_min - k_min:] @ V
        offdiag = ~np.eye(n, dtype=bool)
        gap = np.where(offdiag, w[None, :] - w[:, None], 1.0)
        X = np.where(offdiag, dAt[:, 0] / gap, 0.0)[:, None]
        dAt = dAt + At @ X - X @ At
        dd = np.einsum("xaa->xa", dAt[:, 0])
        dU = [np.zeros((dA.shape[0], n, n), dtype=complex)]
        dBs = [dAt[:, 0] * np.eye(n)]
    for k in range(1, order + 1):
        m = -l + k
        rhs = np.zeros((n, n), dtype=complex)
        for j in range(0, k):
            rhs -= acoef(m - j) @ U[j]
        if include_derivative and 1 <= m + 1 < k:
            rhs += (m + 1) * U[m + 1]
        for i in range(1, k):
            rhs += U[i] @ B[m - i + l]
        Uk = np.zeros((n, n), dtype=complex)
        rhs_scale = max(scale, float(np.max(np.abs(rhs))))
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                denom = d[a] - d[b] - (k if fuchsian else 0.0)
                if abs(denom) <= TAU_REG * scale:
                    # a resonance only obstructs when it must cancel something
                    if abs(rhs[a, b]) <= 1e-10 * rhs_scale:
                        continue
                    raise RegularityError(
                        f"resonant or clustered spectrum: divisor {denom} at "
                        f"order {k}")
                Uk[a, b] = rhs[a, b] / denom
        U.append(Uk)
        B.append(-np.diag(np.diag(rhs)))
        if dA is not None:
            drhs = np.zeros_like(dU[0])
            for j in range(0, k):
                drhs -= dAt[:, m - j + l] @ U[j] + At[m - j + l] @ dU[j]
            if include_derivative and 1 <= m + 1 < k:
                drhs += (m + 1) * dU[m + 1]
            for i in range(1, k):
                drhs += dU[i] @ B[k - i] + U[i] @ dBs[k - i]
            # Uk = rhs / denom entrywise, and denom moves with dd_a - dd_b
            denom = d[:, None] - d[None, :] - (k if fuchsian else 0.0)
            solved = offdiag & (np.abs(denom) > TAU_REG * scale)
            dd_ab = dd[:, :, None] - dd[:, None, :]
            dU.append(np.where(solved, (drhs - Uk * dd_ab)
                               / np.where(solved, denom, 1.0), 0.0))
            dBs.append(-drhs * np.eye(n))

    Zc = np.stack([V @ u for u in U])
    Z = LaurentJet(Ajet.point, 0, Zc, 0)
    Bjet = LaurentJet(Ajet.point, -l, np.stack(B), 1)
    dB = None if dA is None else np.einsum("kxaa->xka", np.stack(dBs))
    return DiagonalJetPair(Z, Bjet, dB)


def formal_diagonalize(conn, p, order):
    """Diagonalize ``A`` at the pole ``p`` through the given truncation order.

    The leading coefficient must be regular (distinct eigenvalues, gap above
    ``TAU_REG``); the eigenvalue branches are ordered lexicographically by
    (re, im) of the leading eigenvalues.  The defect
    ``A - (dZ Z^-1 + Z B Z^-1)`` vanishes through Laurent order
    ``order - l``.
    """
    l = max(1, conn.matrix.pole_order(p))
    jet = conn.laurent(p, order - l)
    return diagonalize_jet(jet, order, include_derivative=True)


def eigenvalue_jets(conn, p, order):
    """Pointwise eigenvalue jets of ``A(z)`` at ``p`` (similarity only)."""
    l = max(1, conn.matrix.pole_order(p))
    jet = conn.laurent(p, order - l)
    pair = diagonalize_jet(jet, order, include_derivative=False)
    return pair.b_diag


def reconstruction_defect(conn, p, pair, order):
    """Laurent coefficients of ``A - (dZ Z^-1 + Z B Z^-1)`` through order-l."""
    l = -pair.B.k_min
    Z = pair.Z
    Zinv = Z.inverse()
    dZ = Z.derivative(as_form=True)
    model = dZ * Zinv + Z * pair.B * Zinv
    Ajet = conn.laurent(p, order - l)
    out = []
    for k in range(-l, order - l + 1):
        out.append(Ajet.coefficient(k) - model.coefficient(k))
    return np.stack(out)
