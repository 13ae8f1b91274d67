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

Polar data is read as ``polar_parts`` or ``divisor_polar_parts`` (padded to
the divisor's orders); only the twist gauge multiplies the matrix.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import MalformedInputError, PoleDomainError, RegularityError
from .ratfun import (
    INFINITY,
    LaurentJet,
    RatMat,
    _sum,
    is_infinity,
)

TAU_SEP = 1e-6     # minimum pole separation / evaluation clearance
TAU_REG = 1e-8     # eigenvalue gap below which a leading term is non-regular
TAU_INF = 1e-11    # residue sum and tail below this: regular at infinity


def near(z, points):
    """The first of ``points`` within ``TAU_SEP`` of ``z``, or None: the one
    proximity rule for poles, twist points and a finite base point."""
    return next((p for p in points if abs(z - p) <= TAU_SEP), None)


def check_separated(points, what):
    """Raise ``MalformedInputError`` unless no two of the ``points`` are
    ``near``: the one separation rule for poles and twist sites."""
    for i, z in enumerate(points):
        q = near(z, points[i + 1:])
        if q is not None:
            raise MalformedInputError(
                f"{what} {z} and {q} closer than {TAU_SEP}")


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
        check_separated(pts, "divisor points")
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "mults", tuple(ms))


@dataclass(frozen=True)
class BasePole:
    """Fixed normalizing pole for nonzero-degree bundles.

    ``point`` defaults to infinity.  No residue is stored: the point is kept
    out of the polar divisor and carried through gauge and twist maps, and
    at a finite point the matrix must carry the residue ``(k/n) I`` (in the
    ``dY = A Y`` convention), giving monodromy ``exp(2 pi i k/n) I``.
    """

    k: int
    point: complex = INFINITY


def _off_divisor(twist_points, base_pole):
    """The twist points and a finite base point: the finite poles that stay
    out of the polar divisor."""
    pts = [complex(p) for p in twist_points]
    if base_pole is not None and not is_infinity(base_pole.point):
        pts.append(complex(base_pole.point))
    return pts


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
        ascending powers of z).  Poles at declared twist points (or the base
        point) are kept out of the divisor.
        """
        pole_data = [(complex(t), [np.asarray(C, dtype=complex) for C in Cs])
                     for t, Cs in pole_data]
        if n is None:
            n = pole_data[0][1][0].shape[0] if pole_data else \
                (np.asarray(tail[0]).shape[0] if tail else 1)
        terms = [RatMat.from_polar_part(t, Cs) for t, Cs in pole_data]
        if tail is not None:
            terms.append(RatMat.from_poly_matrix(
                np.stack([np.asarray(M, dtype=complex) for M in tail])))
        A = _sum(terms, lambda: RatMat.zero(n))
        off = _off_divisor(twist_points, base_pole)
        kept = [(t, len(Cs)) for t, Cs in pole_data if near(t, off) is None]
        divisor = PolarDivisor([t for t, _ in kept], [l for _, l in kept])
        return cls(n, A, divisor, tuple(twist_points), base_pole)

    @classmethod
    def from_ratmat(cls, A, twist_points=(), base_pole=None):
        """Wrap a rational matrix, detecting the finite polar divisor.

        Detected poles at declared twist points (or the base point) are kept
        out of the divisor.
        """
        off = _off_divisor(twist_points, base_pole)
        points = [p for p in A.pole_points() if near(p, off) is None]
        return cls(A.n, A, PolarDivisor(points, map(A.pole_order, points)),
                   tuple(twist_points), base_pole)

    def __post_init__(self):
        if self.matrix.n != self.n:
            raise MalformedInputError("matrix size does not match rank")
        allowed = self.all_finite_poles()
        for p in self.matrix.pole_points():
            if near(p, allowed) is None:
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
        return list(self.divisor.points) + _off_divisor(self.twist_points,
                                                        self.base_pole)

    def eval(self, z):
        """Value of the dz coefficient at a regular point."""
        z = complex(z)
        p = near(z, self.all_finite_poles())
        if p is not None:
            raise PoleDomainError(f"evaluation at {z} is within {TAU_SEP} "
                                  f"of the pole {p}")
        return self.matrix.eval(z)

    @cached_property
    def polar_parts(self):
        """``polar_decompose(self.matrix)``, computed once per connection."""
        return polar_decompose(self.matrix)

    @cached_property
    def divisor_polar_parts(self):
        """``[(t_i, [C_1, ..., C_l_i])]`` at the divisor's points, in its
        order: ``polar_parts`` there, padded with zeros to the declared order
        ``l_i``, since a leading coefficient or a residue may vanish."""
        found = {near(p, self.divisor.points): Cs
                 for p, Cs in self.polar_parts[0]}
        zero = np.zeros((self.n, self.n), dtype=complex)
        return [(t, (found.get(t, []) + [zero] * l)[:l])
                for t, l in zip(self.divisor.points, self.divisor.mults)]

    def is_regular_at_infinity(self):
        """True when the form extends holomorphically to infinity.

        At ``w = 1/z`` the form is ``-A(1/w) dw / w**2``, whose polar part
        is minus the residue sum over ``w`` and the tail's coefficients over
        higher powers of ``w``; both must vanish within ``TAU_INF``.
        """
        pole_data, tail = self.polar_parts
        res = _sum((Cs[0] for _, Cs in pole_data),
                   lambda: np.zeros((self.n, self.n), dtype=complex))
        return bool(np.max(np.abs(res)) < TAU_INF
                    and np.all(np.abs(tail) < TAU_INF))


def polar_decompose(A):
    """Split a rational matrix into polar parts and a polynomial tail.

    Returns ``(pole_data, tail)`` with ``pole_data = [(t, [C_1, ..., C_l])]``
    (``C_k`` the coefficient of ``(z-t)**-k``) and ``tail`` an array of shape
    ``(deg+1, n, n)`` (empty when the tail vanishes).
    """
    n = A.n
    pole_data = []
    for p in A.pole_points():
        jet = A.laurent(p, -1)   # starts at the pole's order, -k_min
        coeffs = [np.array(jet.coefficient(-k))
                  for k in range(1, 1 - jet.k_min)]
        pole_data.append((p, coeffs))
    polys = [[e.polynomial_part() for e in row] for row in A.entries]
    deg = max(p.size for row in polys for p in row)
    tail = np.zeros((deg, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            tail[: polys[i][j].size, i, j] = polys[i][j]
    if np.all(tail == 0):
        tail = np.zeros((0, n, n), dtype=complex)
    return pole_data, tail


@cache
def _signed_binomials(L, M):
    k, m = np.ogrid[1: L + 1, :M]
    comb = np.frompyfunc(math.comb, 2, 1)(k + m - 1, m).astype(float)
    return (-1.0) ** m * comb, -(k + m)


def extension_weights(dists, L, M):
    """The table ``w[..., k-1, m] = (-1)**m C(k+m-1, m) dist**-(k+m)``, for
    ``k = 1 .. L`` and ``m = 0 .. M-1``, at every entry of ``dists``: the
    polar term ``C/(z-t)**k`` has the Taylor coefficients ``C * w[..., k-1,
    :]`` at a distance ``dist`` from ``t``.  The signed binomials are cached
    per ``(L, M)``."""
    signs, powers = _signed_binomials(L, M)
    return signs * np.asarray(dists, dtype=complex)[..., None, None] ** powers


# ---------------------------------------------------------------------------
# formal diagonalization at a pole
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalJetPair:
    """Holomorphic frame jet ``Z`` and diagonal 1-form jet ``B`` with
    ``A = dZ Z^-1 + Z B Z^-1`` through the requested truncation.  ``Z`` is
    built from ``frame`` (the jet's point, the leading eigenframe ``V`` and
    the recursion's gauge coefficients ``U``, ``Z_k = V U_k``) when it is
    first read.

    ``pullback(B_weight)`` is the reverse-mode differential: ``B_weight`` of
    shape ``(..., orders, n)`` weights the diagonals of ``B``'s rows, and
    the result is the differential of ``sum B_weight * diag(B)`` as a weight
    on the jet, shaped like the jet's coefficients after the same leading
    axes: its value on a variation ``dA`` is ``sum_K tr(A_weight[K]
    dA[K])``.  Each slice of a stacked weight gets the bits of its own
    pullback.
    """

    B: LaurentJet
    pullback: Callable = field(repr=False, compare=False)
    frame: tuple = field(repr=False, compare=False)

    @cached_property
    def Z(self):
        point, V, U = self.frame
        return LaurentJet(point, 0, np.stack([V @ u for u in U]), 0)

    @property
    def b_diag(self):
        """Diagonal entries of B as an array of shape (orders, n)."""
        return np.einsum("kii->ki", self.B.coeffs).copy()


def branch_order(w):
    """The canonical order of eigenvalue branches: indices sorting ``w``
    lexicographically by ``(re, im)``."""
    return np.lexsort((w.imag, w.real))


def _sorted_eig(M):
    """Eigen-decomposition with the eigenvalues in ``branch_order``."""
    w, V = np.linalg.eig(M)
    order = branch_order(w)
    w = w[order]
    V = V[:, order]
    # fix column scale: largest-modulus entry equal to 1
    for j in range(V.shape[1]):
        k = np.argmax(np.abs(V[:, j]))
        V[:, j] = V[:, j] / V[k, j]
    return w, V


def check_regular(w, scale):
    """Raise ``RegularityError`` unless the leading eigenvalues ``w`` are
    pairwise more than ``TAU_REG * scale`` apart: the one regularity rule
    for leading terms."""
    n = len(w)
    for a in range(n):
        for b in range(a + 1, n):
            if abs(w[a] - w[b]) <= TAU_REG * scale:
                raise RegularityError(
                    f"leading eigenvalues {w[a]} and {w[b]} closer than "
                    f"{TAU_REG} * {scale}")


def _diagonal_part(M):
    """``np.diag(np.diag(M))`` of a square matrix ``M``, in fewer calls."""
    out = np.zeros(M.shape, dtype=M.dtype)
    out.reshape(-1)[:: M.shape[0] + 1] = M.diagonal()
    return out


def diagonalize_jet(Ajet, order):
    """Order-by-order diagonalization of a matrix 1-form jet to the gauge
    normal form ``A = dZ Z^-1 + Z B Z^-1``.

    The pair's ``pullback`` runs the recursion's tangent transposed over
    the value pass's stored orders: the orders backwards, then the
    eigenframe step ``X``, then the ``V^-1 . V`` conjugation; one sweep for
    all the weights stacked on its leading axes, whatever the number of
    variations.  The leading eigenframe
    moves by ``V X`` with ``X_ab = (V^-1 dA_-l V)_ab / (w_b - w_a)`` off the
    diagonal, so ``d(V^-1 A_i V) = V^-1 dA_i V + [V^-1 A_i V, X]``.  ``X``
    has zero diagonal: ``B`` does not change under diagonal rescaling of
    ``V``, so the column normalization needs no derivative.  The forward
    tangent pass it transposes is the reference of ``tests/oracles.py``.
    """
    k_min, K = Ajet.k_min, Ajet.coeffs.shape[0]
    Ajet = Ajet.drop_leading_zeros()
    l = -Ajet.k_min
    n = Ajet.n
    lead = Ajet.coefficient(-l)
    scale = max(1.0, float(np.abs(lead).max()))
    w, V = _sorted_eig(lead)
    check_regular(w, scale)
    Vinv = np.linalg.inv(V)
    # every coefficient conjugated once, one gemm per slice: the value pass
    # reads its orders, the pullback all of them; row i + l is order i
    At = Vinv @ Ajet.coeffs @ V

    def acoef(i):
        if i > Ajet.k_max:
            raise MalformedInputError(
                f"need A through order {i} for this truncation; jet "
                f"stops at {Ajet.k_max}")
        return At[i + l]

    D = _diagonal_part(acoef(-l))
    d = D.diagonal()
    U = [np.eye(n, dtype=complex)]
    B = [D]
    offdiag = ~np.eye(n, dtype=bool)
    divisors = []
    for k in range(1, order + 1):
        m = -l + k
        rhs = np.zeros((n, n), dtype=complex)
        for j in range(0, k):
            rhs -= acoef(m - j) @ U[j]
        if 1 <= m + 1 < k:
            rhs += (m + 1) * U[m + 1]
        for i in range(1, k):
            rhs += U[i] @ B[m - i + l]
        # one divisor matrix and one mask for the value pass and the
        # pullback: np.hypot is the scalar abs bit for bit, and ~(<=) counts
        # a NaN divisor as solved
        denom = d[:, None] - d[None, :] - (k if l == 1 else 0.0)
        solved = offdiag & ~(np.hypot(denom.real, denom.imag)
                             <= TAU_REG * scale)
        # a resonance only obstructs when it must cancel something
        rhs_scale = max(scale, float(np.abs(rhs).max()))
        blocked = offdiag & ~solved & ~(
            np.hypot(rhs.real, rhs.imag) <= 1e-10 * rhs_scale)
        if blocked.any():
            raise RegularityError(
                f"resonant or clustered spectrum: divisor "
                f"{denom[tuple(np.argwhere(blocked)[0])]} at order {k}")
        denom = np.where(solved, denom, 1.0)
        divisors.append((solved, denom))
        U.append(np.where(solved, rhs / denom, 0.0))
        B.append(-_diagonal_part(rhs))

    def pullback(B_weight):
        # the bar of each tangent variable Y pairs with it by the trace, the
        # differential being sum tr(bar_Y dY); bar_B holds diagonals; the
        # weights' leading axes ride along in front of every bar
        gap = np.where(offdiag, w[None, :] - w[:, None], 1.0)
        bar_B = np.array(B_weight, dtype=complex)
        lead = bar_B.shape[:-2]
        bar_U = np.zeros((*lead, order + 1, n, n), dtype=complex)
        bar_At = np.zeros((*lead, *At.shape), dtype=complex)
        bar_d = np.zeros((*lead, n), dtype=complex)
        for k in range(order, 0, -1):
            m = -l + k
            solved, denom = divisors[k - 1]
            Q = np.where(solved, bar_U[..., k, :, :].swapaxes(-1, -2) / denom,
                         0.0)
            R = Q.swapaxes(-1, -2).copy()  # the bar of drhs: less diag(bar_B)
            R.reshape(*lead, n * n)[..., :: n + 1] -= bar_B[..., k, :]
            P = Q * U[k]                   # of -dd_ab, entrywise
            bar_d += P.sum(axis=-2) - P.sum(axis=-1)
            for j in range(0, k):
                bar_At[..., k - j, :, :] -= U[j] @ R
                bar_U[..., j, :, :] -= R @ At[k - j]
            if 1 <= m + 1 < k:
                bar_U[..., m + 1, :, :] += (m + 1) * R
            for i in range(1, k):
                bar_U[..., i, :, :] += B[k - i] @ R
                bar_B[..., k - i, :] += np.einsum("...ca,ac->...c", R, U[i])
        bar_d += bar_B[..., 0, :]          # onto the diagonal of row 0
        bar_At.reshape(*lead, -1)[..., : n * n: n + 1] += bar_d
        # dAt = V^-1 dA V + [At, X], X the off-diagonal of dAt_0 / gap
        bar_X = (bar_At @ At - At @ bar_At).sum(axis=-3)
        bar_At[..., 0, :, :] += np.where(offdiag, bar_X / gap.T, 0.0)
        A_weight = np.zeros((*lead, K, n, n), dtype=complex)
        A_weight[..., Ajet.k_min - k_min:, :, :] = V @ bar_At @ Vinv
        return A_weight

    return DiagonalJetPair(LaurentJet(Ajet.point, -l, np.stack(B), 1),
                           pullback, (Ajet.point, V, U))
