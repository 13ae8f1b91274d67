"""Test-only references: slow or roundabout routes to quantities the library
computes another way, kept out of ``src/`` because no library code calls
them."""

import math
import operator
from functools import reduce

import numpy as np

from isomonodromy.connection import (TAU_REG, TAU_SEP, Connection,
                                     _sorted_eig, check_regular,
                                     diagonalize_jet)
from isomonodromy.errors import (DegenerateChartError, MalformedInputError,
                                 RegularityError)
from isomonodromy.flows import isomonodromic_rhs
from isomonodromy.monodromy import (LineSegment, Path, loop_ordering,
                                    transport)
from isomonodromy.ratfun import (TAU_MERGE, LaurentJet, RatMat, RatScalar,
                                  poly_factors, poly_trim)
from isomonodromy.states import FlowState, PoleData
from isomonodromy.symplectic import TAU_RANK, induced_polar_variations


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


def monodromy_rep_loop_by_loop(conn, z0, tol):
    """``monodromy_rep``'s keyholes, each transported by its own
    ``transport`` call: the reference for transporting them together.
    Returns the loops, their matrices and the product defect."""
    z0 = complex(z0)
    poles = conn.all_finite_poles()
    seps = [abs(a - b) for i, a in enumerate(poles) for b in poles[i + 1:]]
    clearance = 0.05 * (min(seps) if seps
                        else min((abs(z0 - p) for p in poles),
                                 default=np.inf))
    loops, mats = [], []
    for i in loop_ordering(poles, z0):
        t = poles[i]
        others = [abs(t - q) for j, q in enumerate(poles) if j != i]
        nearest = min(others) if others else abs(z0 - t)
        radius = min(0.25 * nearest, 0.5 * abs(z0 - t))
        loops.append(Path.keyhole(z0, t, radius, clearance))
        mats.append(transport(conn, loops[-1], tol))
    defect = None
    if conn.is_regular_at_infinity():
        prod = np.eye(conn.n, dtype=complex)
        for M in mats:
            prod = M @ prod
        defect = float(np.max(np.abs(prod - np.eye(conn.n))))
    return loops, mats, defect


def product_error_scale_by_pairs(matrices, n):
    """``product_check``'s error scale with each prefix and suffix product
    of every term formed from scratch, in O(l^2) products."""
    def product(ms):
        return reduce(lambda acc, M: M @ acc, ms, np.eye(n, dtype=complex))
    S = sum((np.abs(product(matrices[i + 1:])) @ np.abs(M)
             @ np.abs(product(matrices[:i]))
             for i, M in enumerate(matrices)), np.zeros((n, n)))
    return float(np.finfo(float).eps * S.max())


# ---------------------------------------------------------------------------
# zero-seeded rational assembly: every sum starts from RatScalar.zero()
# ---------------------------------------------------------------------------

def seeded_from_polar_part(p, coeff_list):
    """``RatMat.from_polar_part``, each entry summed onto a zero seed."""
    coeff_list = [np.asarray(C, dtype=complex) for C in coeff_list]
    n = coeff_list[0].shape[0]
    out = RatMat.zero(n)
    for k, C in enumerate(coeff_list, start=1):
        for i in range(n):
            for j in range(n):
                if C[i, j] != 0:
                    out.entries[i][j] = out.entries[i][j] + \
                        RatScalar.simple_pole(p, C[i, j], k)
    return out


def seeded_from_polar_parts(pole_data, n, tail=None):
    """The matrix of ``Connection.from_polar_parts``, summed onto a zero
    matrix over ``seeded_from_polar_part``."""
    A = RatMat.zero(n)
    for t, Cs in pole_data:
        A = A + seeded_from_polar_part(complex(t), Cs)
    if tail is not None:
        A = A + RatMat.from_poly_matrix(np.stack(tail))
    return A


def seeded_matmul(A, B):
    """``A @ B``, each entry summed onto a zero seed."""
    out = RatMat.zero(A.n)
    for i in range(A.n):
        for j in range(A.n):
            acc = RatScalar.zero()
            for k in range(A.n):
                acc = acc + A.entries[i][k] * B.entries[k][j]
            out.entries[i][j] = acc
    return out


def seeded_det(rows):
    """Cofactor expansion along the first row, summed onto a zero seed; the
    empty determinant is 1."""
    n = len(rows)
    if n == 0:
        return RatScalar.const(1.0)
    if n == 1:
        return rows[0][0]
    acc = RatScalar.zero()
    for j in range(n):
        minor = [[rows[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = rows[0][j] * seeded_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


TAU_CLUSTER = 1e-6    # np.roots output closer than this is one multiple root


def cluster_roots(coeffs):
    """Roots of a polynomial as ``(root, multiplicity)`` clusters.

    Multiple roots come out of ``np.roots`` as tight clusters; we merge
    within ``TAU_CLUSTER`` (absolute for roots inside the unit disk,
    relative outside) and use the cluster mean.
    """
    c = poly_trim(coeffs, rel_tol=1e-14)
    if c.size <= 1:
        return []
    roots = np.roots(c[::-1])
    roots = sorted(roots, key=lambda r: (r.real, r.imag))
    clusters = []
    for r in roots:
        placed = False
        for i, (center, mult) in enumerate(clusters):
            if abs(r - center) <= TAU_CLUSTER * max(1.0, abs(center)):
                clusters[i] = ((center * mult + r) / (mult + 1), mult + 1)
                placed = True
                break
        if not placed:
            clusters.append((r, 1))
    return [(complex(c0), m) for c0, m in clusters]


def reciprocal(f):
    """``1 / f`` of a nonzero rational scalar: the roots of its numerator,
    found by ``cluster_roots``, are the poles."""
    if f.is_zero():
        raise ZeroDivisionError("reciprocal of the zero rational function")
    return RatScalar(poly_factors(f.poles) / f.num[-1], cluster_roots(f.num))


def seeded_inverse(A):
    """The inverse of a rational matrix through ``seeded_det``: the adjugate
    over the determinant, whose ``reciprocal`` finds the numerator's roots.
    An identically singular matrix raises ``MalformedInputError``."""
    det = seeded_det(A.entries)
    if det.is_zero():
        raise MalformedInputError("matrix is identically singular")
    n = A.n
    adj = RatMat.zero(n)
    for i in range(n):
        for j in range(n):
            minor = [[A.entries[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            adj.entries[j][i] = seeded_det(minor) * (-1.0 if (i + j) % 2
                                                     else 1.0)
    return adj * reciprocal(det)


def three_branch_jet_product(a, b):
    """``LaurentJet.__mul__`` of two jets written out per type pair:
    matrix times matrix, matrix times scalar (either side), scalar times
    scalar."""
    k_min = a.k_min + b.k_min
    K = min(a.k_max + b.k_min, b.k_max + a.k_min) - k_min + 1
    if a.is_matrix and b.is_matrix:
        out = np.zeros((K, a.n, a.n), dtype=complex)
        for i in range(a.coeffs.shape[0]):
            for j in range(b.coeffs.shape[0]):
                k = a.k_min + i + b.k_min + j - k_min
                if 0 <= k < K:
                    out[k] += a.coeffs[i] @ b.coeffs[j]
    elif a.is_matrix or b.is_matrix:
        mat, sca = (a, b) if a.is_matrix else (b, a)
        out = np.zeros((K, mat.n, mat.n), dtype=complex)
        for i in range(mat.coeffs.shape[0]):
            for j in range(sca.coeffs.shape[0]):
                k = mat.k_min + i + sca.k_min + j - k_min
                if 0 <= k < K:
                    out[k] += mat.coeffs[i] * sca.coeffs[j]
    else:
        out = np.zeros(K, dtype=complex)
        for i in range(a.coeffs.shape[0]):
            for j in range(b.coeffs.shape[0]):
                k = a.k_min + i + b.k_min + j - k_min
                if 0 <= k < K:
                    out[k] += a.coeffs[i] * b.coeffs[j]
    return LaurentJet(a.point, k_min, out, a.form_degree + b.form_degree)


def polar_parts_by_partial_fractions(A):
    """``polar_decompose(A)`` assembled from every entry's
    ``RatScalar.partial_fractions``."""
    n = A.n
    points = A.pole_points()
    pole_data = [(p, [np.zeros((n, n), dtype=complex)
                      for _ in range(A.pole_order(p))]) for p in points]
    polys = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            terms, polys[i][j] = A.entries[i][j].partial_fractions()
            for r, k, c in terms:
                at = next(a for a, p in enumerate(points)
                          if abs(p - r) <= TAU_MERGE * max(1.0, abs(p)))
                pole_data[at][1][k - 1][i, j] = c
    deg = max(p.size for row in polys for p in row)
    tail = np.zeros((deg, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            tail[: polys[i][j].size, i, j] = polys[i][j]
    if np.all(tail == 0):
        tail = np.zeros((0, n, n), dtype=complex)
    return pole_data, tail


# ---------------------------------------------------------------------------
# connection-level helpers that only tests call
# ---------------------------------------------------------------------------

def gauge_transform(conn, g):
    """Act by the bundle map ``g``: ``A -> -dg g^-1 + g A g^-1``.

    ``g`` may be any generically invertible rational matrix; zeros of
    ``det g`` enter the pole set of the result.
    """
    if isinstance(g, np.ndarray):
        g = RatMat.from_constant(g)
    ginv = seeded_inverse(g)  # raises on identically singular g
    new = (-(g.derivative() @ ginv)) + (g @ conn.matrix @ ginv)
    return Connection.from_ratmat(new, base_pole=conn.base_pole)


def spectral_quadratic(conn):
    """The scalar ``q = tr(A^2)`` of the spectral quadratic differential
    ``q dz^2``, as a ``RatScalar``.

    Its poles are bounded by twice the divisor plus twice the twist locus.
    The trace is summed from its first entry, as the library's sums are.
    """
    square = conn.matrix @ conn.matrix
    return reduce(operator.add, (square.entries[i][i] for i in range(conn.n)))


def formal_diagonalize(conn, p, order):
    """Diagonalize ``A`` at the pole ``p`` through the given truncation order.

    The leading coefficient must be regular (distinct eigenvalues, gap above
    ``TAU_REG``); the eigenvalue branches are ordered lexicographically by
    (re, im) of the leading eigenvalues.  The defect
    ``A - (dZ Z^-1 + Z B Z^-1)`` vanishes through Laurent order
    ``order - l``.
    """
    l = max(1, conn.matrix.pole_order(p))
    jet = conn.matrix.laurent(p, order - l)
    return diagonalize_jet(jet, order)


def eigenvalue_jets(conn, p, order):
    """Pointwise eigenvalue jets of ``A(z)`` at ``p`` (similarity only)."""
    l = max(1, conn.matrix.pole_order(p))
    jet = conn.matrix.laurent(p, order - l)
    return diagonal_jet_tangents(jet, order, include_derivative=False)[0]


def diagonal_jet_tangents(Ajet, order, dA=None, include_derivative=True):
    """``connection.diagonalize_jet``'s recursion in forward mode: the
    diagonals of ``B``'s rows, shape ``(order + 1, n)``, and their tangents
    along the stacked jet variations ``dA`` (shape ``(dim, K, n, n)``,
    aligned with ``Ajet.coeffs``), shape ``(dim, order + 1, n)``, or None.
    The reference for the library's reverse sweep, which is this pass
    transposed.

    Without the derivative term, ``B`` holds the pointwise eigenvalue jets
    of the matrix (similarity only).  The tangents ride through the
    recursion by the product rule.  The leading eigenframe moves by ``V X``
    with ``X_ab = (V^-1 dA_-l V)_ab / (w_b - w_a)`` off the diagonal, so
    ``d(V^-1 A_i V) = V^-1 dA_i V + [V^-1 A_i V, X]``.
    """
    k_min = Ajet.k_min
    Ajet = Ajet.drop_leading_zeros()
    l = -Ajet.k_min
    n = Ajet.n
    lead = Ajet.coefficient(-l)
    scale = max(1.0, float(np.max(np.abs(lead))))
    w, V = _sorted_eig(lead)
    check_regular(w, scale)
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
    offdiag = ~np.eye(n, dtype=bool)
    if dA is not None:
        At = Vinv @ Ajet.coeffs @ V
        gap = np.where(offdiag, w[None, :] - w[:, None], 1.0)
        dAt = Vinv @ np.asarray(dA)[:, Ajet.k_min - k_min:] @ V
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
        denom = d[:, None] - d[None, :] - (k if fuchsian else 0.0)
        solved = offdiag & ~(np.hypot(denom.real, denom.imag)
                             <= TAU_REG * scale)
        rhs_scale = max(scale, float(np.max(np.abs(rhs))))
        blocked = np.argwhere(offdiag & ~solved & ~(
            np.hypot(rhs.real, rhs.imag) <= 1e-10 * rhs_scale))
        if blocked.size:
            raise RegularityError(
                f"resonant or clustered spectrum: divisor "
                f"{denom[tuple(blocked[0])]} at order {k}")
        denom = np.where(solved, denom, 1.0)
        Uk = np.where(solved, rhs / denom, 0.0)
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
            dd_ab = dd[:, :, None] - dd[:, None, :]
            dU.append(np.where(solved, (drhs - Uk * dd_ab) / denom, 0.0))
            dBs.append(-drhs * np.eye(n))
    b_diag = np.einsum("kii->ki", np.stack(B)).copy()
    dB = None if dA is None else np.einsum("kxaa->xka", np.stack(dBs))
    return b_diag, dB


def jet_inverse(jet):
    """Multiplicative inverse of a matrix ``LaurentJet`` whose coefficient
    at the detected order is invertible, order by order.  A twist germ's
    leading matrix is singular: its inverse is
    ``twist.TwistSite.inverse_jet``."""
    if not jet.is_matrix:
        raise MalformedInputError("inverse of a scalar jet")
    lead = jet.drop_leading_zeros()
    c = lead.coeffs
    c0inv = np.linalg.inv(c[0])
    out = np.zeros_like(c)
    out[0] = c0inv
    for m in range(1, c.shape[0]):
        acc = np.zeros_like(c[0])
        for j in range(1, m + 1):
            acc += c[j] @ out[m - j]
        out[m] = -c0inv @ acc
    return LaurentJet(jet.point, -lead.k_min, out, -jet.form_degree)


def reconstruction_defect(conn, p, pair, order):
    """Laurent coefficients of ``A - (dZ Z^-1 + Z B Z^-1)`` through order-l."""
    l = -pair.B.k_min
    Z = pair.Z
    Zinv = jet_inverse(Z)
    dZ = Z.derivative(as_form=True)
    model = dZ * Zinv + Z * pair.B * Zinv
    Ajet = conn.matrix.laurent(p, order - l)
    out = []
    for k in range(-l, order - l + 1):
        out.append(Ajet.coefficient(k) - model.coefficient(k))
    return np.stack(out)


def extension_jet(C, k, dist, m_max):
    """Taylor coefficients at orders 0..m_max of ``C/(zeta+dist)**k``: the
    polar term ``C/(z-t)**k`` seen from a point at ``dist`` from ``t``."""
    out = np.zeros((m_max + 1,) + np.shape(C), dtype=complex)
    for m in range(m_max + 1):
        out[m] = C * ((-1) ** m * math.comb(k + m - 1, m)
                      * dist ** (-(k + m)))
    return out


def affine_image(state, a, b, power=lambda k: k - 1, fixed=()):
    """The state under ``w = a z + b``: positions ``a t + b``, frames kept,
    the frame jet ``u_k`` times ``a**-k`` and the dressed coefficient of
    order ``k`` (the residue momentum at ``k = 1``, the irregular rows past
    it) times ``a**power(k)``, which makes ``C_k`` ``a**(k-1) C_k``.  The
    poles listed in ``fixed`` keep their positions (a planted error)."""
    poles = []
    for i, p in enumerate(state.poles):
        lam_irr = np.array([a ** power(j + 2) * row
                            for j, row in enumerate(p.lam_irr)])
        u = np.array([a ** -(k + 1) * uk for k, uk in enumerate(p.u)])
        poles.append(PoleData(p.t if i in fixed else a * p.t + b, p.l, p.h,
                              a ** power(1) * p.lam_res,
                              lam_irr.reshape(p.l - 1, p.n),
                              u.reshape(p.u.shape)))
    return FlowState(state.n, tuple(poles))


def gauge_image(state, g, poles=None):
    """The state under the constant gauge ``g``: every frame ``h`` as ``g
    h``, or only those of ``poles`` (a planted error)."""
    poles = range(len(state.poles)) if poles is None else poles
    return FlowState(state.n, tuple(
        PoleData(p.t, p.l, g @ p.h if i in poles else p.h, p.lam_res,
                 p.lam_irr, p.u) for i, p in enumerate(state.poles)))


def with_chart_vector(state, vec):
    """The state with chart vector ``vec`` and the same positions,
    irregular types and twist."""
    flat, m = state.flat(), len(state.poles)
    flat[m: m + state.chart_dim()] = vec
    return state.with_flat(flat)


# ---------------------------------------------------------------------------
# the chart layer pole by pole: the reference for the grouped layer, which
# must reproduce it bit for bit
# ---------------------------------------------------------------------------

def pole_frame(pole):
    """Jets of ``I + u``, its inverse, ``F = h (I + u)`` and ``F^-1`` at one
    pole, each of shape (l, n, n)."""
    n, l = pole.n, pole.l
    U = np.zeros((l, n, n), dtype=complex)
    U[0] = np.eye(n)
    U[1: l - 1] = pole.u
    V = np.zeros_like(U)
    V[0] = np.eye(n)
    for m in range(1, l):
        V[m] = -sum(U[j] @ V[m - j] for j in range(1, m + 1))
    return U, V, pole.h @ U, V @ np.linalg.inv(pole.h)


def pole_lam_jet(pole):
    """Dressed polar coefficients of one pole, row k <-> order -(k+1)."""
    out = np.zeros((pole.l, pole.n, pole.n), dtype=complex)
    out[0] = pole.lam_res
    for j in range(pole.l - 1):
        out[j + 1] = np.diag(pole.lam_irr[j])
    return out


def pole_dressed_polar(pole, inner):
    """Polar part of ``F inner F^-1`` at one pole, ``inner`` (x, l, n, n)."""
    l = pole.l
    F, F_inv = pole_frame(pole)[2:]
    out = np.zeros_like(inner)
    for i in range(l):
        for j in range(l - i):
            out[:, : l - i - j] += F[i] @ inner[:, i + j:] @ F_inv[j]
    return out


def pole_polar(state):
    """Every pole's ``[C_1, ..., C_l]``, pole by pole."""
    return [list(pole_dressed_polar(p, pole_lam_jet(p)[None])[0])
            for p in state.poles]


def pole_regular_jets(state):
    """Every pole's regular jet, orders ``0 .. l_i-1``, pole by pole."""
    polar = pole_polar(state)
    out = []
    for i, p in enumerate(state.poles):
        R = np.zeros((p.l, state.n, state.n), dtype=complex)
        for j, q in enumerate(state.poles):
            if j != i:
                for k, C in enumerate(polar[j], start=1):
                    R += extension_jet(C, k, p.t - q.t, p.l - 1)
        out.append(R)
    return out


def pole_jet_at_pole(state, i):
    """Laurent jet of A at pole i from the pole-by-pole polar data."""
    p = state.poles[i]
    coeffs = np.zeros((2 * p.l - 1, state.n, state.n), dtype=complex)
    for k, C in enumerate(pole_polar(state)[i], start=1):
        coeffs[p.l - k] = C
    coeffs[p.l:] = pole_regular_jets(state)[i][: p.l - 1]
    return LaurentJet(p.t, -p.l, coeffs, 0)


class PoleChartBlock:
    """Symplectic data of one pole's chart coordinates: ``etas``
    (dim, l, n, n), ``dlams`` (dim, n, n)."""

    def __init__(self, pole):
        self.pole = pole
        n, l = pole.n, pole.l
        self.n, self.l = n, l
        U, V, _, F_inv = pole_frame(pole)
        self.lam = pole_lam_jet(pole)
        self.lam_hankel = np.zeros((l, n, l, n), dtype=complex)
        u_toeplitz = np.zeros((l, l, n, n), dtype=complex)
        v_shifted = np.zeros((max(l - 2, 0), l, n, n), dtype=complex)
        for m in range(l):
            self.lam_hankel[m, :, : l - m] = self.lam[m:].swapaxes(0, 1)
            u_toeplitz[m, : m + 1] = U[m::-1]
        for k in range(l - 2):
            v_shifted[k, k + 1:] = V[: l - k - 1]
        eta_h = np.einsum("ipa,mibq->abmpq", F_inv, u_toeplitz)
        eta_u = np.einsum("kmpa,bq->kabmpq", v_shifted, np.eye(n))
        eta_u = eta_u[:, ~np.eye(n, dtype=bool)]
        n_frame = n * n + eta_u.shape[0] * eta_u.shape[1]
        self.dim = n_frame + n * n
        self.etas = np.zeros((self.dim, l, n, n), dtype=complex)
        self.etas[: n * n] = eta_h.reshape(n * n, l, n, n)
        self.etas[n * n: n_frame] = eta_u.reshape(-1, l, n, n)
        self.dlams = np.zeros((self.dim, n, n), dtype=complex)
        self.dlams[n_frame:] = np.eye(n * n).reshape(n * n, n, n)

    def lam_eta(self):
        l, n = self.l, self.n
        H = self.lam_hankel.reshape(l * n, l * n)
        return (H @ self.etas.reshape(self.dim, l * n, n)).reshape(
            self.etas.shape)

    def gram_block(self):
        n = self.n
        E_t = self.etas.swapaxes(-1, -2).reshape(self.dim, -1)
        A = self.lam_eta().reshape(self.dim, -1) @ E_t.T
        A[:, -n * n:] += E_t[:, : n * n]
        return 2.0 * (A - A.T)

    def induced_variations(self):
        inner = (np.einsum("xmpr,mrkq->xkpq", self.etas, self.lam_hankel)
                 - self.lam_eta())
        inner[:, 0] += self.dlams
        return pole_dressed_polar(self.pole, inner)


def pole_hamiltonian_vector_field(dH, state):
    """``omega(X, .) = dH`` solved with one LU solve per pole block, under
    the global guard on the blocks' singular values."""
    blocks = [PoleChartBlock(p) for p in state.poles]
    dH = np.asarray(dH, dtype=complex).ravel()
    cuts = np.cumsum([0] + [b.dim for b in blocks])
    if dH.shape[0] != cuts[-1]:
        raise MalformedInputError("dH length does not match the chart dimension")
    grams = [b.gram_block().T for b in blocks]
    svals = [np.linalg.svd(g, compute_uv=False) for g in grams]
    s_max = max(S[0] for S in svals)
    s_min = min(S[-1] for S in svals)
    if s_max == 0.0 or s_min <= TAU_RANK * s_max:
        raise DegenerateChartError("chart Gram matrix is singular")
    return np.concatenate([np.linalg.solve(g, dH[a:b, None])[:, 0]
                           for a, b, g in zip(cuts, cuts[1:], grams)])


def _unit_extension(dist, L, m_max):
    return np.stack([extension_jet(1.0, k, dist, m_max)
                     for k in range(1, L + 1)])


def pole_d_translation_hamiltonian(state, i):
    """``d res_{t_i} tr(A^2)`` on the chart basis, block by pole block."""
    p_i = state.poles[i]
    polar_i = np.asarray(pole_polar(state)[i])
    out = np.zeros(state.chart_dim(), dtype=complex)
    at = 0
    for j, p in enumerate(state.poles):
        blk = PoleChartBlock(p)
        if j == i:
            weight = pole_regular_jets(state)[i]
        else:
            ext = _unit_extension(p_i.t - p.t, blk.l, p_i.l - 1)
            weight = np.einsum("km,mpq->kpq", ext, polar_i)
        out[at: at + blk.dim] = 2.0 * np.einsum(
            "kpq,xkqp->x", weight, blk.induced_variations())
        at += blk.dim
    return out


def pole_jet_variation(state, i, j, dC, m_max):
    """Variation of pole i's Laurent jet under variations ``dC`` (x, L, n, n)
    of pole j's polar part."""
    p = state.poles[i]
    out = np.zeros((dC.shape[0], p.l + m_max + 1, state.n, state.n),
                   dtype=complex)
    if j == i:
        out[:, p.l - dC.shape[1]: p.l] = dC[:, ::-1]
    else:
        ext = _unit_extension(p.t - state.poles[j].t, dC.shape[1], m_max)
        out[:, p.l:] = np.einsum("km,xkpq->xmpq", ext, dC)
    return out


def pole_d_hamiltonian_beta_B(state, i, beta):
    """The tangent-pass differential of the diagonal-jet pairing, with the
    jet variations stacked pole by pole."""
    p = state.poles[i]
    beta = np.asarray(beta, dtype=complex)
    dA = np.concatenate([
        pole_jet_variation(state, i, j, PoleChartBlock(q).induced_variations(),
                           p.l - 2)
        for j, q in enumerate(state.poles)])
    dB = diagonal_jet_tangents(pole_jet_at_pole(state, i), 2 * p.l - 2,
                               dA)[1]
    return np.einsum("kc,xkc->x", beta, dB[:, p.l:])


def pole_section_rates(direction, state):
    """``flows._section_rates`` in forward mode, with every pole's data
    computed on its own: each pole's jet variation along the lift, paired
    with the jet for the q slot and carried through the forward tangent
    pass for the b slots."""
    poles = state.poles
    polar, regular = pole_polar(state), pole_regular_jets(state)
    dt = np.zeros(len(poles), dtype=complex)
    for i, rate in direction.moduli_rates.items():
        dt[i] = rate
    dC = []
    for j, p in enumerate(poles):
        dlam = np.zeros((1, p.l, p.n, p.n), dtype=complex)
        for r, row in enumerate(direction.irregular_rates.get(j, ())):
            dlam[0, r + 1] = np.diag(row)
        dC.append(pole_dressed_polar(p, dlam))
    dq, db = [], []
    for i, p in enumerate(poles):
        dJ = sum(pole_jet_variation(state, i, j, dC[j], p.l - 1)
                 for j in range(len(poles)))
        for j, q in enumerate(poles):
            if j != i and dt[i] != dt[j]:
                shifted = np.zeros((1, q.l + 1, p.n, p.n), dtype=complex)
                shifted[0, 1:] = (-(dt[i] - dt[j])
                                  * np.arange(1, q.l + 1)[:, None, None]
                                  * np.asarray(polar[j]))
                dJ = dJ + pole_jet_variation(state, i, j, shifted, p.l - 1)
        rows = dJ[0]
        slot = np.zeros(p.l, dtype=complex)
        slot[0] = 2.0 * (
            np.einsum("kpq,kqp->", rows[p.l - 1::-1], regular[i])
            + np.einsum("kpq,kqp->", np.asarray(polar[i]), rows[p.l:]))
        dq.append(slot)
        if p.l == 1:
            db.append(np.zeros((0, p.n), dtype=complex))
        else:
            dB = diagonal_jet_tangents(pole_jet_at_pole(state, i),
                                       2 * p.l - 2, dJ[:, : 2 * p.l - 1])[1]
            db.append(dB[0, p.l:])
    return tuple(dq), tuple(db)


def zero_curvature_residual(state, direction, nodes=512):
    """The flow's polar-coefficient rates against the zero-curvature
    equation ``dA/ds = dB/dz + [B, A]`` (Jimbo, Miwa & Ueno, Physica D 2
    (1981), part I), with no transport: the largest difference over the
    largest expected rate.

    Along a translation of pole ``i`` at rate ``r``, ``B = -r P_i(z)``,
    ``P_i`` the polar part of ``A`` at ``t_i``.  At a local coordinate that
    moves with its pole, ``dB/dz`` cancels the motion of ``P_i``, so pole
    ``j``'s coefficients move by the polar part at ``t_j`` of ``[B, A]``.
    That is taken by ``nodes``-point contour quadrature of ``A`` built from
    ``state.polar`` alone, on a circle around ``t_j`` of half the distance
    to the nearest other pole.  The flow's rates are
    ``induced_polar_variations`` of its ``d_chart``.

    Along an irregular rate ``R`` (``dLambda_-2/ds``) at an order-2 pole
    ``i``, ``B = -h diag(R) h^-1 / (z - t_i)``, ``h`` the pole's frame, and
    no pole moves: the coefficients move by the polar parts of ``dB/dz +
    [B, A]``.  The flow's rates add the lift's ``h diag(R) h^-1`` at order
    2 of pole ``i`` to those of ``d_chart``, analytically."""
    ts = np.array([p.t for p in state.poles])

    def polar_sum(z, poles):
        # sum of the poles' polar parts at the points z, shape (m, n, n)
        out = np.zeros((len(z), state.n, state.n), dtype=complex)
        for j, rate in poles:
            for k, C in enumerate(state.polar[j], start=1):
                out += rate * (z - ts[j])[:, None, None] ** -k * C
        return out

    irregular = {i: state.poles[i].h @ np.diag(rows[0])
                 @ np.linalg.inv(state.poles[i].h)
                 for i, rows in direction.irregular_rates.items()}
    got = induced_polar_variations(
        isomonodromic_rhs(direction, state).d_chart, state)
    for i, lift in irregular.items():
        got[i][1] += lift
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    worst = scale = 0.0
    for j, p in enumerate(state.poles):
        zeta = 0.5 * np.min(np.abs(np.delete(ts, j) - p.t)) * np.exp(1j * theta)
        z = p.t + zeta
        A = polar_sum(z, [(m, 1.0) for m in range(len(ts))])
        B = -polar_sum(z, direction.moduli_rates.items())
        F = B @ A - A @ B
        for i, lift in irregular.items():
            # B_i = -lift / (z - t_i), so dB_i/dz = lift / (z - t_i)**2
            w = (z - ts[i])[:, None, None] ** -1
            F += w * (A @ lift - lift @ A) + w ** 2 * lift
        # the coefficient of zeta**-k is the mean of zeta**k F on the circle
        want = np.stack([np.mean(zeta[:, None, None] ** k * F, axis=0)
                         for k in range(1, p.l + 1)])
        worst = max(worst, float(np.max(np.abs(got[j] - want))))
        scale = max(scale, float(np.max(np.abs(want))))
    return worst / scale
