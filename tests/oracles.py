"""Test-only references: slow or roundabout routes to quantities the library
computes another way, kept out of ``src/`` because no library code calls
them."""

import numpy as np

from isomonodromy.connection import TAU_SEP
from isomonodromy.monodromy import (LineSegment, Path, loop_ordering,
                                    transport)
from isomonodromy.ratfun import TAU_MERGE, LaurentJet, RatMat, RatScalar


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
    """Cofactor expansion along the first row, summed onto a zero seed."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = RatScalar.zero()
    for j in range(n):
        minor = [[rows[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = rows[0][j] * seeded_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def seeded_inverse(A):
    """``A.inverse()`` through ``seeded_det``: the adjugate over the
    determinant."""
    n = A.n
    adj = RatMat.zero(n)
    for i in range(n):
        for j in range(n):
            minor = [[A.entries[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            adj.entries[j][i] = seeded_det(minor) * (-1.0 if (i + j) % 2
                                                     else 1.0)
    return adj * seeded_det(A.entries).reciprocal()


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
