"""Rational-function and Laurent-jet algebra over the complex numbers.

Conventions used throughout the library:

* Polynomials are numpy arrays of complex coefficients in **ascending** order
  (numpy.polynomial convention).  The kernels ``poly_mul``, ``poly_add`` and
  the cancellation test's Horner step mirror numpy.polynomial's ``polymul``,
  ``polyadd`` and ``polyval`` bit for bit, without their wrappers.
* A :class:`RatScalar` is ``num(z) / prod_j (z - r_j)**m_j`` with the
  denominator kept in factored form ``(root, multiplicity)``; its one trusted
  constructor, for results already trimmed, merged and cancelled, is
  ``_entry``.  Keeping roots instead of expanded denominators makes residue
  and Laurent extraction exact-by-structure, and the library finds no root.
  The one rational matrix it inverts is a twist germ, by ``polymat_adjugate``
  over the germ's determinant ``c zeta**mu``.
* The point at infinity is the sentinel :data:`INFINITY`; the chart there is
  ``w = 1/z`` with ``dz = -dw / w**2``.
* A "1-form" is a rational (or jet) coefficient of ``dz`` in the finite chart,
  of ``dw`` at infinity.  :class:`LaurentJet` carries ``form_degree``:
  0 for functions, 1 for 1-forms, 2 for quadratic differentials, -1 for
  vector-field germs ``m(z) d/dz``.  Multiplication adds form degrees.
"""

from __future__ import annotations

import cmath
import operator
from functools import reduce

import numpy as np
import numpy.polynomial.polynomial as npoly
from numpy.polynomial.polyutils import trimseq

from .errors import MalformedInputError, PreconditionError

TAU_CANCEL = 1e-9     # numerator/denominator common-factor detection
TAU_MERGE = 1e-12     # roots closer than this are the same pole
TAU_DET = 1e-9        # determinant coefficients this small, relative, vanish

INFINITY = complex(float("inf"), 0.0)


def is_infinity(p) -> bool:
    if p is INFINITY:
        return True
    try:
        return not cmath.isfinite(complex(p))
    except (TypeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficient arrays)
# ---------------------------------------------------------------------------

def poly_trim(c, rel_tol=0.0):
    """Strip trailing coefficients that are negligible relative to the max."""
    if not (type(c) is np.ndarray and c.ndim == 1 and c.dtype == complex):
        c = np.atleast_1d(np.asarray(c, dtype=complex)).ravel()
    if c.size == 0:
        return np.zeros(1, dtype=complex)
    scale = np.abs(c).max()
    if scale == 0.0:
        return np.zeros(1, dtype=complex)
    k = c.size - 1
    while k > 0 and abs(c[k]) <= rel_tol * scale:
        k -= 1
    return c[: k + 1].copy()


def poly_mul(a, b):
    """``npoly.polymul`` of two 1-d complex arrays, bit for bit: the same
    ``np.convolve`` between the same trailing-zero trims, without the
    wrapper's type unification."""
    return trimseq(np.convolve(trimseq(a), trimseq(b)))


def poly_add(a, b):
    """``npoly.polyadd`` of two 1-d complex arrays, bit for bit: the
    shorter trimmed operand is added into a copy of the longer."""
    a, b = trimseq(a), trimseq(b)
    if len(a) > len(b):
        out = a.copy()
        out[:b.size] += b
    else:
        out = b.copy()
        out[:a.size] += a
    return trimseq(out)


def poly_shift(c, a, terms):
    """The first ``terms`` coefficients of the Taylor shift ``p(x + a)``."""
    out, a = np.asarray(c, dtype=complex).tolist(), complex(a)
    n = len(out)
    # synthetic division by (x - (-a)), repeated in place on Python complexes
    # (numpy's arithmetic, bit for bit): pass i writes coefficient i last
    for i in range(min(terms, n - 1)):
        for k in range(n - 2, i - 1, -1):
            out[k] += a * out[k + 1]
    return np.array(out[:terms], dtype=complex)


def poly_factors(factors):
    """Expand ``prod (z - r)**m`` for a list of ``(root, mult)`` pairs."""
    c = np.ones(1, dtype=complex)
    for r, m in factors:
        for _ in range(m):   # poly_mul, less trims of monic factors
            c = np.convolve(c, np.array([-r, 1.0], dtype=complex))
    return c


def series_div(num, den, nterms):
    """Power-series division ``num/den`` to ``nterms`` terms; den[0] != 0."""
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    if den.size == 0 or den[0] == 0:
        raise MalformedInputError("series division by series with zero constant term")
    out = np.zeros(nterms, dtype=complex)
    d0 = den[0]
    for k in range(nterms):
        acc = num[k] if k < num.size else 0.0
        jmax = min(k, den.size - 1)
        for j in range(1, jmax + 1):
            acc -= den[j] * out[k - j]
        out[k] = acc / d0
    return out


# ---------------------------------------------------------------------------
# Laurent jets
# ---------------------------------------------------------------------------

class LaurentJet:
    """Finitely many Laurent coefficients of a local expansion.

    Coefficients are known on ``[k_min, k_max]``; below ``k_min`` they are
    exact zeros (``k_min`` is a true lower bound on the order), above
    ``k_max`` they are *unknown*, not zero.  Arithmetic tracks the reliable
    range.  ``coeffs`` has shape ``(K,)`` for scalar jets or ``(K, n, n)``
    for matrix jets, ``K = k_max - k_min + 1``.
    """

    __slots__ = ("point", "k_min", "coeffs", "form_degree")

    def __init__(self, point, k_min, coeffs, form_degree=0):
        self.point = point
        self.k_min = int(k_min)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.coeffs.ndim not in (1, 3):
            raise MalformedInputError("jet coefficients must be (K,) or (K, n, n)")
        self.form_degree = int(form_degree)

    # -- basic structure ----------------------------------------------------

    @property
    def k_max(self):
        return self.k_min + self.coeffs.shape[0] - 1

    @property
    def is_matrix(self):
        return self.coeffs.ndim == 3

    @property
    def n(self):
        return self.coeffs.shape[1] if self.is_matrix else 1

    def coefficient(self, k):
        """Coefficient of order ``k``; exact zero below k_min, error above k_max."""
        if k < self.k_min:
            shape = self.coeffs.shape[1:]
            return np.zeros(shape, dtype=complex) if shape else 0.0 + 0j
        if k > self.k_max:
            raise PreconditionError(
                f"coefficient of order {k} beyond jet truncation {self.k_max}")
        return self.coeffs[k - self.k_min]

    def drop_leading_zeros(self, rel_tol=1e-13):
        """Raise k_min past coefficients that are numerically zero."""
        scale = np.max(np.abs(self.coeffs)) if self.coeffs.size else 0.0
        if scale == 0.0:
            return self
        i = 0
        flat = self.coeffs.reshape(self.coeffs.shape[0], -1)
        while i < flat.shape[0] - 1 and np.max(np.abs(flat[i])) <= rel_tol * scale:
            i += 1
        if i == 0:
            return self
        return LaurentJet(self.point, self.k_min + i, self.coeffs[i:], self.form_degree)

    # -- ring operations ----------------------------------------------------

    def _check_point(self, other):
        if is_infinity(self.point) != is_infinity(other.point) or (
                not is_infinity(self.point) and self.point != other.point):
            raise MalformedInputError("jets expanded at different points")

    def __add__(self, other):
        if not isinstance(other, LaurentJet):
            return NotImplemented
        self._check_point(other)
        if self.form_degree != other.form_degree:
            raise MalformedInputError("adding jets of different form degree")
        k_min = min(self.k_min, other.k_min)
        k_max = min(self.k_max, other.k_max)
        if k_max < k_min:
            raise PreconditionError("jet ranges do not overlap")
        if self.is_matrix != other.is_matrix:
            raise MalformedInputError("adding scalar and matrix jets")
        out = np.zeros((k_max - k_min + 1,) + self.coeffs.shape[1:],
                       dtype=complex)
        for jet in (self, other):
            lo = jet.k_min - k_min
            hi = min(jet.k_max, k_max) - k_min
            out[lo:hi + 1] += jet.coeffs[: hi - lo + 1]
        return LaurentJet(self.point, k_min, out, self.form_degree)

    def __mul__(self, other):
        if not isinstance(other, LaurentJet):
            return NotImplemented
        self._check_point(other)
        a, b = self, other
        k_min = a.k_min + b.k_min
        k_max = min(a.k_max + b.k_min, b.k_max + a.k_min)
        K = k_max - k_min + 1
        if K <= 0:
            raise PreconditionError("jet product has empty reliable range")
        # a matrix factor drives the outer loop from either side; ``*``, not
        # np.multiply, since the ufunc can round a scalar product differently
        if b.is_matrix and not a.is_matrix:
            a, b = b, a
        op = np.matmul if b.is_matrix else operator.mul
        out = np.zeros((K,) + a.coeffs.shape[1:], dtype=complex)
        for i in range(a.coeffs.shape[0]):
            for j in range(b.coeffs.shape[0]):
                k = a.k_min + i + b.k_min + j - k_min
                if 0 <= k < K:
                    out[k] += op(a.coeffs[i], b.coeffs[j])
        return LaurentJet(self.point, k_min, out,
                          self.form_degree + other.form_degree)

    # -- calculus -----------------------------------------------------------

    def derivative(self, as_form=False):
        """d/d(local coordinate).  ``as_form=True`` returns a 1-form jet."""
        if self.form_degree != 0:
            raise MalformedInputError("derivative is defined for function jets")
        ks = np.arange(self.k_min, self.k_max + 1, dtype=complex)
        if self.is_matrix:
            out = self.coeffs * ks[:, None, None]
        else:
            out = self.coeffs * ks
        return LaurentJet(self.point, self.k_min - 1, out,
                          1 if as_form else 0)

    def residue(self):
        """Coefficient of order -1; requires a 1-form jet."""
        if self.form_degree != 1:
            raise MalformedInputError("residue is defined for 1-form jets")
        return self.coefficient(-1)

    def trace(self):
        if not self.is_matrix:
            raise MalformedInputError("trace of a scalar jet")
        return LaurentJet(self.point, self.k_min,
                          np.trace(self.coeffs, axis1=1, axis2=2),
                          self.form_degree)

    def __repr__(self):
        kind = {0: "fn", 1: "form", 2: "quad", -1: "vec"}.get(
            self.form_degree, f"deg{self.form_degree}")
        pt = "inf" if is_infinity(self.point) else f"{self.point:.4g}"
        return (f"LaurentJet({kind} at {pt}, orders {self.k_min}..{self.k_max}, "
                f"n={self.n if self.is_matrix else 'scalar'})")


# ---------------------------------------------------------------------------
# rational scalars
# ---------------------------------------------------------------------------

class RatScalar:
    """Rational function ``num(z) / prod (z - r_j)**m_j``.

    Common factors between numerator and denominator are cancelled on
    construction (within ``TAU_CANCEL``), so stored pole orders are true
    orders.
    """

    __slots__ = ("num", "poles")

    def __init__(self, num, poles=()):
        num = poly_trim(num, rel_tol=0.0)
        merged = []
        for r, m in poles:
            r = complex(r)
            m = int(m)
            if m <= 0:
                raise MalformedInputError("pole multiplicities must be positive")
            for i, (r0, m0) in enumerate(merged):
                if abs(r - r0) <= TAU_MERGE * max(1.0, abs(r0)):
                    merged[i] = (r0, m0 + m)
                    break
            else:
                merged.append((r, m))
        num, merged = _cancel(num, merged)
        self.num = num
        self.poles = tuple(sorted(merged, key=lambda rm: (rm[0].real, rm[0].imag)))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls):
        return _entry(np.zeros(1, dtype=complex), ())

    @classmethod
    def const(cls, c):
        return cls(np.array([c], dtype=complex))

    @classmethod
    def monomial(cls, k, c=1.0):
        coeffs = np.zeros(k + 1, dtype=complex)
        coeffs[k] = c
        return cls(coeffs)

    @classmethod
    def simple_pole(cls, p, c=1.0, order=1):
        """``c / (z - p)**order``."""
        return cls(np.array([c], dtype=complex), [(p, order)])

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        # the numerator is trimmed: zero is the one coefficient 0
        return bool(self.num.size == 1 and self.num[0] == 0)

    def pole_order(self, p):
        """Order of the pole at p (0 if regular); p may be INFINITY."""
        if is_infinity(p):
            deg_num = self.num.size - 1
            deg_den = sum(m for _, m in self.poles)
            return max(0, deg_num - deg_den)
        for r, m in self.poles:
            if abs(complex(p) - r) <= TAU_CANCEL * max(1.0, abs(r)):
                return m
        return 0

    def pole_points(self):
        return [r for r, _ in self.poles]

    # -- evaluation -----------------------------------------------------------

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        val = npoly.polyval(z, self.num)
        for r, m in self.poles:
            val = val / (z - r) ** m
        return val if val.shape else complex(val)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RatScalar):
            return NotImplemented
        return _add(self, other, {})

    def __neg__(self):
        return _entry(poly_trim(-self.num), self.poles)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            if other == 0:
                return RatScalar.zero()
            return _entry(poly_trim(self.num * other), self.poles)
        if not isinstance(other, RatScalar):
            return NotImplemented
        # the constructor adds the multiplicities of roots within TAU_MERGE
        return RatScalar(poly_mul(self.num, other.num),
                         self.poles + other.poles)

    def derivative(self):
        """d/dz, exact-by-structure (no root finding)."""
        if not self.poles:
            if self.num.size == 1:
                return RatScalar.zero()
            return RatScalar(npoly.polyder(self.num))
        # f = n / prod (z-r)^m  ->  f' over prod (z-r)^(m+1)
        full = poly_factors([(r, 1) for r, _ in self.poles])
        term = poly_mul(npoly.polyder(self.num), full)
        for j, (rj, mj) in enumerate(self.poles):
            rest = poly_factors([(r, 1) for i, (r, _) in enumerate(self.poles)
                                 if i != j])
            term = npoly.polysub(term, mj * poly_mul(self.num, rest))
        return RatScalar(term, [(r, m + 1) for r, m in self.poles])

    # -- local expansions -------------------------------------------------------

    def at_infinity(self):
        """The substitution ``f(1/w)`` as a RatScalar in the w chart."""
        d = self.num.size - 1
        M = sum(m for _, m in self.poles)
        rev_num = self.num[::-1].copy()
        scale = 1.0 + 0j
        new_poles = []
        for r, m in self.poles:
            if abs(r) <= TAU_MERGE:
                continue  # factor (1/w - 0)^m = w^-m, handled by exponent below
            scale *= (-r) ** m
            new_poles.append((1.0 / r, m))
        e = M - d
        num = rev_num / scale
        if e >= 0:
            num = poly_mul(num, RatScalar.monomial(e).num) if e else num
        else:
            new_poles.append((0.0 + 0j, -e))
        return RatScalar(num, new_poles)

    def laurent(self, p, k_max):
        """Laurent jet at ``p`` (finite or INFINITY) through order ``k_max``.

        At infinity the jet is in the local coordinate ``w = 1/z``.
        """
        if is_infinity(p):
            return self.at_infinity().laurent(0.0, k_max)
        jet = RatMat([[self]]).laurent(complex(p), k_max)
        return LaurentJet(jet.point, jet.k_min, jet.coeffs[:, 0, 0], 0)

    def partial_fractions(self):
        """Decompose into polar terms and a polynomial part.

        Returns ``(terms, poly)`` where ``terms`` is a list of
        ``(pole, order, coefficient)`` meaning ``coefficient/(z-pole)**order``
        and ``poly`` are ascending coefficients of the polynomial part.
        """
        terms = []
        for r, m in self.poles:
            jet = self.laurent(r, -1)
            for k in range(-m, 0):
                c = jet.coefficient(k)
                if c != 0:
                    terms.append((r, -k, complex(c)))
        return terms, self.polynomial_part()

    def polynomial_part(self):
        """Ascending coefficients of the polynomial part: the ``polydiv``
        quotient of the numerator by the denominator."""
        if self.num.size <= sum(m for _, m in self.poles):
            return np.zeros(1, dtype=complex)   # proper: nothing to expand
        quot, _ = npoly.polydiv(self.num, poly_factors(self.poles))
        return poly_trim(quot, rel_tol=1e-14)

    def __repr__(self):
        return f"RatScalar(deg_num={self.num.size - 1}, poles={self.poles})"


def _mult_in(poles, r):
    for r0, m0 in poles:
        if abs(r0 - r) <= TAU_MERGE * max(1.0, abs(r0)):
            return m0
    return 0


def _sum_plan(pa, pb):
    """The roots of the pole tuples ``pa`` and ``pb`` merged within
    ``TAU_MERGE`` at the larger multiplicity, and the two cofactors."""
    union = {}
    for r, _ in pa + pb:
        key = next((k for k in union
                    if abs(k - r) <= TAU_MERGE * max(1.0, abs(k))), complex(r))
        union[key] = _mult_in(pa, key), _mult_in(pb, key)
    mults = union.items()
    return ([(r, max(ma, mb)) for r, (ma, mb) in mults],
            poly_factors([(r, max(0, mb - ma)) for r, (ma, mb) in mults]),
            poly_factors([(r, max(0, ma - mb)) for r, (ma, mb) in mults]))


def _add(a, b, plans):
    """``a + b``, with the plan for their pole tuples made once in
    ``plans``: a matrix sum passes one ``plans`` to all its entries."""
    # an identically zero operand adds nothing: the other is the sum
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    key = a.poles, b.poles
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _sum_plan(*key)
    common, cof_a, cof_b = plan
    # as poly_mul and the constructor, less trims and merges that are no-ops
    return _entry(*_cancel(poly_add(np.convolve(a.num, cof_a),
                                    np.convolve(b.num, cof_b)), common))


def _entry(num, poles):
    """A RatScalar of trimmed ``num`` over merged, cancelled ``poles``."""
    f = object.__new__(RatScalar)
    f.num = num
    f.poles = tuple(sorted(poles, key=lambda rm: (rm[0].real, rm[0].imag)))
    return f


def _cancel(num, poles):
    """Deflate factors of the trimmed numerator ``num`` that coincide with
    denominator roots.  Deflation keeps the leading coefficient, so the
    result needs no trim, and only a zero numerator is zero."""
    if num[-1] == 0:
        return np.zeros(1, dtype=complex), []
    out = []
    c, mags = num.tolist(), np.abs(num).tolist()
    for r, m in poles:
        while m > 0 and len(c) > 1:
            # |num(r)| against sum_k |num_k| max(1, |r|)**k, by Horner
            scale = _horner(mags, max(1.0, abs(r)))
            if scale == 0.0 or abs(_horner(c, r)) > TAU_CANCEL * scale:
                break
            num = _deflate(num, r)
            c, mags = num.tolist(), np.abs(num).tolist()
            m -= 1
        if m > 0:
            out.append((r, m))
    return num, out


def _horner(c, x):
    """``npoly.polyval(x, c)`` at a Python complex ``x``, for coefficients
    ``c``, bit for bit: the same Horner steps in Python complex arithmetic."""
    acc = c[-1] + x * 0
    for a in c[-2::-1]:
        acc = a + acc * x
    return acc


def _deflate(c, r):
    """Synthetic division of p by (z - r); remainder discarded."""
    n = c.size - 1
    out = np.zeros(n, dtype=complex)
    acc = c[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = c[k] + r * acc
    return out


def _sum(terms, empty):
    """Left fold of ``+`` over ``terms`` from the first term; ``empty()`` is
    the value of an empty sum only."""
    terms = list(terms)
    return reduce(operator.add, terms) if terms else empty()


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------

class RatMat:
    """n x n matrix of :class:`RatScalar`, all sharing the ambient coordinate."""

    __slots__ = ("entries", "n")

    def __init__(self, entries):
        self.entries = [[_require(e) for e in row] for row in entries]
        self.n = len(self.entries)
        for row in self.entries:
            if len(row) != self.n:
                raise MalformedInputError("RatMat must be square")

    @classmethod
    def zero(cls, n):
        return cls([[RatScalar.zero() for _ in range(n)] for _ in range(n)])

    @classmethod
    def from_constant(cls, M):
        M = np.asarray(M, dtype=complex)
        return cls([[RatScalar.const(M[i, j]) for j in range(M.shape[1])]
                    for i in range(M.shape[0])])

    @classmethod
    def from_polar_part(cls, p, coeff_list):
        """``sum_k C_k / (z - p)**k`` for ``coeff_list = [C_1, C_2, ...]``:
        a matrix sum over k of the entries ``simple_pole(p, c, k)``."""
        zero, p = RatScalar.zero(), complex(p)
        return reduce(operator.add, (
            cls([[_entry(np.array([c]), ((p, k),)) if c != 0 else zero
                  for c in row] for row in C])
            for k, C in enumerate(np.asarray(coeff_list, dtype=complex)
                                  .tolist(), start=1)))

    @classmethod
    def from_poly_matrix(cls, coeffs, center=0.0):
        """Polynomial matrix ``sum_k M_k (z - center)**k`` as a RatMat in z."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if center != 0:
            coeffs = np.apply_along_axis(poly_shift, 0, coeffs, -center,
                                         coeffs.shape[0])
        n = coeffs.shape[1]
        return cls([[RatScalar(coeffs[:, i, j]) for j in range(n)]
                    for i in range(n)])

    # -- structure ------------------------------------------------------------

    def _by_poles(self):
        """An entry per distinct pole tuple and numerator length, in order."""
        return {(e.poles, e.num.size): e for row in self.entries for e in row}

    def pole_points(self):
        pts = []
        for poles, _ in self._by_poles():
            for r, _ in poles:
                if not any(abs(r - q) <= TAU_MERGE * max(1.0, abs(q))
                           for q in pts):
                    pts.append(r)
        return pts

    def pole_order(self, p):
        return max(e.pole_order(p) for e in self._by_poles().values())

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RatMat):
            return NotImplemented
        plans = {}
        return RatMat([[_add(self.entries[i][j], other.entries[i][j], plans)
                        for j in range(self.n)] for i in range(self.n)])

    def __sub__(self, other):
        if not isinstance(other, RatMat):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return RatMat([[-e for e in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, RatScalar)):
            return RatMat([[e * other for e in row] for row in self.entries])
        return NotImplemented

    def __matmul__(self, other):
        if not isinstance(other, RatMat):
            return NotImplemented
        n, a, b = self.n, self.entries, other.entries
        # each entry's left fold over k: one matrix sum per k
        return _sum((RatMat([[a[i][k] * b[k][j] for j in range(n)]
                             for i in range(n)]) for k in range(n)),
                    lambda: RatMat.zero(n))

    def derivative(self):
        return RatMat([[e.derivative() for e in row] for row in self.entries])

    # -- evaluation and expansions ---------------------------------------------

    def eval(self, z):
        return np.array([[complex(e(z)) for e in row] for row in self.entries])

    def laurent(self, p, k_max):
        """Laurent jet at ``p`` through order ``k_max``: a pole tuple's other
        roots are expanded and shifted once, each shift to the terms read."""
        if is_infinity(p):
            jet = RatMat([[e.at_infinity() for e in row]
                          for row in self.entries]).laurent(0.0, k_max)
            return LaurentJet(INFINITY, jet.k_min, jet.coeffs, 0)
        z, dens = complex(p), {}
        for poles in dict.fromkeys(e.poles for row in self.entries
                                   for e in row):
            hits = [(r, m) for r, m in poles
                    if abs(z - r) <= TAU_CANCEL * max(1.0, abs(r))]
            if len(hits) > 1:
                raise MalformedInputError(
                    f"ambiguous expansion point {z}: several denominator "
                    f"roots coincide within tolerance with inconsistent "
                    f"multiplicities")
            center, m = hits[0] if hits else (z, 0)
            rest = poly_factors([(r, mm) for r, mm in poles if r != center])
            dens[poles] = m, center, poly_shift(rest, center, k_max + m + 1)
        k_min = min(-m for m, _, _ in dens.values())
        out = np.zeros((max(k_max - k_min + 1, 0), self.n, self.n),
                       dtype=complex)
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                m, center, den = dens[e.poles]
                nterms = k_max + m + 1
                if nterms > 0:
                    out[-m - k_min:, i, j] = series_div(
                        poly_shift(e.num, center, nterms), den, nterms)
        return LaurentJet(p, k_min, out, 0)

    def __repr__(self):
        return f"RatMat(n={self.n}, poles={self.pole_points()})"


def _require(e):
    if isinstance(e, RatScalar):
        return e
    raise MalformedInputError(f"cannot use {type(e)} as a RatMat entry")


# ---------------------------------------------------------------------------
# residues of 1-forms
# ---------------------------------------------------------------------------

def residue(omega, p):
    """Residue at ``p`` of the 1-form ``omega dz`` (``omega`` rational).

    ``p`` may be finite or INFINITY; a regular point gives zero.  Matrix
    input gives the entrywise (matrix) residue.
    """
    if isinstance(omega, RatMat):
        return np.array([[residue(e, p) for e in row] for row in omega.entries])
    if is_infinity(p):
        # omega dz = -omega(1/w) dw / w**2: minus the w**1 coefficient
        return -complex(omega.laurent(INFINITY, 1).coefficient(1))
    jet = omega.laurent(p, -1)
    return complex(jet.coefficient(-1))


def residue_sum_all_poles(omega):
    """Sum of residues over every pole including infinity (should be ~0)."""
    return reduce(operator.add, (residue(omega, p)
                                 for p in omega.pole_points() + [INFINITY]))


def residue_quadrature_oracle(omega, p, radius, N=128):
    """Residue by trapezoid quadrature of ``omega dz`` (``omega`` a
    ``RatScalar``) on a circle around p.

    Independent of the symbolic path: only pointwise evaluation is used.
    The circle must enclose no pole other than p itself.
    """
    if is_infinity(p):
        raise PreconditionError("quadrature oracle is defined at finite points")
    p = complex(p)
    for q, _ in omega.poles:
        if abs(q - p) > TAU_MERGE * max(1.0, abs(p)) and abs(q - p) <= radius:
            raise PreconditionError(
                f"pole at {q} inside or on the quadrature circle around {p}")
    theta = 2.0 * np.pi * np.arange(N) / N
    nodes = p + radius * np.exp(1j * theta)
    w = radius * np.exp(1j * theta) / N
    vals = omega(nodes)
    return complex(np.sum(vals * w))


# ---------------------------------------------------------------------------
# polynomial matrices (twist germs)
# ---------------------------------------------------------------------------

def polymat_det(coeffs):
    """Determinant of a polynomial matrix, as ascending coefficients."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = coeffs.shape[1]
    if n == 1:
        return poly_trim(coeffs[:, 0, 0], rel_tol=1e-14)
    terms = []
    for j in range(n):
        minor = coeffs[:, 1:, [c for c in range(n) if c != j]]
        term = poly_mul(coeffs[:, 0, j], polymat_det(minor))
        terms.append(term if j % 2 == 0 else -term)
    return poly_trim(reduce(poly_add, terms), rel_tol=1e-14)


def det_order(det):
    """Vanishing order at 0 of a twist germ's determinant (ascending
    coefficients): the leading ones within ``TAU_DET`` of the largest."""
    scale = np.max(np.abs(det))
    mu = 0
    while mu < det.size and abs(det[mu]) <= TAU_DET * scale:
        mu += 1
    return mu


def polymat_adjugate(coeffs):
    """Adjugate of a polynomial matrix, as a polynomial matrix: entry
    ``(j, i)`` is the signed determinant of the minor without row ``i`` and
    column ``j``."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = coeffs.shape[1]
    adj = np.zeros(((n - 1) * (coeffs.shape[0] - 1) + 1, n, n), dtype=complex)
    if n == 1:
        adj[0, 0, 0] = 1.0
        return adj
    for i in range(n):
        for j in range(n):
            rows = [r for r in range(n) if r != i]
            cols = [c for c in range(n) if c != j]
            md = polymat_det(coeffs[:, rows][:, :, cols])
            adj[: md.size, j, i] = (-1.0 if (i + j) % 2 else 1.0) * md
    return adj
