import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from isomonodromy.errors import MalformedInputError, PreconditionError
from isomonodromy.ratfun import (
    INFINITY,
    LaurentJet,
    RatMat,
    RatScalar,
    _horner,
    _sum_plan,
    poly_add,
    poly_mul,
    poly_shift,
    poly_trim,
    polymat_det,
    residue,
    residue_quadrature_oracle,
    residue_sum_all_poles,
)
from isomonodromy.twist import TwistSite

from conftest import random_rational_one_form
from oracles import (
    cluster_roots,
    form_at_infinity,
    from_partial_fractions,
    jet_inverse,
    three_branch_jet_product,
)


class TestLaurentExpand:
    def test_one_over_z_at_zero(self):
        f = RatScalar.simple_pole(0.0, 1.0)
        jet = f.laurent(0.0, 1)
        assert jet.coefficient(-1) == 1.0
        assert jet.coefficient(0) == 0.0
        assert jet.coefficient(1) == 0.0

    def test_two_pole_product_at_zero(self):
        # oracle: 1/(z(z-1)) = -1/z + 1/(z-1), so c_-1 = -1, c_0 = -1
        f = RatScalar(np.array([1.0 + 0j]), [(0.0, 1), (1.0, 1)])
        jet = f.laurent(0.0, 0)
        assert abs(jet.coefficient(-1) - (-1.0)) < 1e-14
        assert abs(jet.coefficient(0) - (-1.0)) < 1e-14

    def test_z_squared_at_infinity(self):
        jet = RatScalar.monomial(2).laurent(INFINITY, 0)
        assert jet.coefficient(-2) == 1.0
        assert jet.coefficient(-1) == 0.0

    def test_regular_point_taylor(self):
        f = RatScalar(np.array([1.0, 2.0, 3.0], dtype=complex))
        jet = f.laurent(1.0 + 1.0j, 3)
        z0 = 1.0 + 1.0j
        assert abs(jet.coefficient(0) - f(z0)) < 1e-13
        assert abs(jet.coefficient(1) - (2 + 6 * z0)) < 1e-13
        assert abs(jet.coefficient(2) - 3.0) < 1e-13
        assert jet.coefficient(3) == 0.0

    def test_ambiguous_point_raises(self):
        f = RatScalar(np.array([1.0 + 0j]), [(0.0, 1), (1e-11, 2)])
        with pytest.raises(MalformedInputError):
            f.laurent(0.0, 0)

    def test_matches_partial_fraction_termwise(self, rng):
        for _ in range(10):
            f, poles = random_rational_one_form(rng, n_poles=3, max_order=3)
            terms, poly = f.partial_fractions()
            rebuilt = from_partial_fractions(terms, poly)
            for p in poles:
                ja = f.laurent(p, 2)
                jb = rebuilt.laurent(p, 2)
                for k in range(ja.k_min, 3):
                    assert abs(ja.coefficient(k) - jb.coefficient(k)) < 1e-9 * (
                        1 + abs(ja.coefficient(k)))


class TestResidue:
    def test_simple_pole_matrix(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        A = RatMat.from_polar_part(2.0, [M])
        assert np.allclose(residue(A, 2.0), M)

    def test_double_pole_no_residue(self):
        f = RatScalar.simple_pole(0.0, 5.0, order=2)
        assert residue(f, 0.0) == 0.0

    def test_regular_point_zero(self):
        f = RatScalar.simple_pole(1.0, 1.0)
        assert residue(f, 5.0) == 0.0

    def test_residue_theorem_scalar(self, rng):
        for _ in range(20):
            f, _ = random_rational_one_form(rng, n_poles=3, max_order=3,
                                            tail_deg=1)
            assert abs(residue_sum_all_poles(f)) < 1e-12 * _scale(f)

    def test_residue_theorem_matrix(self, rng):
        entries = [[random_rational_one_form(rng, 2, 2)[0] for _ in range(2)]
                   for _ in range(2)]
        A = RatMat(entries)
        assert np.max(np.abs(residue_sum_all_poles(A))) < 1e-11

    def test_residue_at_infinity_of_one_over_z(self):
        f = RatScalar.simple_pole(0.0, 1.0)
        assert abs(residue(f, INFINITY) + 1.0) < 1e-14


class TestQuadratureOracle:
    def test_exact_for_one_over_z(self):
        f = RatScalar.simple_pole(0.0, 1.0)
        val = residue_quadrature_oracle(f, 0.0, 1.0, 64)
        assert abs(val - 1.0) < 1e-12

    def test_against_symbolic_residue(self):
        f = RatScalar.simple_pole(0.0, 2.0) + RatScalar(
            np.array([3.0 + 0j]), [(0.0, 3)])
        assert abs(residue_quadrature_oracle(f, 0.0, 0.7)
                   - residue(f, 0.0)) < 1e-12

    def test_holomorphic_gives_zero(self):
        f = RatScalar(np.array([1.0, 2.0, 1.5], dtype=complex))
        assert abs(residue_quadrature_oracle(f, 0.3, 0.5)) < 1e-13

    def test_enclosed_pole_rejected(self):
        f = RatScalar.simple_pole(0.0, 1.0) + RatScalar.simple_pole(0.5, 1.0)
        with pytest.raises(PreconditionError):
            residue_quadrature_oracle(f, 0.0, 0.9)

    def test_agreement_on_random_forms(self, rng):
        # acceptance-style: poles separated >= 0.1, radius = half separation
        for _ in range(100):
            f, poles = random_rational_one_form(rng, n_poles=3, max_order=2,
                                                min_sep=0.1)
            for p in poles:
                sep = min(abs(p - q) for q in poles if q != p)
                got = residue_quadrature_oracle(f, p, sep / 2, 256)
                want = residue(f, p)
                assert abs(got - want) < 1e-10 * max(1.0, abs(want))


class TestPartialFractions:
    def test_two_simple_poles(self):
        f = RatScalar(np.array([1.0 + 0j]), [(0.0, 1), (1.0, 1)])
        terms, poly = f.partial_fractions()
        d = {(complex(p), k): c for p, k, c in terms}
        assert abs(d[(0j, 1)] + 1.0) < 1e-14
        assert abs(d[(1 + 0j, 1)] - 1.0) < 1e-14
        assert np.allclose(poly, 0.0)

    def test_pure_polynomial(self):
        f = RatScalar.monomial(1)
        terms, poly = f.partial_fractions()
        assert terms == []
        assert np.allclose(poly, [0.0, 1.0])

    def test_double_pole_passthrough(self):
        f = RatScalar.simple_pole(2.0, 1.0, order=2)
        terms, poly = f.partial_fractions()
        assert terms == [(2.0 + 0j, 2, 1.0 + 0j)]
        assert np.allclose(poly, 0.0)

    def test_reconstruction_at_sample_points(self, rng):
        for _ in range(10):
            f, poles = random_rational_one_form(rng, n_poles=3, max_order=3,
                                                tail_deg=2)
            terms, poly = f.partial_fractions()
            rebuilt = from_partial_fractions(terms, poly)
            for _ in range(20):
                z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if min(abs(z - p) for p in poles) < 0.2:
                    continue
                err = abs(f(z) - rebuilt(z))
                assert err < 1e-10 * max(1.0, abs(f(z)))


class TestArithmetic:
    def test_cancellation_on_construction(self):
        # (z - 1) / (z - 1) should collapse to 1
        f = RatScalar(np.array([-1.0, 1.0], dtype=complex), [(1.0, 1)])
        assert f.poles == ()
        assert abs(f(3.7) - 1.0) < 1e-14

    def test_add_mul_eval(self, rng):
        f, _ = random_rational_one_form(rng, 2, 2)
        g, _ = random_rational_one_form(rng, 2, 2)
        z = 0.618 + 0.3j
        assert abs((f + g)(z) - (f(z) + g(z))) < 1e-10
        assert abs((f * g)(z) - f(z) * g(z)) < 1e-10

    def test_derivative_matches_finite_difference(self, rng):
        f, _ = random_rational_one_form(rng, 3, 2, tail_deg=1)
        z = 0.11 - 0.47j
        h = 1e-6
        fd = (f(z + h) - f(z - h)) / (2 * h)
        assert abs(f.derivative()(z) - fd) < 1e-7 * max(1.0, abs(fd))

    def test_product_with_zero_has_no_poles(self):
        f = RatScalar.simple_pole(1.0, 2.0, order=2)
        assert (f * 0).is_zero() and (f * 0).poles == ()

    def test_pole_order_at_infinity(self):
        f = RatScalar(np.array([0.0, 0.0, 0.0, 1.0], dtype=complex), [(0.0, 1)])
        assert f.pole_order(INFINITY) == 2


class TestJets:
    def test_mul_range_tracking(self):
        a = LaurentJet(0.0, -1, np.array([1.0, 2.0, 3.0], dtype=complex))
        b = LaurentJet(0.0, 0, np.array([1.0, 1.0], dtype=complex))
        c = a * b
        assert c.k_min == -1
        assert c.k_max == 0  # limited by b's truncation
        assert c.coefficient(-1) == 1.0
        assert c.coefficient(0) == 3.0

    def test_matrix_inverse(self, rng):
        n = 3
        coeffs = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        coeffs[0] += 3 * np.eye(n)
        jet = LaurentJet(0.0, 0, coeffs)
        inv = jet_inverse(jet)
        prod = jet * inv
        assert np.allclose(prod.coefficient(0), np.eye(n), atol=1e-12)
        for k in range(1, prod.k_max + 1):
            assert np.max(np.abs(prod.coefficient(k))) < 1e-11

    def test_derivative_and_residue(self):
        jet = LaurentJet(0.0, -2, np.array([5.0, 7.0, 1.0, 2.0], dtype=complex))
        d = jet.derivative(as_form=True)
        assert d.form_degree == 1
        # d/dz of 7/z is -7/z^2; residue of the derivative form is 0
        assert d.coefficient(-2) == -7.0
        assert d.residue() == 0.0

    def test_vector_field_contraction(self):
        # m(z) d/dz applied to q dz^2 is a 1-form
        q = LaurentJet(0.0, -2, np.array([2.0, 0.0, 1.0], dtype=complex),
                       form_degree=2)
        m = LaurentJet(0.0, 0, np.array([1.0, 0.5], dtype=complex),
                       form_degree=-1)
        prod = m * q
        assert prod.form_degree == 1
        assert prod.coefficient(-1) == 1.0

    @pytest.mark.parametrize("a_matrix, b_matrix", [
        (True, True), (True, False), (False, True), (False, False)])
    def test_mul_is_the_three_branch_product(self, rng, a_matrix, b_matrix):
        def jet(matrix):
            shape = (int(rng.integers(1, 6)),) + ((3, 3) if matrix else ())
            coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return LaurentJet(0.5, int(rng.integers(-3, 2)), coeffs,
                              int(rng.integers(0, 2)))
        for _ in range(20):
            a, b = jet(a_matrix), jet(b_matrix)
            got, want = a * b, three_branch_jet_product(a, b)
            assert (got.k_min, got.form_degree) == (want.k_min,
                                                    want.form_degree)
            assert _same_bits(got.coeffs, want.coeffs)

    def test_inverse_of_a_scalar_jet_is_refused(self):
        jet = LaurentJet(0.0, 0, np.array([2.0, 1.0]), 0)
        with pytest.raises(MalformedInputError, match="scalar jet"):
            jet_inverse(jet)

    def test_coefficient_beyond_truncation_raises(self):
        jet = LaurentJet(0.0, 0, np.array([1.0 + 0j]))
        with pytest.raises(PreconditionError):
            jet.coefficient(1)


class TestPolyMat:
    def test_det_of_companion_style(self):
        # det [[z, -5], [0, 1]] = z
        T = np.zeros((2, 2, 2), dtype=complex)
        T[0] = [[0.0, -5.0], [0.0, 1.0]]
        T[1] = [[1.0, 0.0], [0.0, 0.0]]
        d = polymat_det(T)
        assert np.allclose(d, [0.0, 1.0])

    def test_inverse_jet_roundtrip(self, rng):
        T = np.zeros((2, 2, 2), dtype=complex)
        T[0] = [[0.0, -2.0], [0.0, 1.0]]
        T[1] = [[1.0, 0.0], [0.0, 0.0]]
        inv = TwistSite(0.0, T).inverse_jet(3)
        Tjet = LaurentJet(0.0, 0, T)
        prod = Tjet * inv
        assert np.allclose(prod.coefficient(0), np.eye(2), atol=1e-13)
        for k in range(1, prod.k_max + 1):
            assert np.max(np.abs(prod.coefficient(k))) < 1e-13

    def test_cluster_roots_multiplicity(self):
        # (z-1)^2 (z+2)
        c = np.array([2.0, -3.0, 0.0, 1.0], dtype=complex)
        roots = cluster_roots(c)
        roots = sorted(roots, key=lambda rm: rm[0].real)
        assert roots[0][1] == 1 and abs(roots[0][0] + 2) < 1e-8
        assert roots[1][1] == 2 and abs(roots[1][0] - 1) < 1e-6


def test_form_at_infinity_chart_change():
    # omega = dz has a double pole at infinity with zero residue;
    # omega = dz/z has residue -1 at infinity
    one = RatScalar.const(1.0)
    w_form = form_at_infinity(one)
    assert w_form.pole_order(0.0) == 2
    assert abs(residue(RatScalar.simple_pole(0.0, 1.0), INFINITY) + 1) < 1e-14


def _scale(f):
    vals = [abs(f(z)) for z in (2.5 + 1j, -3.1 + 0.2j, 0.1 - 2.7j)]
    return max(1.0, *vals)


def _same_bits(a, b):
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.dtype == b.dtype and np.array_equal(a.view(float), b.view(float))


def _kernel_operands(rng):
    """Random complex coefficient arrays, some ending in zeros, plus the
    edge cases: all zeros, length 1, and a pair whose sum cancels at the
    top."""
    def draw(size, zeros=0):
        c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        if zeros:
            c[-zeros:] = 0.0
        return c
    pairs = [(draw(int(rng.integers(1, 9)), int(rng.integers(0, 3))),
              draw(int(rng.integers(1, 9)), int(rng.integers(0, 3))))
             for _ in range(200)]
    a, b = draw(4), draw(4)
    b[-1] = -a[-1]
    pairs += [(a, b), (np.zeros(4, dtype=complex), draw(3)),
              (draw(3), np.zeros(1, dtype=complex)),
              (np.zeros(2, dtype=complex), np.zeros(3, dtype=complex)),
              (draw(1), draw(1)), (draw(1), draw(6, 2)),
              (draw(4), draw(4) * -0.0)]
    return pairs


class TestKernelsBitForBit:
    """Each polynomial kernel returns what numpy.polynomial returns, to the
    bit."""

    def test_poly_mul_is_polymul(self, rng):
        for a, b in _kernel_operands(rng):
            assert _same_bits(poly_mul(a, b), npoly.polymul(a, b))
            assert _same_bits(poly_mul(b, a), npoly.polymul(b, a))

    def test_poly_add_is_polyadd(self, rng):
        for a, b in _kernel_operands(rng):
            assert _same_bits(poly_add(a, b), npoly.polyadd(a, b))
            assert _same_bits(poly_add(b, a), npoly.polyadd(b, a))
            assert _same_bits(poly_add(a, -a), npoly.polyadd(a, -a))

    def test_horner_is_polyval(self, rng):
        for a, _ in _kernel_operands(rng):
            x = complex(*(2.5 * rng.standard_normal(2)))
            assert _same_bits(_horner(a, x), npoly.polyval(x, a))

    def test_poly_trim_fast_path(self, rng):
        # a 1-d complex array skips the conversion that a list, a 2-d or a
        # real array takes; all trim alike
        for a, _ in _kernel_operands(rng):
            for rel_tol in (0.0, 1e-14, 0.3):
                want = poly_trim(a.tolist(), rel_tol)
                assert _same_bits(poly_trim(a, rel_tol), want)
                assert _same_bits(poly_trim(a[None, :], rel_tol), want)
                assert _same_bits(poly_trim(a.real, rel_tol),
                                  poly_trim(a.real.tolist(), rel_tol))


def _same_entry(a, b):
    return (_same_bits(a.num, b.num)
            and _same_bits(np.array([r for r, _ in a.poles], dtype=complex),
                           np.array([r for r, _ in b.poles], dtype=complex))
            and [m for _, m in a.poles] == [m for _, m in b.poles])


def _constructed_sum(a, b):
    """``a + b`` over its plan's common denominator, through the constructor,
    which trims the numerator and merges the roots again."""
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    common, cof_a, cof_b = _sum_plan(a.poles, b.poles)
    return RatScalar(poly_add(poly_mul(a.num, cof_a), poly_mul(b.num, cof_b)),
                     common)


class TestMatrixGranularBitForBit:
    """A matrix sum, product or expansion shares work between entries with
    the same pole tuple, and gives the bits of entry-wise arithmetic."""

    R0, R1, R2 = 0.3 + 0.1j, -1.2, 0.8 - 0.6j

    def _mixed(self, rng):
        """Two 3x3 matrices whose entries have different pole tuples: zero
        entries, an order-2 pole with a diagonal leading coefficient, a
        polynomial tail, and in their sum an entry whose numerator cancels
        the root at R1; entries with one pole tuple meet different ones."""
        def mat(scale=1.0):
            return scale * (rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        C = mat()
        C[0, 1] = C[2, 0] = 0.0
        A = (RatMat.from_polar_part(self.R0, [mat(), np.diag(mat()[0])])
             + RatMat.from_polar_part(self.R1, [C])
             + RatMat.from_poly_matrix(np.stack([mat(0.3), mat(0.2)])))
        D = mat()
        D[1, 1] = 0.0
        B = RatMat.from_polar_part(self.R2, [D])
        B.entries[0][0] = (RatScalar.simple_pole(self.R1, -C[0, 0])
                           + RatScalar.simple_pole(self.R2, D[0, 0]))
        # A[1][0] and A[1][2] have one pole tuple, B[1][0] and B[1][2] two
        B.entries[1][0] = RatScalar.simple_pole(self.R1, D[1, 0])
        B.entries[2][2] = RatScalar.zero()
        return A, B

    def test_sum_is_entrywise(self, rng):
        A, B = self._mixed(rng)
        S = A + B
        tuples = {(a.poles, b.poles) for ra, rb in zip(A.entries, B.entries)
                  for a, b in zip(ra, rb)}
        assert len(tuples) >= 4
        # the root at R1 cancels in the corner, which keeps R0's and R2's
        assert [r for r, _ in S.entries[0][0].poles] == [self.R0, self.R2]
        for i in range(3):
            for j in range(3):
                a, b = A.entries[i][j], B.entries[i][j]
                assert _same_entry(S.entries[i][j], a + b)
                assert _same_entry(S.entries[i][j], _constructed_sum(a, b))

    def test_product_is_entrywise(self, rng):
        A, B = self._mixed(rng)
        for X, Y in ((A, B), (B, A), (A, A)):
            P = X @ Y
            for i in range(3):
                for j in range(3):
                    acc = X.entries[i][0] * Y.entries[0][j]
                    for k in (1, 2):
                        acc = _constructed_sum(
                            acc, X.entries[i][k] * Y.entries[k][j])
                    assert _same_entry(P.entries[i][j], acc)

    def test_laurent_is_entrywise(self, rng):
        A, B = self._mixed(rng)
        for M in (A, B, A + B):
            for p, k_max in ((self.R0, 2), (self.R1, 1), (self.R2, 0),
                             (2.0 + 1j, 2), (INFINITY, 1)):
                jet = M.laurent(p, k_max)
                assert jet.k_max == k_max
                for i in range(3):
                    for j in range(3):
                        ej = M.entries[i][j].laurent(p, k_max)
                        got = [jet.coefficient(k)[i, j]
                               for k in range(jet.k_min, k_max + 1)]
                        want = [ej.coefficient(k)
                                for k in range(jet.k_min, k_max + 1)]
                        assert _same_bits(np.array(got), np.array(want))

    def test_poly_shift_stops_at_the_terms_read(self, rng):
        for size in range(1, 8):
            c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            c[rng.integers(size)] = -0.0
            a = complex(*rng.standard_normal(2))
            full = poly_shift(c, a, size)
            assert np.allclose(npoly.polyval(0.7 + a, c),
                               npoly.polyval(0.7, full))
            # the shift in numpy scalars, which it replaced
            ref = c.copy()
            for i in range(size - 1):
                for k in range(size - 2, i - 1, -1):
                    ref[k] += a * ref[k + 1]
            assert _same_bits(full, ref)
            for terms in range(size + 2):
                assert _same_bits(poly_shift(c, a, terms), full[:terms])
