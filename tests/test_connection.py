import numpy as np
import pytest

from isomonodromy.connection import (
    Connection,
    PolarDivisor,
    diagonalize_jet,
    eigenvalue_jets,
    formal_diagonalize,
    gauge_transform,
    reconstruction_defect,
    spectral_quadratic,
)
from isomonodromy.errors import (
    MalformedInputError,
    PoleDomainError,
    RegularityError,
)
from isomonodromy.ratfun import LaurentJet, RatMat, RatScalar

from conftest import fuchsian_connection, random_matrix


def simple_connection(poles, mats):
    return Connection.from_ratmat(fuchsian_connection(poles, mats))


class TestConnectionBasics:
    def test_divisor_sorted_nonincreasing(self):
        d = PolarDivisor([0.0, 1.0, 2.0], [1, 3, 2])
        assert d.mults == (3, 2, 1)

    def test_divisor_rejects_close_points(self):
        with pytest.raises(MalformedInputError):
            PolarDivisor([0.0, 1e-9], [1, 1])

    def test_eval_simple(self):
        M = np.array([[2.0, 0.0], [1.0, -1.0]], dtype=complex)
        conn = simple_connection([1.0], [M])
        assert np.allclose(conn.eval(2.0), M)

    def test_eval_two_poles(self):
        M1 = np.diag([1.0, 2.0]).astype(complex)
        M2 = np.diag([3.0, 4.0]).astype(complex)
        conn = simple_connection([0.0, 1.0], [M1, M2])
        # at z = -1: M1/(-1) + M2/(-2)
        assert np.allclose(conn.eval(-1.0), -M1 - M2 / 2)

    def test_eval_zero_connection(self):
        conn = Connection.from_ratmat(RatMat.zero(2))
        assert np.allclose(conn.eval(0.3), 0.0)

    def test_eval_at_pole_raises(self):
        conn = simple_connection([1.0], [np.eye(2, dtype=complex)])
        with pytest.raises(PoleDomainError):
            conn.eval(1.0)

    def test_undeclared_pole_order_rejected(self):
        A = RatMat.from_polar_part(0.0, [np.eye(2), np.eye(2)])
        with pytest.raises(MalformedInputError):
            Connection(2, A, PolarDivisor([0.0], [1]))

    def test_divisor_may_overdeclare(self):
        # zero residues are legal: the divisor covers a vanishing polar part
        A = RatMat.from_polar_part(0.0, [np.eye(2, dtype=complex)])
        conn = Connection(2, A, PolarDivisor([0.0, 1.0], [1, 1]))
        assert conn.divisor.mult_at(1.0) == 1

    def test_regularity_at_infinity(self):
        M = np.array([[1.0, 0.5], [0.0, -1.0]], dtype=complex)
        balanced = simple_connection([0.0, 1.0], [M, -M])
        lopsided = simple_connection([0.0, 1.0], [M, M])
        assert balanced.is_regular_at_infinity()
        assert not lopsided.is_regular_at_infinity()


class TestGauge:
    def test_identity_fixes(self, rng):
        conn = simple_connection([0.0, 1.0], [random_matrix(rng, 2),
                                              random_matrix(rng, 2)])
        out = gauge_transform(conn, np.eye(2))
        z = 0.4 + 0.9j
        assert np.allclose(out.eval(z), conn.eval(z), atol=1e-12)

    def test_scalar_z_creates_log_pole(self):
        conn = Connection.from_ratmat(RatMat.zero(1))
        g = RatMat([[RatScalar.monomial(1)]])
        out = gauge_transform(conn, g)
        # -dg g^-1 = -dz/z
        assert abs(out.residue_matrix(0.0)[0, 0] + 1.0) < 1e-13

    def test_constant_gauge_is_conjugation(self, rng):
        conn = simple_connection([0.0, 2.0], [random_matrix(rng, 2),
                                              random_matrix(rng, 2)])
        g = np.array([[1.0, 2.0], [0.5, 3.0]], dtype=complex)
        out = gauge_transform(conn, g)
        z = 1.0 + 1.0j
        assert np.allclose(out.eval(z), g @ conn.eval(z) @ np.linalg.inv(g),
                           atol=1e-11)
        assert set(np.round(np.array(out.matrix.pole_points()), 6)) == \
            set(np.round(np.array(conn.matrix.pole_points()), 6))

    def test_group_action_composition(self, rng):
        conn = simple_connection([0.0, 1.5], [random_matrix(rng, 2),
                                              random_matrix(rng, 2)])
        g1 = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        g2c = np.array([[2.0, 0.0], [1.0, 1.0]], dtype=complex)
        lhs = gauge_transform(gauge_transform(conn, g1), g2c)
        rhs = gauge_transform(conn, g2c @ g1)
        for z in (0.7 + 0.4j, -1.2 + 0.1j, 2.5 - 0.8j):
            assert np.max(np.abs(lhs.eval(z) - rhs.eval(z))) < 1e-10

    def test_rational_gauge_group_action(self, rng):
        conn = simple_connection([0.0], [random_matrix(rng, 2)])
        gz = RatMat([[RatScalar.monomial(1), RatScalar.const(1.0)],
                     [RatScalar.zero(), RatScalar.const(1.0)]])
        g2 = np.array([[1.0, 0.0], [2.0, 1.0]], dtype=complex)
        lhs = gauge_transform(gauge_transform(conn, gz), g2)
        rhs = gauge_transform(conn, RatMat.from_constant(g2) @ gz)
        for z in (0.7 + 0.4j, 2.5 - 0.8j):
            assert np.max(np.abs(lhs.eval(z) - rhs.eval(z))) < 1e-10

    def test_identically_singular_rejected(self):
        conn = Connection.from_ratmat(RatMat.zero(2))
        g = RatMat([[RatScalar.monomial(1), RatScalar.monomial(1)],
                    [RatScalar.monomial(1), RatScalar.monomial(1)]])
        with pytest.raises(MalformedInputError):
            gauge_transform(conn, g)


class TestSpectralQuadratic:
    def test_diagonal_example(self):
        conn = simple_connection([0.0], [np.diag([1.0, -1.0]).astype(complex)])
        q = spectral_quadratic(conn)
        # tr(diag(1,-1)/z)^2 = 2/z^2
        assert abs(q(2.0) - 0.5) < 1e-13
        assert q.pole_order(0.0) == 2

    def test_zero_connection(self):
        q = spectral_quadratic(Connection.from_ratmat(RatMat.zero(3)))
        assert q.is_zero()

    def test_rank_one_square(self):
        a, t1, t2 = 1.7, 0.0, 1.0
        conn = simple_connection([t1, t2], [np.array([[a]], dtype=complex),
                                            np.array([[-a]], dtype=complex)])
        q = spectral_quadratic(conn)
        z = 0.3 + 0.2j
        want = (a / (z - t1) - a / (z - t2)) ** 2
        assert abs(q(z) - want) < 1e-11
        assert q.pole_order(t1) == 2
        assert q.pole_order(t2) == 2

    def test_gauge_invariance_constant(self, rng):
        conn = simple_connection([0.0, 1.0], [random_matrix(rng, 2),
                                              random_matrix(rng, 2)])
        g = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
        q1 = spectral_quadratic(conn)
        q2 = spectral_quadratic(gauge_transform(conn, g))
        for z in (0.5 + 0.5j, -2.0 + 0.3j):
            assert abs(q1(z) - q2(z)) < 1e-12 * max(1.0, abs(q1(z)))

    def test_matches_eigenvalue_jets(self, rng):
        # sum of squared eigenvalue jets equals the trace form, order by order
        mats = [random_matrix(rng, 2) for _ in range(2)]
        mats[0] = mats[0] + np.diag([1.0, -1.0])  # keep leading regular
        conn = simple_connection([0.0, 1.0], mats)
        q = spectral_quadratic(conn)
        lam = eigenvalue_jets(conn, 0.0, 3)
        qjet = q.laurent(0.0, 1)
        # lam rows are orders -1..2; square and sum
        for k in range(-2, 2):
            acc = 0.0 + 0j
            for i in range(-1, k + 2):
                j = k - i
                if -1 <= j <= 2:
                    acc += np.sum(lam[i + 1] * lam[j + 1])
            assert abs(acc - qjet.coefficient(k)) < 1e-9 * max(
                1.0, abs(qjet.coefficient(k)))


class TestFormalDiagonalize:
    def test_already_diagonal(self):
        # entries already in (re, im) lexicographic order, integer gap: the
        # order-3 resonance is solvable and must not raise
        conn = simple_connection([0.0], [np.diag([-1.0, 2.0]).astype(complex)])
        pair = formal_diagonalize(conn, 0.0, 3)
        assert np.allclose(pair.Z.coefficient(0), np.eye(2), atol=1e-12)
        assert np.allclose(np.diag(pair.B.coefficient(-1)), [-1.0, 2.0])

    def test_spec_upper_triangular_example(self):
        A2 = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex)
        conn = Connection.from_polar_parts([(0.0, [np.zeros((2, 2)), A2])])
        pair = formal_diagonalize(conn, 0.0, 2)
        # leading B is diag(-1, 1) after the (re, im) sort
        assert np.allclose(np.diag(pair.B.coefficient(-2)), [-1.0, 1.0])
        defect = reconstruction_defect(conn, 0.0, pair, 2)
        assert np.max(np.abs(defect)) < 1e-9

    def test_nilpotent_leading_rejected(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        conn = Connection.from_polar_parts([(0.0, [np.zeros((2, 2)), N])])
        with pytest.raises(RegularityError):
            formal_diagonalize(conn, 0.0, 2)

    def test_reconstruction_random_jets(self, rng):
        # acceptance-style: random regular-leading jets, defect through order 4
        for _ in range(25):
            n = int(rng.integers(2, 4))
            l = int(rng.integers(1, 4))
            lead = random_matrix(rng, n) + np.diag(3.0 * np.arange(n))
            rest = [random_matrix(rng, n) for _ in range(l - 1)]
            conn = Connection.from_polar_parts(
                [(0.0, list(reversed([lead] + rest)))],
                tail=[random_matrix(rng, n)])
            pair = formal_diagonalize(conn, 0.0, 4)
            defect = reconstruction_defect(conn, 0.0, pair, 4)
            assert np.max(np.abs(defect)) < 1e-9

    @pytest.mark.parametrize("include_derivative", [True, False])
    def test_tangents_match_contour_derivative(self, rng, include_derivative):
        # dB of an order-3 rank-3 jet along three random variations, against
        # a 16-point Cauchy contour derivative of B of radius 1e-2 (Lyness &
        # Moler 1967); the values stay those of the plain call, bit for bit
        n, l, order = 3, 3, 4
        coeffs = 0.3 * np.stack([random_matrix(rng, n)
                                 for _ in range(2 * l - 1)])
        coeffs[0] += np.diag([0.5, -0.4 + 0.2j, 1.1])
        dA = np.stack([[random_matrix(rng, n) for _ in range(2 * l - 1)]
                       for _ in range(3)])

        def diag_B(c, dA=None):
            return diagonalize_jet(LaurentJet(0.0, -l, c, 1), order,
                                   include_derivative, dA)

        pair, plain = diag_B(coeffs, dA), diag_B(coeffs)
        assert np.array_equal(pair.B.coeffs, plain.B.coeffs)
        assert np.array_equal(pair.Z.coeffs, plain.Z.coeffs)
        assert pair.dB.shape == (3, order + 1, n)
        N, r = 16, 1e-2
        roots = np.exp(2j * np.pi * np.arange(N) / N)
        for x in range(3):
            contour = sum(diag_B(coeffs + r * w * dA[x]).b_diag / w
                          for w in roots) / (N * r)
            scale = max(1.0, float(np.max(np.abs(contour))))
            assert np.max(np.abs(pair.dB[x] - contour)) < 1e-11 * scale

    def test_irregular_invariants_match_leading(self, rng):
        lead = np.diag([0.7, -0.9]).astype(complex)
        res = random_matrix(rng, 2)
        conn = Connection.from_polar_parts([(0.5, [res, lead])])
        pair = formal_diagonalize(conn, 0.5, 2)
        assert np.allclose(np.diag(pair.B.coefficient(-2)),
                           sorted(np.diag(lead), key=lambda w: (w.real, w.imag)),
                           atol=1e-12)
