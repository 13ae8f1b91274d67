import ast
from pathlib import Path

import numpy as np
import pytest

import isomonodromy.connection as connection_module
import isomonodromy.ratfun as ratfun
import isomonodromy.serialize as ser
from isomonodromy.connection import (
    TAU_SEP,
    BasePole,
    Connection,
    PolarDivisor,
    check_separated,
    diagonalize_jet,
    near,
)
from isomonodromy.errors import (
    MalformedInputError,
    PoleDomainError,
    PreconditionError,
    RegularityError,
)
from isomonodromy.ratfun import LaurentJet, RatMat, RatScalar, residue
from isomonodromy.states import FlowState
from isomonodromy.twist import MatrixDivisor, normal_form, push_connection

from conftest import (
    fuchsian_connection,
    random_fuchsian_matrices,
    random_matrix,
)
from oracles import (
    diagonal_jet_tangents,
    eigenvalue_jets,
    formal_diagonalize,
    gauge_transform,
    mult_at,
    polar_parts_by_partial_fractions,
    reconstruction_defect,
    regular_at_infinity_by_chart,
    seeded_from_polar_parts,
    seeded_inverse,
    seeded_matmul,
    spectral_quadratic,
)


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
        assert mult_at(conn.divisor, 1.0) == 1

    def test_regularity_at_infinity(self):
        M = np.array([[1.0, 0.5], [0.0, -1.0]], dtype=complex)
        balanced = simple_connection([0.0, 1.0], [M, -M])
        lopsided = simple_connection([0.0, 1.0], [M, M])
        assert balanced.is_regular_at_infinity()
        assert not lopsided.is_regular_at_infinity()

    @pytest.mark.parametrize("kind, regular", [
        ("fuchsian", True), ("residue_sum", False), ("tail", False),
        ("order2", True), ("twisted", False), ("base_pole_infinity", False),
        ("base_pole_finite", True)])
    def test_regularity_rule_matches_chart_at_infinity(self, rng, kind,
                                                       regular):
        # the rule reads the cached polar parts; the oracle rebuilds the
        # form in the chart w = 1/z
        R = random_fuchsian_matrices(rng, 2, 3)
        pts = [-1.0, 0.3j, 1.2]
        if kind == "fuchsian":
            conn = simple_connection(pts, R)
        elif kind == "residue_sum":
            conn = simple_connection(pts, [R[0], R[1], R[2] + 1e-3 * np.eye(2)])
        elif kind == "tail":
            conn = Connection.from_polar_parts(
                list(zip(pts, ([C] for C in R))), tail=[random_matrix(rng, 2)])
        elif kind == "order2":
            conn = Connection.from_polar_parts(
                [(pts[0], [R[0], random_matrix(rng, 2)]),
                 (pts[1], [R[1]]), (pts[2], [R[2]])])
        elif kind == "twisted":
            # the pushed form picks up a constant tail
            site = normal_form(0.1 - 0.2j, (0.0, 0.7))
            conn = push_connection(site, simple_connection(pts, R))
        else:
            # residue k/n I at the base pole: the finite residues of the
            # divisor sum to -I/2, so only a finite base pole balances them
            half = [C - np.eye(2) / 6 for C in R]
            if kind == "base_pole_infinity":
                conn = Connection.from_ratmat(fuchsian_connection(pts, half),
                                              base_pole=BasePole(1))
            else:
                A = fuchsian_connection(pts + [2.0], half + [np.eye(2) / 2])
                conn = Connection.from_ratmat(A, base_pole=BasePole(1, 2.0))
                assert len(conn.divisor.points) == 3
        assert conn.is_regular_at_infinity() == regular
        assert regular_at_infinity_by_chart(conn) == regular


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
        assert abs(residue(out.matrix, 0.0)[0, 0] + 1.0) < 1e-13

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

    @pytest.mark.parametrize("with_tangents", [False, True])
    def test_obstructed_fuchsian_resonance(self, rng, with_tangents):
        # leading eigenvalues 0 and 1: the order-1 divisor d_1 - d_0 - 1 is
        # exactly 0 where the (1, 0) entry of A_0 must be cancelled; the
        # forward tangent pass of the reference refuses it alike
        coeffs = np.zeros((3, 2, 2), dtype=complex)
        coeffs[0] = np.diag([0.0, 1.0])
        coeffs[1] = [[0.2, 0.3], [0.4, -0.1]]
        jet = LaurentJet(0.0, -1, coeffs, 1)
        with pytest.raises(RegularityError,
                           match=r"divisor 0j at order 1$"):
            if with_tangents:
                dA = np.stack([[random_matrix(rng, 2) for _ in range(3)]
                               for _ in range(2)])
                diagonal_jet_tangents(jet, 2, dA)
            else:
                diagonalize_jet(jet, 2)

    def test_solvable_fuchsian_resonance(self, rng):
        # the same resonance with nothing to cancel: the value pass leaves
        # the entry of U zero and the pullback reads no divisor there, so
        # the weight it gives is finite and pairs with variations that keep
        # the (1, 0) entry of A_0 zero as a contour derivative of the
        # weighted diagonal of B
        coeffs = np.zeros((3, 2, 2), dtype=complex)
        coeffs[0] = np.diag([0.0, 1.0])
        coeffs[1] = [[0.2, 0.3], [0.0, -0.1]]
        coeffs[2] = random_matrix(rng, 2)
        dA = np.stack([[np.diag(rng.standard_normal(2)),
                        random_matrix(rng, 2), random_matrix(rng, 2)]
                       for _ in range(2)])
        dA[:, 1, 1, 0] = 0.0
        weight = random_matrix(rng, 3)[:, :2]

        def diag_B(c):
            return diagonalize_jet(LaurentJet(0.0, -1, c, 1), 2)

        pair = diag_B(coeffs)
        assert pair.Z.coefficient(1)[1, 0] == 0.0
        A_weight = pair.pullback(weight)
        assert np.all(np.isfinite(A_weight))
        N, r = 16, 1e-2
        roots = np.exp(2j * np.pi * np.arange(N) / N)
        for x in range(2):
            contour = sum(
                np.sum(weight * diag_B(coeffs + r * w * dA[x]).b_diag) / w
                for w in roots) / (N * r)
            got = np.einsum("kpq,kqp->", A_weight, dA[x])
            assert abs(got - contour) < 1e-11 * max(1.0, abs(contour))

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
        # the reference's forward tangents of an order-3 rank-3 jet along
        # three random variations, against a 16-point Cauchy contour
        # derivative of B of radius 1e-2 (Lyness & Moler 1967); its values
        # stay those of the plain call, and with the derivative term those
        # of the library's diagonalize_jet, bit for bit
        n, l, order = 3, 3, 4
        coeffs = 0.3 * np.stack([random_matrix(rng, n)
                                 for _ in range(2 * l - 1)])
        coeffs[0] += np.diag([0.5, -0.4 + 0.2j, 1.1])
        dA = np.stack([[random_matrix(rng, n) for _ in range(2 * l - 1)]
                       for _ in range(3)])

        def diag_B(c, dA=None):
            return diagonal_jet_tangents(LaurentJet(0.0, -l, c, 1), order,
                                         dA, include_derivative)

        (b_diag, dB), plain = diag_B(coeffs, dA), diag_B(coeffs)[0]
        assert np.array_equal(b_diag, plain)
        if include_derivative:
            assert np.array_equal(b_diag, diagonalize_jet(
                LaurentJet(0.0, -l, coeffs, 1), order).b_diag)
        assert dB.shape == (3, order + 1, n)
        N, r = 16, 1e-2
        roots = np.exp(2j * np.pi * np.arange(N) / N)
        for x in range(3):
            contour = sum(diag_B(coeffs + r * w * dA[x])[0] / w
                          for w in roots) / (N * r)
            scale = max(1.0, float(np.max(np.abs(contour))))
            assert np.max(np.abs(dB[x] - contour)) < 1e-11 * scale

    @pytest.mark.parametrize("l", [1, 3])
    def test_reverse_sweep_is_the_tangent_pass_transposed(self, rng, l):
        # for any weight on B's diagonal and any jet variation, the weight
        # the pullback gives on the jet pairs with the variation as the
        # weight pairs with the reference's forward tangent of B; the jet
        # starts with a zero row, which the recursion drops.  Weights
        # stacked on leading axes take one sweep, and each slice gets the
        # bits of its own pullback
        n, order = 3, 2 * l
        coeffs = 0.3 * np.stack([random_matrix(rng, n)
                                 for _ in range(2 * l + 2)])
        coeffs[0] = 0.0
        coeffs[1] += np.diag([0.5, -0.4 + 0.2j, 1.1])
        dA = np.stack([[random_matrix(rng, n) for _ in range(2 * l + 2)]
                       for _ in range(4)])
        weight = random_matrix(rng, max(n, order + 1))[: order + 1, :n]
        jet = LaurentJet(0.0, -l - 1, coeffs, 1)
        pair = diagonalize_jet(jet, order)
        A_weight = pair.pullback(weight)
        stacked = np.stack([[weight, random_matrix(rng, order + 1)[:, :n]],
                            [2.0 * weight, np.zeros_like(weight)]])
        A_stacked = pair.pullback(stacked)
        assert A_stacked.shape == (2, 2) + coeffs.shape
        for ab in np.ndindex(2, 2):
            assert A_stacked[ab].tobytes() == pair.pullback(
                stacked[ab]).tobytes()
        assert A_stacked[0, 0].tobytes() == A_weight.tobytes()
        dB = diagonal_jet_tangents(jet, order, dA)[1]
        assert A_weight.shape == coeffs.shape
        assert not np.any(A_weight[0])
        forward = np.einsum("kc,xkc->x", weight, dB)
        reverse = np.einsum("kpq,xkqp->x", A_weight, dA)
        assert np.max(np.abs(reverse - forward)) \
            < 1e-13 * np.max(np.abs(forward))

    def test_irregular_invariants_match_leading(self, rng):
        lead = np.diag([0.7, -0.9]).astype(complex)
        res = random_matrix(rng, 2)
        conn = Connection.from_polar_parts([(0.5, [res, lead])])
        pair = formal_diagonalize(conn, 0.5, 2)
        assert np.allclose(np.diag(pair.B.coefficient(-2)),
                           sorted(np.diag(lead), key=lambda w: (w.real, w.imag)),
                           atol=1e-12)


FOUR_POLES = (-2.1, -0.35, 1.15, 2.6)


def _bits(a):
    return np.atleast_1d(np.asarray(a, dtype=complex)).view(float)


def assert_same_entries(A, B):
    """Every entry of ``A`` and ``B`` has the same numerator and poles, to
    the bit."""
    for row_a, row_b in zip(A.entries, B.entries):
        for ea, eb in zip(row_a, row_b):
            assert np.array_equal(_bits(ea.num), _bits(eb.num))
            assert np.array_equal(_bits(ea.poles).reshape(-1, 2),
                                  _bits(eb.poles).reshape(-1, 2))


def assert_same_polar_parts(got, want):
    (data_g, tail_g), (data_w, tail_w) = got, want
    assert len(data_g) == len(data_w)
    for (t, Cs), (u, Ds) in zip(data_g, data_w):
        assert np.array_equal(_bits(t), _bits(u))
        assert np.array_equal(_bits(np.stack(Cs)), _bits(np.stack(Ds)))
    assert np.array_equal(_bits(tail_g), _bits(tail_w))


class TestAssemblyBitForBit:
    """Sums that fold from their first term give the bits of sums seeded
    with zero, and ``polar_parts`` those of per-entry partial fractions."""

    def _polar_input(self, rng, case):
        if case.startswith("fuchsian"):
            n = int(case[-1])
            return [(t, [M]) for t, M in zip(
                FOUR_POLES, random_fuchsian_matrices(rng, n, 4))], n, None
        data = [(0.0, [random_matrix(rng, 2, 0.4), np.diag([0.5, -0.25])]),
                (2.0 + 0.5j, [random_matrix(rng, 2, 0.4)])]
        tail = None if case == "order2" else \
            [random_matrix(rng, 2, 0.3), random_matrix(rng, 2, 0.2)]
        return data, 2, tail

    @pytest.mark.parametrize("case", ["fuchsian-n2", "fuchsian-n3",
                                      "fuchsian-n4", "order2", "tail"])
    def test_from_polar_parts(self, rng, case):
        data, n, tail = self._polar_input(rng, case)
        conn = Connection.from_polar_parts(data, n=n, tail=tail)
        ref = seeded_from_polar_parts(data, n, tail)
        assert_same_entries(conn.matrix, ref)
        assert_same_polar_parts(conn.polar_parts,
                                polar_parts_by_partial_fractions(ref))

    def test_push_connection(self, rng):
        data, n, _ = self._polar_input(rng, "order2")
        conn = Connection.from_polar_parts(data)
        div = MatrixDivisor((normal_form(-1.5, (0.0, 1.0)),
                             normal_form(0.8 + 0.5j, (0.0, -0.7))))
        pushed = push_connection(div, conn)
        # site by site, in order
        ref = seeded_from_polar_parts(data, n)
        for site in div.sites:
            T = site.as_ratmat()
            Tinv = seeded_inverse(T)
            ref = (seeded_matmul(seeded_matmul(Tinv, ref), T)
                   - seeded_matmul(Tinv, T.derivative()))
        assert_same_entries(pushed.matrix, ref)
        assert_same_polar_parts(pushed.polar_parts,
                                polar_parts_by_partial_fractions(ref))

    def test_twist_germ_inverse(self):
        site = normal_form(0.3, (0.0, 1.2, -0.4 + 0.3j))
        assert_same_entries(site.inverse_ratmat(),
                            seeded_inverse(site.as_ratmat()))

    def test_rank3_four_pole_operation_counts(self, rng, monkeypatch):
        # each entry's polar terms and the tail come from one pass: an entry
        # is expanded (one series division) once per pole, no sum starts
        # from zero, and a matrix sum plans each pair of pole tuples once
        adds, expansions, plans = [0], [0], []
        add, divide, plan = ratfun._add, ratfun.series_div, ratfun._sum_plan

        def counted_add(a, b, shared):
            adds[0] += 1
            return add(a, b, shared)

        def counted_divide(num, den, nterms):
            expansions[0] += 1
            return divide(num, den, nterms)

        def counted_plan(pa, pb):
            plans.append((pa, pb))
            return plan(pa, pb)

        monkeypatch.setattr(ratfun, "_add", counted_add)
        monkeypatch.setattr(ratfun, "series_div", counted_divide)
        monkeypatch.setattr(ratfun, "_sum_plan", counted_plan)
        data = [(t, [M]) for t, M in zip(
            FOUR_POLES, random_fuchsian_matrices(rng, 3, 4))]
        conn = Connection.from_polar_parts(data)
        assert (adds[0], expansions[0]) == (27, 0)
        # three matrix sums; in each, every entry has the same poles
        assert len(plans) == 3
        assert [len(pa) + len(pb) for pa, pb in plans] == [2, 3, 4]
        conn.polar_parts
        assert (adds[0], expansions[0], len(plans)) == (27, 36, 3)


class TestDivisorPolarParts:
    """``Connection.divisor_polar_parts`` pads ``polar_parts`` with zeros to
    the divisor's declared orders, and gives the bits of the reader it
    replaced, the matrix's Laurent jet at each divisor point."""

    def _connections(self, rng):
        R, S = random_matrix(rng, 2, 0.4), random_matrix(rng, 2, 0.4)
        zero = np.zeros((2, 2))
        lead = np.diag([0.5, -0.25])
        return {
            # declared order 2 at 0, where the leading coefficient vanishes
            "overdeclared": Connection.from_polar_parts(
                [(0.0, [R, zero]), (1.5, [S, lead]), (-1.0, [-R - S])]),
            # a zero residue at 1j leaves the matrix no pole there
            "zero-residue": Connection.from_polar_parts(
                [(0.0, [R]), (1j, [zero]), (2.0, [S, lead]),
                 (-1.0, [-R - S])]),
        }

    @staticmethod
    def laurent_reader(conn, t, l):
        """The reader the accessor replaced: the matrix expanded again at
        the divisor point."""
        jet = conn.matrix.laurent(t, -1)
        return np.stack([jet.coefficient(-k) for k in range(1, l + 1)])

    @pytest.mark.parametrize("case", ["overdeclared", "zero-residue"])
    def test_padded_to_the_declared_orders(self, rng, case):
        conn = self._connections(rng)[case]
        parts = conn.divisor_polar_parts
        assert [t for t, _ in parts] == list(conn.divisor.points)
        assert [len(Cs) for _, Cs in parts] == list(conn.divisor.mults)
        found = {complex(t): len(Cs) for t, Cs in conn.polar_parts[0]}
        padded = [(t, Cs) for t, Cs in parts if found.get(t, 0) < len(Cs)]
        assert len(padded) == 1
        t, Cs = padded[0]
        assert not np.any(Cs[found.get(t, 0):])
        for t, Cs in parts:
            l = len(Cs)
            assert np.array_equal(_bits(np.stack(Cs)),
                                  _bits(self.laurent_reader(conn, t, l)))

    @pytest.mark.parametrize("case", ["overdeclared", "zero-residue"])
    def test_serialize_round_trip_keeps_the_divisor(self, rng, case):
        conn = self._connections(rng)[case]
        back = ser.un_connection(ser.connection(conn))
        assert back.divisor == conn.divisor
        for (t, Cs), (u, Ds) in zip(conn.divisor_polar_parts,
                                    back.divisor_polar_parts):
            assert t == u
            assert np.allclose(np.stack(Cs), np.stack(Ds), rtol=0,
                               atol=1e-14)

    def test_from_connection_keeps_the_divisor(self, rng):
        conn = self._connections(rng)["zero-residue"]
        state = FlowState.from_connection(conn)
        assert [(p.t, p.l) for p in state.poles] == list(
            zip(conn.divisor.points, conn.divisor.mults))
        zero_pole = state.poles[list(conn.divisor.points).index(1j)]
        assert not np.any(zero_pole.lam_res)


R2 = np.array([[0.2, 0.1], [0.05, -0.2]], dtype=complex)


@pytest.mark.parametrize("gap, at", [(0.5 * TAU_SEP, True),
                                     (2 * TAU_SEP, False)])
class TestProximityRule:
    """``near`` at each of its callers: a point ``gap`` from a pole, a
    twist point or a finite base point is at it for half of ``TAU_SEP``,
    and not for twice ``TAU_SEP``."""

    def test_near(self, gap, at):
        # the first point near enough, or None
        assert near(1.0, [0.0, 1.0 + gap, 1.0]) == (1.0 + gap if at else 1.0)
        assert near(1.0 + gap, [0.0, 1.0]) == (1.0 if at else None)

    def test_check_separated(self, gap, at):
        if at:
            with pytest.raises(MalformedInputError,
                               match=rf"^points 1.0 and {1.0 + gap} closer"):
                check_separated([1.0, 1.0 + gap], "points")
        else:
            check_separated([1.0, 1.0 + gap], "points")

    def test_eval(self, gap, at):
        conn = simple_connection([1.0], [R2])
        if at:
            with pytest.raises(PoleDomainError, match=r"of the pole \(1\+0j"):
                conn.eval(1.0 + gap)
        else:
            assert np.all(np.isfinite(conn.eval(1.0 + gap)))

    @pytest.mark.parametrize("build", ["from_polar_parts", "from_ratmat"])
    def test_pole_at_a_twist_point(self, gap, at, build):
        # a pole at the twist point stays out of the divisor
        if build == "from_polar_parts":
            conn = Connection.from_polar_parts(
                [(0.0, [R2]), (1.0 + gap, [-R2])], twist_points=(1.0,))
        else:
            conn = Connection.from_ratmat(
                fuchsian_connection([0.0, 1.0 + gap], [R2, -R2]),
                twist_points=(1.0,))
        assert conn.divisor.points == ((0j,) if at else (0j, 1.0 + gap))

    def test_undeclared_pole(self, gap, at):
        A = fuchsian_connection([0.0, 1.0 + gap], [R2, -R2])
        if at:
            Connection(2, A, PolarDivisor([0.0], [1]), twist_points=(1.0,))
        else:
            with pytest.raises(MalformedInputError,
                               match="outside D, E and the base point"):
                Connection(2, A, PolarDivisor([0.0], [1]),
                           twist_points=(1.0,))

    @pytest.mark.parametrize("onto", ["divisor", "twist", "base"])
    def test_push_connection(self, gap, at, onto):
        A = (RatMat.from_polar_part(0.0, [R2])
             + RatMat.from_polar_part(1.5, [-R2 - np.eye(2) / 2])
             + RatMat.from_polar_part(-1.0, [np.eye(2) / 2]))
        conn = Connection.from_ratmat(A, base_pole=BasePole(1, -1.0))
        if onto == "twist":
            conn = push_connection(normal_form(0.5, (0.0, 1.0)), conn)
        p = {"divisor": 1.5, "twist": 0.5, "base": -1.0}[onto]
        site = normal_form(p + gap, (0.0, 1.0))
        if at:
            with pytest.raises(PreconditionError, match={
                    "divisor": "overlaps the polar divisor",
                    "twist": r"overlaps the twist point \(0\.5\+0j\)$",
                    "base": "^twist site overlaps the base pole$"}[onto]):
                push_connection(site, conn)
        else:
            pushed = push_connection(site, conn)
            assert pushed.twist_points[-1] == p + gap
            assert pushed.divisor.points == conn.divisor.points

    def test_un_connection_pole_at_the_base_point(self, gap, at):
        d = ser.connection(Connection.from_polar_parts(
            [(0.0, [R2]), (1.5, [-R2])]))
        d["base_pole"] = {"point": [1.5 + gap, 0.0], "k": 1}
        if at:
            with pytest.raises(MalformedInputError, match="implied by"):
                ser.un_connection(d)
        else:
            conn = ser.un_connection(d)
            assert conn.divisor.points == (0j, 1.5)
            assert conn.base_pole == BasePole(1, 1.5 + gap)


def test_near_is_the_only_bare_separation_comparison():
    # every proximity test goes through connection.near; scaled forms such
    # as 2 * TAU_SEP are other rules and stay where they are
    package = Path(connection_module.__file__).parent
    offenders, inside_near = [], 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "near" \
                    and path.name == "connection.py":
                exempt = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare) or not any(
                    isinstance(x, ast.Name) and x.id == "TAU_SEP"
                    for x in [node.left, *node.comparators]):
                continue
            if id(node) in exempt:
                inside_near += 1
            else:
                offenders.append(f"{path.name}:{node.lineno}")
    assert inside_near == 1 and not offenders, offenders
