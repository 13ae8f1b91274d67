import ast
from pathlib import Path

import numpy as np
import pytest

from isomonodromy.connection import BasePole, Connection
from isomonodromy import ratfun
from isomonodromy.errors import MalformedInputError, PreconditionError
from isomonodromy.ratfun import LaurentJet, RatMat, RatScalar, residue
from isomonodromy.states import FlowState, PoleData
from isomonodromy.twist import (
    MatrixDivisor,
    TwistSite,
    degree,
    normal_form,
    pull_connection,
    push_connection,
    total_trace_residue,
)

from conftest import fuchsian_connection, random_invertible, random_matrix
from oracles import seeded_inverse


def z_identity_site(p, n, order=1):
    germ = np.zeros((order + 1, n, n), dtype=complex)
    germ[order] = np.eye(n)
    return TwistSite(p, germ)


class TestNormalForm:
    def test_rank_two_example(self):
        site = normal_form(0.5, (0.0, 5.0))
        # germ is [[zeta, -5], [0, 1]]
        assert np.allclose(site.germ[0], [[0.0, -5.0], [0.0, 1.0]])
        assert np.allclose(site.germ[1], [[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(site.det_poly(), [0.0, 1.0])
        assert site.point == 0.5

    def test_rank_one(self):
        site = normal_form(2.0, (0.0,))
        assert np.allclose(site.det_poly(), [0.0, 1.0])
        assert degree(site) == 1

    def test_rank_three_zero_hyperplane(self):
        site = normal_form(0.0, (0.0, 0.0, 0.0))
        val = site.germ[0] + site.germ[1]  # T at zeta = 1
        assert np.allclose(val, np.diag([1.0, 1.0, 1.0]))
        assert np.allclose(site.germ[0][0], [0.0, 0.0, 0.0])

    def test_position_parameter_recenters(self):
        site = normal_form(1.0, (0.25, 3.0))
        assert site.point == 1.25
        assert degree(site) == 1


class TestDegree:
    def test_normal_form_is_one(self):
        assert degree(normal_form(0.0, (0.0, 1.0, 2.0))) == 1

    def test_z_identity_is_n(self):
        for n in (1, 2, 3):
            assert degree(z_identity_site(1.0, n)) == n

    def test_empty_divisor(self):
        assert degree(MatrixDivisor(())) == 0

    def test_invariant_under_right_units(self, rng):
        site = normal_form(0.0, (0.0, 1.5))
        F = random_invertible(rng, 2)
        assert degree(site.right_multiply(F)) == degree(site)
        # polynomial unipotent factor (det = 1)
        U = np.zeros((2, 2, 2), dtype=complex)
        U[0] = np.eye(2)
        U[1] = [[0.0, 0.7], [0.0, 0.0]]
        assert degree(site.right_multiply(U)) == degree(site)

    def test_identically_singular_rejected(self):
        germ = np.zeros((1, 2, 2), dtype=complex)
        germ[0] = [[1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(MalformedInputError):
            TwistSite(0.0, germ)

    @pytest.mark.parametrize("diag", [(1e-7, None), (0.0, 1e-7)])
    def test_vanishing_near_the_site_rejected(self, diag):
        # det T is zeta - 1e-7, or zeta (zeta - 1e-7): a root 1e-7 from the
        # site, which would put T^-1's pole off the recorded twist point
        germ = np.zeros((2, 2, 2), dtype=complex)
        germ[1] = np.eye(2)
        germ[0] = np.diag([-diag[0], 1.0 if diag[1] is None else -diag[1]])
        if diag[1] is None:
            germ[1, 1, 1] = 0.0
        with pytest.raises(MalformedInputError, match="vanishes away"):
            TwistSite(0.0, germ)

    def test_far_vanishing_rejected(self):
        # det vanishes at zeta = 1, away from the site
        germ = np.zeros((2, 2, 2), dtype=complex)
        germ[0] = [[-1.0, 0.0], [0.0, 1.0]]
        germ[1] = [[1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(MalformedInputError):
            TwistSite(0.0, germ)


class TestPushPull:
    def test_rank_one_zero_connection(self):
        conn = Connection.from_ratmat(RatMat.zero(1))
        site = z_identity_site(0.0, 1)
        pushed = push_connection(site, conn)
        # A0 = -dz/z: residue -1 at the twist point
        assert abs(residue(pushed.matrix, 0.0)[0, 0] + 1.0) < 1e-12
        assert pushed.twist_points == (0.0,)

    def test_invertible_site_keeps_poles(self, rng):
        conn = Connection.from_ratmat(
            fuchsian_connection([1.0, -1.0],
                                [random_matrix(rng, 2), random_matrix(rng, 2)]))
        # degree-0 "twist": constant invertible germ
        G = random_invertible(rng, 2)
        T = RatMat.from_constant(G)
        A0 = (T @ conn.matrix @ seeded_inverse(T))
        out = Connection.from_ratmat(A0)
        assert sorted(np.round(np.array(out.matrix.pole_points()), 8).tolist(),
                      key=lambda z: (z.real, z.imag)) == \
            sorted(np.round(np.array(conn.matrix.pole_points()), 8).tolist(),
                   key=lambda z: (z.real, z.imag))

    def test_normal_form_trace_residue(self):
        conn = Connection.from_ratmat(RatMat.zero(2))
        site = normal_form(0.3, (0.0, 2.0))
        pushed = push_connection(site, conn)
        res = residue(pushed.matrix, 0.3)
        assert abs(np.trace(res) + 1.0) < 1e-11

    def test_pull_inverts_push(self, rng):
        conn = Connection.from_ratmat(
            fuchsian_connection([1.0, -1.0],
                                [random_matrix(rng, 2), random_matrix(rng, 2)]))
        div = MatrixDivisor((normal_form(0.0, (0.0, 1.0)),))
        back = pull_connection(div, push_connection(div, conn))
        for z in (0.5 + 0.5j, 2.0 - 1.0j, -0.7 + 0.2j):
            assert np.max(np.abs(back.eval(z) - conn.eval(z))) < 1e-10

    def test_pull_of_holomorphic_rank_one(self):
        M = np.array([[2.5]], dtype=complex)
        conn = Connection.from_ratmat(RatMat.from_constant(M))
        site = z_identity_site(0.0, 1)
        pulled = pull_connection(site, conn)
        # A1 = M dz + dz/z
        assert abs(residue(pulled.matrix, 0.0)[0, 0] - 1.0) < 1e-12
        assert abs(pulled.eval(2.0)[0, 0] - (2.5 + 0.5)) < 1e-12

    def test_overlap_rejected(self, rng):
        conn = Connection.from_ratmat(
            fuchsian_connection([0.0], [random_matrix(rng, 2)]))
        with pytest.raises(PreconditionError):
            push_connection(z_identity_site(0.0, 2), conn)

    def test_trace_residue_bookkeeping(self, rng):
        # sum res tr A0 = sum res tr A1 - deg(T)
        for _ in range(10):
            mats = [random_matrix(rng, 2) for _ in range(2)]
            conn = Connection.from_ratmat(fuchsian_connection([1.2, -0.8], mats))
            before = total_trace_residue(conn)
            kind = rng.integers(0, 3)
            if kind == 0:
                site = normal_form(0.1, (0.0, complex(rng.standard_normal())))
                site = site.right_multiply(random_invertible(rng, 2))
            elif kind == 1:
                site = z_identity_site(0.1, 2)
            else:
                site = normal_form(0.1, (0.0, 1.0))
            pushed = push_connection(site, conn)
            after = total_trace_residue(pushed)
            assert abs(after - (before - degree(site))) < 1e-10


class TestRank:
    """A site's rank must be the connection's, or the state's."""

    @pytest.mark.parametrize("transfer", [push_connection, pull_connection])
    @pytest.mark.parametrize("params", [(0.0,), (0.0, 1.0, 0.5)])
    def test_transfer_refuses_another_rank(self, rng, transfer, params):
        conn = Connection.from_ratmat(
            fuchsian_connection([1.0, -1.0],
                                [random_matrix(rng, 2), random_matrix(rng, 2)]))
        with pytest.raises(MalformedInputError, match="has rank"):
            transfer(normal_form(0.3, params), conn)

    def test_state_refuses_another_rank(self, rng):
        res = 0.3 * random_matrix(rng, 2)
        poles = (PoleData(1.0, 1, np.eye(2), res),
                 PoleData(-1.0, 1, np.eye(2), -res))
        FlowState(2, poles, MatrixDivisor((normal_form(0.3, (0.0, 1.0)),)))
        with pytest.raises(MalformedInputError, match="rank 1, expected 2"):
            FlowState(2, poles, MatrixDivisor((normal_form(0.3, (0.0,)),)))


def test_state_refuses_a_connection_with_a_tail(rng):
    # a state holds polar data only: the tail would be dropped
    res = 0.3 * random_matrix(rng, 2)
    data = [(1.0, [res]), (-1.0, [-res])]
    FlowState.from_connection(Connection.from_polar_parts(data))
    with pytest.raises(MalformedInputError, match="tail"):
        FlowState.from_connection(Connection.from_polar_parts(
            data, tail=[0.1 * np.eye(2)]))


def test_state_refuses_a_connection_with_a_base_pole(rng):
    # nor does it hold a base pole, which would be dropped as well
    res = 0.3 * random_matrix(rng, 2)
    data = [(1.0, [res]), (-1.0, [-res])]
    with pytest.raises(MalformedInputError, match="base_pole"):
        FlowState.from_connection(Connection.from_polar_parts(
            data, base_pole=BasePole(1)))


def test_multi_site_degree_adds(rng):
    div = MatrixDivisor((normal_form(0.0, (0.0, 1.0)),
                         z_identity_site(2.0, 2)))
    assert degree(div) == 3
    conn = Connection.from_ratmat(
        fuchsian_connection([1.0, -1.0],
                            [random_matrix(rng, 2), random_matrix(rng, 2)]))
    pushed = push_connection(div, conn)
    assert abs(total_trace_residue(pushed)
               - (total_trace_residue(conn) - 3)) < 1e-9


def test_two_site_push_adds_no_zero_term(rng, monkeypatch):
    # zero entries of the germs, of their product's inverse and of the
    # gauge terms cost no rational addition: ``poly_add`` is the numerator
    # step of ``RatScalar.__add__`` and its only caller
    operands = []
    real = ratfun.poly_add

    def recording(a, b):
        operands.append(not (np.any(a) and np.any(b)))
        return real(a, b)

    monkeypatch.setattr(ratfun, "poly_add", recording)
    div = MatrixDivisor((normal_form(0.0, (0.0, 1.0)),
                         normal_form(2.0, (0.0, 0.5))))
    conn = Connection.from_ratmat(
        fuchsian_connection([1.0, -1.0],
                            [random_matrix(rng, 2), random_matrix(rng, 2)]))
    operands.clear()
    push_connection(div, conn)
    assert operands and not any(operands)


class TestPushInTurn:
    """A pushed connection keeps its twist points when pushed again."""

    def pushed_pair(self, rng):
        R = 0.4 * random_matrix(rng, 2)
        conn = Connection.from_polar_parts([(1.3, [R]), (-1.3, [-R])])
        first = normal_form(0.4j, (0.0, 0.7))
        second = normal_form(-0.5j, (0.0, 0.3))
        return conn, first, second

    def test_in_turn_is_both_at_once(self, rng):
        conn, first, second = self.pushed_pair(rng)
        in_turn = push_connection(second, push_connection(first, conn))
        at_once = push_connection(MatrixDivisor((first, second)), conn)
        assert in_turn.twist_points == at_once.twist_points == (0.4j, -0.5j)
        assert in_turn.divisor.points == at_once.divisor.points
        assert in_turn.divisor.mults == at_once.divisor.mults
        assert set(at_once.divisor.points) == {1.3, -1.3}
        # a divisor pushes site by site: the same operations, the same bytes
        (data, tail), (data_w, tail_w) = in_turn.polar_parts, \
            at_once.polar_parts
        assert [(t, np.stack(Cs).tobytes()) for t, Cs in data] == \
            [(t, np.stack(Cs).tobytes()) for t, Cs in data_w]
        assert tail.tobytes() == tail_w.tobytes()

    def test_pull_keeps_the_twist_points_it_does_not_pull_across(self, rng):
        conn, first, second = self.pushed_pair(rng)
        once = push_connection(first, conn)
        back = pull_connection(second, push_connection(second, once))
        assert back.twist_points == once.twist_points == (0.4j,)
        assert back.divisor.points == once.divisor.points == (-1.3, 1.3)
        assert back.divisor.mults == once.divisor.mults
        assert_close_polar_parts(back.polar_parts, once.polar_parts, 1e-12)
        # pulled across both, no twist point is left
        both = MatrixDivisor((first, second))
        assert pull_connection(both, push_connection(both, conn)
                               ).twist_points == ()

    def test_site_on_an_earlier_twist_point_refused(self, rng):
        conn, first, _ = self.pushed_pair(rng)
        pushed = push_connection(first, conn)
        with pytest.raises(PreconditionError, match="twist point"):
            push_connection(normal_form(0.4j, (0.0, 0.2)), pushed)


def assert_close_polar_parts(got, want, rtol):
    """The same poles, each to ``rtol``, with the same orders, and every
    polar and tail coefficient within ``rtol`` of ``want``'s largest."""
    (data_g, tail_g), (data_w, tail_w) = got, want
    scale = max([np.max(np.abs(np.stack(Cs))) for _, Cs in data_w]
                + [np.max(np.abs(tail_w), initial=0.0)])
    assert len(data_g) == len(data_w)
    for t, Cs in data_w:
        (Ds,) = [Ds for u, Ds in data_g if abs(u - t) <= rtol * max(1, abs(t))]
        assert len(Ds) == len(Cs)
        assert np.max(np.abs(np.stack(Ds) - np.stack(Cs))) <= rtol * scale
    K = max(len(tail_g), len(tail_w))
    pad = [np.concatenate([a, np.zeros((K - len(a),) + a.shape[1:])])
           for a in (tail_g, tail_w)]
    assert np.max(np.abs(pad[0] - pad[1]), initial=0.0) <= rtol * scale


class TestSiteInverse:
    """A site's ``T^-1`` is ``adj T / (c zeta**mu)``, with its pole at the
    site by construction; push and pull agree with the same gauge built on
    the oracle's inverse, which finds the determinant's roots."""

    def sites(self, rng):
        return {"degree 2": z_identity_site(0.4 + 0.3j, 2),
                "degree 0": TwistSite(0.4 + 0.3j,
                                      random_invertible(rng, 2)[None]),
                "degree 1": normal_form(0.4 + 0.3j, (0.0, 1.7 - 0.4j)),
                "two sites": MatrixDivisor((normal_form(0.4j, (0.0, 0.7)),
                                            z_identity_site(-0.5j, 2)))}

    def conn(self, rng):
        return Connection.from_ratmat(
            fuchsian_connection([1.0, -1.0],
                                [random_matrix(rng, 2), random_matrix(rng, 2)]))

    @pytest.mark.parametrize("kind", ["degree 2", "degree 0"])
    def test_push_and_pull_match_the_oracle_inverse(self, rng, kind):
        conn, site = self.conn(rng), self.sites(rng)[kind]
        assert degree(site) == {"degree 2": 2, "degree 0": 0}[kind]
        T = site.as_ratmat()
        Tinv = seeded_inverse(T)
        A = conn.matrix
        pushed = Connection.from_ratmat(Tinv @ A @ T - Tinv @ T.derivative())
        pulled = Connection.from_ratmat(T @ A @ Tinv + T.derivative() @ Tinv)
        assert_close_polar_parts(push_connection(site, conn).polar_parts,
                                 pushed.polar_parts, 1e-13)
        assert_close_polar_parts(pull_connection(site, conn).polar_parts,
                                 pulled.polar_parts, 1e-13)

    @pytest.mark.parametrize("kind", ["degree 2", "degree 0", "degree 1",
                                      "two sites"])
    def test_pull_of_push_returns_the_polar_parts(self, rng, kind):
        conn, site = self.conn(rng), self.sites(rng)[kind]
        back = pull_connection(site, push_connection(site, conn))
        assert_close_polar_parts(back.polar_parts, conn.polar_parts, 1e-12)

    @staticmethod
    def germs(rng, n):
        """A normal form, it times a constant and times a unipotent germ
        (degree 2), and a noisy germ: times a constant of condition 1e6, so
        that the determinant's constant coefficient is rounding noise."""
        site = normal_form(0.4 + 0.3j, rng.uniform(-1, 1, n)
                           + 1j * rng.uniform(-1, 1, n))
        N = np.triu(random_matrix(rng, n), 1)
        Q1, Q2 = (np.linalg.qr(random_matrix(rng, n))[0] for _ in range(2))
        noisy = Q1 @ np.diag([1.0] * (n - 1) + [1e-6]) @ Q2
        return [site, site.right_multiply(random_invertible(rng, n)),
                site.right_multiply(np.stack([np.eye(n), N])),
                site.right_multiply(noisy)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_inverse_jet_is_the_inverse(self, rng, n):
        # the Laurent polynomial adj T / (c zeta**mu) is the rational
        # inverse's jet, and inverts the germ through its order
        for site in self.germs(rng, n):
            mu = degree(site)
            for k in (0, 2, 5):
                got = site.inverse_jet(k)
                want = site.inverse_ratmat().laurent(site.point, k)
                assert (got.k_min, got.k_max) == (-mu, k)
                orders = range(-mu, k + 1)
                want = np.stack([want.coefficient(j) for j in orders])
                assert np.max(np.abs(got.coeffs - want)) <= \
                    1e-14 * np.max(np.abs(want))
                T = np.zeros((k + mu + 1, n, n), dtype=complex)
                T[: len(site.germ)] = site.germ[: len(T)]
                product = LaurentJet(0.0, 0, T) * got
                assert (product.k_min, product.k_max) == (-mu, k)
                eye = np.zeros((k + mu + 1, n, n), dtype=complex)
                eye[mu] = np.eye(n)
                assert np.max(np.abs(product.coeffs - eye)) <= 1e-13 * \
                    np.max(np.abs(site.germ)) * np.max(np.abs(got.coeffs))

    def test_inverse_times_germ_is_identity(self, rng):
        site = normal_form(0.4 + 0.3j, (0.0, 1.7 - 0.4j)).right_multiply(
            random_invertible(rng, 2))
        Tinv = site.inverse_ratmat()
        assert Tinv.pole_points() == [site.point]
        product = Tinv @ site.as_ratmat()
        for z in (0.4 + 0.31j, 2.0 - 1.0j):
            assert np.max(np.abs(product.eval(z) - np.eye(2))) < 1e-13


def test_no_root_finding_in_src():
    # a twist's inverse divides by the sites' own determinants and its input
    # check reads their coefficients: no module of the library calls
    # np.roots or cluster_roots, which only the test oracles use
    package = Path(ratfun.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                if name in ("roots", "cluster_roots"):
                    calls.append((path.stem, name))
    assert calls == []
