import ast
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path as FsPath
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp
from scipy.linalg import expm

import isomonodromy.connection as connection_module
import isomonodromy.flows as flows_module
import isomonodromy.monodromy as monodromy_module
import isomonodromy.states as states_module
import isomonodromy.symplectic as symplectic_module
from isomonodromy import ode
from isomonodromy import serialize as ser
from isomonodromy.connection import Connection
from isomonodromy.errors import IntegrationAbort, PreconditionError
from isomonodromy.monodromy import (
    DEFAULT_TOL,
    SAFETY,
    ArcSegment,
    LineSegment,
    Path,
    _compiled_eval,
    _LinearDOP853,
    _stacked,
    auto_base_point,
    conjugacy_invariants,
    conjugacy_residual,
    monodromy_rep,
    product_check,
    transport,
)
from isomonodromy.ratfun import RatMat
from isomonodromy.states import FlowState, PoleData
from isomonodromy.twist import normal_form, push_connection

from conftest import (
    fuchsian_connection,
    random_fuchsian_matrices,
    random_invertible,
    random_matrix,
)
from oracles import (
    monodromy_rep_loop_by_loop,
    product_error_scale_by_pairs,
    velocity,
)


def fuchsian(poles, mats):
    return Connection.from_ratmat(fuchsian_connection(poles, mats))


def twisted_connection(rng):
    """A 2-pole Fuchsian connection pushed across a twist (as in test_07)."""
    mats = [0.4 * M for M in random_fuchsian_matrices(rng, 2, 2)]
    conn = fuchsian([1.3, -1.3], mats)
    p = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
    site = normal_form(p, (0.0, complex(rng.standard_normal())))
    return push_connection(site, conn)


class TestTransport:
    def test_zero_connection_identity(self):
        conn = Connection.from_ratmat(RatMat.zero(2))
        path = Path.line(0.0, 3.0 + 1.0j)
        assert np.allclose(transport(conn, path), np.eye(2), atol=1e-12)

    def test_diagonal_closed_form(self):
        # A = diag(r)/z dz around the unit circle: exp(2 pi i diag(r))
        r = np.array([0.3 - 0.1j, -0.7 + 0.2j])
        conn = fuchsian([0.0], [np.diag(r)])
        loop = Path.circle(0.0, 1.0)
        M = transport(conn, loop, tol=1e-12)
        want = np.diag(np.exp(2j * np.pi * r))
        assert np.max(np.abs(M - want)) < 1e-10

    def test_reverse_gives_inverse(self, rng):
        mats = random_fuchsian_matrices(rng, 2, 3)
        conn = fuchsian([0.0, 1.0, 1.0j], mats)
        path = Path.line(-1.0 - 1.0j, 2.0 - 1.0j)
        tol = 1e-11
        Y = transport(conn, path, tol)
        back = transport(conn, path.reverse(), tol)
        assert np.max(np.abs(back @ Y - np.eye(2))) < 10 * tol * 100

    def test_concatenation_multiplies(self, rng):
        mats = random_fuchsian_matrices(rng, 2, 2)
        conn = fuchsian([0.0, 2.0], mats)
        p1 = Path.line(-1.0 - 1.0j, 1.0 - 1.0j)
        p2 = Path.line(1.0 - 1.0j, 3.0 - 1.0j)
        tol = 1e-11
        Y12 = transport(conn, p1.concatenate(p2), tol)
        Y = transport(conn, p2, tol) @ transport(conn, p1, tol)
        assert np.max(np.abs(Y12 - Y)) < 1e-9

    def test_paths_that_do_not_join_are_refused(self):
        # the one join check, Path's own, refuses a gap of 1e-8 in a
        # concatenation as in a path built whole
        p1 = Path.line(-1.0 - 1.0j, 1.0 - 1.0j)
        p2 = Path.line(1.0 + 1e-8 - 1.0j, 3.0 - 1.0j)
        for build in (lambda: p1.concatenate(p2),
                      lambda: Path(p1.segments + p2.segments)):
            with pytest.raises(PreconditionError, match="do not join"):
                build()
        assert p1.concatenate(Path.line(1.0 + 1e-10 - 1.0j, 3.0)).segments \
            == p1.segments + (LineSegment(1.0 + 1e-10 - 1.0j, 3.0),)

    def test_liouville_determinant(self, rng):
        mats = random_fuchsian_matrices(rng, 2, 2)
        conn = fuchsian([0.0, 2.0], mats)
        tol = 1e-11
        Y, logdet = transport(conn, Path.line(-1.0, 3.0 - 2.0j), tol,
                              with_logdet=True)
        assert abs(np.linalg.det(Y) - np.exp(logdet)) < 10 * tol * max(
            1.0, abs(np.exp(logdet)))

    def test_homotopy_invariance(self, rng):
        mats = random_fuchsian_matrices(rng, 2, 2)
        conn = fuchsian([0.0, 2.0], mats)
        tol = 1e-11
        a, b = -1.0 - 1.0j, 3.0 - 1.0j
        straight = Path.line(a, b)
        detour = Path((LineSegment(a, 1.0 - 2.5j), LineSegment(1.0 - 2.5j, b)))
        Y1 = transport(conn, straight, tol)
        Y2 = transport(conn, detour, tol)
        assert np.max(np.abs(Y1 - Y2)) < 1e-9

    def test_clearance_violation_raises(self):
        conn = fuchsian([0.0], [np.eye(2, dtype=complex)])
        with pytest.raises(PreconditionError):
            transport(conn, Path.line(-1.0, 1.0))  # runs through the pole

    def test_a_segment_of_length_zero_measures_from_its_point(self):
        point = LineSegment(0.3 - 0.4j, 0.3 - 0.4j)
        assert point.distance_to(0.3 + 0.6j) == 1.0
        assert point.distance_to(0.3 - 0.4j) == 0.0

    def test_arc_below_minus_pi_measured_as_shifted(self):
        # the same arc with both angles raised by 2 pi measures every point
        # alike, and a pole on it is refused before any step
        arc = ArcSegment(0j, 1.0, -5.0, -3.7434)
        shifted = ArcSegment(0j, 1.0, -5.0 + 2 * np.pi, -3.7434 + 2 * np.pi)
        for z in (r * np.exp(1j * a) for r in (0.0, 0.5, 1.0, 1.7)
                  for a in np.linspace(-np.pi, np.pi, 37)):
            assert abs(arc.distance_to(z) - shifted.distance_to(z)) < 1e-12
        assert arc.distance_to(np.exp(1.9j)) < 1e-12
        conn = fuchsian([np.exp(1.9j)], [0.3 * np.eye(2, dtype=complex)])
        with pytest.raises(PreconditionError, match="path comes within"):
            transport(conn, Path((arc,)))

    @pytest.mark.parametrize("path, Y0", [
        (Path.line(-1.0 - 1.0j, complex(np.nan, 1.0)), None),
        (Path.circle(3.0, np.inf), None),
        (Path((ArcSegment(3.0, 1.0, 0.0, np.inf),)), None),
        (Path.line(-1.0 - 1.0j, 1.0 - 1.0j), np.full((2, 2), np.nan))])
    def test_non_finite_input_refused(self, path, Y0):
        conn = fuchsian([0.0], [np.eye(2, dtype=complex)])
        with np.errstate(invalid="ignore"), \
                pytest.raises(PreconditionError, match="not finite"):
            transport(conn, path, Y0=Y0)


# Connection.from_polar_parts sums the polar parts into a rational matrix,
# and transport reads them back from it; past about a dozen poles that round
# trip loses the residues (ROADMAP item 3)
ROUND_TRIP = pytest.mark.xfail(
    strict=True, reason="the rational round trip of the polar parts: from "
    "12 poles the residues no longer sum to zero within TAU_INF, so the "
    "product is not checked, and from 14 the loops are wrong (ROADMAP item "
    "3, which waits on the benchmark's own absolute product check)")


class TestMonodromyRep:
    @pytest.mark.parametrize("z0", [complex(np.nan, 0.0), complex(np.inf, 0.0),
                                    complex(0.0, np.nan)])
    def test_non_finite_base_point_refused(self, rng, z0):
        conn = fuchsian([0.0, 1.0], random_fuchsian_matrices(rng, 2, 2))
        with pytest.raises(PreconditionError, match="not finite"):
            monodromy_rep(conn, z0)

    def test_zero_connection_all_identity(self):
        # declared poles with vanishing polar parts: loops give the identity
        conn = Connection.from_polar_parts(
            [(0.0, [np.zeros((2, 2))]), (1.0, [np.zeros((2, 2))])])
        rep = monodromy_rep(conn, 0.5 - 2.0j, tol=1e-11)
        assert len(rep.matrices) == 2
        for M in rep.matrices:
            assert np.max(np.abs(M - np.eye(2))) < 1e-10

    def test_scalar_closed_form(self):
        a = 0.37 + 0.11j
        conn = fuchsian([0.5], [np.array([[a]])])
        rep = monodromy_rep(conn, 0.5 - 2.0j, tol=1e-12)
        assert abs(rep.matrices[0][0, 0] - np.exp(2j * np.pi * a)) < 1e-10

    def test_product_identity_for_balanced_residues(self, rng):
        # moderate residues keep the monodromy norms O(10) so the absolute
        # identity check at 1e-8 is meaningful
        mats = [0.35 * M for M in random_fuchsian_matrices(rng, 2, 4)]
        conn = fuchsian([-1.5, -0.2, 0.9, 2.1], mats)
        rep = monodromy_rep(conn, 0.3 - 2.5j, tol=1e-11)
        assert rep.product_defect is not None
        assert rep.product_defect < 1e-8

    def test_rigid_rank2_traces_converge(self):
        # A0/z + A1/(z - 1) at rank 2 is rigid: each loop's trace is fixed
        # by its residue's eigenvalues, and the ordered product M_2 M_1,
        # the loop around both poles, is conjugate to exp(2 pi i (A0 + A1))
        # at the non-resonant pole at infinity.  The errors fall from each
        # tol to the next
        rng = np.random.default_rng(4)
        A0, A1 = (random_matrix(rng, 2, 0.3) for _ in range(2))
        conn = Connection.from_polar_parts([(0.0, [A0]), (1.0, [A1])])

        def traces(M):
            return np.sum(np.exp(2j * np.pi * np.linalg.eigvals(M)))

        errors = []
        for tol in (1e-8, 1e-10, 1e-12):
            rep = monodromy_rep(conn, 0.5 - 1.5j, tol=tol)
            M1, M2 = rep.matrices
            loops = [abs(np.trace(rep.matrix_for_pole(t)) - traces(A))
                     for t, A in ((0.0, A0), (1.0, A1))]
            errors.append(max(abs(np.trace(M2 @ M1) - traces(A0 + A1)),
                              *loops))
            assert errors[-1] < tol
        assert errors[0] > errors[1] > errors[2]

    def test_invariants_conjugation_invariant(self, rng):
        mats = random_fuchsian_matrices(rng, 2, 3)
        conn = fuchsian([-1.0, 0.4, 1.7], mats)
        rep = monodromy_rep(conn, 0.0 - 2.0j, tol=1e-11)
        inv1 = np.array(conjugacy_invariants(rep))
        C = random_invertible(rng, 2)
        rep.matrices = [C @ M @ np.linalg.inv(C) for M in rep.matrices]
        inv2 = np.array(conjugacy_invariants(rep))
        assert np.max(np.abs(inv1 - inv2)) < 1e-10

    @pytest.mark.parametrize("tail, defect", [
        ([np.diag([0.1, -0.1])], None), (None, 0.0)])
    def test_no_finite_poles(self, tail, defect):
        # a constant form has a double pole at infinity and no product
        # check; the zero form is regular there and its empty product is I
        conn = Connection.from_polar_parts([], n=2, tail=tail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z0 = auto_base_point(conn.all_finite_poles())
            for base in (z0, 0.5 + 0.2j):
                rep = monodromy_rep(conn, base)
                assert rep.base_point == base
                assert rep.pole_points == rep.loops == rep.matrices == []
                assert rep.product_defect == defect
                assert conjugacy_invariants(rep) == []

    def test_matrix_for_pole_is_the_loop_around_that_pole(self):
        # two poles 4.2e-5 apart near 50: each is found by connection.near,
        # so neither is taken for the other, and a point near no pole is a
        # KeyError.  The round trip of the polar parts moves the two close
        # residues by about 1e-9, so the form reads as irregular at infinity
        # and the product is not checked here
        R1 = np.array([[0.2, 0.1], [0.0, -0.1]])
        R2 = np.array([[-0.3, 0.0], [0.2, 0.15]])
        conn = Connection.from_polar_parts(
            [(50.0, [R1]), (50.0 + 4.2e-5, [R2]), (49.0, [-(R1 + R2)])])
        rep = monodromy_rep(conn, auto_base_point(conn.all_finite_poles()))
        assert len(rep.pole_points) == 3
        for t in rep.pole_points:
            assert rep.matrix_for_pole(t) is \
                rep.matrices[rep.pole_points.index(t)]
        with pytest.raises(KeyError):
            rep.matrix_for_pole(50.0 + 2e-5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_covariant_under_affine_maps(self, rng, n):
        # under w = a z + b a pole t maps to a t + b and C_k to a^(k-1) C_k,
        # so the loops at a z0 + b, matched by pole, are the loops at z0.
        # These draws read 1.0e-15 to 2.5e-14 at rank 2 and 7.8e-16 to
        # 3.2e-14 at rank 3 (24 other draws: at most 2.1e-14); the planted
        # errors, C_k scaled by a^k or one pole moved by 0.05, read 3.2e-4
        # to 0.51 (other draws: 3.2e-5 and above)
        lead = np.diag(np.linspace(-0.5, 0.4, n)) + 0.1 * random_matrix(rng, n)
        C = [0.25 * random_matrix(rng, n) for _ in range(3)]
        data = [(0.0, [C[0], lead]), (2.3, [C[1]]), (-2.0 + 0.3j, [C[2]]),
                (0.9 + 1.6j, [-(C[0] + C[1] + C[2])])]
        conn = Connection.from_polar_parts(data, n=n)
        z0 = auto_base_point(conn.all_finite_poles())
        loops = [monodromy_rep(conn, z0).matrix_for_pole(t) for t, _ in data]

        def residual(a, b, power=0, moved=0.0):
            ts = [a * t + b + (moved if j == 1 else 0.0)
                  for j, (t, _) in enumerate(data)]
            image = Connection.from_polar_parts(
                [(w, [a ** (k - 1 + power) * Ck
                      for k, Ck in enumerate(Cs, start=1)])
                 for w, (_, Cs) in zip(ts, data)], n=n)
            rep = monodromy_rep(image, a * z0 + b)
            return conjugacy_residual(loops,
                                      [rep.matrix_for_pole(w) for w in ts])

        for a, b in [(1.7 * np.exp(0.6j), 0.3 - 0.8j), (0.5, 2.0),
                     (np.exp(2.5j), -1.0 + 1.0j)]:
            assert residual(a, b) < 1e-12
            assert residual(a, b, power=1) > 1e-6
            assert residual(a, b, moved=0.05) > 1e-6

    def test_identity_charpoly(self):
        conn = Connection.from_polar_parts([(0.0, [np.zeros((2, 2))])])
        rep = monodromy_rep(conn, -2.0j, tol=1e-11)
        inv = conjugacy_invariants(rep)
        assert np.allclose(inv[:3], [1.0, -2.0, 1.0], atol=1e-8)

    @pytest.mark.parametrize("K", [10] + [pytest.param(K, marks=ROUND_TRIP)
                                          for K in (12, 16)])
    def test_many_poles(self, rng, K):
        # rank 2, K simple poles 0.5 apart, residues summing to zero: each
        # loop's eigenvalues are exp(2 pi i eig(residue)), to 1e-8 relative
        # to max(1, |M|) as the benchmark measures them, and the form is
        # regular at infinity, so the ordered product is checked
        mats = random_fuchsian_matrices(rng, 2, K)
        ts = 0.5 * np.arange(K)
        state = FlowState(2, tuple(PoleData(t, 1, np.eye(2), M)
                                   for t, M in zip(ts, mats)))
        conn = state.connection()
        rep = monodromy_rep(conn, auto_base_point(conn.all_finite_poles()))
        for t, R in zip(ts, mats):
            M = rep.matrix_for_pole(t)
            got = np.sort_complex(np.linalg.eigvals(M))
            want = np.sort_complex(np.exp(2j * np.pi * np.linalg.eigvals(R)))
            scale = max(1.0, np.linalg.norm(M, 2))
            assert min(np.max(np.abs(got - want)),
                       np.max(np.abs(got - want[::-1]))) < 1e-8 * scale
        assert rep.product_defect is not None


class TestTwistMonodromy:
    def test_pushed_pole_has_identity_monodromy(self, rng):
        mats = [0.4 * M for M in random_fuchsian_matrices(rng, 2, 2)]
        conn = fuchsian([1.0, -1.0], mats)
        site = normal_form(0.0, (0.0, 1.3))
        pushed = push_connection(site, conn)
        rep = monodromy_rep(pushed, -2.0j, tol=1e-11)
        M = rep.matrix_for_pole(0.0)
        assert np.max(np.abs(M - np.eye(2))) < 1e-8

    def test_push_preserves_original_invariants(self, rng):
        mats = random_fuchsian_matrices(rng, 2, 2)
        conn = fuchsian([1.0, -1.0], mats)
        rep0 = monodromy_rep(conn, -2.0j, tol=1e-11)
        site = normal_form(0.5j, (0.0, 0.7))
        pushed = push_connection(site, conn)
        rep1 = monodromy_rep(pushed, -2.0j, tol=1e-11)
        for p in (1.0, -1.0):
            c0 = np.poly(rep0.matrix_for_pole(p))
            c1 = np.poly(rep1.matrix_for_pole(p))
            assert np.max(np.abs(c0 - c1)) < 1e-8



def evaluator_connection(kind, rng):
    if kind == "fuchsian_rank3":
        return fuchsian([-1.5, -0.2, 0.9, 2.1],
                        random_fuchsian_matrices(rng, 3, 4))
    if kind == "order2":
        lam0 = 0.25 * random_matrix(rng, 2)
        A1 = 0.25 * random_matrix(rng, 2)
        return FlowState(2, (
            PoleData(0.0, 2, np.eye(2), lam0, [np.array([-0.45, 0.4])]),
            PoleData(2.3, 1, np.eye(2), A1),
            PoleData(-2.0, 1, np.eye(2), -(lam0 + A1)))).connection()
    if kind == "twisted":
        return twisted_connection(rng)
    M = [random_matrix(rng, 2) for _ in range(5)]
    return Connection.from_polar_parts([(0.5, [M[0]]), (-1.0j, M[1:3])],
                                       tail=M[3:])


class TestStackedEvaluator:
    @pytest.mark.parametrize("kind", ["fuchsian_rank3", "order2", "twisted",
                                      "tail"])
    def test_matches_ratmat_evaluation(self, rng, kind):
        conn = evaluator_connection(kind, rng)
        if kind == "tail":
            assert conn.polar_parts[1].shape[0] == 2
        ev = _compiled_eval(conn)
        poles = conn.all_finite_poles()
        n, checked = conn.n, 0
        while checked < 20:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(z - p) for p in poles) < 0.2:
                continue
            dz = complex(rng.standard_normal(), rng.standard_normal())
            v = ev(z, dz)
            want = dz * conn.eval(z)
            scale = np.linalg.norm(want)
            assert np.linalg.norm(v[:-1].reshape(n, n) - want) <= 1e-12 * scale
            assert abs(v[-1] - np.trace(want)) <= 1e-12 * scale
            checked += 1

    @pytest.mark.parametrize("kind", ["fuchsian_rank3", "order2", "twisted",
                                      "tail"])
    def test_batched_matches_pointwise(self, rng, kind):
        conn = evaluator_connection(kind, rng)
        ev = _compiled_eval(conn)
        poles = conn.all_finite_poles()
        z = []
        while len(z) < 12:
            c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(c - p) for p in poles) >= 0.2:
                z.append(c)
        z = np.array(z)
        dz = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        # a rate per point (arcs) and one rate for every point (lines)
        for rate, rows in ((dz, ev(z, dz)), (dz[:1], ev(z, dz[0]))):
            assert rows.shape == (12, conn.n ** 2 + 1)
            for zk, dzk, row in zip(z, np.broadcast_to(rate, z.shape), rows):
                want = ev(zk, dzk)
                assert want.shape == (conn.n ** 2 + 1,)
                assert np.linalg.norm(row - want) <= \
                    1e-14 * np.linalg.norm(want)


def stock_and_linear(conn, seg, tol=DEFAULT_TOL):
    """One transport leg by scipy's DOP853 (``scipy.integrate.solve_ivp``)
    and by the linear-system DOP853 (a batch of one lane, through the
    library's ``ode.solve_ivp``), on the same right-hand side and tolerances as
    ``transport``."""
    ev = _compiled_eval(conn)
    n = conn.n

    def rhs(s, y):
        out = ev(seg.at(s), velocity(seg, s))
        out[:-1] = (out[:-1].reshape(n, n) @ y[:-1].reshape(n, n)).ravel()
        return out

    y0 = np.append(np.eye(n, dtype=complex), 0.0)
    opts = {"rtol": max(SAFETY * tol, 1e-13), "atol": SAFETY * tol}
    return (solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", **opts),
            ode.solve_ivp((ev,), (0.0, 1.0), y0, method=_LinearDOP853,
                          segments=[seg], names=["leg"], owners=[0],
                          **opts))


class TestLinearStepper:
    """Each DOP853 step as one triangular solve takes scipy's steps."""

    @pytest.mark.parametrize("kind, pole", [
        ("rank2", 0.0), ("fuchsian_rank3", -0.2), ("order2", 0.0),
        ("tail", 0.5)])
    def test_same_steps_as_stock_dop853(self, rng, kind, pole):
        if kind == "rank2":
            conn = fuchsian([0.0, 1.0, 1.5j],
                            random_fuchsian_matrices(rng, 2, 3))
        else:
            conn = evaluator_connection(kind, rng)
        keyhole = Path.keyhole(pole - 1.5j, pole, 0.2)
        for seg in keyhole.segments[:2]:     # approach leg, circle
            stock, linear = stock_and_linear(conn, seg)
            assert stock.success and linear.success
            assert linear.nfev == stock.nfev
            assert len(linear.t) == len(stock.t)
            # the embedded error estimate cancels down to round-off on
            # smooth stretches, so the next step size carries the stages'
            # round-off magnified; the steps agree in number, not to the bit
            assert np.max(np.abs(np.array(linear.t) - stock.t)) <= 1e-4
            want = stock.y[:, -1]
            assert np.max(np.abs(linear.y - want)) <= \
                1e-13 * np.max(np.abs(want))

    def test_rank4_closed_form(self, rng):
        # Y' = R/z Y around one simple pole: the circle gives exp(2 pi i R)
        R = 0.3 * random_matrix(rng, 4) + np.diag([0.4, 0.3, 0.2], 1)
        assert np.linalg.norm(R @ R.conj().T - R.conj().T @ R) > 0.1
        conn = Connection.from_polar_parts([(0.0, [R])])
        M, logdet = transport(conn, Path.circle(0.0, 1.0), 1e-11,
                              with_logdet=True)
        want = expm(2j * np.pi * R)
        assert np.linalg.norm(M - want, 2) <= \
            1e-9 * max(1.0, np.linalg.norm(M, 2))
        assert abs(logdet - 2j * np.pi * np.trace(R)) <= 1e-9


def same_bits(a, b):
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(float), b.view(float)))


def raised_eval(conn):
    """``_compiled_eval`` as it was before rows of power 1 skipped ``**``:
    the same stacked rows, every one raised with ``w **= pw``."""
    pole_data, tail = conn.polar_parts
    n = conn.n
    rows, idx, pw = [], [], []
    for i, (_, coeffs) in enumerate(pole_data):
        rows += coeffs
        idx += [i] * len(coeffs)
        pw += range(1, len(coeffs) + 1)
    rows += list(tail)
    idx += [len(pole_data)] * len(tail)
    pw += range(len(tail))
    C = np.array(rows, dtype=complex).reshape(len(rows), n * n)
    C = np.column_stack([C, C[:, ::n + 1].sum(axis=1)])
    idx, pw = np.array(idx), np.array(pw)
    points = np.array([t for t, _ in pole_data], dtype=complex)

    def ev(z, dz):
        z = np.asarray(z, dtype=complex)
        u = np.empty(z.shape + (len(points) + 1,), dtype=complex)
        np.divide(1.0, z[..., None] - points, out=u[..., :-1])
        u[..., -1] = z
        w = u[..., idx]
        w **= pw
        w *= np.asarray(dz)[..., None]
        return w @ C

    return ev


class TestBitForBit:
    """Each transport fast path returns what it replaces, to the bit."""

    def test_error_norm_is_scipys(self, rng):
        # three lanes of a 3x3 system; each lane's norm is DOP853's
        conn = fuchsian([0.0], [random_matrix(rng, 3)])
        y0 = np.tile(np.append(np.eye(3, dtype=complex), 0.0), 3)
        solver = _LinearDOP853((_compiled_eval(conn),), 0.0, y0, 1.0,
                               segments=[LineSegment(1.0, 2.0)] * 3,
                               names=["a", "b", "c"], owners=[0] * 3,
                               rtol=1e-12, atol=1e-12)
        for trial in range(200):
            K = (rng.standard_normal((3, 13, 10))
                 + 1j * rng.standard_normal((3, 13, 10))) \
                * 10.0 ** (trial % 7)
            if trial == 0:
                K[1] = 0.0
            h = [float(x) for x in rng.uniform(-1, 1, 3)]
            scale = 1e-12 + rng.uniform(0, 1e-9, (3, 10))
            got = solver._error_norms(K, h, scale)
            for k in range(3):
                want = DOP853._estimate_error_norm(solver, K[k], h[k],
                                                   scale[k])
                assert same_bits(got[k], want)

    def test_point_and_rate_are_at_and_velocity(self, rng):
        def cx():
            return complex(*rng.standard_normal(2))
        segs = [LineSegment(cx(), cx()) for _ in range(4)]
        segs += [ArcSegment(cx(), float(rng.uniform(0.05, 2)), th,
                            th + float(rng.uniform(-7, 7)))
                 for th in rng.uniform(-4, 4, 4)]
        segs += list(Path.keyhole(cx(), cx(), 0.3).segments)
        for seg in segs:
            for s in (rng.uniform(0, 1, 11), float(rng.uniform()), 0.0, 1.0):
                z, dz = seg.point_and_rate(s)
                assert same_bits(z, seg.at(s))
                assert same_bits(dz, velocity(seg, s))

    @pytest.mark.parametrize("kind", ["order2", "tail"])
    def test_compiled_eval_is_raised_eval(self, rng, kind):
        conn = evaluator_connection(kind, rng)
        assert any(len(Cs) > 1 for _, Cs in conn.polar_parts[0])
        fast, slow = _compiled_eval(conn), raised_eval(conn)
        z = rng.uniform(-3, 3, 11) + 1j * rng.uniform(-3, 3, 11)
        dz = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        assert same_bits(fast(z, dz), slow(z, dz))
        assert same_bits(fast(z, dz[0]), slow(z, dz[0]))
        for zk, dzk in zip(z, dz):
            assert same_bits(fast(zk, dzk), slow(zk, dzk))


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestRetrace:
    """A path whose last segment retraces its first reuses the first leg."""

    TOL = 1e-11

    PATHS = {
        "keyhole": Path.keyhole(-1.0 - 0.5j, 0.0, 0.25),
        # arc to 0.5i, a full circle around 1.5i, the arc back
        "lasso": Path((ArcSegment(0.0, 0.5, np.pi, np.pi / 2),
                       ArcSegment(1.5j, 1.0, -np.pi / 2, 3 * np.pi / 2),
                       ArcSegment(0.0, 0.5, np.pi / 2, np.pi))),
    }

    def conn_and_residues(self, rng):
        mats = random_fuchsian_matrices(rng, 2, 3)
        return fuchsian([0.0, 1.0, 1.5j], mats), mats

    @pytest.mark.parametrize("name", ["keyhole", "lasso"])
    def test_retraced_path_matches_its_legs(self, rng, name):
        conn, _ = self.conn_and_residues(rng)
        loop = self.PATHS[name]
        assert loop.segments[2] == loop.segments[0].reversed()
        M = transport(conn, loop, self.TOL)
        legs = [transport(conn, Path((seg,)), self.TOL)
                for seg in loop.segments]
        assert np.linalg.norm(M - legs[2] @ legs[1] @ legs[0], 2) <= \
            1e-9 * max(1.0, np.linalg.norm(M, 2))

    def test_retraced_leg_is_not_integrated(self, rng, monkeypatch):
        conn, _ = self.conn_and_residues(rng)
        calls = count_calls(monkeypatch, monodromy_module, "solve_ivp")
        for loop in self.PATHS.values():
            calls.clear()
            transport(conn, loop, self.TOL)
            assert len(calls) == 2
        calls.clear()
        a, b, c = -1.0 - 0.5j, -0.5 - 1.0j, 0.5 - 1.0j
        triangle = Path((LineSegment(a, b), LineSegment(b, c),
                         LineSegment(c, a)))
        transport(conn, triangle, self.TOL)
        assert len(calls) == 3

    def test_start_matrix_and_liouville(self, rng):
        conn, mats = self.conn_and_residues(rng)
        loop = self.PATHS["keyhole"]
        G = random_invertible(rng, 2)
        M = transport(conn, loop, self.TOL)
        MG, logdet = transport(conn, loop, self.TOL, with_logdet=True, Y0=G)
        assert np.max(np.abs(MG - M @ G)) <= 1e-9 * max(
            1.0, np.linalg.norm(M, 2) * np.linalg.norm(G, 2))
        det_T = np.exp(logdet)
        assert abs(np.linalg.det(MG) - det_T * np.linalg.det(G)) < \
            10 * self.TOL * max(1.0, abs(det_T * np.linalg.det(G)))
        # only the circle contributes: 2 pi i tr(residue at 0)
        assert abs(logdet - 2j * np.pi * np.trace(mats[0])) < 1e-9


def same_result(a, b):
    """``transport`` results, ``Y`` or ``(Y, logdet)``, equal to the bit."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_bits, a, b))
    return same_bits(a, b)


# the triangle of TestRetrace.test_retraced_leg_is_not_integrated
TRIANGLE = Path((LineSegment(-1.0 - 0.5j, -0.5 - 1.0j),
                 LineSegment(-0.5 - 1.0j, 0.5 - 1.0j),
                 LineSegment(0.5 - 1.0j, -1.0 - 0.5j)))


@dataclasses.dataclass(frozen=True)
class PoisonedLine(LineSegment):
    """A line whose rate is NaN past its midpoint, where every attempted
    step is rejected until the step size falls below the minimum."""

    def point_and_rate(self, s):
        z, d = super().point_and_rate(s)
        return z, d * np.where(np.asarray(s) > 0.5, np.nan, 1.0)


def batch_connection(kind, rng):
    if kind == "rank2":
        return fuchsian([0.0, 1.0, 1.5j], random_fuchsian_matrices(rng, 2, 3))
    if kind == "rank4":
        return fuchsian([-1.0, 0.4, 1.7], random_fuchsian_matrices(rng, 4, 3))
    return evaluator_connection(kind, rng)


class TestBatchedTransport:
    """Paths transported together, one lane each, get the bits they get one
    at a time."""

    TOL = 1e-11
    PATHS = [*TestRetrace.PATHS.values(), TRIANGLE]

    def test_mixed_paths_match_one_at_a_time(self, rng):
        conn, _ = TestRetrace().conn_and_residues(rng)
        G = random_invertible(rng, 2)
        for kwargs in ({}, {"with_logdet": True, "Y0": G}):
            batch = transport(conn, self.PATHS, self.TOL, **kwargs)
            assert len(batch) == len(self.PATHS)
            for path, got in zip(self.PATHS, batch):
                assert same_result(got, transport(conn, path, self.TOL,
                                                  **kwargs))

    @pytest.mark.parametrize("kind", ["rank2", "fuchsian_rank3", "rank4",
                                      "order2", "twisted", "tail"])
    def test_monodromy_rep_matches_loop_by_loop(self, rng, kind):
        conn = batch_connection(kind, rng)
        z0 = 0.3 - 3.0j
        rep = monodromy_rep(conn, z0, tol=1e-10)
        loops, mats, defect = monodromy_rep_loop_by_loop(conn, z0, 1e-10)
        assert rep.loops == loops
        assert all(map(same_bits, rep.matrices, mats))
        assert rep.product_defect == defect
        # with a line that is not a loop, a start matrix and the
        # log-determinant
        paths = loops + [Path.line(z0, z0 + 1.0 - 0.5j)]
        G = random_invertible(rng, conn.n)
        batch = transport(conn, paths, 1e-10, with_logdet=True, Y0=G)
        for path, got in zip(paths, batch):
            assert same_result(got, transport(conn, path, 1e-10,
                                              with_logdet=True, Y0=G))

    def test_nfev_is_the_sum_and_one_call_per_leg(self, rng, monkeypatch):
        conn, _ = TestRetrace().conn_and_residues(rng)
        nfev = []
        real = monodromy_module.solve_ivp

        def recording(*args, **kwargs):
            sol = real(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(monodromy_module, "solve_ivp", recording)
        transport(conn, self.PATHS, self.TOL)
        batch = list(nfev)
        nfev.clear()
        for path in self.PATHS:
            transport(conn, path, self.TOL)
        # two legs each for the retraced keyhole and lasso, three for the
        # triangle; a call per leg and segment class
        legs = [p.segments[:-1] if p.segments[-1] == p.segments[0].reversed()
                else p.segments for p in self.PATHS]
        calls = sum(len({type(segs[j]) for segs in legs if j < len(segs)})
                    for j in range(max(map(len, legs))))
        assert calls == len(batch) == 5 and len(nfev) == 7
        assert sum(batch) == sum(nfev)

    def test_one_segment_class_per_run(self, rng, monkeypatch):
        # keyholes run their approach lines together, then their circles;
        # a mixed set runs each leg's lines and arcs apart, in order of
        # first appearance
        runs = []
        real = monodromy_module.solve_ivp

        def recording(*args, segments, **kwargs):
            runs.append([type(seg) for seg in segments])
            return real(*args, segments=segments, **kwargs)

        monkeypatch.setattr(monodromy_module, "solve_ivp", recording)
        conn = batch_connection("rank2", rng)
        monodromy_rep(conn, 0.3 - 3.0j, tol=1e-10)
        assert runs == [[LineSegment] * 3, [ArcSegment] * 3]
        runs.clear()
        conn, _ = TestRetrace().conn_and_residues(rng)
        transport(conn, self.PATHS, self.TOL)
        assert runs == [[LineSegment] * 2, [ArcSegment], [ArcSegment] * 2,
                        [LineSegment], [LineSegment]]

    def test_too_small_step_names_path_and_segment(self, rng):
        conn, _ = TestRetrace().conn_and_residues(rng)
        poisoned = PoisonedLine(-1.0 - 0.5j, -0.5 - 1.0j)
        with np.errstate(invalid="ignore"), \
                pytest.raises(IntegrationAbort) as err:
            transport(conn, [TRIANGLE, Path((poisoned,))], self.TOL)
        assert f"path 1, {poisoned}" in str(err.value)
        assert "Required step size" in str(err.value)


class TestSeveralConnections:
    """Paths of several connections in one transport call, one lane each
    evaluating its own connection, get the bits they get one connection at
    a time."""

    TOL = 1e-11

    def connections(self, rng):
        first, _ = TestRetrace().conn_and_residues(rng)
        second = fuchsian([0.0, 1.0, 1.5j],
                          random_fuchsian_matrices(rng, 2, 3))
        return [first, second, first]

    def test_matches_one_connection_at_a_time(self, rng):
        conns = self.connections(rng)
        paths = [TestBatchedTransport.PATHS, [TRIANGLE], []]
        G = random_invertible(rng, 2)
        for kwargs in ({}, {"with_logdet": True, "Y0": G}):
            batch = transport(conns, paths, self.TOL, **kwargs)
            assert len(batch) == 3
            for conn, ps, got in zip(conns, paths, batch):
                want = transport(conn, ps, self.TOL, **kwargs)
                assert len(got) == len(want)
                assert all(map(same_result, got, want))

    def test_failure_names_the_sample(self, rng):
        conns = self.connections(rng)[:2]
        poisoned = PoisonedLine(-1.0 - 0.5j, -0.5 - 1.0j)
        with np.errstate(invalid="ignore"), \
                pytest.raises(IntegrationAbort) as err:
            transport(conns, [[TRIANGLE], [TRIANGLE, Path((poisoned,))]],
                      self.TOL)
        assert f"sample 1, path 1, {poisoned}" in str(err.value)

    def test_ranks_must_agree(self, rng):
        conns = [self.connections(rng)[0],
                 fuchsian([0.0, 1.0], random_fuchsian_matrices(rng, 3, 2))]
        with pytest.raises(PreconditionError, match="different ranks"):
            transport(conns, [[TRIANGLE], [TRIANGLE]], self.TOL)


def same_bytes(a, b):
    """Arrays equal to the bit, signed zeros and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def lane_solver(conn, segments):
    n = conn.n
    y0 = np.tile(np.append(np.eye(n, dtype=complex), 0.0), len(segments))
    return _LinearDOP853((_compiled_eval(conn),), 0.0, y0, 1.0,
                         segments=segments, names=[str(seg) for seg in
                                                   segments],
                         owners=[0] * len(segments), rtol=1e-10, atol=1e-10)


class TestLockStepRound:
    """A round of attempts is stacked over its lanes; each stacked piece
    gives every lane the bits of its own per-lane form."""

    def test_stacked_points_are_each_segments(self, rng):
        def cx():
            return complex(*rng.standard_normal(2))
        families = [
            [LineSegment(cx(), cx()) for _ in range(4)],
            [ArcSegment(cx(), float(rng.uniform(0.05, 2)), th,
                        th + float(rng.uniform(-7, 7)))
             for th in rng.uniform(-4, 4, 3)],
            [Path.keyhole(cx(), cx(), 0.3).segments[1] for _ in range(2)],
            # a subclass's own point_and_rate applies to its columns
            [PoisonedLine(cx(), cx()) for _ in range(3)],
        ]
        for segs in families:
            for _ in range(50):
                s = rng.uniform(0, 1, (len(segs), 11))
                with np.errstate(invalid="ignore"):
                    z, dz = _stacked(segs).point_and_rate(s)
                    dz = np.broadcast_to(dz, s.shape)
                    for seg, row, z_k, dz_k in zip(segs, s, z, dz):
                        want_z, want_dz = seg.point_and_rate(row)
                        assert same_bytes(z_k, want_z)
                        assert same_bytes(
                            dz_k, np.broadcast_to(want_dz, row.shape))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_block_matrices_are_per_lane_products(self, rng, n):
        solver = lane_solver(fuchsian([0.0], [random_matrix(rng, n)]),
                             [LineSegment(1.0, 2.0)])
        neg_aT = (-DOP853.A[1:, 1:].T)[:, None, :, None]
        for _ in range(300):
            P = int(rng.integers(1, 6))
            Bs = (rng.standard_normal((P, 11, n, n))
                  + 1j * rng.standard_normal((P, 11, n, n))) \
                * 10.0 ** rng.integers(-4, 5)
            h = rng.uniform(0, 1, P) * 10.0 ** rng.integers(-6, 1)
            got = solver._blocks(Bs, h)
            for i in range(P):
                want = np.multiply(h[i] * neg_aT, Bs[i].transpose(2, 0, 1),
                                   order="C")
                assert same_bytes(got[i], want)

    def test_error_norms_are_scipys_in_every_lane(self, rng):
        # enough norms that a squaring other than libm's pow(x, 2) shows
        solver = lane_solver(fuchsian([0.0], [random_matrix(rng, 2)]),
                             [LineSegment(1.0, 2.0)] * 4)
        for trial in range(3000):
            K = (rng.standard_normal((4, 13, 5))
                 + 1j * rng.standard_normal((4, 13, 5))) \
                * 10.0 ** rng.integers(-8, 8)
            h = (rng.uniform(0, 1, 4) * 10.0 ** rng.integers(-6, 1)).tolist()
            scale = 1e-12 + rng.uniform(0, 1e-9, (4, 5))
            got = solver._error_norms(K, h, scale)
            for k in range(4):
                want = DOP853._estimate_error_norm(solver, K[k], h[k],
                                                   scale[k])
                assert same_bits(got[k], want), (trial, k)

    @pytest.mark.parametrize("segs", [
        [LineSegment(1.0, 2.0), LineSegment(1.0j, 2.0j),
         LineSegment(-1.0, -1.0 + 2.0j)],
        [ArcSegment(0.0, 1.5, 0.0, 1.0), ArcSegment(1.0j, 0.5, 2.0, 0.0),
         ArcSegment(-1.0, 0.5, 0.0, 6.0)]], ids=["lines", "arcs"])
    def test_each_lane_keeps_scipys_step_control(self, rng, segs):
        # error norms drawn at random drive three lanes of one segment
        # class; each lane's attempts follow RungeKutta._step_impl, with
        # libm's ** and the rejection flag and minimum step of its current
        # step, while every unfinished lane attempts in every round
        solver = lane_solver(fuchsian([0.0], [random_matrix(rng, 2)]), segs)
        h0 = list(solver.h_abs)
        attempts = [[] for _ in segs]
        rounds = []
        attempt = solver._attempt

        def recording_attempt(y, t, h):
            # each live lane's t, its step size before the cut at the end
            # of the interval, and its step
            rounds.append(list(solver.live))
            for k, t_k, h_k in zip(solver.live, t.tolist(), h.tolist()):
                attempts[k].append([t_k, solver.h_abs[k], h_k])
            return attempt(y, t, h)

        def drawn_norms(K, h, scale):
            norms = [0.0 if rng.uniform() < 0.05 else float(rng.uniform(0, 1.6))
                     for _ in h]
            for k, norm in zip(solver.live, norms):
                attempts[k][-1].append(norm)
            return norms

        solver._attempt = recording_attempt
        solver._error_norms = drawn_norms
        while solver.status == "running":
            solver.step()
        assert solver.status == "finished"
        for k in range(len(segs)):
            t, h_abs, i = 0.0, h0[k], 0
            while t < 1.0:
                min_step = 10 * abs(np.nextafter(t, np.inf) - t)
                h_abs = max(h_abs, min_step)
                rejected = False
                while True:
                    t_new = min(t + h_abs, 1.0)
                    h = t_new - t
                    assert attempts[k][i][:3] == [t, h_abs, h], (k, i)
                    h_abs = abs(h)
                    norm = attempts[k][i][3]
                    i += 1
                    if norm < 1:
                        factor = 10 if norm == 0 else min(
                            10, 0.9 * norm ** (-1 / 8))
                        if rejected:
                            factor = min(1, factor)
                        h_abs *= factor
                        t = t_new
                        break
                    h_abs *= max(0.2, 0.9 * norm ** (-1 / 8))
                    rejected = True
            assert i == len(attempts[k])
        assert len(rounds) == max(map(len, attempts))
        assert all(rounds[r] == [k for k in range(len(segs))
                                 if r < len(attempts[k])]
                   for r in range(len(rounds)))
        assert solver.nfev == 2 * len(segs) + 12 * sum(map(len, attempts))

    def test_a_round_per_attempt_of_the_slowest_lane(self, rng,
                                                     monkeypatch):
        # one leg of a 4-keyhole representation takes as many rounds as its
        # slowest lane takes attempts, (nfev - 2) / 12 when run alone
        conn = fuchsian([-1.5, -0.2, 0.9, 2.1],
                        random_fuchsian_matrices(rng, 2, 4))
        rounds = count_calls(monkeypatch, _LinearDOP853, "_attempt")
        nfev = []
        real = monodromy_module.solve_ivp

        def recording(*args, **kwargs):
            sol = real(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(monodromy_module, "solve_ivp", recording)
        rep = monodromy_rep(conn, 0.3 - 2.5j, tol=1e-10)
        batch_rounds = len(rounds)
        attempts = []
        for loop in rep.loops:
            nfev.clear()
            transport(conn, loop, 1e-10)
            assert all((k - 2) % 12 == 0 for k in nfev)
            attempts.append([(k - 2) // 12 for k in nfev])
        assert len(attempts) == 4 and all(len(a) == 2 for a in attempts)
        assert batch_rounds == sum(max(leg) for leg in zip(*attempts))


# a segment whose rate is NaN from its start: the first step size is NaN
NAN_RATE_RUN = """
import dataclasses
import numpy as np
from isomonodromy.connection import Connection
from isomonodromy.errors import IntegrationAbort
from isomonodromy.monodromy import LineSegment, Path, transport

@dataclasses.dataclass(frozen=True)
class NanLine(LineSegment):
    def point_and_rate(self, s):
        z, d = super().point_and_rate(s)
        return z, d * np.nan

conn = Connection.from_polar_parts([(0.0, [np.eye(2)])])
with np.errstate(invalid="ignore"):
    try:
        transport(conn, [Path.line(-1.0 - 2.0j, 1.0 - 2.0j),
                         Path((NanLine(-1.0 - 1.0j, 1.0 - 1.0j),))])
    except IntegrationAbort as exc:
        print(exc)
"""


def test_nan_step_size_aborts_its_lane():
    # a NaN step size passes the minimum-step guard, so a regression would
    # shrink it forever: the run goes to a child process with a timeout
    src = str(FsPath(monodromy_module.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", NAN_RATE_RUN],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert "path 1, NanLine(" in proc.stdout
    assert "step size nan is not finite" in proc.stdout


# a monodromy representation in a child process, which first imports
# scipy.linalg (and so scipy's own load of the LAPACK extension) when told
# to; prints whether scipy.linalg is loaded, then the matrices' bytes
DOUBLE_LOAD_RUN = """
import sys
if sys.argv[1] == "scipy.linalg first":
    import scipy.linalg
import numpy as np
from isomonodromy.connection import Connection
from isomonodromy.monodromy import monodromy_rep

rng = np.random.default_rng(11)
mats = [0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        for _ in range(2)]
conn = Connection.from_polar_parts(
    [(0.0, [mats[0]]), (1.2, [mats[1]]), (-0.9, [-mats[0] - mats[1]])])
rep = monodromy_rep(conn, 0.2 - 1.5j)
print("scipy.linalg" in sys.modules)
print(np.stack(rep.matrices).tobytes().hex())
"""


# a DOP853 solution by scipy's solve_ivp in a child process, which imports
# scipy.integrate before the library when told to, or after it; prints
# whether scipy's DOP853 reads the library's tableau module, then the bytes
# of the solution and of its dense output
SCIPY_DOP853_RUN = """
import sys
if sys.argv[1] == "scipy.integrate first":
    import scipy.integrate
import numpy as np
from isomonodromy import ode
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import rk

sol = solve_ivp(lambda t, y: [y[1], -np.sin(y[0]) - 0.1 * y[1]], (0.0, 6.0),
                [1.2, 0.0], method="DOP853", rtol=1e-9, atol=1e-12,
                dense_output=True)
print(rk.dop853_coefficients is ode._tableau)
print(sol.y.tobytes().hex() + sol.sol(np.linspace(0.0, 6.0, 7)).tobytes().hex())
"""

LOADED_ALONE = ["scipy.linalg._flapack",
                "scipy.integrate._ivp.dop853_coefficients"]


class TestModulesLoadedAlone:
    """Transport's ``ztrtrs`` and DOP853's tableau, from the two scipy modules
    ``ode.load_alone`` loads without their packages, are the routine
    ``scipy.linalg.lapack`` exports and the tableau scipy's DOP853 reads,
    with their bits, whichever of the library and scipy's package loads
    each module first."""

    @pytest.mark.parametrize("name", LOADED_ALONE)
    def test_is_the_module_scipy_reads(self, monkeypatch, name):
        from scipy.integrate._ivp import rk
        from scipy.linalg import lapack
        assert monodromy_module.ztrtrs is lapack.ztrtrs
        assert ode._tableau is rk.dop853_coefficients
        module = sys.modules[name]

        # a second load returns the module loaded, and loads nothing again
        def fail(loader, spec):
            raise AssertionError("the module is loaded again")

        monkeypatch.setattr(type(module.__spec__.loader), "create_module",
                            fail)
        assert ode.load_alone(name) is module

    @pytest.mark.parametrize("name", LOADED_ALONE)
    def test_a_failed_load_names_the_module_and_leaves_no_module(
            self, monkeypatch, name):
        loaded = sys.modules[name]
        monkeypatch.delitem(sys.modules, name)

        def fail(loader, module):
            raise ImportError("unloadable")

        monkeypatch.setattr(type(loaded.__spec__.loader), "exec_module", fail)
        with pytest.raises(ImportError, match="unloadable"):
            ode.load_alone(name)
        assert name not in sys.modules
        monkeypatch.setattr(ode.PathFinder, "find_spec", lambda *args: None)
        with pytest.raises(ImportError, match=re.escape(name)) as error:
            ode.load_alone(name)
        assert error.value.name == name and name not in sys.modules

    def test_scipy_dop853_bits_do_not_depend_on_the_import_order(self):
        src = str(FsPath(ode.__file__).resolve().parents[1])
        outs = []
        for order in ("scipy.integrate first", "library first"):
            proc = subprocess.run(
                [sys.executable, "-c", SCIPY_DOP853_RUN, order],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src})
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout.split())
        assert [same for same, _ in outs] == ["True", "True"]
        assert outs[0][1] == outs[1][1]

    def test_transport_bits_do_not_depend_on_scipy_linalg(self):
        src = str(FsPath(monodromy_module.__file__).resolve().parents[1])
        outs = []
        for order in ("scipy.linalg first", "library alone"):
            proc = subprocess.run(
                [sys.executable, "-c", DOUBLE_LOAD_RUN, order],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src})
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout.split())
        assert [loaded for loaded, _ in outs] == ["True", "False"]
        assert outs[0][1] == outs[1][1]


class TestPolarPartsCache:
    def test_one_decomposition_per_connection(self, rng, monkeypatch):
        calls = count_calls(monkeypatch, connection_module, "polar_decompose")
        mats = random_fuchsian_matrices(rng, 2, 4)
        conn = fuchsian([-1.5, -0.2, 0.9, 2.1], mats)
        monodromy_rep(conn, 0.3 - 2.5j, tol=1e-9)
        assert len(calls) == 1
        monodromy_rep(conn, 0.3 - 2.5j, tol=1e-9)
        assert len(calls) == 1

    def test_serialized_twist_connection_unchanged(self):
        # the decomposition transport has read and a fresh one must
        # serialize to the same bytes
        pushed = twisted_connection(np.random.default_rng(7))
        monodromy_rep(pushed, -3.0j, tol=1e-9)
        fresh = dataclasses.replace(pushed)
        assert "polar_parts" not in vars(fresh)
        assert json.dumps(ser.connection(pushed)) == \
            json.dumps(ser.connection(fresh))


def mp_transport(residues, poles, path, dps=20):
    """High-precision transport of ``dY/dz = sum R_i/(z - t_i) Y`` along a
    path of line and arc segments, by ``mpmath.odefun`` (Taylor series)."""
    import mpmath

    n = residues[0].shape[0]
    with mpmath.workdps(dps):
        R = [mpmath.matrix(M.tolist()) for M in residues]
        t = [mpmath.mpc(p) for p in poles]
        Y = mpmath.eye(n)
        for seg in path.segments:
            if isinstance(seg, LineSegment):
                a, b = mpmath.mpc(seg.start), mpmath.mpc(seg.end)

                def z_dz(s, a=a, b=b):
                    return a + s * (b - a), b - a
            else:
                c, r = mpmath.mpc(seg.center), mpmath.mpf(seg.radius)
                th0, th1 = mpmath.mpf(seg.theta0), mpmath.mpf(seg.theta1)

                def z_dz(s, c=c, r=r, th0=th0, th1=th1):
                    e = r * mpmath.expj(th0 + s * (th1 - th0))
                    return c + e, 1j * (th1 - th0) * e

            def F(s, y, z_dz=z_dz):
                z, dz = z_dz(s)
                A = sum((Ri * (dz / (z - ti)) for Ri, ti in zip(R, t)),
                        mpmath.zeros(n))
                dY = A * mpmath.matrix([y[i * n:(i + 1) * n]
                                        for i in range(n)])
                return [dY[i, j] for i in range(n) for j in range(n)]

            y0 = [Y[i, j] for i in range(n) for j in range(n)]
            y1 = mpmath.odefun(F, 0, y0)(1)
            Y = mpmath.matrix([[y1[i * n + j] for j in range(n)]
                               for i in range(n)])
        return np.array(Y.tolist(), dtype=complex)


class TestConjugacyResidual:
    @staticmethod
    def invariants(mats):
        return np.array(conjugacy_invariants(SimpleNamespace(matrices=mats)))

    def test_conjugate_tuples_and_scale(self, rng):
        mats = [random_invertible(rng, 3) for _ in range(4)]
        C = random_invertible(rng, 3)
        conj = [C @ M @ np.linalg.inv(C) for M in mats]
        assert conjugacy_residual(mats, conj) < 1e-14
        other = [M + 1e-3 * random_matrix(rng, 3) for M in mats]
        r = conjugacy_residual(mats, other)
        assert r > 1e-6
        assert abs(conjugacy_residual([1e4 * M for M in mats],
                                      [1e4 * M for M in other]) / r - 1) < 1e-9
        assert conjugacy_residual([], []) == 0.0

    def test_sees_what_the_invariants_miss(self, rng):
        # four rank-3 loops: the checked invariants (characteristic
        # polynomials, adjacent traces) have rank 15 on a 36-dimensional
        # tuple; conjugation spans 8 of the other 21 directions, and the
        # rest move the tuple at first order without moving the invariants
        mats = [random_invertible(rng, 3) for _ in range(4)]
        x0 = np.concatenate([M.ravel() for M in mats])

        def tuple_at(x):
            return list(x.reshape(4, 3, 3))

        h = 1e-6
        J = np.stack([(self.invariants(tuple_at(x0 + h * e))
                       - self.invariants(tuple_at(x0 - h * e))) / (2 * h)
                      for e in np.eye(x0.size)], axis=1)
        _, S, Vh = np.linalg.svd(J)
        rank = int(np.sum(S > 1e-8 * S[0]))
        assert rank == 15
        kernel = Vh[rank:].conj().T
        orbit = np.stack([np.concatenate([(E @ M - M @ E).ravel()
                                          for M in mats])
                          for E in np.eye(9).reshape(9, 3, 3)], axis=1)
        Q = np.linalg.qr(orbit)[0]
        U, S, _ = np.linalg.svd(kernel - Q @ (Q.conj().T @ kernel))
        assert np.sum(S > 1e-6) == 13
        v = U[:, 0]
        residuals = []
        for eps in (1e-6, 1e-5):
            moved = tuple_at(x0 + eps * v)
            drift = np.max(np.abs(self.invariants(moved)
                                  - self.invariants(mats)))
            residuals.append(conjugacy_residual(mats, moved))
            # second order in the invariants, first order in the residual
            assert drift < 1e-3 * residuals[-1]
        assert residuals[0] > 1e-9
        assert 9.5 < residuals[1] / residuals[0] < 10.5


def test_keyhole_converges_to_high_precision_reference():
    """Transport error against a 20-digit reference falls with ``tol`` and
    stays within ``tol * max(1, |M|_2)`` (a non-commuting keyhole)."""
    rng = np.random.default_rng(11)
    poles = [0.0, 1.0, 1.5j]
    residues = random_fuchsian_matrices(rng, 2, 3)
    R0, R1 = residues[:2]
    assert np.max(np.abs(R0 @ R1 - R1 @ R0)) > 0.1
    conn = fuchsian(poles, residues)
    loop = Path.keyhole(-1.0 - 0.5j, 0.0, 0.25)
    ref = mp_transport(residues, poles, loop)
    scale = max(1.0, np.linalg.norm(ref, 2))
    errors = []
    for tol in (1e-8, 1e-10, 1e-12):
        err = np.max(np.abs(transport(conn, loop, tol) - ref))
        assert err <= tol * scale, (tol, err, scale)
        errors.append(err)
    assert errors[0] > errors[1] > errors[2], errors

def test_transport_imports_neither_chart_layer_nor_flows():
    # transport is the oracle the flows are checked against, so it must not
    # share code with the chart layer or the flows
    tree = ast.parse(FsPath(monodromy_module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[-1] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.split(".")[-1])
            if not node.module or node.module == "isomonodromy":
                imported.update(a.name for a in node.names)
    assert imported and not imported & {"symplectic", "flows"}


def test_chart_layer_takes_only_the_state():
    # the state memoizes its polar data, so no chart-layer or flow function
    # threads a cache of it by hand
    cache_names = {"blocks", "polar", "regular", "conn"}
    offenders = []
    for mod in (symplectic_module, flows_module):
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(obj):
                members = [(name, obj)]
            elif inspect.isclass(obj):
                members = [(f"{name}.{attr}", fn)
                           for attr, fn in vars(obj).items()
                           if inspect.isfunction(fn)
                           and not attr.startswith("_")]
            else:
                continue
            for label, fn in members:
                params = set(inspect.signature(fn).parameters)
                if params & cache_names:
                    offenders.append(label)
    assert not offenders, offenders
    # states imports the chart layer lazily, never at module level
    tree = ast.parse(FsPath(states_module.__file__).read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[-1] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.split(".")[-1])
            imported.update(a.name for a in node.names)
    assert imported and not imported & {"symplectic", "flows"}


def identity_tuple(rng, l, n):
    """``l`` complex ``n x n`` matrices whose exact product ``M_l ... M_1``
    is I: the first ``l - 1`` drawn, the last the inverse of their product
    in 60-digit ``mpmath``, each entry rounded once to double."""
    import mpmath
    with mpmath.workdps(60):
        drawn = [mpmath.matrix(random_invertible(rng, n).tolist())
                 for _ in range(l - 1)]
        prod = mpmath.eye(n)
        for M in drawn:
            prod = M * prod
        drawn.append(prod ** -1)
        return [np.array(M.tolist(), dtype=complex) for M in drawn]


class TestProductErrorScale:
    """``MonodromyRep.error_scale``: the rounding error's scale in the
    ordered product, which the defect of an exact identity stays within."""

    @pytest.mark.parametrize("l, n", [(1, 2), (3, 2), (4, 3), (6, 4)])
    def test_matches_the_quadratic_reference(self, rng, l, n):
        for _ in range(20):
            mats = [random_matrix(rng, n, 10.0 ** rng.uniform(-2, 2))
                    for _ in range(l)]
            _, scale = product_check(mats, n)
            want = product_error_scale_by_pairs(mats, n)
            assert abs(scale - want) <= 1e-13 * want

    def test_blind_to_a_diagonal_unitary_gauge(self, rng):
        for _ in range(20):
            mats = [random_invertible(rng, 3) for _ in range(4)]
            D = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3)))
            _, scale = product_check(mats, 3)
            _, gauged = product_check([D @ M @ D.conj().T for M in mats], 3)
            assert abs(gauged - scale) <= 1e-13 * scale

    @pytest.mark.parametrize("l, n", [(2, 2), (4, 2), (4, 3), (6, 4)])
    def test_an_exact_identity_stays_within_it(self, rng, l, n):
        for _ in range(10):
            mats = identity_tuple(rng, l, n)
            defect, scale = product_check(mats, n)
            assert 0.0 < scale and defect <= l * n * scale

    def test_a_perturbed_loop_reads_far_above_it(self, rng):
        # a well-conditioned tuple: unitary matrices
        mats = [np.linalg.qr(random_matrix(rng, 2))[0] for _ in range(3)]
        mats.append(np.linalg.inv(mats[2] @ mats[1] @ mats[0]))
        defect, scale = product_check(mats, 2)
        assert defect <= 8 * scale
        mats[1] = mats[1] * (1 + 1e-8 * np.exp(1j * rng.uniform(0, 7, (2, 2))))
        defect, scale = product_check(mats, 2)
        assert defect > 1e3 * scale

    def test_on_the_representation(self, rng):
        conn = batch_connection("rank2", rng)
        rep = monodromy_rep(conn, 0.3 - 3.0j, tol=1e-10)
        assert (rep.product_defect, rep.error_scale) == product_check(
            rep.matrices, conn.n)
        # a form with a polynomial tail is not regular at infinity: no
        # product check
        assert monodromy_rep(batch_connection("tail", rng), 0.3 - 3.0j,
                             tol=1e-10).error_scale is None
