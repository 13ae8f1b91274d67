import ast
from pathlib import Path as FsPath

import numpy as np
import pytest

import isomonodromy.monodromy as monodromy_module
from isomonodromy.connection import Connection
from isomonodromy.errors import PreconditionError
from isomonodromy.monodromy import (
    ArcSegment,
    LineSegment,
    Path,
    conjugacy_invariants,
    monodromy_rep,
    transport,
)
from isomonodromy.ratfun import RatMat
from isomonodromy.twist import normal_form, push_connection

from conftest import (
    fuchsian_connection,
    random_fuchsian_matrices,
    random_invertible,
)


def fuchsian(poles, mats):
    return Connection.from_ratmat(fuchsian_connection(poles, mats))


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


class TestMonodromyRep:
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

    def test_invariants_conjugation_invariant(self, rng):
        mats = random_fuchsian_matrices(rng, 2, 3)
        conn = fuchsian([-1.0, 0.4, 1.7], mats)
        rep = monodromy_rep(conn, 0.0 - 2.0j, tol=1e-11)
        inv1 = np.array(conjugacy_invariants(rep))
        C = random_invertible(rng, 2)
        rep.matrices = [C @ M @ np.linalg.inv(C) for M in rep.matrices]
        inv2 = np.array(conjugacy_invariants(rep))
        assert np.max(np.abs(inv1 - inv2)) < 1e-10

    def test_identity_charpoly(self):
        conn = Connection.from_polar_parts([(0.0, [np.zeros((2, 2))])])
        rep = monodromy_rep(conn, -2.0j, tol=1e-11)
        inv = conjugacy_invariants(rep)
        assert np.allclose(inv[:3], [1.0, -2.0, 1.0], atol=1e-8)


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
