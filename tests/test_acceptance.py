"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success).   Random data is drawn from fixed seeds so the suite is
deterministic.
"""

import time

import numpy as np
import pytest

from isomonodromy.connection import Connection, diagonalize_jet
from isomonodromy.errors import RegularityError
from isomonodromy.flows import (
    Direction,
    FlowPath,
    extend_state,
    integrate_extended,
    integrate_flow,
    isomonodromic_rhs,
    verify_isomonodromy,
)
from isomonodromy.monodromy import monodromy_rep
from isomonodromy.ratfun import (
    LaurentJet,
    RatMat,
    residue,
    residue_quadrature_oracle,
)
from isomonodromy.states import FlowState, PoleData
from isomonodromy.symplectic import (
    TangentVec,
    gram_matrix,
    induced_polar_variations,
    residue_pairing,
    symplectic_form,
)
from isomonodromy.twist import (
    MatrixDivisor,
    TwistSite,
    degree,
    normal_form,
    push_connection,
    total_trace_residue,
)

from conftest import (
    fuchsian_connection,
    random_fuchsian_matrices,
    random_invertible,
    random_matrix,
    random_rational_one_form,
)
from oracles import (
    formal_diagonalize,
    reconstruction_defect,
    with_chart_vector,
)

POLES = [-2.1, -0.35, 1.15, 2.6]


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def fuchsian_states(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        mats = random_fuchsian_matrices(rng, 2, 4)
        out.append(FlowState(2, tuple(
            PoleData(t, 1, np.eye(2), M) for t, M in zip(POLES, mats))))
    return out


def test_01_schlesinger_emergence():
    t0 = time.monotonic()
    states = fuchsian_states(20260810, 10)
    worst = 0.0
    for state in states:
        ts = [p.t for p in state.poles]
        mats = [p.lam_res for p in state.poles]
        for i in range(4):
            d = isomonodromic_rhs(Direction.translation(i), state)
            var = induced_polar_variations(d.d_chart, state)
            for j in range(4):
                if j == i:
                    want = -sum((mats[i] @ mats[k] - mats[k] @ mats[i])
                                / (ts[i] - ts[k]) for k in range(4) if k != i)
                else:
                    want = (mats[i] @ mats[j] - mats[j] @ mats[i]) \
                        / (ts[i] - ts[j])
                err = np.max(np.abs(var[j][0] - want)) / max(
                    1.0, np.max(np.abs(want)))
                worst = max(worst, err)
    elapsed = time.monotonic() - t0
    report(1, "Schlesinger emergence", worst < 1e-8 and elapsed < 30,
           f"rel err {worst:.2e} (<1e-8), runtime {elapsed:.1f}s (<30s)")


def test_02_monodromy_preservation():
    states = fuchsian_states(20260810, 10)
    worst, slowest = 0.0, 0.0
    for state in states:
        t0 = time.monotonic()
        path = FlowPath.semicircle(state, 1, diameter=2 / np.pi)
        traj = integrate_flow(state, path, tol=1e-10, n_samples=3)
        rep = verify_isomonodromy(traj, tol=1e-10)
        worst = max(worst, rep.max_drift)
        slowest = max(slowest, time.monotonic() - t0)
    report(2, "monodromy preservation", worst < 1e-6 and slowest < 120,
           f"max drift {worst:.2e} (<1e-6), slowest state {slowest:.1f}s "
           f"(<120s)")


def test_03_irregular_deformation():
    rng = np.random.default_rng(42)
    lam_lead = np.array([-0.45, 0.4])          # gap 0.85 >= 0.5
    rm = lambda: 0.25 * (rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2)))
    lam0, A1 = rm(), rm()
    state = FlowState(2, (
        PoleData(0.0, 2, np.eye(2), lam0, [lam_lead]),
        PoleData(2.3, 1, np.eye(2), A1),
        PoleData(-2.0, 1, np.eye(2), -(lam0 + A1))))
    rate = np.array([[0.8, -0.5]], dtype=complex)
    path = FlowPath.irregular_line(state, 0, rate, length=0.5)
    traj = integrate_flow(state, path, tol=1e-10, n_samples=3)
    rep = verify_isomonodromy(traj, tol=1e-10)
    track = 0.0
    for s, f in zip(traj.samples, rep.formal):
        want = np.sort_complex(lam_lead + s * 0.5 * rate[0])
        got = np.sort_complex(f[0][0])
        track = max(track, float(np.max(np.abs(want - got))))
    ok = rep.max_drift < 1e-6 and track < 1e-8
    report(3, "irregular deformation", ok,
           f"monodromy drift {rep.max_drift:.2e} (<1e-6), "
           f"formal tracking {track:.2e} (<1e-8)")


def test_04_pairing_invariance():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        site = normal_form(0.0, (0.0, complex(rng.standard_normal(),
                                              rng.standard_normal())))
        a = np.stack([random_matrix(rng, 2) for _ in range(2)])
        bc = np.zeros((8, 2, 2), dtype=complex)
        bc[0] = random_matrix(rng, 2)
        b = LaurentJet(0.0, -1, bc, 1)
        F = random_invertible(rng, 2)
        Finv = np.linalg.inv(F)
        v1 = residue_pairing(a, b, site, "U1")
        aF = np.einsum("kij,jl->kil", a, F)
        bF = LaurentJet(0.0, -1,
                        np.einsum("ij,kjl,lm->kim", Finv, bc, F), 1)
        v2 = residue_pairing(aF, bF, site.right_multiply(F), "U1")
        worst = max(worst, abs(v1 - v2))
    report(4, "pairing invariance", worst < 1e-10,
           f"max |pairing(T) - pairing(TF)| = {worst:.2e} (<1e-10)")


def test_05_symplectic_structure():
    rng = np.random.default_rng(5)
    # antisymmetry: exact as computed
    anti_ok = True
    state0 = FlowState(2, tuple(
        PoleData(t, 1, np.eye(2), M) for t, M in zip(
            [0.0, 1.4, -1.2], random_fuchsian_matrices(rng, 2, 3))))
    for _ in range(5):
        s = tuple(rng.standard_normal((1, 2, 2))
                  + 1j * rng.standard_normal((1, 2, 2)) for _ in range(3))
        s2 = tuple(rng.standard_normal((1, 2, 2))
                   + 1j * rng.standard_normal((1, 2, 2)) for _ in range(3))
        bmat = RatMat.from_polar_part(0.0, [random_matrix(rng, 2)])
        bmat2 = RatMat.from_polar_part(1.4, [random_matrix(rng, 2)])
        X, Y = TangentVec(s, bmat), TangentVec(s2, bmat2)
        anti_ok &= symplectic_form(X, Y, state0) == -symplectic_form(Y, X, state0)

    # numeric closedness and Gram non-degeneracy over random charts
    h = 1e-5
    worst_cyc, worst_ratio = 0.0, np.inf
    for _ in range(20):
        mats = random_fuchsian_matrices(rng, 2, 3)
        hs = [random_invertible(rng, 2) for _ in range(3)]
        state = FlowState(2, tuple(
            PoleData(t, 1, H, M) for t, H, M in
            zip([0.0, 1.4, -1.2], hs, mats)))
        dim = state.chart_dim()
        X, Y, Z = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                   for _ in range(3))

        def omega_at(st, U, V):
            return U @ gram_matrix(st) @ V

        def d_along(W, U, V):
            v0 = state.chart_vector()
            return (omega_at(with_chart_vector(state, v0 + h * W), U, V)
                    - omega_at(with_chart_vector(state, v0 - h * W), U, V)) \
                / (2 * h)

        cyc = d_along(X, Y, Z) + d_along(Y, Z, X) + d_along(Z, X, Y)
        scale = max(abs(omega_at(state, X, Y)), abs(omega_at(state, Y, Z)),
                    abs(omega_at(state, Z, X)), 1.0)
        worst_cyc = max(worst_cyc, abs(cyc) / scale)
        S = np.linalg.svd(gram_matrix(state), compute_uv=False)
        worst_ratio = min(worst_ratio, S[-1] / S[0])
    ok = anti_ok and worst_cyc < 1e-4 and worst_ratio > 1e-8
    report(5, "symplectic structure", ok,
           f"antisymmetry exact: {anti_ok}, cyclic sum {worst_cyc:.2e} "
           f"(<1e-4), min/max singular value {worst_ratio:.2e} (>1e-8)")


def test_06_degree_lemma():
    rng = np.random.default_rng(6)
    exact = degree(normal_form(0.0, (0.0, 1.0, 2.0))) == 1
    for n in (1, 2, 3):
        germ = np.zeros((2, n, n), dtype=complex)
        germ[0] = np.eye(n)
        germ[1] = np.eye(n)
        germ[0] *= 0.0
        exact &= degree(TwistSite(0.0, germ)) == n
    worst = 0.0
    for _ in range(20):
        mats = [0.4 * M for M in random_fuchsian_matrices(rng, 2, 2)]
        conn = Connection.from_ratmat(fuchsian_connection([1.2, -0.8], mats))
        if rng.uniform() < 0.5:
            site = normal_form(0.1 + 0.2j, (0.0, complex(rng.standard_normal())))
            site = site.right_multiply(random_invertible(rng, 2))
        else:
            germ = np.zeros((2, 2, 2), dtype=complex)
            germ[1] = np.eye(2)
            site = TwistSite(0.1 + 0.2j, germ)
        pushed = push_connection(site, conn)
        before = total_trace_residue(conn)
        after = total_trace_residue(pushed)
        worst = max(worst, abs(after - (before - degree(site))))
    report(6, "degree lemma and trace-residue bookkeeping",
           exact and worst < 1e-10,
           f"exact integer degrees: {exact}, bookkeeping defect "
           f"{worst:.2e} (<1e-10)")


def test_07_twist_monodromy_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        mats = [0.4 * M for M in random_fuchsian_matrices(rng, 2, 2)]
        conn = Connection.from_ratmat(fuchsian_connection([1.3, -1.3], mats))
        p = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        site = normal_form(p, (0.0, complex(rng.standard_normal())))
        pushed = push_connection(site, conn)
        rep = monodromy_rep(pushed, -3.0j, tol=1e-11)
        M = rep.matrix_for_pole(site.point)
        worst = max(worst, float(np.max(np.abs(M - np.eye(2)))))
    report(7, "twist monodromy identity", worst < 1e-8,
           f"max |M - I| at twist points = {worst:.2e} (<1e-8)")


def test_08_formal_diagonalization():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        l = int(rng.integers(1, 4))
        lead = random_matrix(rng, n) + np.diag(3.0 * np.arange(n))
        rest = [random_matrix(rng, n) for _ in range(l - 1)]
        conn = Connection.from_polar_parts(
            [(0.0, list(reversed([lead] + rest)))],
            tail=[random_matrix(rng, n)])
        pair = formal_diagonalize(conn, 0.0, 4)
        defect = reconstruction_defect(conn, 0.0, pair, 4)
        worst = max(worst, float(np.max(np.abs(defect))))
    nilpotent_ok = False
    N = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    bad = Connection.from_polar_parts([(0.0, [np.zeros((2, 2)), N])])
    try:
        formal_diagonalize(bad, 0.0, 2)
    except RegularityError:
        nilpotent_ok = True
    report(8, "formal diagonalization", worst < 1e-9 and nilpotent_ok,
           f"reconstruction defect {worst:.2e} (<1e-9) through order 4 on 50 "
           f"jets; nilpotent leading term raises: {nilpotent_ok}")


def test_09_extended_projection():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(5):
        mats = random_fuchsian_matrices(rng, 2, 3)
        state = FlowState(2, tuple(
            PoleData(t, 1, np.eye(2), M)
            for t, M in zip([-1.2, 0.4, 1.9], mats)))
        path = FlowPath.line(state, 1, 0.5 + 0.3j)   # unit-ish path
        traj = integrate_flow(state, path, tol=1e-10, n_samples=3)
        _, exts, status = integrate_extended(extend_state(state), path,
                                             tol=1e-9, n_samples=3)
        assert status[0] == "completed"
        for e, st in zip(exts, traj.states):
            d = np.max(np.abs(e.state.chart_vector() - st.chart_vector()))
            d = max(d, float(np.max(np.abs(
                np.array([p.t for p in e.state.poles])
                - np.array([p.t for p in st.poles])))))
            worst = max(worst, d)
    report(9, "autonomous extension projects onto the flow", worst < 1e-6,
           f"trajectory divergence {worst:.2e} (<1e-6) on 5 states")


def test_10_residue_oracle_agreement():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        f, poles = random_rational_one_form(rng, n_poles=3, max_order=2,
                                            min_sep=0.1)
        for p in poles:
            sep = min(abs(p - q) for q in poles if q != p)
            got = residue_quadrature_oracle(f, p, sep / 2, 256)
            want = residue(f, p)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    report(10, "symbolic vs quadrature residues", worst < 1e-10,
           f"max deviation {worst:.2e} (<1e-10) on 100 random forms")
