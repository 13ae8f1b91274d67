import numpy as np
import pytest

import isomonodromy.flows as flows
from isomonodromy.errors import MalformedInputError, PreconditionError
from isomonodromy.flows import (
    Direction,
    FlowPath,
    Trajectory,
    beta_for_rate,
    direction_differential,
    extend_state,
    extended_autonomous_rhs,
    integrate_extended,
    integrate_flow,
    isomonodromic_rhs,
    lift_I0,
    section_S,
    verify_isomonodromy,
)
from isomonodromy.monodromy import monodromy_rep
from isomonodromy.states import FlowState, PoleData
from isomonodromy.symplectic import hamiltonian_beta_B
from isomonodromy.twist import MatrixDivisor, normal_form

from conftest import (
    numeric_differential,
    random_fuchsian_matrices,
    random_matrix,
    rational_translation_hamiltonians,
)


def fuchsian_state(ts, mats, twist=None):
    n = mats[0].shape[0]
    return FlowState(n, tuple(PoleData(t, 1, np.eye(n), M)
                              for t, M in zip(ts, mats)), twist)


def commuting_state():
    mats = [np.diag([0.4, -0.3]).astype(complex),
            np.diag([-0.2, 0.5]).astype(complex),
            np.diag([-0.2, -0.2]).astype(complex)]
    return fuchsian_state([0.0, 1.6, -1.4], mats)


def irregular_state(rng, lam_lead=(-0.45, 0.4)):
    rm = lambda: 0.25 * (rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2)))
    lam0, A1 = rm(), rm()
    return FlowState(2, (
        PoleData(0.0, 2, np.eye(2), lam0, [list(lam_lead)]),
        PoleData(2.3, 1, np.eye(2), A1),
        PoleData(-2.0, 1, np.eye(2), -(lam0 + A1))))


class TestLift:
    def test_zero_direction(self, rng):
        state = fuchsian_state([0.0, 1.0], random_fuchsian_matrices(rng, 2, 2))
        d = lift_I0(Direction({}, {}), state)
        assert np.all(d.d_positions == 0)
        assert np.all(d.d_chart == 0)

    def test_translation_moves_only_position(self, rng):
        state = fuchsian_state([0.0, 1.0], random_fuchsian_matrices(rng, 2, 2))
        d = lift_I0(Direction.translation(0), state)
        assert d.d_positions[0] == 1.0
        assert d.d_positions[1] == 0.0
        assert np.all(d.d_chart == 0)

    def test_irregular_rate_passthrough(self, rng):
        state = irregular_state(rng)
        rate = np.array([[0.3, -0.1]], dtype=complex)
        d = lift_I0(Direction.irregular(0, rate), state)
        assert np.allclose(d.d_irregular[0], rate)
        assert np.all(d.d_chart == 0)


class TestRhs:
    def test_commuting_residues_freeze_coefficients(self):
        state = commuting_state()
        d = isomonodromic_rhs(Direction.translation(0), state)
        assert d.d_positions[0] == 1.0
        from isomonodromy.symplectic import induced_polar_variations
        var = induced_polar_variations(d.d_chart, state)
        for v in var:
            assert np.max(np.abs(v[0])) < 1e-12

    def test_schlesinger_from_inversion(self, rng):
        ts = [-1.5, -0.2, 0.9, 2.1]
        mats = random_fuchsian_matrices(rng, 2, 4)
        state = fuchsian_state(ts, mats)
        from isomonodromy.symplectic import induced_polar_variations
        i = 2
        d = isomonodromic_rhs(Direction.translation(i), state)
        var = induced_polar_variations(d.d_chart, state)
        for j in range(4):
            if j == i:
                want = -sum((mats[i] @ mats[k] - mats[k] @ mats[i])
                            / (ts[i] - ts[k]) for k in range(4) if k != i)
            else:
                want = (mats[i] @ mats[j] - mats[j] @ mats[i]) / (ts[i] - ts[j])
            assert np.max(np.abs(var[j][0] - want)) < 1e-9 * max(
                1.0, np.max(np.abs(want)))

    def test_higher_order_irregular_direction_rejected(self, rng):
        lam_irr = np.array([[0.4, -0.45], [0.25, -0.3]], dtype=complex)
        rm = lambda: 0.2 * (rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        lam0, A1 = rm(), rm()
        state = FlowState(2, (PoleData(0.0, 3, np.eye(2), lam0, lam_irr),
                              PoleData(2.3, 1, np.eye(2), A1),
                              PoleData(-2.0, 1, np.eye(2), -(lam0 + A1))))
        rate = np.zeros((2, 2), dtype=complex)
        rate[1] = [0.5, -0.5]
        with pytest.raises(PreconditionError):
            isomonodromic_rhs(Direction.irregular(0, rate), state)
        with pytest.raises(PreconditionError):
            extended_autonomous_rhs(Direction.irregular(0, rate),
                                    extend_state(state))

    def test_irregular_rhs_builds_no_state_and_one_diagonalization(
            self, rng, monkeypatch):
        # the irregular differential is one tangent pass on the state's own
        # jet: no perturbed states, one formal diagonalization
        import isomonodromy.connection as connection
        import isomonodromy.states as states
        import isomonodromy.symplectic as symplectic
        state = irregular_state(rng)
        calls = {"PoleData": 0, "diagonalize_jet": 0}
        init, diagonalize = PoleData.__init__, connection.diagonalize_jet

        def counted_init(self, *args, **kwargs):
            calls["PoleData"] += 1
            init(self, *args, **kwargs)

        def counted_diagonalize(*args, **kwargs):
            calls["diagonalize_jet"] += 1
            return diagonalize(*args, **kwargs)

        monkeypatch.setattr(PoleData, "__init__", counted_init)
        for mod in (connection, states, symplectic, flows):
            if hasattr(mod, "diagonalize_jet"):
                monkeypatch.setattr(mod, "diagonalize_jet",
                                    counted_diagonalize)
        isomonodromic_rhs(Direction.irregular(0, [[0.8, -0.5]]), state)
        assert calls == {"PoleData": 0, "diagonalize_jet": 1}

    @pytest.mark.parametrize("kind", ["translation", "irregular"])
    @pytest.mark.parametrize("index", [-1, 3])
    def test_pole_index_outside_state_rejected(self, rng, kind, index):
        # a 3-pole state: -1 would pair the last pole with itself at
        # distance 0, and 3 names no pole
        state = irregular_state(rng)
        rows = np.array([[0.3, -0.1]], dtype=complex)
        if kind == "translation":
            Y, path = (Direction.translation(index),
                       FlowPath.line(state, index, 0.1))
        else:
            Y, path = (Direction.irregular(index, rows),
                       FlowPath.irregular_line(state, index, rows, 0.1))
        for call in (lift_I0, direction_differential, isomonodromic_rhs):
            with pytest.raises(MalformedInputError, match="pole"):
                call(Y, state)
        with pytest.raises(MalformedInputError, match="pole"):
            integrate_flow(state, path, n_samples=2)


class TestIntegrateFlow:
    def test_stationary_path_constant(self, rng):
        state = fuchsian_state([0.0, 1.3], random_fuchsian_matrices(rng, 2, 2))
        traj = integrate_flow(state, FlowPath.stationary(state), n_samples=3)
        assert traj.status == "completed"
        for st in traj.states:
            assert np.max(np.abs(st.chart_vector()
                                 - state.chart_vector())) < 1e-12

    @pytest.mark.parametrize("upper", [True, False])
    def test_semicircle_geometry(self, rng, upper):
        # the path is its velocity; the moved pole must trace the half
        # circle from t0 to t0 + d, bulging to the left of d when upper
        ts = [-1.5, 0.0, 1.8]
        state = fuchsian_state(ts, random_fuchsian_matrices(rng, 2, 3))
        t0, d = ts[1], 0.8 + 0.3j
        traj = integrate_flow(state, FlowPath.semicircle(state, 1, d, upper),
                              n_samples=3)
        assert traj.status == "completed"
        assert traj.samples == [0.0, 0.5, 1.0]
        bulge = 1j * d / 2 if upper else -1j * d / 2
        for st, want in zip(traj.states[1:], (t0 + d / 2 + bulge, t0 + d)):
            pos = [p.t for p in st.poles]
            assert abs(pos[1] - want) < 1e-8
            assert (pos[0], pos[2]) == (ts[0], ts[2])

    def test_commuting_coefficients_constant(self):
        state = commuting_state()
        path = FlowPath.line(state, 0, 0.4 + 0.2j)
        traj = integrate_flow(state, path, n_samples=3)
        last = traj.states[-1]
        assert abs(last.poles[0].t - (0.4 + 0.2j)) < 1e-9
        for p0, p1 in zip(state.poles, last.poles):
            assert np.max(np.abs(
                p1.h @ p1.lam_res @ np.linalg.inv(p1.h)
                - p0.h @ p0.lam_res @ np.linalg.inv(p0.h))) < 1e-9

    def test_blowup_flagged(self, rng, monkeypatch):
        state = fuchsian_state([0.0, 1.3], random_fuchsian_matrices(rng, 2, 2))
        monkeypatch.setattr(flows, "N_MAX", 1e-3)
        traj = integrate_flow(state, FlowPath.line(state, 0, 0.5),
                              n_samples=3)
        assert traj.status == "aborted"
        assert traj.abort_kind == "movable_singularity"
        # the start already exceeds the cap
        assert traj.abort_at == 0.0
        assert len(traj.states) == 1

    def test_blowup_located_mid_path(self, rng, monkeypatch):
        state = fuchsian_state([0.0, 1.0, -1.5],
                               random_fuchsian_matrices(rng, 2, 3))
        path = FlowPath.line(state, 0, 0.5)
        cap = 1.01 * np.max(np.abs(state.flat()[3:]))
        monkeypatch.setattr(flows, "N_MAX", cap)
        traj = integrate_flow(state, path, n_samples=5)
        assert traj.status == "aborted"
        assert traj.abort_kind == "movable_singularity"
        assert traj.samples == [0.0]
        assert 0.0 < traj.abort_at < 0.25
        # the largest coefficient reaches the cap at the located point
        monkeypatch.setattr(flows, "N_MAX", 1e8)
        there = integrate_flow(state, FlowPath.line(state, 0,
                                                    0.5 * traj.abort_at),
                               n_samples=2).states[-1]
        assert abs(np.max(np.abs(there.flat()[3:])) - cap) < 1e-8

    def test_collision_flagged(self, rng):
        state = fuchsian_state([0.0, 1.0], random_fuchsian_matrices(rng, 2, 2))
        traj = integrate_flow(state, FlowPath.line(state, 0, 1.0),
                              n_samples=5)
        assert traj.status == "aborted"
        assert traj.abort_kind == "pole_collision"
        # located where the gap reaches TAU_COLLIDE, not at the sample 0.75
        assert abs(traj.abort_at - (1.0 - flows.TAU_COLLIDE)) < 1e-9
        assert traj.samples == [0.0, 0.25, 0.5, 0.75]

    def test_near_pass_collision_located(self, rng):
        # pole 0 runs along 2 + 0.01i and passes pole 1 at 1.0 with a gap of
        # 0.005 at s = 0.5; the gap first reaches TAU_COLLIDE where
        # |s (2 + 0.01i) - 1| = TAU_COLLIDE
        state = fuchsian_state([0.0, 1.0], random_fuchsian_matrices(rng, 2, 2))
        d, tau = 2 + 0.01j, flows.TAU_COLLIDE
        a, b, c = abs(d) ** 2, -2 * d.real, 1 - tau ** 2
        want = (-b - np.sqrt(b * b - 4 * a * c)) / (2 * a)
        traj = integrate_flow(state, FlowPath.line(state, 0, d), n_samples=3)
        assert traj.status == "aborted"
        assert traj.abort_kind == "pole_collision"
        assert abs(traj.abort_at - want) < 1e-9
        assert abs(want - 0.495657) < 1e-6


class TestCommutingFlows:
    @pytest.mark.parametrize("n", [2, 3])
    def test_square_loop_returns_to_start(self, rng, n):
        # isomonodromic flows commute (Frobenius integrability, Jimbo-Miwa-
        # Ueno 1981): around a square in (t_1, t_2) the state comes back
        ts = [-1.5, -0.2, 0.9, 2.1]
        state = FlowState(n, tuple(
            PoleData(t, 1, np.eye(n) + 0.3 * random_matrix(rng, n), M)
            for t, M in zip(ts, random_fuchsian_matrices(rng, n, 4))))
        legs = [(1, 0.2), (2, 0.2j), (1, -0.2), (2, -0.2j)]
        states = [state]
        for i, d in legs:
            traj = integrate_flow(states[-1], FlowPath.line(states[-1], i, d),
                                  n_samples=2)
            assert traj.status == "completed"
            states.append(traj.states[-1])

        def polar(st):
            return np.concatenate([np.ravel(p.polar_coeffs())
                                   for p in st.poles])

        start, half, end = states[0], states[2], states[-1]
        assert np.max(np.abs(half.chart_vector()
                             - start.chart_vector())) > 1e-3
        assert np.max(np.abs(end.chart_vector()
                             - start.chart_vector())) < 1e-9
        assert np.max(np.abs(polar(end) - polar(start))) < 1e-9
        assert np.max(np.abs(np.array([p.t for p in end.poles])
                             - np.array(ts))) < 1e-12


class TestVerify:
    def test_constant_trajectory_zero_drift(self, rng):
        state = fuchsian_state([0.0, 1.3],
                               [0.4 * M for M in
                                random_fuchsian_matrices(rng, 2, 2)])
        traj = Trajectory([0.0, 1.0], [state, state])
        rep = verify_isomonodromy(traj, tol=1e-11)
        assert rep.max_drift < 1e-9

    def test_commuting_flow_tiny_drift(self):
        state = commuting_state()
        path = FlowPath.line(state, 0, 0.4 + 0.2j)
        traj = integrate_flow(state, path, n_samples=3)
        rep = verify_isomonodromy(traj, tol=1e-11)
        assert rep.max_drift < 1e-9

    def test_schlesinger_flow_preserves_monodromy(self, rng):
        ts = [-2.1, -0.35, 1.15, 2.6]
        mats = random_fuchsian_matrices(rng, 2, 4)
        state = fuchsian_state(ts, mats)
        path = FlowPath.semicircle(state, 1, diameter=2 / np.pi)
        traj = integrate_flow(state, path, tol=1e-10, n_samples=3)
        rep = verify_isomonodromy(traj, tol=1e-10)
        assert rep.max_drift < 1e-6

    def test_drift_converges_with_tol(self, rng):
        # 4-pole rank-3 flow and its verification at the same tol.  Stops at
        # 1e-10: below it the drift saturates (1.32e-8 -> 1.54e-8 at 1e-11
        # on this draw), and at 1e-12 SAFETY * tol is under scipy's rtol
        # floor
        state = fuchsian_state([-2.1, -0.35, 1.15, 2.6],
                               random_fuchsian_matrices(rng, 3, 4))
        path = FlowPath.line(state, 1, 0.3 + 0.2j)
        drifts = []
        for tol in (1e-7, 1e-8, 1e-9, 1e-10):
            traj = integrate_flow(state, path, tol=tol, n_samples=3)
            drifts.append(verify_isomonodromy(traj, tol=tol).max_drift)
        assert all(b < a for a, b in zip(drifts, drifts[1:]))
        assert drifts[-1] < drifts[0] / 100

    def test_irregular_deformation(self, rng):
        state = irregular_state(rng)
        rate = np.array([[0.8, -0.5]], dtype=complex)
        path = FlowPath.irregular_line(state, 0, rate, length=0.5)
        traj = integrate_flow(state, path, tol=1e-10, n_samples=3)
        rep = verify_isomonodromy(traj, tol=1e-10)
        assert rep.max_drift < 1e-6
        # the order -2 invariants track the prescribed path; the order -1
        # exponents stay put
        for s, f in zip(traj.samples, rep.formal):
            want = np.sort_complex(np.array([-0.45, 0.4])
                                   + s * 0.5 * rate[0])
            got = np.sort_complex(f[0][0])
            assert np.max(np.abs(want - got)) < 1e-8
        assert rep.formal_residue_drift < 1e-8

    def test_twist_equivariance(self, rng):
        mats = [0.35 * M for M in random_fuchsian_matrices(rng, 2, 3)]
        ts = [0.0, 2.0, -2.0]
        bare = fuchsian_state(ts, mats)
        site = normal_form(0.9j, (0.0, 1.1))
        twisted = fuchsian_state(ts, mats, twist=MatrixDivisor((site,)))
        path_b = FlowPath.line(bare, 0, 0.3 - 0.2j)
        path_t = FlowPath.line(twisted, 0, 0.3 - 0.2j)
        traj_b = integrate_flow(bare, path_b, n_samples=3)
        traj_t = integrate_flow(twisted, path_t, n_samples=3)
        rep_b = verify_isomonodromy(traj_b, tol=1e-10)
        rep_t = verify_isomonodromy(traj_t, tol=1e-10)
        assert abs(rep_b.max_drift - rep_t.max_drift) < 1e-8
        # twist loops contribute identity monodromy throughout
        for st in traj_t.states:
            rep = monodromy_rep(st.connection(), rep_t.base_point, 1e-10)
            M = rep.matrix_for_pole(0.9j)
            assert np.max(np.abs(M - np.eye(2))) < 1e-7


class TestSymplecticAlongFlow:
    def test_decomposition_is_structural(self, rng):
        # rhs - lift equals the Hamiltonian field, componentwise
        from isomonodromy.symplectic import hamiltonian_vector_field
        state = fuchsian_state([0.0, 1.4, -1.1],
                               random_fuchsian_matrices(rng, 2, 3))
        Y = Direction.translation(1)
        d = isomonodromic_rhs(Y, state)
        lift = lift_I0(Y, state)
        X = hamiltonian_vector_field(direction_differential(Y, state), state)
        assert np.max(np.abs((d.d_chart - lift.d_chart)
                             - X)) < 1e-9 * max(
            1.0, np.max(np.abs(X)))

    def test_flow_linearization_preserves_form(self, rng):
        # two frozen coordinate tangents, transported by central-difference
        # variational flow with step 1e-5: the form agrees at the ends
        from isomonodromy.symplectic import gram_matrix
        state = fuchsian_state([0.0, 1.6, -1.3],
                               random_fuchsian_matrices(rng, 2, 3))
        path = FlowPath.line(state, 0, 0.25 + 0.1j)
        h = 1e-5
        dim = state.chart_dim()
        Y1 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        Y2 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

        def end_chart(st0):
            traj = integrate_flow(st0, path, tol=1e-10, n_samples=2)
            assert traj.status == "completed"
            return traj.states[-1]

        v0 = state.chart_vector()
        end0 = end_chart(state)

        def transported(Y):
            plus = end_chart(state.with_chart_vector(v0 + h * Y))
            minus = end_chart(state.with_chart_vector(v0 - h * Y))
            return (plus.chart_vector() - minus.chart_vector()) / (2 * h)

        T1, T2 = transported(Y1), transported(Y2)
        w_start = Y1 @ gram_matrix(state) @ Y2
        w_end = T1 @ gram_matrix(end0) @ T2
        assert abs(w_end - w_start) < 1e-4 * max(1.0, abs(w_start))


class TestSectionAndExtended:
    def test_zero_state_zero_section(self):
        state = fuchsian_state([0.0, 1.0],
                               [np.zeros((2, 2)), np.zeros((2, 2))])
        q_slots, b_slots = section_S(state)
        assert all(np.all(q == 0) for q in q_slots)

    def test_rank_one_two_pole_residue_data(self):
        a, t1, t2 = 0.8, 0.0, 1.5
        state = fuchsian_state([t1, t2], [np.array([[a]]), np.array([[-a]])])
        q_slots, _ = section_S(state)
        assert abs(q_slots[0][0] - (-2 * a ** 2 / (t1 - t2))) < 1e-12
        assert abs(q_slots[1][0] - (+2 * a ** 2 / (t1 - t2))) < 1e-12

    def test_rank_one_order_two_subleading(self):
        b2, b1, a, t2 = 0.4, -0.3, 0.9, 2.0
        state = FlowState(1, (
            PoleData(0.0, 2, np.eye(1), [[b1]], [[b2]]),
            PoleData(t2, 1, np.eye(1), [[a]])))
        _, b_slots = section_S(state)
        # single sub-leading datum: the regular value of A at the pole
        assert abs(b_slots[0][0][0] - a / (0.0 - t2)) < 1e-12

    def test_zero_direction_stationary(self, rng):
        state = fuchsian_state([0.0, 1.3], random_fuchsian_matrices(rng, 2, 2))
        ext = extend_state(state)
        d, dq, db = extended_autonomous_rhs(Direction({}, {}), ext)
        assert np.all(d.d_chart == 0)
        assert all(np.all(q == 0) for q in dq)

    def test_projection_matches_isomonodromic_rhs(self, rng):
        ts = [-1.2, 0.4, 1.9]
        state = fuchsian_state(ts, random_fuchsian_matrices(rng, 2, 3))
        ext = extend_state(state)
        Y = Direction.translation(1)
        d_ext, _, _ = extended_autonomous_rhs(Y, ext)
        d_iso = isomonodromic_rhs(Y, state)
        assert np.allclose(d_ext.d_positions, d_iso.d_positions)
        assert np.max(np.abs(d_ext.d_chart - d_iso.d_chart)) < 1e-9 * max(
            1.0, np.max(np.abs(d_iso.d_chart)))

    def test_extended_flow_projects_onto_flow(self, rng):
        ts = [-1.2, 0.4, 1.9]
        state = fuchsian_state(ts, random_fuchsian_matrices(rng, 2, 3))
        path = FlowPath.line(state, 1, 0.35 + 0.15j)
        traj = integrate_flow(state, path, tol=1e-10, n_samples=3)
        samples, exts, status = integrate_extended(extend_state(state), path,
                                                   tol=1e-9, n_samples=3)
        assert status[0] == "completed"
        for e, st in zip(exts, traj.states):
            assert np.max(np.abs(e.state.chart_vector()
                                 - st.chart_vector())) < 1e-6

    def test_extended_flow_projects_onto_irregular_flow(self, rng):
        # order-2 analogue of the Fuchsian case above, on a short path
        state = irregular_state(rng)
        rate = np.array([[0.8, -0.5]], dtype=complex)
        path = FlowPath.irregular_line(state, 0, rate, length=0.1)
        traj = integrate_flow(state, path, tol=1e-10, n_samples=2)
        samples, exts, status = integrate_extended(extend_state(state), path,
                                                   tol=1e-9, n_samples=2)
        assert status[0] == "completed"
        moved = traj.states[-1].chart_vector() - state.chart_vector()
        assert np.max(np.abs(moved)) > 1e-3
        for e, st in zip(exts, traj.states):
            assert np.max(np.abs(e.state.chart_vector()
                                 - st.chart_vector())) < 1e-6

    def test_extended_collision_flagged(self, rng):
        state = fuchsian_state([0.0, 1.0], random_fuchsian_matrices(rng, 2, 2))
        samples, exts, status = integrate_extended(
            extend_state(state), FlowPath.line(state, 0, 1.0), tol=1e-9,
            n_samples=3)
        assert status == ("aborted", "pole_collision")
        assert samples == [0.0, 0.5] and len(exts) == 2

    def test_dual_variable_tracks_section_on_commuting_flow(self):
        state = commuting_state()
        path = FlowPath.line(state, 0, 0.3)
        samples, exts, status = integrate_extended(extend_state(state), path,
                                                   tol=1e-9, n_samples=3)
        q_end, _ = section_S(exts[-1].state)
        got = np.concatenate([np.atleast_1d(q) for q in exts[-1].q_dual])
        want = np.concatenate([np.atleast_1d(q) for q in q_end])
        assert np.max(np.abs(got - want)) < 1e-7

    def test_extended_state_part_is_the_flow_rhs(self, rng, monkeypatch):
        # bit-equal to the flow's field; the dual rates are closed form, so
        # nothing evaluates the section
        state = irregular_state(rng)
        ext = extend_state(state)
        calls = [0]
        original = flows.section_S

        def counted(st):
            calls[0] += 1
            return original(st)

        monkeypatch.setattr(flows, "section_S", counted)
        for Y in (Direction.translation(1),
                  Direction.irregular(0, [[0.8, -0.5]])):
            calls[0] = 0
            d_ext, _, _ = extended_autonomous_rhs(Y, ext)
            assert calls[0] == 0
            assert np.array_equal(d_ext.flat(),
                                  isomonodromic_rhs(Y, state).flat())

    def test_dual_rates_match_section_contour(self, rng):
        # the closed-form dual rates against a 16-point contour derivative
        # of the section values along the reference lift (radius 1e-4), on
        # poles of order 3, 2 and 1 with frames and a frame jet
        state = mixed_order_state(rng)
        ext = extend_state(state)

        def flat(q_slots, b_slots):
            return np.concatenate([np.ravel(v) for v in q_slots + b_slots])

        N, r = 16, 1e-4
        roots = np.exp(2j * np.pi * np.arange(N) / N)
        for Y in (Direction({0: 0.3 + 0.1j, 2: -0.7},
                            {1: np.array([[0.8, -0.5]])}),
                  Direction.translation(1)):
            _, dq, db = extended_autonomous_rhs(Y, ext)
            y, dy = state.flat(), lift_I0(Y, state).flat()
            want = sum(flat(*section_S(state.with_flat(y + r * w * dy))) / w
                       for w in roots) / (N * r)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(flat(dq, db) - want)) < 1e-9 * scale

    @pytest.mark.parametrize("case", ["fuchsian", "twisted", "irregular"])
    def test_section_pairing_is_the_correction_hamiltonian(self, rng, case):
        # the identity the extended system relies on to take its state part
        # from direction_differential: pairing the section values with a
        # direction gives the correction Hamiltonian of that direction
        if case == "irregular":
            state = irregular_state(rng)
            Y = Direction({1: 0.4 + 0.1j}, {0: np.array([[0.8, -0.5]])})
        else:
            twist = (MatrixDivisor((normal_form(0.9j, (0.0, 1.1)),))
                     if case == "twisted" else None)
            state = fuchsian_state([0.0, 1.5, -1.2],
                                   random_fuchsian_matrices(rng, 2, 3), twist)
            Y = Direction({0: 0.7 - 0.2j, 2: -1.1}, {})

        def pairing(st):
            q_slots, b_slots = section_S(st)
            acc = sum(rate * q_slots[i][0]
                      for i, rate in Y.moduli_rates.items())
            for i, rows in Y.irregular_rates.items():
                beta = beta_for_rate(rows, st.poles[i])
                acc -= 2.0 * np.sum(beta * b_slots[i])
            return complex(acc)

        oracle = rational_translation_hamiltonians(state)
        want = sum(rate * oracle[i] for i, rate in Y.moduli_rates.items())
        for i, rows in Y.irregular_rates.items():
            beta = beta_for_rate(rows, state.poles[i])
            want -= 2.0 * hamiltonian_beta_B(state, i, beta)
        assert abs(pairing(state) - want) < 1e-11 * max(1.0, abs(want))

        dH = direction_differential(Y, state)
        fd = numeric_differential(pairing, state)
        assert np.max(np.abs(fd - dH)) < 1e-6 * max(1.0, np.max(np.abs(dH)))

    def test_extended_collision_at_default_tol(self, rng, monkeypatch):
        # with the fiber differential central-differenced at a fixed step,
        # the last sub-interval before this collision took 46,025
        # evaluations at the default tol; the budget turns a stall into a
        # failure
        state = fuchsian_state([0.0, 1.0], random_fuchsian_matrices(rng, 2, 2))
        calls = [0]
        original = flows.extended_autonomous_rhs

        def budgeted(direction, ext):
            calls[0] += 1
            if calls[0] > 5000:
                raise AssertionError("more than 5,000 extended evaluations")
            return original(direction, ext)

        monkeypatch.setattr(flows, "extended_autonomous_rhs", budgeted)
        samples, exts, status = integrate_extended(
            extend_state(state), FlowPath.line(state, 0, 1.0), n_samples=9)
        assert status == ("aborted", "pole_collision")
        assert samples[-1] == 0.875 and len(exts) == 8


def mixed_order_state(rng):
    """Rank-2 state with poles of order 3, 2 and 1 and a nonzero frame jet."""
    u = np.array([[[0.0, 0.2 + 0.1j], [-0.3j, 0.0]]])
    return FlowState(2, (
        PoleData(0.0, 3, np.eye(2) + 0.3 * random_matrix(rng, 2),
                 0.3 * random_matrix(rng, 2),
                 [[0.4, -0.5], [1.0, -0.7 + 0.2j]], u),
        PoleData(1.5, 2, np.eye(2) + 0.3 * random_matrix(rng, 2),
                 0.3 * random_matrix(rng, 2), [[0.8, -0.3j]]),
        PoleData(-1.1 + 0.4j, 1, np.eye(2), 0.3 * random_matrix(rng, 2))))


def count_polar_coeffs(monkeypatch):
    calls = [0]
    original = PoleData.polar_coeffs

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(PoleData, "polar_coeffs", counted)
    return calls


class TestStatePolarData:
    def test_jet_at_pole_matches_rational_laurent(self, rng):
        # the memoized regular jets serve poles of every order
        state = mixed_order_state(rng)
        conn = state.connection()
        for i, p in enumerate(state.poles):
            jet = state.jet_at_pole(i)
            ref = conn.laurent(p.t, p.l - 2)
            assert (jet.k_min, jet.k_max) == (-p.l, p.l - 2)
            got = np.stack([jet.coefficient(k) for k in range(-p.l, p.l - 1)])
            want = np.stack([ref.coefficient(k)
                             for k in range(-p.l, p.l - 1)])
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) < 1e-12 * scale

    def test_section_computes_polar_coefficients_once_per_pole(
            self, rng, monkeypatch):
        state = mixed_order_state(rng)
        calls = count_polar_coeffs(monkeypatch)
        section_S(state)
        assert calls[0] == len(state.poles)

    def test_extended_rhs_polar_coefficients_once_per_state(
            self, rng, monkeypatch):
        # the state computes every pole's polar coefficients once, and the
        # dual rates shift no state
        state = irregular_state(rng)
        calls = count_polar_coeffs(monkeypatch)
        ext = extend_state(state)
        extended_autonomous_rhs(Direction.translation(1), ext)
        assert calls[0] == len(state.poles)
