import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import isomonodromy.flows as flows
import isomonodromy.symplectic as symplectic
from isomonodromy.connection import (
    TAU_REG,
    TAU_SEP,
    Connection,
    PolarDivisor,
    diagonalize_jet,
)
from isomonodromy.errors import (
    DegenerateChartError,
    MalformedInputError,
    PreconditionError,
    RegularityError,
)
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
import isomonodromy.monodromy as monodromy_module
from isomonodromy.monodromy import monodromy_rep
from isomonodromy.ratfun import LaurentJet
from isomonodromy.states import ExtendedState, FlowState, PoleData
from isomonodromy.symplectic import (
    ChartPlan,
    chart_conditioning,
    d_translation_hamiltonian,
    hamiltonian_beta_B,
    hamiltonian_vector_field,
)
from isomonodromy.twist import MatrixDivisor, normal_form

from conftest import (
    fuchsian_state,
    irregular_state,
    numeric_differential,
    random_fuchsian_matrices,
    random_matrix,
    rational_translation_hamiltonians,
)
from oracles import with_chart_vector


def commuting_state():
    mats = [np.diag([0.4, -0.3]).astype(complex),
            np.diag([-0.2, 0.5]).astype(complex),
            np.diag([-0.2, -0.2]).astype(complex)]
    return fuchsian_state([0.0, 1.6, -1.4], mats)


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
        # a zero rate moves nothing, so it is not refused: the field is the
        # lift's, with no correction
        d = isomonodromic_rhs(Direction.irregular(0, 0 * rate), state)
        assert not d.d_chart.any()

    def test_irregular_rhs_builds_no_state_and_one_diagonalization(
            self, rng, monkeypatch):
        # the irregular differential is one reverse pass on the state's own
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
        for call in (lift_I0, direction_differential, isomonodromic_rhs,
                     flows._section_rates):
            with pytest.raises(MalformedInputError, match="pole"):
                call(Y, state)
        with pytest.raises(MalformedInputError, match="pole"):
            integrate_flow(state, path, n_samples=2)

    def test_pole_index_has_one_message(self, rng):
        state = irregular_state(rng)
        message = r"^pole index 3; the state has poles 0\.\.2$"
        for call in (lambda: lift_I0(Direction.translation(3), state),
                     lambda: direction_differential(
                         Direction.translation(3), state),
                     lambda: flows._section_rates(
                         Direction.translation(3), state),
                     lambda: d_translation_hamiltonian(state, 3)):
            with pytest.raises(MalformedInputError, match=message):
                call()


def test_a_direction_is_read_checked():
    # a direction's rates are read in flows._checked_rates alone, so the
    # lift, the differential and the section rates all take checked rates
    readers = []

    class Reads(ast.NodeVisitor):
        # each read is credited to the innermost function holding it
        function = None

        def visit_FunctionDef(self, node):
            outer, self.function = self.function, node.name
            self.generic_visit(node)
            self.function = outer

        def visit_Attribute(self, node):
            if node.attr == "irregular_rates":
                readers.append((path.name, self.function))
            self.generic_visit(node)

    for path in sorted(Path(flows.__file__).parent.glob("*.py")):
        Reads().visit(ast.parse(path.read_text()))
    assert set(readers) == {("flows.py", "_checked_rates")}


class TestRhsPlan:
    """A flow compiles its right-hand side once, from its start state; at
    any vector of that layout the plan gives the bytes of the public
    right-hand sides on the state rebuilt from the vector."""

    @staticmethod
    def vectors(y):
        return y, y + 1e-2 * np.sin(np.arange(len(y)))

    @staticmethod
    def twisted(state):
        return FlowState(state.n, state.poles, MatrixDivisor(
            (normal_form(0.9 + 1.0j, (0.0, 0.5 - 0.2j)),)))

    @pytest.mark.parametrize("case", ["twisted", "order3"])
    def test_flow_plan_gives_the_public_bytes(self, rng, case):
        # mixed_order_state: an order-3 pole with a frame jet, then orders
        # 2 and 1
        state = mixed_order_state(rng)
        if case == "twisted":
            state = self.twisted(state)
            direction = Direction({1: 0.3 - 0.2j, 2: -0.4j},
                                  {1: [[0.2, -0.1 + 0.05j]]})
        else:
            direction = Direction.translation(0, 0.3 - 0.2j)
        plan = flows.RhsPlan(state)
        for y in self.vectors(state.flat()):
            want = isomonodromic_rhs(direction, state.with_flat(y)).flat()
            assert plan(direction, plan.stage(y)).tobytes() == want.tobytes()

    def test_extended_plan_gives_the_public_bytes(self, rng):
        ext = extend_state(mixed_order_state(rng))
        direction = Direction({0: 0.3 - 0.2j, 2: 0.5}, {1: [[0.2, -0.1]]})
        plan = flows.RhsPlan(ext.state, extended=True)
        for y in self.vectors(ext.flat()):
            d, dq, db = extended_autonomous_rhs(direction, ext.with_flat(y))
            want = np.concatenate([d.flat(), *map(np.ravel, dq),
                                   *map(np.ravel, db)])
            assert plan(direction, plan.stage(y)).tobytes() == want.tobytes()


class TestIntegrateFlow:
    def test_nfev_per_sub_interval(self, rng, monkeypatch):
        # each sub-interval's right-hand side evaluations, as solve_ivp
        # counts them, for the flow and for the extended system
        calls, real = [], flows.solve_ivp

        def counting(fun, *args, **kwargs):
            count = [0]

            def counted(s, y):
                count[0] += 1
                return fun(s, y)

            calls.append(count)
            return real(counted, *args, **kwargs)

        monkeypatch.setattr(flows, "solve_ivp", counting)
        state = fuchsian_state([0.0, 1.4, -1.1],
                               random_fuchsian_matrices(rng, 2, 3))
        path = FlowPath.line(state, 1, 0.2 - 0.1j)
        traj = integrate_flow(state, path, n_samples=4)
        assert len(calls) == 3 and all(c[0] > 12 for c in calls)
        assert traj.nfev == [c[0] for c in calls]
        calls.clear()
        traj = flows._integrate(extend_state(state), path, flows.FLOW_TOL, 3)
        assert len(calls) == 2 and traj.nfev == [c[0] for c in calls]
        # an abort at the start integrates nothing
        monkeypatch.setattr(flows, "TAU_RANK", 1.0)
        assert integrate_flow(state, path, n_samples=3).nfev == []

    @pytest.mark.parametrize("n_samples", [1, 0])
    def test_fewer_than_two_samples_rejected(self, rng, n_samples):
        # one sample would report the start as the end of the path
        state = fuchsian_state([0.0, 1.3], random_fuchsian_matrices(rng, 2, 2))
        path = FlowPath.line(state, 0, 0.2)
        with pytest.raises(MalformedInputError, match="samples"):
            integrate_flow(state, path, n_samples=n_samples)
        with pytest.raises(MalformedInputError, match="samples"):
            integrate_extended(extend_state(state), path, n_samples=n_samples)

    def test_tolerance_below_the_rtol_floor_does_not_warn(self, rng):
        # SAFETY * 1e-13 is below scipy's rtol floor of 100 eps; the flow
        # raises it to the floor itself, where scipy would warn
        state = fuchsian_state([0.0, 1.3], random_fuchsian_matrices(rng, 2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate_flow(state, FlowPath.line(state, 0, 0.05),
                                  tol=1e-13, n_samples=2)
        assert traj.status == "completed"

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


class TestDegenerateChartEvent:
    """The rank guard's measure, ``chart_conditioning``, is a terminal abort
    event of the integrators, tested on accepted steps and located on the
    dense output; the right-hand side solves without it."""

    @staticmethod
    def falling_ratio_flow(rng):
        # along this line the chart's sigma ratio falls monotonically
        state = fuchsian_state([0.0, 1.4, -1.1],
                               random_fuchsian_matrices(rng, 3, 3))
        path = FlowPath.line(state, 1, -0.3 - 0.2j)
        fine = integrate_flow(state, path, tol=1e-12, n_samples=5)
        ratios = [chart_conditioning(st) for st in fine.states]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        return state, path, ratios

    def test_located_at_the_crossing(self, rng, monkeypatch):
        # the threshold is the ratio at s = 0.5, which one sub-interval
        # over [0, 1] crosses inside a step
        state, path, ratios = self.falling_ratio_flow(rng)
        monkeypatch.setattr(flows, "TAU_RANK", ratios[2])
        traj = integrate_flow(state, path, n_samples=2)
        assert traj.status == "aborted"
        assert traj.abort_kind == "degenerate_chart"
        assert abs(traj.abort_at - 0.5) < 1e-9
        assert traj.samples == [0.0] and len(traj.states) == 1

    def test_extended_system_aborts_at_the_crossing(self, rng, monkeypatch):
        # the event reads the state part of the extended vector
        state, path, ratios = self.falling_ratio_flow(rng)
        monkeypatch.setattr(flows, "TAU_RANK", ratios[2])
        samples, states, (status, kind) = integrate_extended(
            extend_state(state), path, n_samples=2)
        assert (status, kind) == ("aborted", "degenerate_chart")
        assert samples == [0.0] and len(states) == 1

    def test_checked_at_the_start(self, rng, monkeypatch):
        state, path, _ = self.falling_ratio_flow(rng)
        monkeypatch.setattr(flows, "TAU_RANK", 1.0)
        traj = integrate_flow(state, path, n_samples=3)
        assert (traj.status, traj.abort_kind) == ("aborted",
                                                  "degenerate_chart")
        assert traj.abort_at == 0.0 and len(traj.states) == 1

    def test_rhs_takes_no_singular_values(self, rng, monkeypatch):
        state = fuchsian_state([0.0, 1.4, -1.1],
                               random_fuchsian_matrices(rng, 3, 3))
        calls = []
        real = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        d = isomonodromic_rhs(Direction.translation(1), state)
        assert not calls
        # the guarded solve takes them, one call per group, and solves
        # alike
        dH = direction_differential(Direction.translation(1), state)
        X = hamiltonian_vector_field(dH, state)
        assert len(calls) == len(state.plan.groups)
        assert np.array_equal(d.d_chart, lift_I0(Direction.translation(1),
                                                 state).d_chart + X)

    def test_states_only_at_the_samples(self, rng, monkeypatch):
        # the right-hand side and the events read the plan's stages, so a
        # flow builds a state (one _from_stage call) only at its samples:
        # at most one per sample, and one more at a located event
        state = fuchsian_state([0.0, 1.4, -1.1],
                               random_fuchsian_matrices(rng, 3, 3))
        assert len(state.plan.groups) == 1
        builds, from_stage = [0], FlowState._from_stage

        def counted(*args, **kwargs):
            builds[0] += 1
            return from_stage(*args, **kwargs)

        monkeypatch.setattr(FlowState, "_from_stage", counted)
        traj = integrate_flow(state, FlowPath.line(state, 1, 0.2 - 0.1j),
                              n_samples=3)
        assert traj.status == "completed" and len(traj.states) == 3
        assert sum(traj.nfev) > 3 * len(traj.samples)
        assert 0 < builds[0] <= len(traj.samples) + 1

    @pytest.mark.parametrize("extended", [False, True])
    def test_one_stage_per_vector(self, rng, monkeypatch, extended):
        # the right-hand side, the events and the samples share the plan's
        # stages: a completed flow builds the stage of each vector once.
        # Each stage's vector is keyed by its state part, so an extended
        # sample whose state's stage were built again would count
        state = fuchsian_state([0.0, 1.4, -1.1],
                               random_fuchsian_matrices(rng, 3, 3))
        ext, size = extend_state(state), len(state.flat())
        seen, stage = [], ChartPlan.stage

        def counted(self, y):
            seen.append(y[:size].tobytes())
            return stage(self, y)

        monkeypatch.setattr(ChartPlan, "stage", counted)
        path = FlowPath.line(state, 1, 0.2 - 0.1j)
        if extended:
            samples, _, status = integrate_extended(ext, path, n_samples=3)
        else:
            traj = integrate_flow(state, path, n_samples=3)
            samples, status = traj.samples, (traj.status, None)
        assert status == ("completed", None) and len(samples) == 3
        assert len(seen) == len(set(seen)) > 3 * len(samples)

    def test_exactly_singular_stage_block(self):
        # an order-3 pole whose leading type is clustered, as a stage may
        # meet it (a stage state is rebuilt unchecked): its Gram block has
        # two zero rows, and the LU solve meets a zero pivot
        R = np.array([[0.1, 0.2], [0.3, -0.1]], dtype=complex)
        good = FlowState(2, (
            PoleData(0.0, 3, np.eye(2), R, [[0.0, 0.0], [-0.5, 0.5]]),
            PoleData(2.0, 1, np.eye(2), -R)))
        y = good.flat()
        y[-2] = y[-1]          # pole 0's order -3 entries, the last two
        bad = good.with_flat(y)
        assert chart_conditioning(bad) < 1e-15
        with pytest.raises(DegenerateChartError,
                           match="a block is exactly singular"):
            isomonodromic_rhs(Direction.translation(1), bad)


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
            return np.concatenate([np.ravel(C) for C in st.polar])

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
        # a reducible tuple: the loops are diagonal, so every diagonal X
        # intertwines them, and the residual still reads round-off
        assert max(rep.conjugacy_residual) < 1e-12

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

    @staticmethod
    def conjugacy_residuals(state, path, tol):
        traj = integrate_flow(state, path, tol=tol, n_samples=3)
        return verify_isomonodromy(traj, tol=tol).conjugacy_residual

    def test_conjugacy_residual_stays_near_round_off(self, rng):
        # the flows of test_drift_converges_with_tol, whose absolute drift is
        # 3e-6 .. 1.3e-8; the residual is relative to the matrices' size
        state = fuchsian_state([-2.1, -0.35, 1.15, 2.6],
                               random_fuchsian_matrices(rng, 3, 4))
        path = FlowPath.line(state, 1, 0.3 + 0.2j)
        for tol in (1e-7, 1e-8, 1e-9, 1e-10):
            res = self.conjugacy_residuals(state, path, tol)
            assert len(res) == 3
            assert res[0] < 1e-15          # a tuple against itself
            assert max(res) < 1e-3 * tol
        assert max(res) < 1e-12

    def test_conjugacy_residual_grows_with_a_planted_correction(
            self, rng, monkeypatch):
        state = fuchsian_state([-2.1, -0.35, 1.15, 2.6],
                               random_fuchsian_matrices(rng, 3, 4))
        path = FlowPath.line(state, 1, 0.3 + 0.2j)
        exact = max(self.conjugacy_residuals(state, path, 1e-10))
        field = flows.solve_chart
        planted = []
        for eps in (1e-8, 1e-6, 1e-4):
            monkeypatch.setattr(
                flows, "solve_chart",
                lambda dH, st, eps=eps: (1.0 + eps) * field(dH, st))
            planted.append(self.conjugacy_residuals(state, path, 1e-10)[-1])
        assert planted[0] > 1e3 * exact
        # linear in the planted scale: a factor 100 a step, to within 5 %
        for a, b in zip(planted, planted[1:]):
            assert 95 < b / a < 105

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


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


class TestVerifyInOneTransport:
    """``verify_isomonodromy`` sends every sample's keyholes through one
    lock-step transport; each sample gets the bits of its own
    ``monodromy_rep``, and the evaluations add up to theirs."""

    @staticmethod
    def flow(kind, rng):
        ts = [-2.1, -0.35, 1.15, 2.6]
        if kind in ("n2", "n3", "n4"):
            state = fuchsian_state(
                ts, random_fuchsian_matrices(rng, int(kind[1]), 4))
            path = FlowPath.line(state, 1, 0.3 + 0.2j)
        elif kind == "irregular":
            state = irregular_state(rng)
            path = FlowPath.irregular_line(state, 0, [[0.8, -0.5]],
                                           length=0.5)
        else:
            mats = [0.35 * M for M in random_fuchsian_matrices(rng, 2, 3)]
            site = normal_form(0.9j, (0.0, 1.1))
            state = fuchsian_state([0.0, 2.0, -2.0], mats,
                                   twist=MatrixDivisor((site,)))
            path = FlowPath.line(state, 0, 0.3 - 0.2j)
        return integrate_flow(state, path, tol=1e-10, n_samples=9)

    @pytest.mark.parametrize("kind", ["n2", "n3", "n4", "irregular",
                                      "twisted"])
    def test_each_sample_keeps_its_bits(self, rng, monkeypatch, kind):
        traj = self.flow(kind, rng)
        assert traj.status == "completed"
        reps, nfev = [], []
        real_reps, real_ivp = flows.monodromy_reps, monodromy_module.solve_ivp

        def recording_reps(*args):
            reps[:] = real_reps(*args)
            return reps

        def recording_ivp(*args, **kwargs):
            sol = real_ivp(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(flows, "monodromy_reps", recording_reps)
        monkeypatch.setattr(monodromy_module, "solve_ivp", recording_ivp)
        # the 9 samples, and 3 of them: s = 0, 0.5, 1
        for keep in (slice(None), slice(None, None, 4)):
            sampled = Trajectory(traj.samples[keep], traj.states[keep])
            nfev.clear()
            report = verify_isomonodromy(sampled, tol=1e-10)
            batch = list(nfev)
            assert len(reps) == len(sampled.states)
            # one solve_ivp run per leg: the approach legs, the circles
            assert len(batch) == 2
            nfev.clear()
            for st, rep in zip(sampled.states, reps):
                alone = monodromy_rep(st.connection(), report.base_point,
                                      1e-10)
                assert rep.loops == alone.loops
                assert rep.pole_points == alone.pole_points
                assert all(map(same_bytes, rep.matrices, alone.matrices))
                assert rep.product_defect == alone.product_defect
            assert sum(batch) == sum(nfev)


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
            plus = end_chart(with_chart_vector(state, v0 + h * Y))
            minus = end_chart(with_chart_vector(state, v0 - h * Y))
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

    def test_dual_rates_diagonalize_once_per_irregular_pole(
            self, rng, monkeypatch):
        # the b-slot components' pullbacks share their pole's one value
        # pass: poles of order 3, 2 and 1 take two formal diagonalizations
        state = mixed_order_state(rng)
        calls = [0]
        original = symplectic.diagonalize_jet

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(symplectic, "diagonalize_jet", counted)
        flows._section_rates(Direction({0: 0.3 + 0.1j, 2: -0.7},
                                       {1: np.array([[0.8, -0.5]])}), state)
        assert calls[0] == 2

    def test_dual_rates_match_section_contour(self, rng):
        # the closed-form dual rates against a 16-point contour derivative
        # of the section values along the reference lift (radius 1e-4): on
        # poles of order 3, 2 and 1 with frames and a frame jet, on the
        # twisted Fuchsian state of the section-pairing test, and on the
        # order-2 irregular state along an irregular and a
        # translation-plus-irregular direction
        twist = MatrixDivisor((normal_form(0.9j, (0.0, 1.1)),))
        cases = [
            (mixed_order_state(rng),
             [Direction({0: 0.3 + 0.1j, 2: -0.7},
                        {1: np.array([[0.8, -0.5]])}),
              Direction.translation(1)]),
            (fuchsian_state([0.0, 1.5, -1.2],
                            random_fuchsian_matrices(rng, 2, 3), twist),
             [Direction({0: 0.7 - 0.2j, 2: -1.1}, {})]),
            (irregular_state(rng),
             [Direction.irregular(0, [[0.8, -0.5]]),
              Direction({1: 0.4 + 0.1j}, {0: np.array([[0.8, -0.5]])})]),
        ]

        def flat(q_slots, b_slots):
            return np.concatenate([np.ravel(v) for v in q_slots + b_slots])

        N, r = 16, 1e-4
        roots = np.exp(2j * np.pi * np.arange(N) / N)
        for state, directions in cases:
            ext = extend_state(state)
            for Y in directions:
                _, dq, db = extended_autonomous_rhs(Y, ext)
                y, dy = state.flat(), lift_I0(Y, state).flat()
                want = sum(
                    flat(*section_S(state.with_flat(y + r * w * dy))) / w
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
                beta = beta_for_rate(rows, st.poles[i].lam_irr[-1])
                acc -= 2.0 * np.sum(beta * b_slots[i])
            return complex(acc)

        oracle = rational_translation_hamiltonians(state)
        want = sum(rate * oracle[i] for i, rate in Y.moduli_rates.items())
        for i, rows in Y.irregular_rates.items():
            beta = beta_for_rate(rows, state.poles[i].lam_irr[-1])
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


def clustering_flow():
    """A rank-2 state with an order-2 pole, and an irregular rate there that
    makes its two leading types meet at s = 1 (diagonal residues keep the
    Hamiltonian correction small on the way)."""
    res = np.diag([0.3, -0.2]).astype(complex)
    state = FlowState(2, (PoleData(0.0, 2, np.eye(2), res, [[0.4, -0.45]]),
                          PoleData(2.0, 1, np.eye(2), -res)))
    return state, [[-0.425, 0.425]]


def count_polar_coeffs(monkeypatch):
    """Counts the poles whose polar coefficients are computed: a plan's
    ``stage`` counts each pole of its layout."""
    calls = [0]
    original = ChartPlan.stage

    def counted(self, y):
        calls[0] += self.m
        return original(self, y)

    monkeypatch.setattr(ChartPlan, "stage", counted)
    return calls


class TestStatePolarData:
    def test_jet_at_pole_matches_rational_laurent(self, rng):
        # the memoized regular jets serve poles of every order
        state = mixed_order_state(rng)
        conn = state.connection()
        for i, p in enumerate(state.poles):
            jet = state.jet_at_pole(i)
            ref = conn.matrix.laurent(p.t, p.l - 2)
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

    def test_frame_inverted_once_per_pole(self, rng, monkeypatch):
        # the polar coefficients and the chart blocks share each pole's
        # frame, which the state's stage inverts once (the input check of
        # PoleData inverts it before); a stack of frames counts each frame
        # it inverts
        calls = [0]
        inv = np.linalg.inv

        def counted(a):
            calls[0] += np.shape(a)[0] if np.ndim(a) == 3 else 1
            return inv(a)

        state = mixed_order_state(rng)
        monkeypatch.setattr(np.linalg, "inv", counted)
        state.polar, state.gram_blocks
        assert calls[0] == len(state.poles)

    def test_with_flat_inverts_each_group_at_once(self, rng, monkeypatch):
        # the state from a flat vector inverts the frames of a group in one
        # call, and its polar data and Gram blocks invert none again
        state = irregular_state(rng)
        calls, frames = [0], [0]
        inv = np.linalg.inv

        def counted(a):
            calls[0] += 1
            frames[0] += np.shape(a)[0] if np.ndim(a) == 3 else 1
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        moved = state.with_flat(state.flat())
        moved.polar, moved.gram_blocks
        assert frames[0] == len(state.poles) == 3
        assert calls[0] == len(moved.plan.groups) == 2

    def test_rebuilt_poles_are_views_of_the_group_stacks(self, rng):
        ext = extend_state(mixed_order_state(rng))
        for moved in (ext.state.with_flat(ext.state.flat()),
                      ext.with_flat(ext.flat()).state):
            assert np.array_equal(moved.flat(), ext.state.flat())
            # the stage's stacks, per group: frames, frame jets, residues
            # and irregular types
            for g, stacks in zip(moved.plan.groups, moved.stage.fields):
                for r, i in enumerate(g.index):
                    p = moved.poles[i]
                    assert p.t == moved.stage.y[i] and p.l == g.l
                    for name, stack in zip(("h", "u", "lam_res", "lam_irr"),
                                           stacks):
                        row = getattr(p, name)
                        assert np.array_equal(row, stack[r])
                        assert row.size == 0 or np.shares_memory(row, stack)

    def test_with_flat_checks_no_input(self, rng, monkeypatch):
        # the vector is the state's own layout: the rebuild runs none of the
        # input checks, only the frame inversion
        import isomonodromy.states as states
        ext = extend_state(mixed_order_state(rng))

        def refused(*args, **kwargs):
            raise AssertionError("input check on the rebuild path")

        for owner, name in ((states, "_shaped"), (states, "check_regular"),
                            (states, "check_separated"),
                            (PoleData, "__init__"),
                            (FlowState, "__post_init__"),
                            (ExtendedState, "__post_init__")):
            monkeypatch.setattr(owner, name, refused)
        y = ext.flat()
        assert np.array_equal(ext.with_flat(y).flat(), y)
        assert np.array_equal(ext.state.with_flat(ext.state.flat()).flat(),
                              ext.state.flat())

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("change", [-1, 1])
    def test_with_flat_checks_the_length(self, rng, extended, change):
        state = mixed_order_state(rng)
        start = extend_state(state) if extended else state
        y = start.flat()
        bad = y[:-1] if change < 0 else np.r_[y, 0.0]
        with pytest.raises(MalformedInputError,
                           match=rf"^flat vector: length {len(bad)}, "
                                 rf"expected {len(y)}$"):
            start.with_flat(bad)

    def test_flow_into_a_clustered_type_is_refused(self):
        # the leading types meet at s = 1, where the integrator evaluates
        # the right-hand side; it refuses the clustered type in
        # diagonalize_jet, as the rebuild once did
        state, rate = clustering_flow()
        path = FlowPath.irregular_line(state, 0, rate)
        with pytest.raises(RegularityError, match="^leading eigenvalues "):
            integrate_flow(state, path, n_samples=3)

    @pytest.mark.parametrize("field, bad", [
        ("h", {"h": np.ones((2, 3))}),
        ("lam_res", {"lam_res": np.zeros((3, 3))}),
        ("lam_irr", {"lam_irr": np.zeros((2, 2))}),
        ("u", {"u": np.zeros((1, 2, 2))}),
        ("l", {"l": 0}),
    ])
    def test_pole_data_checks_shapes(self, field, bad):
        args = {"t": 0.0, "l": 2, "h": np.eye(2), "lam_res": np.zeros((2, 2)),
                "lam_irr": [[0.5, -0.5]], **bad}
        with pytest.raises(MalformedInputError, match=f"^{field}: "):
            PoleData(**args)

    @pytest.mark.parametrize("h", [np.zeros((2, 2)), [[1.0, 2.0], [0.5, 1.0]],
                                   [[np.nan, 0.0], [0.0, 1.0]],
                                   [[np.inf, 0.0], [0.0, 1.0]]])
    def test_singular_frame_names_the_pole(self, h):
        with pytest.raises(MalformedInputError,
                           match=r"^h: .* pole t = \(0\.5-1j\) is singular"):
            PoleData(0.5 - 1j, 2, h, np.zeros((2, 2)), [[0.5, -0.5]])

    def test_rebuilt_singular_frame_is_a_degenerate_chart(self, rng):
        # a frame the flow drives singular is a numeric abort, not an input
        # error, and the rebuild still names the pole
        res = 0.3 * random_matrix(rng, 2)
        state = FlowState(2, (PoleData(0.5 - 1j, 1, np.eye(2), res),
                              PoleData(2.0, 1, np.eye(2), -res)))
        y = state.flat()
        y[2:6] = 0.0   # after the two positions: pole 0's frame entries
        with pytest.raises(DegenerateChartError,
                           match=r"^h: .* pole t = \(0\.5-1j\) is singular"):
            state.with_flat(y)


class TestSeparationRule:
    @pytest.mark.parametrize("entry", ["FlowState", "PolarDivisor",
                                       "MatrixDivisor", "FlowState twist"])
    @pytest.mark.parametrize("factor, separated", [
        (1 - 1e-3, False), (1.0, False), (1 + 1e-3, True)])
    def test_entry_points_agree(self, rng, entry, factor, separated):
        # two points TAU_SEP * factor apart: refused at or below TAU_SEP by
        # the state, the polar divisor and the matrix divisor alike, and by
        # the state for a pole and a twist site
        gap = TAU_SEP * factor
        res = 0.3 * random_matrix(rng, 2)
        build = {
            "FlowState": lambda: FlowState(2, (
                PoleData(0.0, 1, np.eye(2), res),
                PoleData(gap, 1, np.eye(2), -res))),
            "PolarDivisor": lambda: PolarDivisor([0.0, gap], [1, 1]),
            "MatrixDivisor": lambda: MatrixDivisor(
                (normal_form(0.0, (0.0, 1.0)), normal_form(gap, (0.0, 1.0)))),
            "FlowState twist": lambda: FlowState(2, (
                PoleData(0.0, 1, np.eye(2), res),
                PoleData(2.0, 1, np.eye(2), -res)),
                MatrixDivisor((normal_form(gap, (0.0, 1.0)),))),
        }[entry]
        if separated:
            build()
        else:
            with pytest.raises(MalformedInputError, match="closer than"):
                build()

    def test_accepted_state_builds_its_connection(self, rng):
        res = 0.3 * random_matrix(rng, 2)
        state = FlowState(2, (PoleData(0.0, 1, np.eye(2), res),
                              PoleData(TAU_SEP * (1 + 1e-3), 1, np.eye(2),
                                       -res)))
        assert state.connection().divisor.mults == (1, 1)


class TestLeadingTermRule:
    @pytest.mark.parametrize("entry", ["FlowState", "from_connection",
                                       "diagonalize_jet"])
    @pytest.mark.parametrize("factor, regular", [(0.9, False), (1.1, True)])
    def test_entry_points_agree(self, rng, entry, factor, regular):
        # an order-2 leading type whose gap is just under or just over
        # TAU_REG * scale, with scale max(1, |leading entries|) = 2 + gap
        lead = np.array([2.0, 2.0 + factor * TAU_REG * 2.0], dtype=complex)
        res = 0.3 * random_matrix(rng, 2)
        jet = np.stack([np.diag(lead), res, np.zeros((2, 2))])
        build = {
            "FlowState": lambda: FlowState(2, (
                PoleData(0.0, 2, np.eye(2), res, [lead]),
                PoleData(2.0, 1, np.eye(2), -res))),
            "from_connection": lambda: FlowState.from_connection(
                Connection.from_polar_parts(
                    [(0.0, [res, np.diag(lead)]), (2.0, [-res])])),
            "diagonalize_jet": lambda: diagonalize_jet(
                LaurentJet(0.0, -2, jet, 1), 0),
        }[entry]
        if regular:
            build()
        else:
            with pytest.raises(RegularityError):
                build()

    @pytest.mark.xfail(
        strict=True, reason="the regularity rule is checked only where the "
        "right-hand side is evaluated, so a flow steps across a crossing of "
        "the leading types and completes with them swapped; a gap event "
        "cannot see it, since |w_a - w_b| does not change sign at a "
        "crossing (ROADMAP item 27)")
    def test_a_crossing_of_the_leading_types_aborts(self):
        # the types [0.4, -0.45] move by [-0.6375, 0.6375] and meet at
        # s = 2/3, which no sample or step lands on at the default 9 samples
        res = np.diag([0.1, -0.2])
        state = FlowState(2, (PoleData(0.0, 2, np.eye(2), res, [[0.4, -0.45]]),
                              PoleData(1.7, 1, np.eye(2), -res)))
        path = FlowPath.irregular_line(state, 0, [[-0.425, 0.425]],
                                       length=1.5)
        assert integrate_flow(state, path).status == "aborted"
