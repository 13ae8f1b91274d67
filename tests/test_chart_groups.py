"""The chart layer stacked by pole group reproduces the pole-by-pole
reference of ``tests/oracles.py`` bit for bit (``np.array_equal``), except
the Hamiltonian differentials and the section rates, which the library
takes in reverse mode and which agree with the reference's forward mode to
1e-13 relative to the vector's largest entry, and the induced polar
variations and the regular jets, which sum in another order than the
reference and agree to 1e-14.

The states mix pole orders 1, 2 and 3 at ranks 2 to 4.  The order-1 and
order-2 groups are not contiguous in pole order, and the order-3 pole is a
group of one.  Each state is checked as built (groups stacked from its
poles) and as rebuilt from a flat vector (groups unpacked at once).  One
more state has 16 poles at rank 3, rebuilt from a flat vector: its
order-1 group has ten poles, where the table of weights between every pair
of poles, which the regular jets and the differentials read, is large.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import isomonodromy.flows as flows
import isomonodromy.symplectic as symplectic
import oracles
from isomonodromy.connection import extension_weights
from isomonodromy.flows import Direction, FlowPath, _section_rates, \
    integrate_flow, isomonodromic_rhs
from isomonodromy.states import FlowState, PoleData
from isomonodromy.twist import MatrixDivisor, TwistSite, normal_form
from isomonodromy.symplectic import (
    chart_layout,
    d_hamiltonian_beta_B,
    d_translation_hamiltonian,
    hamiltonian_vector_field,
    induced_polar_variations,
)

from conftest import random_invertible, random_matrix

ORDERS = (2, 1, 3, 1, 2)
POSITIONS = (0.0, 1.7, -1.3 + 0.8j, 0.6 - 1.5j, 2.4 + 1.1j)
# 16 poles on a 4 x 4 grid, the first five of the orders above
MANY_ORDERS = ORDERS + (1, 1, 2, 1, 3, 1, 1, 2, 1, 1, 1)
MANY_POSITIONS = tuple(complex(1.1 * (j % 4) - 1.6, 1.1 * (j // 4) - 1.7)
                       for j in range(16))
GROUPS = {
    len(ORDERS): [(2, (0, 4)), (1, (1, 3)), (3, (2,))],
    len(MANY_ORDERS): [(2, (0, 4, 7, 12)),
                       (1, (1, 3, 5, 6, 8, 10, 11, 13, 14, 15)),
                       (3, (2, 9))],
}


def mixed_state(rng, n, orders=ORDERS, positions=POSITIONS):
    poles = []
    for l, t in zip(orders, positions):
        # a regular leading type: entries 0.8 apart
        lead = 0.8 * np.arange(n) + 0.3 + 0.05 * random_matrix(rng, n)[0]
        lam_irr = np.array([lead * (1.0 + 0.3 * k) for k in range(l - 1)][::-1]
                           ).reshape(l - 1, n)
        u = None
        if l == 3:
            u = 0.2 * random_matrix(rng, n)
            np.fill_diagonal(u, 0.0)
            u = u[None]
        poles.append(PoleData(t, l, np.eye(n) + 0.3 * random_matrix(rng, n),
                              0.4 * random_matrix(rng, n), lam_irr, u))
    return FlowState(n, tuple(poles))


@pytest.fixture(params=[(n, moved, False) for n in (2, 3, 4)
                        for moved in (False, True)] + [(3, True, True)],
                ids=lambda p: f"n{p[0]}-{'flat' if p[1] else 'built'}"
                + ("-k16" if p[2] else ""))
def state(request, rng):
    n, moved, many = request.param
    st = mixed_state(rng, n, *((MANY_ORDERS, MANY_POSITIONS) if many else ()))
    if moved:
        y = st.flat()
        st = st.with_flat(y + 1e-3 * np.sin(np.arange(len(y))))
    return st


def test_groups_are_orders_in_first_appearance(state):
    groups = state.plan.groups
    assert [(g.l, g.index) for g in groups] == GROUPS[len(state.poles)]
    widths = [chart_layout(p.l, p.n)[1] for p in state.poles]
    for g in groups:
        for r, i in enumerate(g.index):
            at = sum(widths[:i])
            assert list(g.cols[r]) == list(range(at, at + widths[i]))


REGULAR_JET_TOL = 1e-14


def test_polar_and_regular_jets(state):
    for got, want in zip(state.polar, oracles.pole_polar(state)):
        assert np.array_equal(np.array(got), np.array(want))
    for p, want in zip(state.poles, oracles.pole_polar(state)):
        assert np.array_equal(FlowState(state.n, (p,)).polar[0],
                              np.array(want))
    # the library contracts one table of weights over every source pole,
    # the reference adds the poles' terms one by one: relative to each
    # pole's largest entry
    for got, want in zip(state.regular_jets, oracles.pole_regular_jets(state)):
        assert np.max(np.abs(got - want)) \
            <= REGULAR_JET_TOL * np.max(np.abs(want))


def test_gram_blocks_and_induced_variations(state):
    st = state.stage
    for g, (_, etas), (cols, gram) in zip(state.plan.groups, st.charts,
                                         st.gram_blocks):
        for r, i in enumerate(g.index):
            ref = oracles.PoleChartBlock(state.poles[i])
            assert np.array_equal(etas[r], ref.etas)
            assert np.array_equal(g.dlams, ref.dlams)
            assert np.array_equal(gram[r].T, ref.gram_block())
            assert np.array_equal(cols[r], g.cols[r])


VARIATION_TOL = 1e-14


def test_induced_polar_variations(state, rng):
    # the library contracts the tangent with the basis velocities before
    # it dresses, the reference dresses every direction first: the sums run
    # in another order, so they agree to round-off
    vec = rng.standard_normal(state.chart_dim()) \
        + 1j * rng.standard_normal(state.chart_dim())
    got = induced_polar_variations(vec, state)
    at = 0
    for i, p in enumerate(state.poles):
        ref = oracles.PoleChartBlock(p)
        want = np.einsum("x,xkpq->kpq", vec[at: at + ref.dim],
                         ref.induced_variations())
        assert np.max(np.abs(got[i] - want)) \
            <= VARIATION_TOL * np.max(np.abs(want))
        at += ref.dim


DIFFERENTIAL_TOL = 1e-13


def test_polar_variation_is_the_covector_transposed(state, rng):
    # for any weight on a group's polar coefficients and any chart tangent
    # at each of its poles, the covector pairs with the tangent as the
    # weight pairs with the tangent's polar variation
    st = state.stage
    for g, frames, chart in zip(state.plan.groups, st.frames, st.charts):
        (G, dim), n = g.cols.shape, state.n
        v = rng.standard_normal((G, dim)) + 1j * rng.standard_normal((G, dim))
        W = rng.standard_normal((G, g.l, n, n)) \
            + 1j * rng.standard_normal((G, g.l, n, n))
        forward = np.einsum("gkpq,gkqp->g", W, symplectic._polar_variation(
            *frames, *chart, g.dlams, v))
        reverse = np.einsum("gx,gx->g", symplectic._covector(
            *frames, *chart, g.dlams, W), v)
        assert np.max(np.abs(forward - reverse)) \
            <= DIFFERENTIAL_TOL * np.max(np.abs(forward))


def differentials_agree(state, rng):
    """Every pole's translation differential, and at every pole of order
    two or more the irregular one for a random ``beta``, agree with the
    forward-mode oracles to ``DIFFERENTIAL_TOL`` relative to the vector's
    largest entry."""
    for i, p in enumerate(state.poles):
        pairs = [(d_translation_hamiltonian(state, i),
                  oracles.pole_d_translation_hamiltonian(state, i))]
        if p.l > 1:
            beta = random_matrix(rng, max(p.l - 1, p.n))[: p.l - 1, : p.n]
            pairs.append((d_hamiltonian_beta_B(state, i, beta),
                          oracles.pole_d_hamiltonian_beta_B(state, i, beta)))
        for got, want in pairs:
            if not (np.max(np.abs(got - want))
                    <= DIFFERENTIAL_TOL * np.max(np.abs(want))):
                return False
    return True


def test_hamiltonian_differentials(state, rng):
    assert differentials_agree(state, rng)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hamiltonian_differentials_on_flowed_states(n, rng):
    # a short flow of the mixed state fills its frames; the order-3 pole
    # keeps a nonzero u
    st = mixed_state(rng, n)
    st = integrate_flow(st, FlowPath.line(st, 1, 0.2 - 0.1j),
                        n_samples=2).states[-1]
    assert not np.allclose(st.poles[0].h, np.eye(n))
    assert np.any(st.poles[2].u)
    assert differentials_agree(st, rng)


def test_perturbed_pulled_back_weight_fails_the_agreement(
        state, rng, monkeypatch):
    covector = symplectic._covector

    def perturbed(*args):
        *blocks, W = args
        noise = rng.standard_normal(W.shape) + 1j * rng.standard_normal(
            W.shape)
        return covector(*blocks, W + 1e-10 * np.max(np.abs(W)) * noise)

    monkeypatch.setattr(symplectic, "_covector", perturbed)
    assert not differentials_agree(state, rng)


def test_section_rates(state):
    n = state.n
    direction = Direction({0: 0.4, 1: -0.3j, 2: 0.2 + 0.1j},
                          {0: [np.linspace(-0.3, 0.4, n)],
                           4: [np.linspace(0.2, -0.1, n)]})
    # reverse mode against the reference's forward mode, slot by slot
    got, want = _section_rates(direction, state), \
        oracles.pole_section_rates(direction, state)
    for got_slots, want_slots in zip(got, want):
        for a, b in zip(got_slots, want_slots):
            assert np.max(np.abs(a - b), initial=0.0) \
                <= DIFFERENTIAL_TOL * np.max(np.abs(b), initial=0.0)


def test_stacked_pairing_weights_are_each_slices(state, rng):
    # the diagonal-jet pairing's weights of a stack of beta, at the order-2
    # and order-3 poles, are byte for byte each slice's own: the section
    # rates stack their unit beta, the differentials pass one
    for i, p in enumerate(state.poles):
        if p.l < 2:
            continue
        jet = state.plan.jet(state.stage, i)
        betas = (rng.standard_normal((2, 3, p.l - 1, p.n))
                 + 1j * rng.standard_normal((2, 3, p.l - 1, p.n)))
        polar, regular = symplectic._pairing_weights(jet, betas)
        assert polar.shape == (2, 3, p.l, p.n, p.n)
        assert regular.shape == (2, 3, p.l - 1, p.n, p.n)
        for a in range(2):
            for b in range(3):
                own = symplectic._pairing_weights(jet, betas[a, b])
                assert polar[a, b].tobytes() == own[0].tobytes()
                assert regular[a, b].tobytes() == own[1].tobytes()


def test_polar_weights(state, rng):
    # with one extra row: pole i's own rows are its polar weight, then zero;
    # every other pole's rows are the table extension_weights from t_i
    # contracted with the regular weight, one pole and one order at a time,
    # which sums in another order than the library's
    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    n, M = state.n, 3
    for i, p in enumerate(state.poles):
        polar_w, regular_w = draw(2, p.l, n, n), draw(2, M, n, n)
        for g, W in zip(state.plan.groups,
                        state.plan.weights(state.stage.y, i, polar_w,
                                           regular_w, extra=1)):
            assert W.shape == (len(g.index), 2, g.l + 1, n, n)
            for r, j in enumerate(g.index):
                if j == i:
                    assert np.array_equal(W[r, :, : p.l], polar_w)
                    assert not W[r, :, p.l:].any()
                    continue
                w = extension_weights(p.t - state.poles[j].t, g.l + 1, M)
                want = np.zeros((2, g.l + 1, n, n), dtype=complex)
                for k in range(g.l + 1):
                    for m in range(M):
                        want[:, k] += w[k, m] * regular_w[:, m]
                assert np.max(np.abs(W[r] - want)) \
                    <= VARIATION_TOL * np.max(np.abs(want))


def test_hamiltonian_vector_field(state, rng):
    dim = state.chart_dim()
    dH = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    assert np.array_equal(hamiltonian_vector_field(dH, state),
                          oracles.pole_hamiltonian_vector_field(dH, state))


ZERO_CURVATURE_TOL = 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_translations_satisfy_zero_curvature(n, rng):
    # along a translation of pole i, the coefficients at every pole move by
    # the polar part of -[P_i(z), A(z)]: the Jimbo-Miwa-Ueno equations at
    # pole orders 1, 2 and 3, which the library never codes
    state = mixed_state(rng, n)
    for i in range(len(state.poles)):
        assert oracles.zero_curvature_residual(
            state, Direction.translation(i)) < ZERO_CURVATURE_TOL


def test_zero_curvature_fails_a_planted_correction(rng, monkeypatch):
    state = mixed_state(rng, 2)
    field = flows.solve_chart
    monkeypatch.setattr(flows, "solve_chart",
                        lambda dH, st: (1.0 + 1e-6) * field(dH, st))
    for i in range(len(state.poles)):
        residual = oracles.zero_curvature_residual(
            state, Direction.translation(i))
        assert 0.5e-6 < residual < 2e-6


def twisted_state(rng, n):
    """``mixed_state`` with two frozen twist sites clear of its poles, of
    degrees 1 and n."""
    state = mixed_state(rng, n)
    germ = np.zeros((2, n, n), dtype=complex)
    germ[1] = np.eye(n)
    return FlowState(n, state.poles, MatrixDivisor((
        normal_form(0.9 + 1.0j, (0.0,) + (0.5 - 0.2j,) * (n - 1)),
        TwistSite(-0.7 - 0.6j, germ))))


def irregular_directions(rng, state):
    """A random rate of the irregular type at each order-2 pole."""
    return [Direction.irregular(i, random_matrix(rng, state.n)[:1])
            for i, p in enumerate(state.poles) if p.l == 2]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_irregular_rates_satisfy_zero_curvature(n, rng):
    # along an irregular rate R at an order-2 pole, the coefficients move by
    # the polar parts of dB/dz + [B, A] with B = -h R h^-1 / (z - t_i), the
    # flow's rates taken analytically
    state = mixed_state(rng, n)
    for direction in irregular_directions(rng, state):
        assert oracles.zero_curvature_residual(state, direction) \
            < ZERO_CURVATURE_TOL


def test_twisted_state_satisfies_zero_curvature(rng):
    # the flow reads the chart's own polar data: the frozen twist changes
    # neither its rates nor the equation they satisfy
    state = twisted_state(rng, 3)
    assert state.twist.sites
    for i in range(len(state.poles)):
        assert oracles.zero_curvature_residual(
            state, Direction.translation(i)) < ZERO_CURVATURE_TOL
    for direction in irregular_directions(rng, state):
        assert oracles.zero_curvature_residual(state, direction) \
            < ZERO_CURVATURE_TOL


@pytest.mark.parametrize("case", ["n4", "twisted", "irregular"])
def test_zero_curvature_cases_fail_a_planted_correction(case, rng,
                                                        monkeypatch):
    # the correction's share of the rates sets the residual: all of it
    # along translations, part of it along irregular rates, where the lift
    # moves the leading coefficient itself
    state = twisted_state(rng, 2) if case == "twisted" else \
        mixed_state(rng, 4 if case == "n4" else 2)
    directions = irregular_directions(rng, state) if case == "irregular" \
        else [Direction.translation(i) for i in range(len(state.poles))]
    field = flows.solve_chart
    monkeypatch.setattr(flows, "solve_chart",
                        lambda dH, st: (1.0 + 1e-6) * field(dH, st))
    for direction in directions:
        residual = oracles.zero_curvature_residual(state, direction)
        assert 1e-7 < residual < 2e-6


# ---------------------------------------------------------------------------
# covariance under w = a z + b
# ---------------------------------------------------------------------------

AFFINE = (1.3 * np.exp(0.4j), 0.2 - 0.5j)
COVARIANCE_TOL = 1e-13


def covariance_residual(state, direction, power=lambda k: k - 1):
    """The right-hand side at the affine image of ``state``, along the
    image of ``direction`` (rates times ``a``), against the one at
    ``state`` carried over: ``d_chart`` with each ``u_k`` slot times
    ``a**-k``, positions and irregular rates times ``a``.  The largest
    difference relative to the largest expected entry."""
    a, b = AFFINE
    image = Direction({i: a * r for i, r in direction.moduli_rates.items()},
                      {i: a * np.asarray(r)
                       for i, r in direction.irregular_rates.items()})
    got = isomonodromic_rhs(image, oracles.affine_image(state, a, b, power))
    want = isomonodromic_rhs(direction, state)
    scale = []
    for p in state.poles:
        jets = [np.full(p.n * p.n - p.n, a ** -k) for k in range(1, p.l - 1)]
        scale += [np.ones(p.n * p.n), *jets, np.ones(p.n * p.n)]
    want = np.concatenate([a * want.d_positions,
                           np.concatenate(scale) * want.d_chart,
                           *(a * r.ravel() for r in want.d_irregular)])
    return np.max(np.abs(got.flat() - want)) / np.max(np.abs(want))


def covariance_directions(rng, state):
    return [Direction.translation(i, 0.3 - 0.2j)
            for i in range(len(state.poles))] + irregular_directions(
                rng, state)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rhs_is_affine_covariant(n, rng):
    # the flow does not depend on the coordinate: at pole orders 1, 2 and
    # 3, along translations and order-2 irregular rates
    state = mixed_state(rng, n)
    for direction in covariance_directions(rng, state):
        assert covariance_residual(state, direction) < COVARIANCE_TOL


def test_affine_covariance_fails_a_planted_scaling(rng):
    # C_k scaled by a**k rather than a**(k-1)
    state = mixed_state(rng, 2)
    for direction in covariance_directions(rng, state):
        assert covariance_residual(state, direction, power=lambda k: k) > 0.1


# ---------------------------------------------------------------------------
# covariance under a constant gauge
# ---------------------------------------------------------------------------

def gauge_residual(state, direction, g, poles=None):
    """Every frame ``h_i`` replaced by ``g h_i`` (only at ``poles``, when
    given): the translation Hamiltonians' values and the right-hand side
    there, against the ones at ``state`` carried over, which keep every
    slot but the frames', where ``dh`` becomes ``g dh``.  The larger of the
    two largest differences, each relative to its largest expected
    entry."""
    image = oracles.gauge_image(state, g, poles)
    values = np.array(symplectic.translation_hamiltonian_values(state))
    got = np.array(symplectic.translation_hamiltonian_values(image))
    residual = np.max(np.abs(got - values)) / np.max(np.abs(values))
    want = isomonodromic_rhs(direction, state)
    at, n = len(state.poles), state.n
    want = want.flat()
    for p in state.poles:
        frame = want[at: at + n * n]
        frame[:] = (g @ frame.reshape(n, n)).ravel()
        at += chart_layout(p.l, n)[1]
    got = isomonodromic_rhs(direction, image).flat()
    return max(residual, np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rhs_is_gauge_covariant(n, rng):
    # A -> g A g^-1 for one constant g: at pole orders 1, 2 and 3 with a
    # frame jet, along translations and order-2 irregular rates
    state = mixed_state(rng, n)
    g = random_invertible(rng, n)
    for direction in covariance_directions(rng, state):
        assert gauge_residual(state, direction, g) < COVARIANCE_TOL


def test_gauge_covariance_fails_a_planted_gauge(rng):
    # g at one pole's frame only: another connection
    state = mixed_state(rng, 2)
    g = random_invertible(rng, 2)
    for direction in covariance_directions(rng, state):
        assert gauge_residual(state, direction, g, poles=(1,)) > 0.1


# ---------------------------------------------------------------------------
# one chart-data path: a state's plan and stage
# ---------------------------------------------------------------------------

def test_one_plan_and_stage_per_state(rng, monkeypatch):
    """Every public chart-layer function, at every pole where it takes a
    pole index, on one mixed-order state: the state compiles its plan
    once, builds its stage once and inverts each group's frames once, and
    a flow from it compiles no plan of its own."""
    state = mixed_state(rng, 3)
    counts = {"plan": 0, "stage": 0, "frames": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    plan = symplectic.ChartPlan
    monkeypatch.setattr(plan, "__init__", counted("plan", plan.__init__))
    monkeypatch.setattr(plan, "stage", counted("stage", plan.stage))
    monkeypatch.setattr(symplectic, "_frame_inverses", counted(
        "frames", symplectic._frame_inverses))
    n, dim = state.n, state.chart_dim()
    direction = Direction({0: 0.4, 1: -0.3j}, {0: [np.linspace(-0.3, 0.4, n)],
                                               4: [np.linspace(0.2, -0.1, n)]})
    state.polar, state.regular_jets, state.gram_blocks
    for i, p in enumerate(state.poles):
        state.jet_at_pole(i)
        d_translation_hamiltonian(state, i)
        state.plan.weights(state.stage.y, i,
                           random_matrix(rng, n)[None].repeat(p.l, 0),
                           random_matrix(rng, n)[None].repeat(2, 0))
        if p.l > 1:
            d_hamiltonian_beta_B(state, i, np.ones((p.l - 1, n)))
    symplectic.translation_hamiltonian_values(state)
    hamiltonian_vector_field(np.ones(dim), state)
    induced_polar_variations(np.ones(dim), state)
    symplectic.gram_matrix(state)
    flows.direction_differential(direction, state)
    isomonodromic_rhs(direction, state)
    flows.lift_I0(direction, state)
    _section_rates(direction, state)
    flows.extended_autonomous_rhs(direction, flows.extend_state(state))
    state.connection()
    assert counts == {"plan": 1, "stage": 1, "frames": 3}
    assert len(state.plan.groups) == 3
    integrate_flow(state, FlowPath.line(state, 1, 0.1), n_samples=2)
    assert counts["plan"] == 1


KERNELS = ("frames", "lam_jet", "regular_jets", "_hankel", "_etas", "_gram")


# array joins, and the parts of a state, an extended state or a
# derivative that a flat vector holds
JOINS = ("concatenate", "hstack", "append", "block")
PARTS = ("d_positions", "d_chart", "d_irregular", "q_dual", "b_dual",
         "lam_res", "lam_irr")


def test_one_call_site_per_chart_kernel():
    # the chart data has one orchestration: each kernel that builds it is
    # called once in the library, in ChartPlan; the flat layout has one
    # owner: chart_layout is called in symplectic alone, no class packs a
    # pole's chart slice of its own, and no code outside ChartPlan joins a
    # flat vector's parts by hand
    root = Path(symplectic.__file__).parent
    sites, in_plan, layout_sites, slice_defs = [], [], set(), []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                sites.append(node)
                if "chart_layout" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None)):
                    layout_sites.add(path.name)
            if isinstance(node, ast.ClassDef) and node.name == "ChartPlan":
                in_plan += [c for c in ast.walk(node)
                            if isinstance(c, ast.Call)]
            if isinstance(node, ast.ClassDef):
                slice_defs += [f"{node.name}.{f.name}" for f in node.body
                               if isinstance(f, ast.FunctionDef)
                               and f.name == "chart_slice"]

    def called(calls, name):
        return [c for c in calls if getattr(c.func, "id", None) == name
                or getattr(c.func, "attr", None) == name]

    for name in KERNELS:
        assert len(called(sites, name)) == 1, name
        assert called(sites, name) == called(in_plan, name), name
    assert layout_sites == {"symplectic.py"}
    assert slice_defs == []
    joined = [a.attr for name in JOINS for c in called(sites, name)
              if c not in in_plan for a in ast.walk(c)
              if isinstance(a, ast.Attribute) and a.attr in PARTS]
    assert joined == []


def test_one_extension_table_and_one_pairing_pullback():
    # the signed binomials of the extension weights are fetched in
    # extension_weights alone, and the formal diagonalization is pulled
    # back in _pairing_weights alone, both once
    sites = {"_signed_binomials": [], "pullback": []}

    class Calls(ast.NodeVisitor):
        # each call is credited to the innermost function holding it
        function = None

        def visit_FunctionDef(self, node):
            outer, self.function = self.function, node.name
            self.generic_visit(node)
            self.function = outer

        def visit_Call(self, node):
            name = getattr(node.func, "id", None) \
                or getattr(node.func, "attr", None)
            if name in sites:
                sites[name].append(self.function)
            self.generic_visit(node)

    root = Path(symplectic.__file__).parent
    for path in sorted(root.glob("*.py")):
        Calls().visit(ast.parse(path.read_text()))
    assert sites == {"_signed_binomials": ["extension_weights"],
                     "pullback": ["_pairing_weights"]}


def test_connection_assembles_no_gram_block(rng, monkeypatch):
    # the polar half alone: no block Hankel matrix, basis velocity or Gram
    # block, until the Gram blocks are read
    calls = {name: 0 for name in ("_hankel", "_etas", "_gram")}
    for name in calls:
        def counted(*args, fn=getattr(symplectic, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(symplectic, name, counted)
    state = mixed_state(rng, 3)
    state.connection().polar_parts
    assert calls == {"_hankel": 0, "_etas": 0, "_gram": 0}
    state.gram_blocks
    assert calls == dict.fromkeys(calls, len(state.plan.groups))
