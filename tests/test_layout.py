"""The flat layout is one partition, owned by ``ChartPlan``: its index
arrays cover every slot of the extended vector exactly once, and packing
by them and reading out by them round-trip bit for bit.  The states are
drawn: 1 to 6 poles of orders 1 to 3 in any mix, ranks 2 to 4, dense
frames, frame jets at order 3 and regular irregular types."""

import numpy as np
from hypothesis import given, settings, strategies as st

import isomonodromy.serialize as ser
from isomonodromy.flows import StateDerivative, Trajectory
from isomonodromy.states import ExtendedState, FlowState, PoleData


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def states(draw):
    n = draw(st.integers(2, 4))
    orders = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    poles = []
    for j, l in enumerate(orders):
        # a regular leading type: entries 0.8 apart
        lead = 0.8 * np.arange(n) + 0.3 + 0.05 * complex_normal(rng, n)
        lam_irr = np.array([lead * (1.0 + 0.3 * k)
                            for k in range(l - 1)][::-1]).reshape(l - 1, n)
        u = 0.2 * complex_normal(rng, (max(l - 2, 0), n, n))
        for u_k in u:
            np.fill_diagonal(u_k, 0.0)
        poles.append(PoleData(complex(1.1 * j, 0.3 * (j % 2)), l,
                              np.eye(n) + 0.3 * complex_normal(rng, (n, n)),
                              0.4 * complex_normal(rng, (n, n)), lam_irr, u))
    state = FlowState(n, tuple(poles))
    return state, ExtendedState(
        state, tuple(complex_normal(rng, l) for l in orders),
        tuple(complex_normal(rng, (l - 1, n)) for l in orders)), rng


LAYOUT = settings(derandomize=True, database=None, deadline=None,
                  max_examples=100)


@LAYOUT
@given(states())
def test_layout_is_a_partition(drawn):
    state, _, _ = drawn
    plan = state.plan
    slots = [plan.positions, *(a for f in plan.fields for a in f), *plan.q,
             *plan.b]
    got = np.sort(np.concatenate([np.ravel(a) for a in slots]))
    assert np.array_equal(got, np.arange(plan.extended_size))
    # the chart vector is the frames, frame jets and residues, and the
    # state's part ends with the irregular entries
    chart = np.concatenate([np.ravel(a) for f in plan.fields for a in f[:3]])
    assert np.array_equal(np.sort(chart), plan.chart)
    assert np.array_equal(np.concatenate([plan.chart, *map(np.ravel,
                                                           plan.irr)]),
                          plan.coefficients)
    assert plan.size == len(state.flat()) == plan.m + plan.dim \
        + sum((p.l - 1) * p.n for p in state.poles)


@LAYOUT
@given(states())
def test_flat_vectors_round_trip(drawn):
    state, ext, rng = drawn
    y = state.flat()
    assert state.with_flat(y).flat().tobytes() == y.tobytes()
    assert ext.with_flat(ext.flat()).flat().tobytes() == ext.flat().tobytes()
    assert ser.un_flow_state(ser.flow_state(state)).flat().tobytes() \
        == y.tobytes()
    dy = complex_normal(rng, len(y))
    assert StateDerivative(dy, state.plan).flat().tobytes() == dy.tobytes()
    header = ser.trajectory_csv(Trajectory([0.0], [state])).splitlines()[0]
    assert len(header.split(",")) == 1 + 2 * len(y)
