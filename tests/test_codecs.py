"""The codecs' byte round trips (ROADMAP item 25): text that a codec wrote
reads back to an object that writes the same text.

States are drawn at ranks 1 to 3 with 1 to 4 poles of orders 1 to 3, dense
frames, frame jets at order 3 and regular irregular types, with or without
a normal-form twist site; twist sites and one-pole connections alike.  A
connection with two or more poles is not a fixed point: its polar parts
go through the rational round trip (item 3), and the strict xfail pins
that.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import isomonodromy.serialize as ser
from isomonodromy.connection import Connection
from isomonodromy.states import FlowState, PoleData
from isomonodromy.twist import MatrixDivisor, normal_form

CODECS = settings(derandomize=True, database=None, deadline=None,
                  max_examples=100)


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def round_trips(write, read, obj):
    text = ser.dumps(write(obj))
    return ser.dumps(write(read(json.loads(text)))) == text


@st.composite
def states(draw):
    n = draw(st.integers(1, 3))
    orders = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    poles = []
    for j, l in enumerate(orders):
        # a regular leading type: entries 0.8 apart
        lead = 0.8 * np.arange(n) + 0.3 + 0.05 * complex_normal(rng, n)
        lam_irr = np.array([lead * (1.0 + 0.3 * k)
                            for k in range(l - 1)]).reshape(l - 1, n)
        u = 0.2 * complex_normal(rng, (max(l - 2, 0), n, n))
        for u_k in u:
            np.fill_diagonal(u_k, 0.0)
        poles.append(PoleData(complex(1.1 * j, 0.3 * (j % 2)), l,
                              np.eye(n) + 0.3 * complex_normal(rng, (n, n)),
                              0.4 * complex_normal(rng, (n, n)), lam_irr, u))
    twist = MatrixDivisor((site_of(rng, n),)) if draw(st.booleans()) \
        else None
    return FlowState(n, tuple(poles), twist)


def site_of(rng, n):
    """A normal-form site near -1.5 - 0.9i, clear of the drawn poles, which
    lie at real parts 0 and above."""
    return normal_form(complex(-1.5, -0.9) + 0.2 * complex_normal(rng, ()),
                       complex_normal(rng, n) * 0.3)


@CODECS
@given(states())
def test_states_round_trip_to_the_byte(state):
    assert round_trips(ser.flow_state, ser.un_flow_state, state)


@CODECS
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_twist_sites_round_trip_to_the_byte(n, seed):
    site = site_of(np.random.default_rng(seed), n)
    assert round_trips(ser.twist_site, ser.un_twist_site, site)


def connection_of(rng, n, orders):
    return Connection.from_polar_parts(
        [(complex(1.1 * j, 0.3 * (j % 2)),
          [0.4 * complex_normal(rng, (n, n)) for _ in range(l)])
         for j, l in enumerate(orders)], n=n)


@CODECS
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_one_pole_connections_round_trip_to_the_byte(n, l, seed):
    conn = connection_of(np.random.default_rng(seed), n, [l])
    assert round_trips(ser.connection, ser.un_connection, conn)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the polar parts of "
                   "two or more poles go through the rational round trip, "
                   "which moves them at round-off")
def test_connections_round_trip_to_the_byte(rng):
    for poles in (2, 3, 4):
        conn = connection_of(rng, 2, [1] * poles)
        assert round_trips(ser.connection, ser.un_connection, conn)
