"""The Hamiltonians and the flows do not depend on the coordinate or on a
constant gauge (ROADMAP item 25).

Under ``w = a z + b`` the poles move to ``a t + b``, and a polar
coefficient ``C_k`` of order ``k`` becomes ``a**(k-1) C_k``
(``oracles.affine_image``), so the translation Hamiltonians
``res_{t_i} tr(A^2)`` become ``H_i / a``.  Under a constant gauge ``g``
every frame ``h`` becomes ``g h``; the Hamiltonians stay, and a flow
carries ``g h`` along, with the residues and positions it had.  The states
are 4-pole Fuchsian states at ranks 2 and 3 and an order-2 irregular state,
as in the benchmark, and each check meets a planted error that it must
catch.
"""

import numpy as np
import pytest

import oracles
from conftest import fuchsian_state, irregular_state, random_fuchsian_matrices
from isomonodromy.flows import FlowPath, integrate_flow
from isomonodromy.symplectic import translation_hamiltonian_values

AFFINE_MAPS = [(1.7 * np.exp(0.6j), 0.3 - 0.8j), (0.5, 2.0),
               (np.exp(2.5j), -1.0 + 1.0j)]
# largest relative deviation on the draws below: 6.2e-16 for the affine
# and 1.1e-15 for the gauged Hamiltonians, 8.5e-15 for the gauged flows;
# over 9 other seeds of each kind, 1.3e-15, 1.4e-15 and 1.1e-13 (the flows
# run at tol 1e-10, and a gauged frame changes their step control's scale)
HAMILTONIAN_TOL = 1e-14
FLOW_TOL = 1e-12
# the planted errors read 0.19 and above here, and 0.035 and above over the
# other seeds
PLANTED = 5e-3


def state_of(kind, rng):
    if kind == "irregular":
        return irregular_state(rng)
    return fuchsian_state([-2.1, -0.35, 1.15, 2.6],
                          random_fuchsian_matrices(rng, int(kind[1]), 4))


def relative(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def affine_residual(state, a, b, **planted):
    """``H_i`` of the image under ``w = a z + b`` against ``H_i / a``."""
    want = np.array(translation_hamiltonian_values(state)) / a
    return relative(translation_hamiltonian_values(
        oracles.affine_image(state, a, b, **planted)), want)


def gauge_of(rng, n):
    return np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n)))


def gauged_flow_residual(state, image, g):
    """The flows from ``state`` and ``image`` moving pole 1 along a line,
    sample by sample: frames against ``g h``, residues, irregular types
    and positions against the ungauged flow's."""
    runs = [integrate_flow(st, FlowPath.line(st, 1, 0.3 + 0.2j), n_samples=3)
            for st in (state, image)]
    assert [r.status for r in runs] == ["completed"] * 2
    worst = 0.0
    for want, got in zip(runs[0].states, runs[1].states):
        worst = max(worst, relative([p.t for p in got.poles],
                                    [p.t for p in want.poles]))
        for p, q in zip(want.poles, got.poles):
            worst = max(worst, relative(q.h, g @ p.h),
                        relative(q.lam_res, p.lam_res))
            if p.lam_irr.size:
                worst = max(worst, relative(q.lam_irr, p.lam_irr))
    return worst


KINDS = ["n2", "n3", "irregular"]


@pytest.mark.parametrize("kind", KINDS)
def test_hamiltonians_under_affine_maps(kind, rng):
    state = state_of(kind, rng)
    for a, b in AFFINE_MAPS:
        assert affine_residual(state, a, b) < HAMILTONIAN_TOL
        # C_k scaled by a**k, and pole 1 left where it was
        assert affine_residual(state, a, b, power=lambda k: k) > PLANTED
        assert affine_residual(state, a, b, fixed=(1,)) > PLANTED


@pytest.mark.parametrize("kind", KINDS)
def test_hamiltonians_under_a_constant_gauge(kind, rng):
    state = state_of(kind, rng)
    g = gauge_of(rng, state.n)
    values = translation_hamiltonian_values(state)
    for poles, ok in [(None, True), ((1,), False)]:
        # g at one pole's frame only: another connection
        got = translation_hamiltonian_values(
            oracles.gauge_image(state, g, poles))
        residual = relative(got, values)
        assert residual < HAMILTONIAN_TOL if ok else residual > PLANTED


@pytest.mark.parametrize("kind", KINDS)
def test_flows_under_a_constant_gauge(kind, rng):
    state = state_of(kind, rng)
    g = gauge_of(rng, state.n)
    for poles, ok in [(None, True), ((1,), False)]:
        residual = gauged_flow_residual(
            state, oracles.gauge_image(state, g, poles), g)
        assert residual < FLOW_TOL if ok else residual > PLANTED
