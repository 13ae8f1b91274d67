import numpy as np
import pytest

from isomonodromy.connection import Connection, spectral_quadratic
from isomonodromy.ratfun import RatMat, RatScalar

FD_STEP = 1e-5


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_rational_one_form(rng, n_poles=3, max_order=2, min_sep=0.1, tail_deg=-1):
    """Random rational dz-coefficient with well-separated poles.

    Used as the shared generator for residue-theorem and oracle tests.
    """
    poles = []
    while len(poles) < n_poles:
        cand = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if all(abs(cand - p) >= min_sep for p in poles):
            poles.append(cand)
    f = RatScalar.zero()
    for p in poles:
        order = int(rng.integers(1, max_order + 1))
        for k in range(1, order + 1):
            c = complex(rng.standard_normal(), rng.standard_normal())
            f = f + RatScalar.simple_pole(p, c, k)
    if tail_deg >= 0:
        f = f + RatScalar(rng.standard_normal(tail_deg + 1)
                          + 1j * rng.standard_normal(tail_deg + 1))
    return f, poles


def random_matrix(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_invertible(rng, n, scale=1.0):
    while True:
        M = random_matrix(rng, n, scale) + 0.5 * np.eye(n)
        if abs(np.linalg.det(M)) > 0.1:
            return M


def random_fuchsian_matrices(rng, n, n_poles, zero_sum=True):
    """Residue matrices with entries uniform in the unit disk, sum zero.

    The zero-sum constraint (regularity at infinity) is imposed by
    projecting the independent draws onto the constraint plane, which keeps
    every entry near the unit disk.
    """
    mats = []
    for _ in range(n_poles):
        r = np.sqrt(rng.uniform(0, 1, (n, n)))
        phi = rng.uniform(0, 2 * np.pi, (n, n))
        mats.append(r * np.exp(1j * phi))
    if zero_sum:
        mean = sum(mats) / n_poles
        mats = [M - mean for M in mats]
    return mats


def fuchsian_connection(poles, mats):
    A = RatMat.zero(mats[0].shape[0])
    for p, M in zip(poles, mats):
        A = A + RatMat.from_polar_part(p, [M])
    return A


def rational_translation_hamiltonians(state):
    """``res_{t_i} tr(A^2)`` at every pole, from the rational quadratic
    differential of the state's own polar data.

    The oracle for ``translation_hamiltonian_values``: ``A`` is the
    connection the chart form and the flows see, which on a twisted state is
    not ``state.connection()`` (that one is pushed across the twist).
    """
    data = [(p.t, C) for p, C in zip(state.poles, state.polar)]
    q = spectral_quadratic(Connection.from_polar_parts(data, n=state.n))
    return [complex(q.laurent(p.t, 0).coefficient(-1)) for p in state.poles]


def numeric_differential(func, state, step=FD_STEP):
    """Central-difference differential of a scalar chart function.

    The oracle for the analytic differentials.  Everything in sight is
    holomorphic in the chart coordinates, so the derivative along the real
    direction of each complex coordinate is the complex derivative.
    """
    v0 = state.chart_vector()
    out = np.zeros_like(v0)
    for k in range(v0.shape[0]):
        vp = v0.copy()
        vp[k] += step
        vm = v0.copy()
        vm[k] -= step
        out[k] = (func(state.with_chart_vector(vp))
                  - func(state.with_chart_vector(vm))) / (2 * step)
    return out
