import numpy as np
import pytest

from isomonodromy.errors import DegenerateChartError, MalformedInputError
from isomonodromy.ratfun import (
    LaurentJet,
    RatMat,
    RatScalar,
    residue_quadrature_oracle,
)
from isomonodromy.connection import spectral_quadratic
from isomonodromy.flows import Direction, direction_differential
from isomonodromy.states import FlowState, PoleData
from isomonodromy.symplectic import (
    PoleChartBlock,
    TangentVec,
    chart_blocks,
    d_hamiltonian_beta_B,
    d_translation_hamiltonian,
    gram_matrix,
    hamiltonian_beta_B,
    hamiltonian_vector_field,
    induced_polar_variations,
    residue_pairing,
    symplectic_form,
    translation_hamiltonian_values,
)
from isomonodromy.twist import MatrixDivisor, TwistSite, normal_form

from conftest import (
    numeric_differential,
    random_fuchsian_matrices,
    random_invertible,
    random_matrix,
    rational_translation_hamiltonians,
)


def fuchsian_state(ts, mats, twist=None):
    n = mats[0].shape[0]
    return FlowState(n, tuple(PoleData(t, 1, np.eye(n), M)
                              for t, M in zip(ts, mats)), twist)


def twisted_state(rng):
    """3-pole rank-2 Fuchsian state with one ``normal_form`` twist site."""
    site = normal_form(0.9j, (0.0, 1.1))
    return fuchsian_state([0.0, 1.5, -1.2], random_fuchsian_matrices(rng, 2, 3),
                          twist=MatrixDivisor((site,)))


def framed_irregular_state(rng):
    """Rank-2 state with poles of order 3, 2 and 1, a non-identity frame at
    every pole and a nonzero frame jet at the order-3 pole."""
    u = np.array([[[0.0, 0.2 + 0.1j], [-0.3j, 0.0]]])
    return FlowState(2, (
        PoleData(0.0, 3, np.eye(2) + 0.3 * random_matrix(rng, 2),
                 0.3 * random_matrix(rng, 2),
                 [[0.4, -0.5], [1.0, -0.7 + 0.2j]], u),
        PoleData(1.5, 2, np.eye(2) + 0.3 * random_matrix(rng, 2),
                 0.3 * random_matrix(rng, 2), [[0.8, -0.3j]]),
        PoleData(-1.1 + 0.4j, 1, np.eye(2) + 0.3 * random_matrix(rng, 2),
                 0.3 * random_matrix(rng, 2))))


BETAS = {0: np.array([[0.7, -0.2 + 0.3j], [0.3j, 0.5]]),
         1: np.array([[0.7, -0.2 + 0.3j]])}


def jet_poly(coeffs, pad=6):
    """Exact polynomial germ as a function jet (matrix-valued)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    K = max(pad, coeffs.shape[0])
    out = np.zeros((K,) + coeffs.shape[1:], dtype=complex)
    out[: coeffs.shape[0]] = coeffs
    return LaurentJet(0.0, 0, out, 0)


def jet_polar_form(coeff_list, n, pad=6):
    """1-form jet  sum_k C_k zeta^-k  with exact zero continuation."""
    l = len(coeff_list)
    out = np.zeros((l + pad, n, n), dtype=complex)
    for k, C in enumerate(coeff_list, start=1):
        out[l - k] = C
    return LaurentJet(0.0, -l, out, 1)


class TestResiduePairing:
    def test_scalar_ambient_frame(self):
        a = jet_poly(np.array([[[0.7 + 0.2j]]]))
        b = jet_polar_form([np.array([[1.3 - 0.4j]])], 1)
        val = residue_pairing(a, b, None, frame="U0")
        assert abs(val - (0.7 + 0.2j) * (1.3 - 0.4j)) < 1e-14

    def test_zero_variation(self):
        b = jet_polar_form([np.eye(2)], 2)
        site = normal_form(0.0, (0.0, 1.0))
        assert residue_pairing(np.zeros((1, 2, 2)), b, site, "U1") == 0.0

    def test_invariance_under_right_units(self, rng):
        # acceptance-style: <a,b> unchanged under T -> TF, a -> aF, b -> F^-1 b F
        for _ in range(25):
            site = normal_form(0.0, (0.0, complex(rng.standard_normal())))
            a = jet_poly(rng.standard_normal((2, 2, 2))
                         + 1j * rng.standard_normal((2, 2, 2)))
            b = jet_polar_form([random_matrix(rng, 2)], 2)
            F = random_invertible(rng, 2)
            Finv = np.linalg.inv(F)
            v1 = residue_pairing(a, b, site, "U1")
            aF = jet_poly(np.einsum("kij,jl->kil", a.coeffs, F))
            bF = LaurentJet(0.0, b.k_min,
                            np.einsum("ij,kjl,lm->kim", Finv, b.coeffs, F), 1)
            v2 = residue_pairing(aF, bF, site.right_multiply(F), "U1")
            assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))

    def test_frame_consistency(self, rng):
        # U0 data (a T^-1, T b T^-1) gives the same number as U1 data (a, b)
        for _ in range(10):
            site = normal_form(0.0, (0.0, 1.0 + 0.3j))
            a = jet_poly(rng.standard_normal((2, 2, 2))
                         + 1j * rng.standard_normal((2, 2, 2)), pad=8)
            b = jet_polar_form([random_matrix(rng, 2)], 2, pad=8)
            Tjet = jet_poly(site.germ, pad=8)
            Tinv = site.inverse_jet(8)
            a0 = a * Tinv
            b0 = Tjet * b * Tinv
            v1 = residue_pairing(a, b, site, "U1")
            v0 = residue_pairing(a0, b0, site, "U0")
            assert abs(v1 - v0) < 1e-10 * max(1.0, abs(v1))

    def test_unknown_frame_rejected(self):
        b = jet_polar_form([np.eye(1)], 1)
        with pytest.raises(MalformedInputError):
            residue_pairing(np.ones((1, 1, 1)), b, None, frame="U2")


class TestSymplecticForm:
    def make_tangents(self, rng, state):
        s1 = tuple(rng.standard_normal((p.l, 2, 2))
                   + 1j * rng.standard_normal((p.l, 2, 2))
                   for p in state.poles)
        b1 = RatMat.from_polar_part(state.poles[0].t, [random_matrix(rng, 2)]) \
            + RatMat.from_polar_part(state.poles[1].t, [random_matrix(rng, 2)])
        return TangentVec(s1, b1)

    def test_self_pairing_zero_and_swap(self, rng):
        state = fuchsian_state([0.0, 1.0], random_fuchsian_matrices(rng, 2, 2))
        X = self.make_tangents(rng, state)
        Y = self.make_tangents(rng, state)
        assert symplectic_form(X, X, state) == 0.0
        assert symplectic_form(X, Y, state) == -symplectic_form(Y, X, state)

    def test_residue_slot_example(self):
        # n=1, simple pole at 0: omega((0,s1,0),(0,0,b2)) = s1 * res(b2)
        state = FlowState(1, (PoleData(0.0, 1, np.eye(1), np.zeros((1, 1))),))
        s1 = (np.array([[[0.7 + 0.1j]]]),)
        b2 = RatMat.from_polar_part(0.0, [np.array([[2.0 - 1.0j]])])
        X1 = TangentVec(s1, RatMat.zero(1))
        X2 = TangentVec((np.zeros((1, 1, 1)),), b2)
        val = symplectic_form(X1, X2, state)
        assert abs(val - (0.7 + 0.1j) * (2.0 - 1.0j)) < 1e-14

    def test_twist_slot_pairs(self, rng):
        from isomonodromy.twist import MatrixDivisor
        site = normal_form(0.5j, (0.0, 1.0))
        state = fuchsian_state([0.0, 2.0], random_fuchsian_matrices(rng, 2, 2),
                               twist=MatrixDivisor((site,)))
        t1 = {0: rng.standard_normal((2, 2, 2))
              + 1j * rng.standard_normal((2, 2, 2))}
        b2 = RatMat.from_polar_part(0.0, [random_matrix(rng, 2)])
        X1 = TangentVec(tuple(np.zeros((1, 2, 2)) for _ in range(2)),
                        RatMat.zero(2), t1)
        X2 = TangentVec(tuple(np.zeros((1, 2, 2)) for _ in range(2)), b2)
        v = symplectic_form(X1, X2, state)
        assert v != 0.0
        assert abs(v + symplectic_form(X2, X1, state)) < 1e-14


class TestChart:
    def test_gram_antisymmetric_and_nondegenerate(self, rng):
        # acceptance-style non-degeneracy over random Fuchsian charts
        for _ in range(20):
            mats = random_fuchsian_matrices(rng, 2, 3)
            hs = [random_invertible(rng, 2) for _ in range(3)]
            state = FlowState(2, tuple(
                PoleData(t, 1, h, M) for t, h, M in
                zip([0.0, 1.3, -1.1 + 0.4j], hs, mats)))
            G = gram_matrix(state)
            assert np.max(np.abs(G + G.T)) < 1e-12
            S = np.linalg.svd(G, compute_uv=False)
            assert S[-1] > 1e-8 * S[0]

    def test_gram_nondegenerate_irregular(self, rng):
        lam_irr = np.array([[0.6, -0.7], [0.3, -0.2]], dtype=complex)
        state = FlowState(2, (
            PoleData(0.0, 3, random_invertible(rng, 2),
                     random_matrix(rng, 2), lam_irr,
                     u=[[[0.0, 0.2], [-0.1, 0.0]]]),
            PoleData(2.0, 1, np.eye(2), random_matrix(rng, 2))))
        G = gram_matrix(state)
        S = np.linalg.svd(G, compute_uv=False)
        assert S[-1] > 1e-8 * S[0]

    def test_closedness_cyclic_sum(self, rng):
        # three constant coordinate tangents, central differences h = 1e-5
        mats = random_fuchsian_matrices(rng, 2, 2)
        state = FlowState(2, tuple(
            PoleData(t, 1, random_invertible(rng, 2), M)
            for t, M in zip([0.0, 1.7], mats)))
        dim = state.chart_dim()
        vecs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                for _ in range(3)]
        h = 1e-5

        def omega_at(s, X, Y):
            return X @ gram_matrix(s) @ Y

        def deriv_along(Z, X, Y):
            v0 = state.chart_vector()
            sp = state.with_chart_vector(v0 + h * Z)
            sm = state.with_chart_vector(v0 - h * Z)
            return (omega_at(sp, X, Y) - omega_at(sm, X, Y)) / (2 * h)

        X, Y, Z = vecs
        cyc = deriv_along(X, Y, Z) + deriv_along(Y, Z, X) + deriv_along(Z, X, Y)
        scale = max(abs(omega_at(state, X, Y)), abs(omega_at(state, Y, Z)),
                    abs(omega_at(state, Z, X)), 1.0)
        assert abs(cyc) < 1e-4 * scale

    @staticmethod
    def chart_poles(rng):
        """Fuchsian poles with random frames at n = 2, 3, 4, and the order-3
        pole with a non-zero frame jet of
        ``test_gram_nondegenerate_irregular``."""
        poles = [PoleData(0.3, 1, random_invertible(rng, n),
                          random_matrix(rng, n)) for n in (2, 3, 4)]
        poles.append(PoleData(0.0, 3, random_invertible(rng, 2),
                              random_matrix(rng, 2),
                              np.array([[0.6, -0.7], [0.3, -0.2]]),
                              u=[[[0.0, 0.2], [-0.1, 0.0]]]))
        return poles

    def test_gram_block_matches_pairwise_omega(self, rng):
        for pole in self.chart_poles(rng):
            blk = PoleChartBlock(pole)
            G = blk.gram_block()
            want = np.array([[blk.omega((blk.etas[x], blk.dlams[x]),
                                        (blk.etas[y], blk.dlams[y]))
                              for y in range(blk.dim)]
                             for x in range(blk.dim)])
            assert np.max(np.abs(G - want)) < 1e-13 * np.max(np.abs(want))
            assert np.array_equal(G, -G.T)

    def test_induced_variations_match_polar_differences(self, rng):
        step = 1e-5
        for pole in self.chart_poles(rng):
            blk = PoleChartBlock(pole)
            got = blk.induced_variations()
            v0 = pole.chart_slice()
            for x in range(blk.dim):
                e = np.zeros_like(v0)
                e[x] = step
                plus = np.array(pole.with_chart_slice(v0 + e).polar_coeffs())
                minus = np.array(pole.with_chart_slice(v0 - e).polar_coeffs())
                fd = (plus - minus) / (2 * step)
                assert np.max(np.abs(got[x] - fd)) < 1e-7 * max(
                    1.0, np.max(np.abs(fd)))

    def test_block_solve_matches_dense_solve(self, rng):
        for pole in self.chart_poles(rng):
            other = PoleData(2.0, 1, random_invertible(rng, pole.n),
                             random_matrix(rng, pole.n))
            state = FlowState(pole.n, (pole, other))
            dH = rng.standard_normal(state.chart_dim()) \
                + 1j * rng.standard_normal(state.chart_dim())
            U, S, Vh = np.linalg.svd(gram_matrix(state).T)
            want = Vh.conj().T @ ((U.conj().T @ dH) / S)
            got = hamiltonian_vector_field(dH, state)
            assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))

    def test_rank_guard_is_global(self):
        # each block is well conditioned on its own (sigma ratio 1); the two
        # blocks' scales differ by 1e9, which the global guard refuses
        state = FlowState(1, (PoleData(0.0, 1, [[1.0]], [[0.3]]),
                              PoleData(1.0, 1, [[1e9]], [[-0.3]])))
        for blk in chart_blocks(state):
            S = np.linalg.svd(blk.gram_block(), compute_uv=False)
            assert S[-1] > (1 - 1e-12) * S[0]
        with pytest.raises(DegenerateChartError):
            hamiltonian_vector_field(np.ones(state.chart_dim()), state)

    def test_degenerate_chart_detected(self):
        state = FlowState(1, (PoleData(0.0, 1, np.eye(1), np.zeros((1, 1))),
                              PoleData(1.0, 1, np.eye(1), np.zeros((1, 1)))))
        # rank-1 charts are fine; force degeneracy with a singular frame
        bad = FlowState(2, (PoleData(0.0, 1, np.diag([1.0, 1e-12]),
                                     np.zeros((2, 2))),))
        with pytest.raises(DegenerateChartError):
            hamiltonian_vector_field(np.ones(bad.chart_dim()), bad)


class TestHamiltonians:
    def test_zero_state_gives_zero(self):
        state = fuchsian_state([0.0, 1.0], [np.zeros((2, 2)), np.zeros((2, 2))])
        assert translation_hamiltonian_values(state)[0] == 0.0

    def test_rank_one_two_pole_example(self):
        a, t1, t2 = 0.8 + 0.1j, 0.0, 1.5
        state = fuchsian_state([t1, t2], [np.array([[a]]), np.array([[-a]])])
        H = translation_hamiltonian_values(state)[0]
        assert abs(H - (-2 * a ** 2 / (t1 - t2))) < 1e-12

    def test_rank_two_fuchsian_value_and_oracle(self, rng):
        ts = [0.0, 1.5, -1.2]
        mats = random_fuchsian_matrices(rng, 2, 3)
        state = fuchsian_state(ts, mats)
        conn = state.connection()
        q = spectral_quadratic(conn)
        for i in range(3):
            H = rational_translation_hamiltonians(state)[i]
            want = 2 * sum(np.trace(mats[i] @ mats[j]) / (ts[i] - ts[j])
                           for j in range(3) if j != i)
            assert abs(H - want) < 1e-11 * max(1.0, abs(want))
            # independent quadrature oracle on the quadratic differential
            sep = min(abs(ts[i] - ts[j]) for j in range(3) if j != i)
            got = residue_quadrature_oracle(q, ts[i], sep / 2, 256)
            assert abs(H - got) < 1e-9 * max(1.0, abs(got))
        fast = translation_hamiltonian_values(state)
        for i in range(3):
            H = rational_translation_hamiltonians(state)[i]
            assert abs(fast[i] - H) < 1e-11 * max(1.0, abs(H))

    def test_twisted_value_matches_fast_path(self, rng):
        # the rational evaluation reads the state's own polar data, as the
        # fast path and the flows do, not the connection pushed by the twist
        state = twisted_state(rng)
        fast = translation_hamiltonian_values(state)
        for i in range(3):
            H = rational_translation_hamiltonians(state)[i]
            assert abs(fast[i] - H) < 1e-11 * max(1.0, abs(H))

    def test_beta_zero(self, rng):
        lam_irr = np.array([[0.5, -0.6]], dtype=complex)
        state = FlowState(2, (
            PoleData(0.0, 2, np.eye(2), random_matrix(rng, 2), lam_irr),
            PoleData(2.0, 1, np.eye(2), random_matrix(rng, 2))))
        assert hamiltonian_beta_B(state, 0, np.zeros((1, 2))) == 0.0

    def test_beta_rank_one_picks_regular_term(self):
        # n=1, l=2: H = beta_-1 * (regular value of A at the pole)
        b2, b1, a = 0.4 + 0.1j, -0.3j, 0.9
        t2 = 2.0
        state = FlowState(1, (
            PoleData(0.0, 2, np.eye(1), [[b1]], [[b2]]),
            PoleData(t2, 1, np.eye(1), [[a]])))
        H = hamiltonian_beta_B(state, 0, np.array([[1.0]]))
        want = a / (0.0 - t2)  # value at 0 of a/(z - t2)
        assert abs(H - want) < 1e-12

    def test_beta_diagonal_rank_two_componentwise(self):
        # leading entries already in the canonical (lexicographic) branch
        # order, so beta rows pair with the state components directly
        lam_irr = np.array([[-0.6, 0.5]], dtype=complex)
        res = np.diag([0.2, -0.1]).astype(complex)
        other = np.diag([0.3, 0.4]).astype(complex)
        state = FlowState(2, (PoleData(0.0, 2, np.eye(2), res, lam_irr),
                              PoleData(2.0, 1, np.eye(2), other)))
        bp, bpp = 1.3, -0.7
        H = hamiltonian_beta_B(state, 0, np.array([[bp, bpp]]))
        want = bp * (0.3 / -2.0) + bpp * (0.4 / -2.0)
        assert abs(H - want) < 1e-12

    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2,)])
    def test_beta_shape_must_match_pole(self, rng, shape):
        # at an order-2 rank-2 pole only (l-1, n) = (1, 2) pairs
        state = FlowState(2, (
            PoleData(0.0, 2, np.eye(2), random_matrix(rng, 2), [[-0.6, 0.5]]),
            PoleData(2.0, 1, np.eye(2), random_matrix(rng, 2))))
        with pytest.raises(MalformedInputError):
            hamiltonian_beta_B(state, 0, np.ones(shape))


    @pytest.mark.parametrize("i", [0, 1])
    def test_beta_differential_matches_finite_differences(self, rng, i):
        state = framed_irregular_state(rng)
        analytic = d_hamiltonian_beta_B(state, i, BETAS[i])
        fd = numeric_differential(
            lambda s: hamiltonian_beta_B(s, i, BETAS[i]), state)
        scale = max(1.0, float(np.max(np.abs(analytic))))
        assert np.max(np.abs(analytic - fd)) < 1e-8 * scale

    def test_beta_differential_finite_differences_converge(self, rng):
        # the central-difference error against the analytic differential
        # is the O(step^2) truncation: it falls about 100x per decade
        state = framed_irregular_state(rng)
        analytic = d_hamiltonian_beta_B(state, 1, BETAS[1])
        errs = [np.max(np.abs(analytic - numeric_differential(
                    lambda s: hamiltonian_beta_B(s, 1, BETAS[1]), state,
                    step)))
                for step in (1e-3, 1e-4)]
        assert 50 < errs[0] / errs[1] < 200

    @pytest.mark.parametrize("index", [-1, -3, 3])
    @pytest.mark.parametrize("name", ["d_translation_hamiltonian",
                                      "hamiltonian_beta_B",
                                      "d_hamiltonian_beta_B"])
    def test_pole_index_outside_state_rejected(self, rng, name, index):
        # a 3-pole state with its order-2 pole first: -1 and -3 would read
        # from the end, 3 names no pole
        state = FlowState(2, (
            PoleData(0.0, 2, np.eye(2), random_matrix(rng, 2), [[-0.6, 0.5]]),
            PoleData(2.0, 1, np.eye(2), random_matrix(rng, 2)),
            PoleData(-1.5, 1, np.eye(2), random_matrix(rng, 2))))
        call = {"d_translation_hamiltonian":
                lambda: d_translation_hamiltonian(state, index),
                "hamiltonian_beta_B":
                lambda: hamiltonian_beta_B(state, index, np.ones((1, 2))),
                "d_hamiltonian_beta_B":
                lambda: d_hamiltonian_beta_B(state, index, np.ones((1, 2)))}
        with pytest.raises(MalformedInputError, match="pole"):
            call[name]()


class TestHamiltonianField:
    def test_zero_differential_zero_field(self, rng):
        state = fuchsian_state([0.0, 1.0], random_fuchsian_matrices(rng, 2, 2))
        X = hamiltonian_vector_field(np.zeros(state.chart_dim()), state)
        assert np.max(np.abs(X)) == 0.0

    def test_schlesinger_commutators_emerge(self, rng):
        ts = [-1.5, -0.2, 0.9, 2.1]
        mats = random_fuchsian_matrices(rng, 2, 4)
        state = fuchsian_state(ts, mats)
        for i in range(4):
            dH = direction_differential(Direction.translation(i), state)
            X = hamiltonian_vector_field(dH, state)
            var = induced_polar_variations(X, state)
            for j in range(4):
                if j == i:
                    want = -sum((mats[i] @ mats[k] - mats[k] @ mats[i])
                                / (ts[i] - ts[k]) for k in range(4) if k != i)
                else:
                    want = (mats[i] @ mats[j] - mats[j] @ mats[i]) \
                        / (ts[i] - ts[j])
                assert np.max(np.abs(var[j][0] - want)) < 1e-8 * max(
                    1.0, np.max(np.abs(want)))

    def test_definition_check_random_duals(self, rng):
        # omega(X_H, Y) = dH(Y) for random Y, fresh basis
        ts = [0.0, 1.3, -0.9]
        state = fuchsian_state(ts, random_fuchsian_matrices(rng, 2, 3))
        dH = direction_differential(Direction.translation(1), state)
        X = hamiltonian_vector_field(dH, state)
        G = gram_matrix(state)
        scale = max(1.0, float(np.max(np.abs(dH))))
        for _ in range(20):
            Y = rng.standard_normal(state.chart_dim()) \
                + 1j * rng.standard_normal(state.chart_dim())
            lhs = X @ G @ Y
            rhs = dH @ Y
            assert abs(lhs - rhs) < 1e-9 * scale * max(1.0, np.max(np.abs(Y)))

    def test_fd_matches_analytic_differential(self, rng):
        ts = [0.0, 1.5, -1.2]
        plain = fuchsian_state(ts, random_fuchsian_matrices(rng, 2, 3))
        for state in (plain, twisted_state(rng)):
            analytic = direction_differential(Direction.translation(2), state)
            fd = numeric_differential(
                lambda s: rational_translation_hamiltonians(s)[2], state)
            err = np.max(np.abs(analytic - fd))
            assert err < 1e-6 * max(1.0, np.max(np.abs(analytic)))

    def test_diagonal_connection_is_fixed_point(self):
        # commuting diagonal residues: the correction does not move the
        # connection coefficients
        mats = [np.diag([0.4, -0.3]).astype(complex),
                np.diag([-0.2, 0.5]).astype(complex),
                np.diag([-0.2, -0.2]).astype(complex)]
        state = fuchsian_state([0.0, 1.0, -1.3], mats)
        dH = direction_differential(Direction.translation(0), state)
        X = hamiltonian_vector_field(dH, state)
        var = induced_polar_variations(X, state)
        for v in var:
            assert np.max(np.abs(v[0])) < 1e-12
