"""Residue pairing, symplectic form, spectral Hamiltonians, Hamiltonian fields.

Two layers live here.

**Pairing layer** (pure formula evaluation on germs): the residue pairing of
twist variations against connection variations in either trivialization, and
the antisymmetric form

``omega((t1,s1,b1),(t2,s2,b2)) = <t1,b2> - <t2,b1> + res_D tr(s1 b2 - s2 b1)``

on tangent triples.

**Chart layer** (what the flows invert): at each pole the state carries the
frame jet and dressed polar jet of states.py, and the symplectic form in
these coordinates is the scaled cotangent-group form

``omega = 2 sum_i res_i tr( eta1 dLam2 - eta2 dLam1 + Lambda [eta1, eta2] )``

with ``eta = F^-1 dF`` the left jet velocity of the frame ``F = h (I + u)``.
The overall factor two matches the residue-pairing normalization above, so
that the Hamiltonian ``res tr(A^2)`` generates the classical commutator flow
on residues.  Hamiltonian vector fields are obtained by solving
``omega(X, .) = dH`` on the coordinate basis; the field is a plain vector in
the chart-vector layout.

The chart form is the normative one: it is the form that flows and
Hamiltonian fields invert.  The library provides no map from chart tangents
to tangent triples.  The obvious lift (``s`` the frame velocity ``eta``,
``b`` the induced polar variation) does not reproduce the triple form:
their ratio varies from one pair of tangents to the next.

Every chart-layer function takes only the state: the per-pole blocks,
polar coefficients and regular jets it needs are the state's own memoized
attributes (``FlowState.blocks``, ``polar``, ``regular_jets``), so one
right-hand side evaluation builds each of them once.

The form pairs no two poles, so its Gram matrix is block-diagonal by pole
(``gram_matrix`` is the dense form, kept for comparison).  Each block is
assembled with ``einsum`` over the stacked jet velocities of its basis
directions (``PoleChartBlock.omega`` is the term-by-term reference), and the
solve takes each block's own SVD without assembling the dense matrix.  The
rank guard is global: it compares the smallest singular value over all
blocks with the largest, exactly as an SVD of the whole matrix would.

**Hamiltonians** are read from the same memoized polar data: the values
``res_{t_i} tr(A^2)`` (``translation_hamiltonian_values``) and their
analytic differentials (``d_translation_hamiltonian``), and the
diagonal-jet pairing ``tr res(beta . B)`` at irregular poles
(``hamiltonian_beta_B``) with its analytic differential
(``d_hamiltonian_beta_B``).  That differential is one tangent pass: the
chart basis directions' variations of the pole's Laurent jet
(``pole_jet_variation``) ride through ``connection.diagonalize_jet``
together with the jet itself.  A base direction's correction Hamiltonian
combines them in ``flows.direction_differential``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import diagonalize_jet, extension_jet
from .errors import DegenerateChartError, MalformedInputError, PreconditionError
from .ratfun import LaurentJet, RatMat

TAU_RANK = 1e-8


# ---------------------------------------------------------------------------
# pairing layer
# ---------------------------------------------------------------------------

def _as_function_jet(a):
    """Polynomial coefficient array -> exactly-known function jet at 0."""
    if isinstance(a, LaurentJet):
        return a
    a = np.asarray(a, dtype=complex)
    if a.ndim == 2:
        a = a[None]
    out = np.zeros((max(8, a.shape[0]),) + a.shape[1:], dtype=complex)
    out[: a.shape[0]] = a
    return LaurentJet(0.0, 0, out, 0)


def residue_pairing(a, b, T, frame="U1"):
    """Residue pairing of a twist variation against a connection variation.

    ``frame='U1'`` evaluates ``res tr(b T^-1 a)`` (twisted trivialization),
    ``frame='U0'`` evaluates ``res tr(b a)`` (ambient trivialization); both
    take germs at the site, in the respective frames.
    """
    a = _as_function_jet(a)
    if not isinstance(b, LaurentJet) or b.form_degree != 1:
        raise MalformedInputError("b must be a 1-form jet at the site")
    if frame == "U0":
        return complex((b * a).trace().residue())
    if frame == "U1":
        from .twist import TwistSite
        if isinstance(T, TwistSite):
            germ = T.germ
        else:
            germ = np.asarray(T, dtype=complex)
        from .ratfun import polymat_inverse_jet
        mu = germ.shape[0] * germ.shape[1]  # safe overestimate of det order
        Tinv = polymat_inverse_jet(germ, k_max=b.k_max + mu + 2)
        return complex((b * Tinv * a).trace().residue())
    raise MalformedInputError(f"unknown frame {frame!r}; use 'U0' or 'U1'")


@dataclass(frozen=True)
class TangentVec:
    """Tangent triple: twist variations, trivialization variations, and a
    global connection variation.

    ``t``: mapping site index -> function jet (variation of the site germ),
    ``s``: one coefficient array of shape ``(l_i, n, n)`` per pole (ascending
    jet orders ``0 .. l_i - 1``), ``b``: rational matrix 1-form with poles
    bounded by the divisor (plus twist sites when present).
    """

    s: tuple
    b: RatMat
    t: dict | None = None


def symplectic_form(X1, X2, state):
    """``<t1,b2> - <t2,b1> + res_D tr(s1 b2 - s2 b1)`` at the given state."""
    poles = [(p.t, p.l) for p in state.poles]
    if len(X1.s) != len(poles) or len(X2.s) != len(poles):
        raise PreconditionError("tangent s-data does not match the divisor")
    # accumulate the two halves separately so the swap is exactly a negation
    pos = 0.0 + 0j
    neg = 0.0 + 0j

    for (tpt, l), s1, s2 in zip(poles, X1.s, X2.s):
        b2 = X2.b.laurent(tpt, l - 1)
        b1 = X1.b.laurent(tpt, l - 1)
        for k in range(l):
            pos += np.trace(np.asarray(s1)[k] @ b2.coefficient(-1 - k))
            neg += np.trace(np.asarray(s2)[k] @ b1.coefficient(-1 - k))

    sites = state.twist.sites if state.twist is not None else ()
    for idx, site in enumerate(sites):
        t1 = (X1.t or {}).get(idx)
        t2 = (X2.t or {}).get(idx)
        if t1 is not None:
            pos += _twist_pairing(t1, X2.b, site)
        if t2 is not None:
            neg += _twist_pairing(t2, X1.b, site)
    return complex(pos - neg)


def _twist_pairing(t_germ, b, site):
    """``<t, b>`` with ``t`` a variation of the site germ and ``b`` global.

    In the ambient frame this is ``res tr(T^-1 b t)`` at the site.
    """
    t_jet = _as_function_jet(t_germ)
    mu = site.vanishing_order()
    k_hi = mu + 2
    Tinv = site.inverse_jet(k_hi)
    bjet = b.laurent(site.point, k_hi)
    bjet = LaurentJet(0.0, bjet.k_min, bjet.coeffs, 1)  # germ in site coords
    return complex((Tinv * bjet * t_jet).trace().residue())


# ---------------------------------------------------------------------------
# chart layer: per-pole basis blocks
# ---------------------------------------------------------------------------

class PoleChartBlock:
    """Symplectic data of one pole's chart coordinates.

    Basis order matches the chart slice: frame entries, off-diagonal jet
    entries order by order, then residue-momentum entries.  Every basis
    direction carries its left jet velocity ``eta = F^-1 dF`` (orders
    ``0 .. l-1``) and its dressed-residue variation: ``etas`` has shape
    ``(dim, l, n, n)`` and ``dlams`` shape ``(dim, n, n)``, zero away from
    the residue-momentum directions.
    """

    def __init__(self, pole):
        self.pole = pole
        n, l = pole.n, pole.l
        self.n, self.l = n, l
        U = pole.unipotent_jet()
        V = pole.unipotent_inverse_jet()
        self.lam = pole.lam_jet()     # row r <-> order -(r+1)
        # jets of the frame F = h U and of its inverse F^-1 = V h^-1
        self.hU = pole.h @ U
        self.V_hinv = V @ pole.h_inv()
        # lam_hankel[m, k] = lam[m + k], zero past the top order
        self.lam_hankel = np.zeros((l, l, n, n), dtype=complex)
        # u_toeplitz[m, i] = U[m - i] and v_shifted[k, m] = V[m - k - 1]
        u_toeplitz = np.zeros((l, l, n, n), dtype=complex)
        v_shifted = np.zeros((max(l - 2, 0), l, n, n), dtype=complex)
        for m in range(l):
            self.lam_hankel[m, : l - m] = self.lam[m:]
            u_toeplitz[m, : m + 1] = U[m::-1]
        for k in range(l - 2):
            v_shifted[k, k + 1:] = V[: l - k - 1]

        # frame direction E_ab: eta_m = sum_{i <= m} V_i h^-1 E_ab U_{m-i}
        eta_h = np.einsum("ipa,mibq->abmpq", self.V_hinv, u_toeplitz)
        # jet direction (k, a, b): eta_m = V_{m-k-1} E_ab for m > k
        eta_u = np.einsum("kmpa,bq->kabmpq", v_shifted, np.eye(n))
        eta_u = eta_u[:, ~np.eye(n, dtype=bool)]
        n_frame = n * n + eta_u.shape[0] * eta_u.shape[1]
        self.dim = n_frame + n * n
        self.etas = np.zeros((self.dim, l, n, n), dtype=complex)
        self.etas[: n * n] = eta_h.reshape(n * n, l, n, n)
        self.etas[n * n: n_frame] = eta_u.reshape(-1, l, n, n)
        self.dlams = np.zeros((self.dim, n, n), dtype=complex)
        self.dlams[n_frame:] = np.eye(n * n).reshape(n * n, n, n)

    def omega(self, x, y):
        """Chart form between two ``(eta, dLam)`` directions, term by term:
        the reference that ``gram_block`` is tested against."""
        eta_x, dl_x = x
        eta_y, dl_y = y
        acc = np.trace(eta_x[0] @ dl_y) - np.trace(eta_y[0] @ dl_x)
        for m in range(self.l):
            comm = np.zeros((self.n, self.n), dtype=complex)
            for i in range(m + 1):
                comm += eta_x[i] @ eta_y[m - i] - eta_y[i] @ eta_x[m - i]
            acc += np.trace(self.lam[m] @ comm)
        return 2.0 * acc

    def gram_block(self):
        """``omega`` on every pair of basis directions, as ``2 (A - A^T)``
        with ``A[x, y] = tr(eta_x[0] dLam_y)
        + sum_{i + j < l} tr(Lambda_{i+j} eta_x[i] eta_y[j])``."""
        E = self.etas
        lam_eta = np.einsum("ijpr,xirq->xjpq", self.lam_hankel, E)
        A = (np.einsum("xjpq,yjqp->xy", lam_eta, E)
             + np.einsum("xpq,yqp->xy", E[:, 0], self.dlams))
        return 2.0 * (A - A.T)

    def induced_variations(self):
        """Connection polar-coefficient variations of every basis direction,
        via ``dP = [F (ad_eta Lambda + dLam) F^-1]_polar``; shape
        ``(dim, l, n, n)``, row ``k - 1`` holding ``dC_k``."""
        E, H = self.etas, self.lam_hankel
        # inner[:, k] is the order -(k+1) term of [eta, Lambda] + dLam
        inner = (np.einsum("xmpr,mkrq->xkpq", E, H)
                 - np.einsum("mkpr,xmrq->xkpq", H, E))
        inner[:, 0] += self.dlams
        return self.dressed_polar(inner)

    def dressed_polar(self, inner):
        """Polar part of ``F inner F^-1`` for stacked dressed polar jets
        ``inner`` of shape ``(x, l, n, n)``, row ``r`` the order ``-(r+1)``
        term: connection polar-coefficient variations, row ``k - 1``
        holding ``dC_k``."""
        l = self.l
        # (h U)_i inner_r (V h^-1)_j sits at order i + j - (r + 1)
        out = np.zeros_like(inner)
        for i in range(l):
            for j in range(l - i):
                out[:, : l - i - j] += (self.hU[i] @ inner[:, i + j:]
                                        @ self.V_hinv[j])
        return out


def chart_blocks(state):
    return [PoleChartBlock(p) for p in state.poles]


def gram_matrix(state):
    """Gram matrix of the chart symplectic form on the coordinate basis."""
    dim = sum(b.dim for b in state.blocks)
    G = np.zeros((dim, dim), dtype=complex)
    at = 0
    for b in state.blocks:
        G[at: at + b.dim, at: at + b.dim] = b.gram_block()
        at += b.dim
    return G


def induced_polar_variations(vec, state):
    """Per-pole ``[dC_1 .. dC_l]`` connection-coefficient variations of the
    chart tangent ``vec`` (chart-vector layout)."""
    out = []
    at = 0
    for blk in state.blocks:
        out.append(np.einsum("x,xkpq->kpq", vec[at: at + blk.dim],
                             blk.induced_variations()))
        at += blk.dim
    return out


def hamiltonian_vector_field(dH, state):
    """Solve ``omega(X, .) = dH`` on the chart and return ``X`` in the
    chart-vector layout; ``dH`` is the flat coefficient vector of the
    cotangent functional on the coordinate basis.

    The form pairs no two poles, so the solve runs pole block by pole block,
    one SVD of each ``gram_block``, under the global rank guard.
    """
    dH = np.asarray(dH, dtype=complex).ravel()
    cuts = np.cumsum([0] + [b.dim for b in state.blocks])
    if dH.shape[0] != cuts[-1]:
        raise MalformedInputError("dH length does not match the chart dimension")
    # omega(X, Y) = X^T G Y on the basis, so omega(X, .) = dH reads G^T X = dH
    svds = [np.linalg.svd(b.gram_block().T) for b in state.blocks]
    s_max = max(S[0] for _, S, _ in svds)
    s_min = min(S[-1] for _, S, _ in svds)
    if s_max == 0.0 or s_min <= TAU_RANK * s_max:
        raise DegenerateChartError(
            f"chart Gram matrix is singular: sigma_min/sigma_max = "
            f"{s_min / max(s_max, 1e-300):.3e}")
    return np.concatenate([Vh.conj().T @ ((U.conj().T @ dH[a:b]) / S)
                           for a, b, (U, S, Vh) in zip(cuts, cuts[1:], svds)])


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def _pole(state, i):
    """Pole ``i`` of the state, checked: negative indices are rejected
    rather than read from the end."""
    m = len(state.poles)
    if not 0 <= i < m:
        raise MalformedInputError(
            f"pole index {i}; the state has poles 0..{m - 1}")
    return state.poles[i]


def _irregular_pole(state, i, beta):
    """Pole ``i`` and ``beta`` as an array, checked for the pairing."""
    beta = np.asarray(beta, dtype=complex)
    p = _pole(state, i)
    if p.l < 2:
        raise PreconditionError("irregular Hamiltonians need a pole of order >= 2")
    if beta.shape != (p.l - 1, p.n):
        raise MalformedInputError(
            f"beta shape {beta.shape} does not match pole of order "
            f"{p.l} and rank {p.n}; expected {(p.l - 1, p.n)}")
    return p, beta


def hamiltonian_beta_B(state, i, beta):
    """``tr res_p (beta . B)`` at pole ``i``, with ``B`` the diagonal jet of A
    there and ``beta = sum_j beta_{-j} zeta**-j`` a diagonal truncated tail.

    ``beta`` has shape ``(l-1, n)``: row ``j`` holds the diagonal of the
    order ``-(j+1)`` term.  Torus components follow the canonical branch
    order of the diagonal jet (lexicographic in the leading eigenvalues), so
    ``beta`` rows pair with the matching eigenvalue branches.
    """
    p, beta = _irregular_pole(state, i, beta)
    bd = state.diagonal_jet(i)  # rows are orders -l .. l-2
    acc = 0.0 + 0j
    for k in range(p.l - 1):
        # beta row k is the order -(k+1) term; it pairs with B order k
        acc += np.sum(beta[k] * bd[k + p.l])
    return complex(acc)


def _extension_weights(dist, L, m_max):
    """``extension_jet(1, k, dist, m_max)`` for ``k = 1 .. L``, stacked."""
    return np.stack([extension_jet(1.0, k, dist, m_max)
                     for k in range(1, L + 1)])


def pole_jet_variation(state, i, j, dC, m_max):
    """Variation of pole ``i``'s Laurent jet, orders ``-l_i .. m_max``, under
    stacked variations ``dC`` of pole ``j``'s polar part.

    ``dC`` has shape ``(x, L, n, n)``, row ``k - 1`` varying the coefficient
    of ``(z - t_j)**-k``.  Pole ``i``'s own variations are the jet's polar
    rows (``L <= l_i``); another pole's enter its regular rows as
    ``extension_jet`` sees them from ``t_i``.
    """
    p = state.poles[i]
    out = np.zeros((dC.shape[0], p.l + m_max + 1, state.n, state.n),
                   dtype=complex)
    if j == i:
        out[:, p.l - dC.shape[1]: p.l] = dC[:, ::-1]
    else:
        ext = _extension_weights(p.t - state.poles[j].t, dC.shape[1], m_max)
        out[:, p.l:] = np.einsum("km,xkpq->xmpq", ext, dC)
    return out


def d_hamiltonian_beta_B(state, i, beta):
    """Analytic differential of ``hamiltonian_beta_B`` on the chart basis.

    One tangent pass: the variations of ``state.jet_at_pole(i)`` along every
    chart basis direction ride through ``diagonalize_jet`` with the jet, and
    the resulting ``dB`` pairs with ``beta`` as ``B`` does.
    """
    p, beta = _irregular_pole(state, i, beta)
    dA = np.concatenate([
        pole_jet_variation(state, i, j, blk.induced_variations(), p.l - 2)
        for j, blk in enumerate(state.blocks)])
    dB = diagonalize_jet(state.jet_at_pole(i), 2 * p.l - 2, dA=dA).dB
    return np.einsum("kc,xkc->x", beta, dB[:, p.l:])


def translation_hamiltonian_values(state):
    """``res_{t_i} tr(A^2)`` for every pole, via the polar-jet fast path."""
    polar, regular = state.polar, state.regular_jets
    vals = []
    for i, p in enumerate(state.poles):
        acc = 0.0 + 0j
        for k in range(1, p.l + 1):
            acc += 2.0 * np.trace(polar[i][k - 1] @ regular[i][k - 1])
        vals.append(complex(acc))
    return vals


def d_translation_hamiltonian(state, i):
    """Analytic differential of ``res_{t_i} tr(A^2)`` on the chart basis.

    Uses ``dH(b) = 2 res_{t_i} tr(A b)`` with ``b`` the connection variation
    induced by each coordinate direction.
    """
    p_i = _pole(state, i)
    polar_i = np.asarray(state.polar[i])

    out = np.zeros(state.chart_dim(), dtype=complex)
    at = 0
    for j, blk in enumerate(state.blocks):
        # 2 res_{t_i} tr(A . b) for b = sum_k dC_k (z-t_j)^-k is
        # 2 sum_k tr(weight[k-1] dC_k)
        if j == i:
            weight = state.regular_jets[i]
        else:
            ext = _extension_weights(p_i.t - state.poles[j].t, blk.l,
                                     p_i.l - 1)
            weight = np.einsum("km,mpq->kpq", ext, polar_i)
        out[at: at + blk.dim] = 2.0 * np.einsum(
            "kpq,xkqp->x", weight, blk.induced_variations())
        at += blk.dim
    return out
