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

Every chart-layer function takes only the state: the per-group blocks,
polar coefficients and regular jets it needs are the state's own memoized
attributes (``FlowState.blocks``, ``polar``, ``regular_jets``), so one
right-hand side evaluation builds each of them once.  The chart layer works
group by group (``FlowState.groups``: the poles of one order, stacked): a
``PoleChartBlock`` holds one group's basis velocities with a leading group
axis, reads the group's frame jets (``PoleGroup.unipotent``, ``frame``) and
dresses its polar variations with ``PoleGroup.dressed_polar``; it derives
neither.  Each per-pole quantity is one batched kernel per group, and each
pole gets the bits a kernel of its own gives it.

The form pairs no two poles, so its Gram matrix is block-diagonal by pole
(``gram_matrix`` is the dense form, kept for comparison).  A group's blocks
are two batched matrix products over the stacked jet velocities of its
basis directions (``PoleChartBlock.omega`` is the term-by-term reference),
and the solve takes one batched LU solve per group without assembling the
dense matrix (``solve_chart``).  The rank guard's measure,
``chart_conditioning``, takes singular values only, and is global: it
compares the smallest over all blocks with the largest, exactly as an SVD
of the whole matrix would.  ``hamiltonian_vector_field`` guards its solve
with it; the flows read it once per accepted step instead, as a located
abort event.

**Hamiltonians** are read from the same memoized polar data: the values
``res_{t_i} tr(A^2)`` (``translation_hamiltonian_values``) and the
diagonal-jet pairing ``tr res(beta . B)`` at irregular poles
(``hamiltonian_beta_B``).  Their analytic differentials
(``d_translation_hamiltonian``, ``d_hamiltonian_beta_B``) are gradients of
one scalar over the chart basis, taken in reverse mode, so their cost does
not grow with the basis.  Each is a weight on the pole's Laurent jet:
twice the jet itself, read backwards, for ``res tr(A^2)``; for the pairing,
``beta`` taken back by the ``pullback`` of ``connection.diagonalize_jet``.
``polar_weights`` transposes the jet's dependence on the poles' polar
parts, the table ``connection.extension_weights`` that ``regular_jets``
contracts forward, and ``_jet_covector`` hands each group's weights to
``PoleChartBlock.covector``, which pulls them back through the dressing
and contracts them once with the basis velocities; neither builds a basis
direction's polar or jet variation.  The extended system's section rates
(``flows._section_rates``) take their jet weights back through
``polar_weights`` too.  This is the library's one derivative mode: the
forward references of ``tests/oracles.py`` agree with it to round-off, not
bit for bit.  A base direction's correction Hamiltonian combines them in
``flows.direction_differential``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connection import diagonalize_jet, extension_weights
from .errors import DegenerateChartError, MalformedInputError, PreconditionError
from .ratfun import LaurentJet, RatMat
from .states import chart_layout

TAU_RANK = 1e-8


# ---------------------------------------------------------------------------
# pairing layer
# ---------------------------------------------------------------------------

def _as_function_jet(a):
    """Polynomial coefficient array ``(K, n, n)`` -> exactly-known function
    jet at 0."""
    if isinstance(a, LaurentJet):
        return a
    a = np.asarray(a, dtype=complex)
    out = np.zeros((max(8, a.shape[0]),) + a.shape[1:], dtype=complex)
    out[: a.shape[0]] = a
    return LaurentJet(0.0, 0, out, 0)


def residue_pairing(a, b, T, frame="U1"):
    """Residue pairing of a twist variation against a connection variation.

    ``frame='U1'`` evaluates ``res tr(b T^-1 a)`` (twisted trivialization),
    ``frame='U0'`` evaluates ``res tr(b a)`` (ambient trivialization); both
    take germs at the site ``T`` (a ``TwistSite``), in the respective frames.
    """
    a = _as_function_jet(a)
    if not isinstance(b, LaurentJet) or b.form_degree != 1:
        raise MalformedInputError("b must be a 1-form jet at the site")
    if frame == "U0":
        return complex((b * a).trace().residue())
    if frame == "U1":
        # T^-1 through order -b.k_min - 1 meets b's lowest order at the
        # residue; a longer jet changes no bit of it
        Tinv = T.inverse_jet(abs(b.k_min))
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
# chart layer: basis blocks, one per pole group
# ---------------------------------------------------------------------------

class PoleChartBlock:
    """Symplectic data of the chart coordinates of one pole group (the
    state's poles of one order), stacked along the group axis.

    Basis order matches the chart slice: frame entries, off-diagonal jet
    entries order by order, then residue-momentum entries.  Every basis
    direction carries its left jet velocity ``eta = F^-1 dF`` (orders
    ``0 .. l-1``) and its dressed-residue variation: ``etas`` has shape
    ``(G, dim, l, n, n)`` and ``dlams``, the same for every pole, shape
    ``(dim, n, n)``, zero away from the residue-momentum directions.
    """

    def __init__(self, group):
        self.group = group
        G, n, l = len(group.index), group.n, group.l
        self.n, self.l = n, l
        U, V = group.unipotent
        F_inv = group.frame[1]
        self.lam = group.lam_jet     # row r <-> order -(r+1)
        # lam_hankel[:, m, :, k] = lam[:, m + k], zero past the top order:
        # the block Hankel matrix, shape (G, l n, l n) once reshaped
        self.lam_hankel = np.zeros((G, l, n, l, n), dtype=complex)
        # u_toeplitz[:, m, i] = U[:, m - i]
        u_toeplitz = np.zeros((G, l, l, n, n), dtype=complex)
        for m in range(l):
            self.lam_hankel[:, m, :, : l - m] = self.lam[:, m:].swapaxes(1, 2)
            u_toeplitz[:, m, : m + 1] = U[:, m::-1]
        n_frame, self.dim = chart_layout(l, n)
        self.etas = np.zeros((G, self.dim, l, n, n), dtype=complex)
        # frame direction E_ab: eta_m = sum_{i <= m} (F^-1)_i E_ab U_{m-i}
        self.etas[:, : n * n] = np.einsum(
            "gipa,gmibq->gabmpq", F_inv, u_toeplitz).reshape(G, n * n, l, n, n)
        if l > 2:
            # jet direction (k, a, b): eta_m = V_{m-k-1} E_ab for m > k,
            # with v_shifted[:, k, m] = V[:, m - k - 1]
            v_shifted = np.zeros((G, l - 2, l, n, n), dtype=complex)
            for k in range(l - 2):
                v_shifted[:, k, k + 1:] = V[:, : l - k - 1]
            eta_u = np.einsum("gkmpa,bq->gkabmpq", v_shifted, np.eye(n))
            self.etas[:, n * n: n_frame] = eta_u[
                :, :, ~np.eye(n, dtype=bool)].reshape(G, -1, l, n, n)
        self.dlams = np.zeros((self.dim, n, n), dtype=complex)
        self.dlams[n_frame:] = np.eye(n * n).reshape(n * n, n, n)

    def omega(self, x, y, g=0):
        """Chart form at the group's pole ``g`` between two ``(eta, dLam)``
        directions, term by term: the reference that ``gram_block`` is
        tested against."""
        eta_x, dl_x = x
        eta_y, dl_y = y
        acc = np.trace(eta_x[0] @ dl_y) - np.trace(eta_y[0] @ dl_x)
        for m in range(self.l):
            comm = np.zeros((self.n, self.n), dtype=complex)
            for i in range(m + 1):
                comm += eta_x[i] @ eta_y[m - i] - eta_y[i] @ eta_x[m - i]
            acc += np.trace(self.lam[g, m] @ comm)
        return 2.0 * acc

    @cached_property
    def gram_transposed(self):
        """The transposed ``gram_block()``, the matrices of the solve: the
        form is ``omega(X, Y) = X^T G Y`` on the basis, so ``omega(X, .) =
        dH`` reads ``G^T X = dH``."""
        return self.gram_block().transpose(0, 2, 1)

    def gram_block(self):
        """``omega`` on every pair of basis directions at every pole of the
        group, shape ``(G, dim, dim)``, as ``2 (A - A^T)`` with
        ``A[x, y] = tr(eta_x[0] dLam_y)
        + sum_{i + j < l} tr(Lambda_{i+j} eta_x[i] eta_y[j])``: the sum is
        the block Hankel matrix times the stacked velocities, times the
        transposed velocities, and the first term is ``eta_x[0][b, a]`` in
        the column of ``dLam_y = E_ab``, the last ``n^2``."""
        G, n, ln = len(self.etas), self.n, self.l * self.n
        lam_eta = self.lam_hankel.reshape(G, 1, ln, ln) \
            @ self.etas.reshape(G, self.dim, ln, n)
        E_t = self.etas.swapaxes(-1, -2).reshape(G, self.dim, -1)
        A = lam_eta.reshape(G, self.dim, -1) @ E_t.transpose(0, 2, 1)
        A[:, :, -n * n:] += E_t[:, :, : n * n]
        return 2.0 * (A - A.transpose(0, 2, 1))

    def polar_variation(self, v):
        """Connection polar-coefficient variations of chart tangents ``v``,
        one per pole of the group (shape ``(G, dim)``), via ``dP = [F
        (ad_eta Lambda + dLam) F^-1]_polar``: ``covector`` transposed.  ``v``
        is contracted with the basis velocities first, ``eta = sum_x v_x
        eta_x`` and ``dLam = sum_x v_x dLam_x``, so no direction's variation
        is built; shape ``(G, l, n, n)``, row ``k - 1`` holding ``dC_k``."""
        G, l, n = len(v), self.l, self.n
        eta = (v[:, None] @ self.etas.reshape(G, self.dim, -1)).reshape(
            G, l, n, n)
        # inner[:, k] = sum_m [eta_m, Lambda_{m+k}] + dLam, the order -(k+1)
        # term
        inner = (np.einsum("gmpr,gmrkq->gkpq", eta, self.lam_hankel)
                 - np.einsum("gmpkr,gmrq->gkpq", self.lam_hankel, eta))
        inner[:, 0] += (v @ self.dlams.reshape(self.dim, -1)).reshape(G, n, n)
        return self.group.dressed_polar(inner[:, None])[:, 0]

    def covector(self, W):
        """The covector ``x -> sum_k tr(W[:, k-1] dC_k)`` on the basis at
        every pole of the group, shape ``(G, dim)``, with ``dC`` the
        direction's ``polar_variation``, which it does not build.

        ``W`` (shape ``(G, l, n, n)``) is pulled back through the dressing
        once, ``Wt_r = sum_{i+j+r'=r} (F^-1)_j W_r' F_i``; the undressed
        variation is ``sum_m [eta_m, Lambda_{m+k}] + dLam`` at row ``k``,
        so the covector is ``sum_m tr(Z_m eta_x[m]) + tr(Wt_0 dLam_x)``
        with ``Z_m = sum_k [Lambda_{m+k}, Wt_k]``."""
        G, l = len(W), self.l
        F, F_inv = self.group.frame
        Wt = np.zeros_like(W)
        for i in range(l):
            for j in range(l - i):
                Wt[:, i + j:] += F_inv[:, j, None] @ W[:, : l - i - j] \
                    @ F[:, i, None]
        Z = (np.einsum("gmpkr,gkrq->gmpq", self.lam_hankel, Wt)
             - np.einsum("gkpr,gmrkq->gmpq", Wt, self.lam_hankel))
        return (self.etas.reshape(G, self.dim, -1)
                @ Z.swapaxes(-1, -2).reshape(G, -1, 1)
                + self.dlams.reshape(self.dim, -1)
                @ Wt[:, 0].swapaxes(-1, -2).reshape(G, -1, 1))[..., 0]


def chart_blocks(state):
    return [PoleChartBlock(g) for g in state.groups]


def gram_matrix(state):
    """Gram matrix of the chart symplectic form on the coordinate basis."""
    dim = state.chart_dim()
    G = np.zeros((dim, dim), dtype=complex)
    for grp, blk in zip(state.groups, state.blocks):
        for cols, block in zip(grp.cols, blk.gram_block()):
            G[np.ix_(cols, cols)] = block
    return G


def induced_polar_variations(vec, state):
    """Per-pole ``[dC_1 .. dC_l]`` connection-coefficient variations of the
    chart tangent ``vec`` (chart-vector layout), one ``polar_variation``
    per group."""
    vec = np.asarray(vec)
    out = [None] * len(state.poles)
    for grp, blk in zip(state.groups, state.blocks):
        for i, d in zip(grp.index, blk.polar_variation(vec[grp.cols])):
            out[i] = d
    return out


def chart_conditioning(state):
    """The rank guard's measure: the global ``sigma_min / sigma_max`` of the
    chart Gram matrix, from the singular values of its blocks, as an SVD
    of the whole matrix would give it.  The chart is degenerate where this
    is at most ``TAU_RANK``; an all-zero matrix gives 0.0, and a chart of
    dimension zero 1.0."""
    svals = [np.linalg.svd(b.gram_transposed, compute_uv=False)
             for b in state.blocks]
    if not svals:
        return 1.0
    s_max = max(S[:, 0].max() for S in svals)
    s_min = min(S[:, -1].min() for S in svals)
    return float(s_min / s_max) if s_max else 0.0


def solve_chart(dH, state):
    """``X`` with ``omega(X, .) = dH``, in the chart-vector layout: one
    batched LU solve of each group's Gram blocks, with no rank guard.  A
    block that is exactly singular (a zero pivot) raises
    ``DegenerateChartError``."""
    X = np.empty_like(dH)
    for grp, blk in zip(state.groups, state.blocks):
        try:
            X[grp.cols] = np.linalg.solve(
                blk.gram_transposed, dH[grp.cols][..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise DegenerateChartError(
                "chart Gram matrix is singular: a block is exactly "
                "singular") from None
    return X


def hamiltonian_vector_field(dH, state):
    """Solve ``omega(X, .) = dH`` on the chart and return ``X`` in the
    chart-vector layout; ``dH`` is the flat coefficient vector of the
    cotangent functional on the coordinate basis.

    The guard is for direct callers (the API and the ``hamiltonian``
    subcommand): a chart whose ``chart_conditioning`` is at most
    ``TAU_RANK`` raises ``DegenerateChartError``.  The flows solve with
    ``solve_chart`` alone and test the same measure once per accepted
    step.  A chart of dimension zero (no poles) has the empty field.
    """
    dH = np.asarray(dH, dtype=complex).ravel()
    if dH.shape[0] != state.chart_dim():
        raise MalformedInputError("dH length does not match the chart dimension")
    ratio = chart_conditioning(state)
    if ratio <= TAU_RANK:
        raise DegenerateChartError(
            f"chart Gram matrix is singular: sigma_min/sigma_max = "
            f"{ratio:.3e}")
    return solve_chart(dH, state)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def _irregular_pole(state, i, beta):
    """Pole ``i`` and ``beta`` as an array, checked for the pairing."""
    beta = np.asarray(beta, dtype=complex)
    p = state.pole(i)
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


def polar_weights(state, i, polar_weight, regular_weight, extra=0):
    """Weights on every pole's polar coefficients, group by group, of a
    function of pole ``i``'s Laurent jet given its weights on the jet:
    ``polar_weight[..., k-1]`` on the coefficient of ``(z - t_i)**-k``,
    ``regular_weight[..., m]`` on the order ``m`` coefficient, each pairing
    by the trace, with the same leading axes.

    This transposes the jet's dependence on the poles' polar parts: pole
    ``i``'s own polar rows, and on its regular rows the other poles' terms
    seen from ``t_i``, the table ``extension_weights`` transposed.  A
    group's weights have shape ``(G, ..., l + extra, n, n)``, row ``k - 1``
    weighting the coefficient of ``(z - t_j)**-k``; pole ``i``'s own rows
    past ``l_i`` are zero."""
    t_i = state.poles[i].t
    M = regular_weight.shape[-3]
    for grp in state.groups:
        own = [r for r, j in enumerate(grp.index) if j == i]
        dists = t_i - np.array(grp.t)
        dists[own] = 1.0       # finite powers; the row is overwritten below
        weight = np.einsum("gkm,...mpq->g...kpq",
                           extension_weights(dists, grp.l + extra, M),
                           regular_weight)
        for r in own:
            weight[r] = 0.0
            weight[r, ..., : polar_weight.shape[-3], :, :] = polar_weight
        yield weight


def _jet_covector(state, i, polar_weight, regular_weight):
    """The differential on the chart basis of a function of pole ``i``'s
    Laurent jet, given its weights on the jet (``polar_weights``): each
    group's weights pulled back by ``PoleChartBlock.covector``."""
    out = np.empty(state.chart_dim(), dtype=complex)
    for grp, blk, weight in zip(
            state.groups, state.blocks,
            polar_weights(state, i, polar_weight, regular_weight)):
        out[grp.cols] = blk.covector(weight)
    return out


def d_hamiltonian_beta_B(state, i, beta):
    """Analytic differential of ``hamiltonian_beta_B`` on the chart basis,
    in reverse mode: ``diagonalize_jet`` takes ``beta`` as the weight on
    ``B``'s diagonal and returns it as a weight on ``state.jet_at_pole(i)``,
    which ``_jet_covector`` takes to the chart basis.
    """
    p, beta = _irregular_pole(state, i, beta)
    weight = np.zeros((2 * p.l - 1, p.n), dtype=complex)
    weight[p.l:] = beta
    A_weight = diagonalize_jet(state.jet_at_pole(i),
                               2 * p.l - 2).pullback(weight)
    return _jet_covector(state, i, A_weight[p.l - 1::-1], A_weight[p.l:])


def translation_hamiltonian_values(state):
    """``res_{t_i} tr(A^2)`` for every pole, via the polar-jet fast path."""
    return [complex(sum(2.0 * np.trace(C @ R) for C, R in zip(Cs, Rs)))
            for Cs, Rs in zip(state.polar, state.regular_jets)]


def d_translation_hamiltonian(state, i):
    """Analytic differential of ``res_{t_i} tr(A^2)`` on the chart basis.

    ``dH(b) = 2 res_{t_i} tr(A b)``: the weight on the jet of ``b`` at
    ``t_i`` is twice the jet of ``A`` there, read backwards, the regular
    jet on the polar rows and the polar part on the regular ones
    (``_jet_covector``).
    """
    state.pole(i)  # the one index rule, before the jets are indexed
    return 2.0 * _jet_covector(state, i, state.regular_jets[i],
                               state.polar[i])
