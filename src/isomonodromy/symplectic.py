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

Every chart-layer function takes only the state, and reads its chart data
from one place: the state's ``plan`` (``ChartPlan``, the chart layer
compiled for its layout) and the plan's ``stage`` of the state's flat
vector, both memoized on the state (``FlowState.plan``, ``stage``).  The
chart layer works group by group (``ChartPlan.groups``: the poles of one
order, stacked).  Each per-pole quantity is one batched kernel per group,
which the plan runs: the frame jets (``unipotent``, ``frames``), the
dressed polar jets (``lam_jet``, ``dress``), the regular jets
(``regular_jets``), the block Hankel matrix ``_hankel``, the velocities
``_etas`` with ``_toeplitz``, ``_gram``, ``_covector`` and its transpose
``_polar_variation``, and ``_pole_weights`` for one group's
``ChartPlan.weights``; each pole gets the bits of a kernel of its own.
Outside the plan, ``induced_polar_variations`` runs ``_polar_variation`` on
the state's stage, and it and the flow's section rates dress their
variations with ``dress``.  A stage builds its polar half (frames, frame
jets, polar coefficients) at once and its chart half (Hankel matrices,
velocities, Gram blocks) when it is first read, so a state's
``connection()`` assembles no Gram block; the flow's right-hand side, which
reads every part, builds its stages whole.  ``solve_chart`` and
``chart_conditioning`` read only ``gram_blocks``, which a state and a stage
both hold.

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
not grow with the basis.  Each is a weight on the pole's Laurent jet: twice
the jet itself, read backwards, for ``res tr(A^2)``; for the pairing,
``beta`` taken back by the ``pullback`` of ``connection.diagonalize_jet``.
``ChartPlan.weights`` transposes the jet's dependence on the poles' polar
parts, the one table ``connection.extension_weights``, which
``regular_jets`` contracts forward, and ``ChartPlan.jet_covector`` hands
each group's weights to ``_covector``, which pulls them back through the
dressing and contracts them once with the basis velocities; neither builds
a basis direction's polar or jet variation.  Both differentials run on the
state's stage; the flow's right-hand side (``flows.RhsPlan``) extends the
state's plan, and the extended system's section rates take their jet
weights back through ``ChartPlan.weights`` too, the b slots' from
``_pairing_weights`` of a stack of unit ``beta``.  This is the library's
one derivative mode: the forward references of ``tests/oracles.py`` agree
with it to round-off, not bit for bit.  A base direction's correction
Hamiltonian combines them in ``flows.direction_differential``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connection import diagonalize_jet, extension_weights
from .errors import DegenerateChartError, MalformedInputError, PreconditionError
from .ratfun import LaurentJet, RatMat
from .states import _frame_inverses

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
# chart layer: stacked kernels, each the one formula of its quantity, on
# arrays with a leading group axis; ``ChartPlan`` runs them
# ---------------------------------------------------------------------------

def chart_layout(l, n):
    """Where a pole's residue entries start in its chart slice, and the
    slice's size, at order ``l`` and rank ``n``."""
    at = n * n + max(l - 2, 0) * (n * n - n)
    return at, at + n * n


def unipotent(u, l):
    """Coefficients of ``I + u(zeta)`` and of its inverse through order
    l-1, for stacked off-diagonal jets ``u`` of shape (G, l-2, n, n) (the
    top order of ``u`` is zero); each of shape (G, l, n, n)."""
    n = u.shape[-1]
    U = np.zeros((len(u), l, n, n), dtype=complex)
    U[:, 0] = np.eye(n)
    U[:, 1: l - 1] = u
    V = np.zeros_like(U)
    V[:, 0] = np.eye(n)
    for m in range(1, l):
        V[:, m] = -sum(U[:, j] @ V[:, m - j] for j in range(1, m + 1))
    return U, V


def frames(h, h_inv, U, V):
    """The frame jets ``F = h (I + u)`` and ``F^-1 = (I + u)^-1 h^-1``."""
    return h[:, None] @ U, V @ h_inv[:, None]


def lam_jet(lam_res, lam_irr, l):
    """Dressed polar jets, row k <-> order -(k+1), shape (G, l, n, n)."""
    n = lam_res.shape[-1]
    out = np.zeros((len(lam_res), l, n, n), dtype=complex)
    out[:, 0] = lam_res
    if l > 1:
        diag = np.arange(n)
        out[:, 1:, diag, diag] = lam_irr
    return out


def dress(F, F_inv, inner):
    """Polar part of ``F inner F^-1`` for stacked dressed polar jets
    ``inner`` of shape ``(G, x, l, n, n)``, row ``r`` the order ``-(r+1)``
    term; row ``k - 1`` of the result holds the coefficient of
    ``(z-t)**-k``."""
    l = F.shape[1]
    # F_i inner_r (F^-1)_j sits at order i + j - (r + 1)
    out = np.zeros(inner.shape, dtype=complex)
    for i in range(l):
        for j in range(l - i):
            out[:, :, : l - i - j] += (F[:, i, None, None]
                                       @ inner[:, :, i + j:]
                                       @ F_inv[:, j, None, None])
    return out


def regular_jets(ts, C):
    """Taylor coefficients at every pole of the other poles' polar parts:
    ``extension_weights`` at every pair of the positions ``ts``, a pole's
    own pair masked out, contracted in one product with the polar
    coefficients ``C`` padded to the longest order, shape ``(K, L, n, n)``."""
    K, L, n = C.shape[0], C.shape[1], C.shape[-1]
    # own pairs: a unit distance keeps the powers finite, then zeroed
    dists = ts[:, None] - ts
    dists.reshape(-1)[:: K + 1] = 1.0
    w = extension_weights(dists, L, L)
    w.reshape(K * K, L, L)[:: K + 1] = 0.0
    return (w.transpose(0, 3, 1, 2).reshape(K * L, K * L)
            @ C.reshape(K * L, n * n)).reshape(K, L, n, n)


def _hankel(lam):
    """``lam_hankel[:, m, :, k] = lam[:, m + k]``, zero past the top order:
    the block Hankel matrix of the dressed polar jets ``lam``, shape
    ``(G, l n, l n)`` once reshaped."""
    G, l, n = lam.shape[:3]
    out = np.zeros((G, l, n, l, n), dtype=complex)
    for m in range(l):
        out[:, m, :, : l - m] = lam[:, m:].swapaxes(1, 2)
    return out


def _toeplitz(U):
    """``u_toeplitz[:, m, i] = U[:, m - i]`` for the jets ``U`` of ``I +
    u``, zero for ``i > m``."""
    G, l, n = U.shape[:3]
    out = np.zeros((G, l, l, n, n), dtype=complex)
    for m in range(l):
        out[:, m, : m + 1] = U[:, m::-1]
    return out


def _etas(F_inv, V, u_toeplitz):
    """The basis directions' left jet velocities ``eta = F^-1 dF``, shape
    ``(G, dim, l, n, n)``, from the jets of ``F^-1`` and of ``(I + u)^-1``
    and the Toeplitz stack of ``I + u``.  Basis order matches the chart
    slice: frame entries, off-diagonal jet entries order by order, then
    residue-momentum entries (whose velocity is zero)."""
    G, l, n = F_inv.shape[:3]
    n_frame, dim = chart_layout(l, n)
    etas = np.zeros((G, dim, l, n, n), dtype=complex)
    # frame direction E_ab: eta_m = sum_{i <= m} (F^-1)_i E_ab U_{m-i}
    etas[:, : n * n] = np.einsum(
        "gipa,gmibq->gabmpq", F_inv, u_toeplitz).reshape(G, n * n, l, n, n)
    if l > 2:
        # jet direction (k, a, b): eta_m = V_{m-k-1} E_ab for m > k, from
        # the Toeplitz stack's column k + 1, V[:, m - k - 1]
        v_shifted = _toeplitz(V)[:, :, 1: l - 1].swapaxes(1, 2)
        eta_u = np.einsum("gkmpa,bq->gkabmpq", v_shifted, np.eye(n))
        etas[:, n * n: n_frame] = eta_u[
            :, :, ~np.eye(n, dtype=bool)].reshape(G, -1, l, n, n)
    return etas


def _gram(etas, lam_hankel):
    """``omega`` on every pair of basis directions, shape ``(G, dim,
    dim)``, as ``2 (A - A^T)`` with ``A[x, y] = tr(eta_x[0] dLam_y) +
    sum_{i + j < l} tr(Lambda_{i+j} eta_x[i] eta_y[j])``: the sum is the
    block Hankel matrix times the stacked velocities, times the transposed
    velocities, and the first term is ``eta_x[0][b, a]`` in the column of
    ``dLam_y = E_ab``, the last ``n^2``."""
    G, dim, l, n = etas.shape[:4]
    ln = l * n
    lam_eta = lam_hankel.reshape(G, 1, ln, ln) @ etas.reshape(G, dim, ln, n)
    E_t = etas.swapaxes(-1, -2).reshape(G, dim, -1)
    A = lam_eta.reshape(G, dim, -1) @ E_t.transpose(0, 2, 1)
    A[:, :, -n * n:] += E_t[:, :, : n * n]
    return 2.0 * (A - A.transpose(0, 2, 1))


def _polar_variation(F, F_inv, lam_hankel, etas, dlams, v):
    """Connection polar-coefficient variations of chart tangents ``v``,
    one per pole of a group (shape ``(G, dim)``), via ``dP = [F (ad_eta
    Lambda + dLam) F^-1]_polar``: ``_covector`` transposed.  ``v`` is
    contracted with the basis velocities first, ``eta = sum_x v_x eta_x``
    and ``dLam = sum_x v_x dLam_x``, so no direction's variation is built;
    shape ``(G, l, n, n)``, row ``k - 1`` holding ``dC_k``."""
    G, dim, l, n = etas.shape[:4]
    eta = (v[:, None] @ etas.reshape(G, dim, -1)).reshape(G, l, n, n)
    # inner[:, k] = sum_m [eta_m, Lambda_{m+k}] + dLam, the order -(k+1)
    # term
    inner = (np.einsum("gmpr,gmrkq->gkpq", eta, lam_hankel)
             - np.einsum("gmpkr,gmrq->gkpq", lam_hankel, eta))
    inner[:, 0] += (v @ dlams.reshape(dim, -1)).reshape(G, n, n)
    return dress(F, F_inv, inner[:, None])[:, 0]


def _covector(F, F_inv, lam_hankel, etas, dlams, W):
    """The covector ``x -> sum_k tr(W[:, k-1] dC_k)`` on the basis at every
    pole of a group, shape ``(G, dim)``, with ``dC`` the direction's polar
    variation, which it does not build.

    ``W`` (shape ``(G, l, n, n)``) is pulled back through the dressing
    once, ``Wt_r = sum_{i+j+r'=r} (F^-1)_j W_r' F_i``; the undressed
    variation is ``sum_m [eta_m, Lambda_{m+k}] + dLam`` at row ``k``, so
    the covector is ``sum_m tr(Z_m eta_x[m]) + tr(Wt_0 dLam_x)`` with
    ``Z_m = sum_k [Lambda_{m+k}, Wt_k]``."""
    G, l = len(W), F.shape[1]
    Wt = np.zeros_like(W)
    for i in range(l):
        for j in range(l - i):
            Wt[:, i + j:] += F_inv[:, j, None] @ W[:, : l - i - j] \
                @ F[:, i, None]
    Z = (np.einsum("gmpkr,gkrq->gmpq", lam_hankel, Wt)
         - np.einsum("gkpr,gmrkq->gmpq", Wt, lam_hankel))
    dim = etas.shape[1]
    return (etas.reshape(G, dim, -1) @ Z.swapaxes(-1, -2).reshape(G, -1, 1)
            + dlams.reshape(dim, -1)
            @ Wt[:, 0].swapaxes(-1, -2).reshape(G, -1, 1))[..., 0]


class PoleChartBlock:
    """The chart form term by term at the poles of one group, whose
    dressed polar jets ``lam`` (shape ``(G, l, n, n)``, row ``r`` the order
    ``-(r+1)`` term) it holds: the reference that ``_gram`` is tested
    against."""

    def __init__(self, lam):
        self.lam = lam
        self.l, self.n = lam.shape[1], lam.shape[-1]

    def omega(self, x, y, g=0):
        """Chart form at the group's pole ``g`` between two ``(eta, dLam)``
        directions, term by term."""
        eta_x, dl_x = x
        eta_y, dl_y = y
        acc = np.trace(eta_x[0] @ dl_y) - np.trace(eta_y[0] @ dl_x)
        for m in range(self.l):
            comm = np.zeros((self.n, self.n), dtype=complex)
            for i in range(m + 1):
                comm += eta_x[i] @ eta_y[m - i] - eta_y[i] @ eta_x[m - i]
            acc += np.trace(self.lam[g, m] @ comm)
        return 2.0 * acc


# ---------------------------------------------------------------------------
# chart layer: compiled once per chart layout
# ---------------------------------------------------------------------------

class _GroupPlan:
    """One pole group, the poles of one order ``l``: their indices
    (``index``; ``at`` as an array, also their positions' places), their
    chart columns (``cols``, shape ``(G, size)``, ``chart_layout``), the
    places of their fields in the flat vector (``h``, ``u``, ``lam``,
    ``irr``, stacked index arrays in the fields' shapes), and its tables
    that stay constant along a flow: ``dlams``, the basis directions'
    dressed-residue variations (``E_ab`` on the residue-momentum
    directions, zero elsewhere), and ``unipotent``."""

    def __init__(self, l, index, chart_at, irr_at, m, n):
        G = len(index)
        res, size = chart_layout(l, n)
        self.l, self.index, self.at = l, tuple(index), np.array(index)
        chart = chart_at[index][:, None] + np.arange(size)
        self.cols = chart - m
        self.h = chart[:, : n * n].reshape(G, n, n)
        self.u = chart[:, n * n: res].reshape(G, max(l - 2, 0), n * n - n)
        self.lam = chart[:, res:].reshape(G, n, n)
        self.irr = (irr_at[index][:, None]
                    + np.arange((l - 1) * n)).reshape(G, l - 1, n)
        self.dlams = np.zeros((size, n, n), dtype=complex)
        self.dlams[res:] = np.eye(n * n).reshape(n * n, n, n)
        # the jets of I + u and their Toeplitz stack are the identity's at
        # orders 1 and 2, where u has no entries
        self.unipotent = None
        if l <= 2:
            u = np.zeros((G, 0, n, n), dtype=complex)
            U, V = unipotent(u, l)
            self.unipotent = u, U, V, _toeplitz(U)


class _Stage:
    """What the chart layer reads of one flat vector ``y``.  Its polar
    half is built at once, per group: the stacked pole fields (``fields``:
    frames, frame jets, residues and irregular types), the frame jets
    ``F`` and ``F^-1`` (``frames``) and the polar coefficients (``P``).
    The rest is built by its plan when it is first read: the regular jets
    of every pole, padded to the longest order (``R``), and the chart
    half, per group the block Hankel matrices and basis velocities
    (``charts``) and, with the chart columns, the transposed Gram blocks
    (``gram_blocks``, what ``solve_chart`` and ``chart_conditioning``
    read, as on a state)."""

    def __init__(self, plan, y):
        self.plan, self.y = plan, y
        self.fields, self.frames, self.P, self.jets = [], [], [], []

    def __getattr__(self, name):
        # called only for an attribute not yet set: once per part
        if name == "R":
            self.R = self.plan._regular_jets(self)
        elif name in ("charts", "gram_blocks"):
            self.plan._chart_half(self)
        else:
            raise AttributeError(name)
        return vars(self)[name]


class ChartPlan:
    """The chart layer compiled for one chart layout, which it computes from
    the pole orders and the rank: the one code that places a state's numbers in
    a flat vector or reads them out, and that turns them into chart data.  A
    flat vector (``FlowState.flat``, of length ``size``) holds the pole
    positions, the chart vector (``dim`` entries), then each pole's irregular
    entries; the extended system's (``ExtendedState.flat``, of length
    ``extended_size``) goes on with each pole's ``l`` q slots, then each pole's
    b slots.  A pole's chart slice holds the ``n^2`` entries of ``h``, the
    ``n^2 - n`` off-diagonal entries of each ``u_k``, ``k = 1 .. l-2``, then
    the ``n^2`` entries of ``Lambda_{-1}``, all row-major: ``chart_layout``,
    the one count of them.  Each has an index array in its shape
    (``positions``, ``chart``, ``irr``, ``q``, ``b``, and a pole's ``fields``:
    its ``h``, ``u``, ``Lambda_{-1}`` and ``irr``).

    With the layout the plan holds the groups (the poles of one order, in
    order of first appearance), each pole's group and row (``where``), and
    every table that stays constant along a flow: the jets of ``I + u``
    and their Toeplitz stack at orders 1 and 2 and the dressed-residue
    directions, per group; the extension weights are the one table
    ``connection.extension_weights``.  ``q`` and ``b``, which only the
    extended system reads, are built when first read, so a fresh state
    that reads only its polar data does not pay for them.
    ``pack`` writes flat vectors, each part by its index arrays.
    ``stage(y)`` runs the stacked kernels on a flat vector ``y`` (or a
    longer one that begins with it), each pole getting the bits a kernel
    of its own would give it.  A ``FlowState`` holds one plan and the stage
    of its own ``flat()``; ``flows.RhsPlan`` extends the plan.
    """

    def __init__(self, orders, n):
        m = len(orders)
        self.m, self.n, self.orders = m, n, list(orders)
        widths = [chart_layout(l, n)[1] for l in orders]
        n_irr = [(l - 1) * n for l in orders]
        # where each pole's chart slice, irregular entries, q slots and b
        # slots start, in this order after the positions
        at = np.cumsum([m, *widths, *n_irr, *orders, *n_irr])
        self.dim, self.extended_size = int(at[m]) - m, int(at[-1])
        self.size = int(at[2 * m])        # the length of flat()
        self.positions = np.arange(m)
        self.chart = np.arange(m, m + self.dim)
        self.coefficients = np.arange(m, self.size)
        self._dual_at = at[2 * m:]        # for q and b
        self.off = ~np.eye(n, dtype=bool)       # u's entries in its slots
        members = {l: [i for i, k in enumerate(orders) if k == l]
                   for l in dict.fromkeys(orders)}
        self.groups = [_GroupPlan(l, index, at[:m], at[m:], m, n)
                       for l, index in members.items()]
        # each pole's group and row, and its fields' places
        self.where, self.fields = {}, [None] * m
        for k, g in enumerate(self.groups):
            for r, i in enumerate(g.index):
                self.where[i] = k, r
                self.fields[i] = g.h[r], g.u[r], g.lam[r], g.irr[r]
        self.irr = [f[3] for f in self.fields]
        self.L = max(self.orders, default=0)

    @cached_property
    def q(self):
        """Each pole's q slots in the extended vector."""
        return [np.arange(a, a + l)
                for a, l in zip(self._dual_at, self.orders)]

    @cached_property
    def b(self):
        """Each pole's b slots in the extended vector, shape ``(l-1, n)``."""
        n = self.n
        return [np.arange(a, a + (l - 1) * n).reshape(l - 1, n)
                for a, l in zip(self._dual_at[self.m:], self.orders)]

    def pack(self, poles, *duals):
        """The flat vector of ``poles``, each pole scattered by its index
        arrays; with the dual slots ``q_dual, b_dual``, the extended one."""
        y = np.empty(self.extended_size if duals else self.size,
                     dtype=complex)
        y[self.positions] = [p.t for p in poles]
        for p, (h, u, lam, irr) in zip(poles, self.fields):
            y[h], y[u], y[lam], y[irr] = p.h, p.u[:, self.off], p.lam_res, \
                p.lam_irr
        if duals:
            self.put_duals(y, *duals)
        return y

    def put_duals(self, y, q_dual, b_dual):
        """Write each pole's q and b slots into the extended vector y."""
        for q, b, q_at, b_at in zip(q_dual, b_dual, self.q, self.b):
            y[q_at], y[b_at] = q, b

    def stage(self, y):
        """The chart layer's data at the flat vector ``y``, its polar half
        built.  A singular or non-finite frame raises
        ``DegenerateChartError``."""
        st = _Stage(self, y)
        for g in self.groups:
            H = y[g.h]
            H_inv = _frame_inverses(y[g.at], H, DegenerateChartError)
            if g.unipotent is None:
                u = np.zeros(g.u.shape[:2] + (self.n, self.n), dtype=complex)
                u[:, :, self.off] = y[g.u]
                U, V = unipotent(u, g.l)
                toeplitz = _toeplitz(U)
            else:
                u, U, V, toeplitz = g.unipotent
            F, F_inv = frames(H, H_inv, U, V)
            lam, irr = y[g.lam], y[g.irr]
            jet = lam_jet(lam, irr, g.l)
            st.fields.append((H, u, lam, irr))
            st.frames.append((F, F_inv))
            st.P.append(dress(F, F_inv, jet[:, None])[:, 0])
            st.jets.append((jet, V, toeplitz))
        return st

    def _regular_jets(self, st):
        if len(self.groups) == 1:       # one group holds every pole, in order
            C = st.P[0]
        else:
            C = np.zeros((self.m, self.L, self.n, self.n), dtype=complex)
            for g, P in zip(self.groups, st.P):
                C[g.at, : g.l] = P
        return regular_jets(st.y[self.positions], C)

    def _chart_half(self, st):
        st.charts, st.gram_blocks = [], []
        for g, (_, F_inv), (jet, V, toeplitz) in zip(self.groups, st.frames,
                                                     st.jets):
            hankel, etas = _hankel(jet), _etas(F_inv, V, toeplitz)
            st.charts.append((hankel, etas))
            st.gram_blocks.append(
                (g.cols, _gram(etas, hankel).transpose(0, 2, 1)))

    def polar(self, st, i):
        """Pole ``i``'s polar coefficients at the stage ``st``."""
        k, r = self.where[i]
        return st.P[k][r]

    def regular(self, st, i):
        """Pole ``i``'s regular jet at the stage ``st``."""
        return st.R[i, : self.orders[i]]

    def jet(self, st, i):
        """Pole ``i``'s Laurent jet at the stage ``st``, orders ``-l ..
        l-2``."""
        polar, l = self.polar(st, i), self.orders[i]
        return LaurentJet(complex(st.y[i]), -l, np.concatenate(
            [polar[::-1], self.regular(st, i)[: l - 1]]), 0)

    def weights(self, y, i, polar_weight, regular_weight, extra=0):
        """Weights on every pole's polar coefficients, group by group, of a
        function of pole ``i``'s Laurent jet given its weights on the jet,
        at the positions of the flat vector ``y``: ``polar_weight[...,
        k-1]`` on the coefficient of ``(z - t_i)**-k``,
        ``regular_weight[..., m]`` on the order ``m`` coefficient, each
        pairing by the trace, with the same leading axes.

        This transposes the jet's dependence on the poles' polar parts:
        pole ``i``'s own polar rows, and on its regular rows the other
        poles' terms seen from ``t_i``, the table ``extension_weights``
        transposed.  A group's weights have shape ``(G, ..., l + extra, n,
        n)``, row ``k - 1`` weighting the coefficient of ``(z - t_j)**-k``;
        pole ``i``'s own rows past ``l_i`` are zero."""
        M = regular_weight.shape[-3]
        home, row = self.where[i]
        for k, g in enumerate(self.groups):
            yield _pole_weights(y[i] - y[g.at], [row] if k == home else [],
                                g.l + extra, M, polar_weight, regular_weight)

    def jet_covector(self, st, i, polar_weight, regular_weight):
        """The differential on the chart basis of a function of pole
        ``i``'s Laurent jet, given its weights on the jet (``weights``):
        each group's weights pulled back by ``_covector``."""
        covectors = [
            _covector(F, F_inv, hankel, etas, g.dlams, W)
            for g, W, (F, F_inv), (hankel, etas) in zip(
                self.groups,
                self.weights(st.y, i, polar_weight, regular_weight),
                st.frames, st.charts)]
        if len(covectors) == 1:     # one group, every pole in order
            return covectors[0].reshape(-1)
        out = np.empty(self.dim, dtype=complex)
        for g, covector in zip(self.groups, covectors):
            out[g.cols] = covector
        return out

    def translation_differential(self, st, i):
        """``d_translation_hamiltonian`` at the stage ``st``."""
        return 2.0 * self.jet_covector(st, i, self.regular(st, i),
                                       self.polar(st, i))

    def pairing_differential(self, st, i, beta):
        """``d_hamiltonian_beta_B`` at the stage ``st``."""
        return self.jet_covector(st, i,
                                 *_pairing_weights(self.jet(st, i), beta))


def gram_matrix(state):
    """Gram matrix of the chart symplectic form on the coordinate basis."""
    dim = state.chart_dim()
    G = np.zeros((dim, dim), dtype=complex)
    for cols, gram in state.gram_blocks:
        for c, block in zip(cols, gram):
            G[np.ix_(c, c)] = block.T
    return G


def induced_polar_variations(vec, state):
    """Per-pole ``[dC_1 .. dC_l]`` connection-coefficient variations of the
    chart tangent ``vec`` (chart-vector layout), one ``_polar_variation``
    per group of the state's stage."""
    vec = np.asarray(vec)
    plan, st = state.plan, state.stage
    out = [None] * len(state.poles)
    for g, (F, F_inv), (hankel, etas) in zip(plan.groups, st.frames,
                                             st.charts):
        for i, d in zip(g.index, _polar_variation(
                F, F_inv, hankel, etas, g.dlams, vec[g.cols])):
            out[i] = d
    return out


def chart_conditioning(state):
    """The rank guard's measure: the global ``sigma_min / sigma_max`` of the
    chart Gram matrix, from the singular values of its blocks, as an SVD
    of the whole matrix would give it.  The chart is degenerate where this
    is at most ``TAU_RANK``; an all-zero matrix gives 0.0, and a chart of
    dimension zero 1.0."""
    svals = [np.linalg.svd(gram, compute_uv=False)
             for _, gram in state.gram_blocks]
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
    for cols, gram in state.gram_blocks:
        try:
            X[cols] = np.linalg.solve(gram, dH[cols][..., None])[..., 0]
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
    p = state.pole(i)
    if p.l < 2:
        raise PreconditionError("irregular Hamiltonians need a pole of order >= 2")
    return p, state.irregular_rows(i, beta, "beta")


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


def _pole_weights(dists, own, L, M, polar_weight, regular_weight):
    """One group's ``ChartPlan.weights``: the table ``extension_weights``
    at the distances ``dists`` from pole ``i``, through order ``L`` and
    ``M`` Taylor coefficients, contracted with the regular weight, and the
    polar weight on the rows ``own`` of pole ``i`` itself."""
    dists[own] = 1.0       # finite powers; the row is overwritten below
    weight = np.einsum("gkm,...mpq->g...kpq", extension_weights(dists, L, M),
                       regular_weight)
    for r in own:
        weight[r] = 0.0
        weight[r, ..., : polar_weight.shape[-3], :, :] = polar_weight
    return weight


def d_hamiltonian_beta_B(state, i, beta):
    """Analytic differential of ``hamiltonian_beta_B`` on the chart basis,
    in reverse mode: ``diagonalize_jet`` takes ``beta`` as the weight on
    ``B``'s diagonal and returns it as a weight on the pole's jet, which
    ``ChartPlan.jet_covector`` takes to the chart basis.
    """
    _, beta = _irregular_pole(state, i, beta)
    return state.plan.pairing_differential(state.stage, i, beta)


def _pairing_weights(jet, beta):
    """The weights on a pole's Laurent ``jet`` (orders ``-l .. l-2``) of
    the diagonal-jet pairing with ``beta``, polar rows then regular rows,
    as ``ChartPlan.weights`` takes them: one reverse sweep of
    ``diagonalize_jet`` for every ``beta`` stacked on the leading axes,
    each with the bits of a sweep of its own."""
    l = -jet.k_min
    weight = np.zeros((*beta.shape[:-2], 2 * l - 1, beta.shape[-1]), complex)
    weight[..., l:, :] = beta
    A_weight = diagonalize_jet(jet, 2 * l - 2).pullback(weight)
    return A_weight[..., l - 1::-1, :, :], A_weight[..., l:, :, :]


def translation_hamiltonian_values(state):
    """``res_{t_i} tr(A^2)`` for every pole, via the polar-jet fast path."""
    return [complex(sum(2.0 * np.trace(C @ R) for C, R in zip(Cs, Rs)))
            for Cs, Rs in zip(state.polar, state.regular_jets)]


def d_translation_hamiltonian(state, i):
    """Analytic differential of ``res_{t_i} tr(A^2)`` on the chart basis.

    ``dH(b) = 2 res_{t_i} tr(A b)``: the weight on the jet of ``b`` at
    ``t_i`` is twice the jet of ``A`` there, read backwards, the regular
    jet on the polar rows and the polar part on the regular ones
    (``ChartPlan.jet_covector``).
    """
    state.pole(i)  # the one index rule, before the jets are indexed
    return state.plan.translation_differential(state.stage, i)
