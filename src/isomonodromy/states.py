"""Deformation states in canonical per-pole coordinates.

A state stores, at every pole, an invertible constant frame ``h``, an
off-diagonal unipotent jet ``u`` (orders ``1 .. l-2``), and a dressed polar
jet ``Lambda``: the connection's polar part there is the polar part of

``h (I + u(zeta)) Lambda (I + u(zeta))^-1 h^-1``

with ``Lambda_{-1}`` a free matrix (the residue momentum) and
``Lambda_{-k}``, ``k >= 2``, fixed diagonal with regular leading term (the
irregular type).  This realizes the partial reduction concretely: the
irregular data is pinned diagonal in the dressed frame and the order ``-1``
jet stays free.  Two families of frame-jet components are pure gauge for
this data and are normalized away: diagonal jets (they commute with the
irregular type) and the full top order ``l-1`` (central in the truncated
jet group).  What remains is exactly a symplectic chart on the partially
reduced space.  Trivialization jets over the divisor are the inverses of
the frame jets.

Input is checked where it comes in: ``PoleData(...)`` checks each field
and inverts ``h``, refusing a singular or non-finite one with the pole's
position; ``FlowState(...)`` checks separation, rank and leading terms
(``connection.check_separated``, ``connection.check_regular``), its twist
sites' rank and their separation from the poles.

A ``PoleGroup`` stacks the poles of one order along a leading group axis
(all poles share the rank); it is built from its stacks, by ``stack`` from
a state's poles or by ``from_chart`` from chart rows.  Everything derived
from a pole is computed once per group, on first use: ``unipotent`` (the
jets of ``I + u`` and of its inverse), ``frame`` (the jets of ``F = h (I +
u)`` and of ``F^-1``), ``lam_jet`` and ``polar``.  ``dressed_polar`` is the
one map from dressed polar jets to connection polar coefficients:
``polar`` dresses ``lam_jet``, and the chart layer dresses its variations
with it.  Each is a stacked kernel of this module (``unipotent``,
``frames``, ``lam_jet``, ``dress``; ``regular_jets`` and ``pole_jet`` for
the state's jets), on arrays with the group axis in front, which
``flows.RhsPlan`` runs on views of a flat vector without building a group.
The batched products give every pole exactly the bits a product of its own
would.

A ``FlowState`` owns the data derived from its poles, each computed once, on
first use: its groups (``groups``, by order in order of first appearance,
with each pole's index and chart coordinates), the polar coefficients
(``polar``, each pole's rows of its group's array), the regular jets of
the other poles' polar parts at every pole (``regular_jets``, one product
of the table ``connection.extension_weights`` at every pair of poles with
the padded polar coefficients), the chart layer's per-group blocks
(``blocks``) and their transposed Gram matrices with each group's chart
columns (``gram_blocks``, what the chart solve and the rank guard's
measure read).  ``jet_at_pole`` and ``diagonal_jet``
assemble a pole's Laurent jet and formal diagonal jet from them.  The
chart layer reads these attributes and takes only the state.
``from_connection`` reads a
connection's ``divisor_polar_parts``.  ``with_flat``
checks only its vector's length and inverts each group's frames in one
call, refusing a singular one with ``DegenerateChartError``, since a flow
drove it there; the new state keeps those groups, and its poles are row
views of their stacks.  A flow builds a state this way only at its
samples; its right-hand side reads the flat vector through the plan.
Along a flow the right-hand side checks a moving leading type, in
``diagonalize_jet``.

Chart-vector layout, per pole: the ``n^2`` entries of ``h`` (row-major),
then for each jet order ``k = 1 .. l-2`` the ``n^2 - n`` off-diagonal
entries of ``u_k`` (row-major, skipping the diagonal), then the ``n^2``
entries of ``Lambda_{-1}``: ``chart_layout``, the one count of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connection import (
    Connection,
    _signed_binomials,
    _sorted_eig,
    _weights,
    check_regular,
    check_separated,
    diagonalize_jet,
)
from .errors import DegenerateChartError, MalformedInputError
from .ratfun import LaurentJet

N_MAX = 1e8   # coefficient-norm cap; beyond this a flow is flagged as blown up


def _shaped(value, name, shape):
    """``value`` as a complex array, which must have the given shape."""
    arr = np.array(value, dtype=complex)
    if arr.shape != shape:
        raise MalformedInputError(
            f"{name}: shape {arr.shape}, expected {shape}")
    return arr


def _frame_inverses(ts, H, error=MalformedInputError):
    """Inverses of the frames ``H`` (stacked, one per pole position in
    ``ts``), in one call; a singular or non-finite frame is refused with its
    pole's position, as ``error``: an input error by default, a
    ``DegenerateChartError`` for a state a flow rebuilt."""
    try:
        H_inv = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        H_inv = None
    # an infinite entry can have a finite inverse, so both are checked
    if H_inv is not None and np.isfinite(H).all() and np.isfinite(H_inv).all():
        return H_inv
    for t, h in zip(ts, H):
        try:
            ok = np.isfinite(np.linalg.inv(h)).all() and np.isfinite(h).all()
        except np.linalg.LinAlgError:
            ok = False
        if not ok:
            raise error(
                f"h: the frame at the pole t = {complex(t)} is singular or "
                f"not finite: h = {h.tolist()}")


def _trusted(cls, **fields):
    """An instance of ``cls`` holding ``fields`` as given, unchecked: for a
    state rebuilt from the vector its own ``flat()`` laid out."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def chart_layout(l, n):
    """Where a pole's residue entries start in its chart slice, and the
    slice's size, at order ``l`` and rank ``n``."""
    at = n * n + max(l - 2, 0) * (n * n - n)
    return at, at + n * n


# ---------------------------------------------------------------------------
# stacked kernels: the one formula of each quantity, on arrays with a
# leading group axis, read by ``PoleGroup`` and by ``flows.RhsPlan``
# ---------------------------------------------------------------------------

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


def regular_jets(ts, C, table):
    """Taylor coefficients at every pole of the other poles' polar parts:
    the table ``extension_weights`` at every pair of the positions ``ts``
    (its signed binomials ``table``), a pole's own pair masked out,
    contracted in one product with the polar coefficients ``C`` padded to
    the longest order, shape ``(K, L, n, n)``."""
    K, L, n = C.shape[0], C.shape[1], C.shape[-1]
    # own pairs: a unit distance keeps the powers finite, then zeroed
    dists = ts[:, None] - ts
    dists.reshape(-1)[:: K + 1] = 1.0
    w = _weights(dists, table)
    w.reshape(K * K, L, L)[:: K + 1] = 0.0
    return (w.transpose(0, 3, 1, 2).reshape(K * L, K * L)
            @ C.reshape(K * L, n * n)).reshape(K, L, n, n)


def pole_jet(t, polar, regular):
    """Laurent jet of A at a pole at ``t`` of order ``l = len(polar)``,
    orders ``-l .. l-2``, from its polar and regular coefficients."""
    l = len(polar)
    return LaurentJet(t, -l, np.concatenate([polar[::-1], regular[: l - 1]]),
                      0)


@dataclass(frozen=True)
class PoleData:
    """Canonical data of one pole: position, order, frame jet, dressed polar."""

    t: complex
    l: int
    h: np.ndarray                  # (n, n) invertible constant frame
    lam_res: np.ndarray            # (n, n) dressed residue Lambda_{-1}
    lam_irr: np.ndarray            # (l-1, n) diagonal entries, row j <-> order -(j+2)
    u: np.ndarray                  # (max(l-2,0), n, n) off-diagonal jet, row k <-> order k+1

    def __init__(self, t, l, h, lam_res, lam_irr=None, u=None):
        t, l = complex(t), int(l)
        if l < 1:
            raise MalformedInputError(f"l: pole order {l} is below 1")
        h = np.asarray(h, dtype=complex)
        n = h.shape[0] if h.ndim else 0
        n_u = max(l - 2, 0)
        h = _shaped(h, "h", (n, n))
        h_inv = _frame_inverses([t], h[None])[0]
        lam_res = _shaped(lam_res, "lam_res", (n, n))
        lam_irr = _shaped(np.zeros((l - 1, n)) if lam_irr is None else lam_irr,
                          "lam_irr", (l - 1, n))
        u = _shaped(np.zeros((n_u, n, n)) if u is None else u, "u", (n_u, n, n))
        for k in range(n_u):
            if np.max(np.abs(np.diag(u[k]))) > 1e-13 * max(1.0, np.max(np.abs(u[k]))):
                raise MalformedInputError(
                    "frame-jet coordinates must have zero diagonal")
            np.fill_diagonal(u[k], 0.0)
        vars(self).update(t=t, l=l, h=h, _h_inv=h_inv, lam_res=lam_res,
                          lam_irr=lam_irr, u=u)

    @property
    def n(self):
        return self.h.shape[0]

    # -- chart packing --------------------------------------------------------

    def chart_slice(self):
        off = ~np.eye(self.n, dtype=bool)
        return np.concatenate([self.h.ravel(), self.u[:, off].ravel(),
                               self.lam_res.ravel()])


class PoleGroup:
    """The poles of one order ``l`` (and rank ``n``), stacked along a
    leading group axis: ``h``, ``h_inv``, ``lam_res``, ``lam_irr`` and
    ``u`` have the pole fields' shapes with ``G`` rows in front, and ``t``
    holds the positions as Python complex numbers.

    In a state's group, ``index`` holds the poles' positions in the state
    and ``cols`` (shape ``(G, size)``, ``chart_layout``) their coordinates
    in the chart vector; a group built alone counts its poles from 0.  The
    frame jets, the dressed polar jet and the polar coefficients are
    computed once per group, on first use, by batched products over the
    group axis, which give each pole the bits a product of its own gives it.
    """

    def __init__(self, l, t, h, h_inv, lam_res, lam_irr, u, index=None,
                 cols=None):
        self.l, self.n, self.t = l, h.shape[-1], tuple(t)
        self.h, self.h_inv, self.lam_res, self.lam_irr, self.u = (
            h, h_inv, lam_res, lam_irr, u)
        self.index = tuple(range(len(self.t)) if index is None else index)
        self.cols = cols

    @classmethod
    def stack(cls, poles, index=None, cols=None):
        """The group of the ``PoleData`` records ``poles``, all of one order
        and rank."""
        return cls(poles[0].l, [p.t for p in poles],
                   *(np.stack([getattr(p, name) for p in poles])
                     for name in ("h", "_h_inv", "lam_res", "lam_irr", "u")),
                   index, cols)

    @classmethod
    def from_chart(cls, l, n, ts, chart, lam_irr, index=None, cols=None):
        """The group of the poles of order ``l`` and rank ``n`` at positions
        ``ts`` whose chart slices are the rows of ``chart``, with irregular
        types ``lam_irr``.  Their frames are inverted in one call, which
        refuses a singular or non-finite frame with ``DegenerateChartError``
        (the rows come from a flow, not from input); nothing else is
        checked."""
        G, n_u = len(ts), max(l - 2, 0)
        ts = [complex(t) for t in ts]
        H = np.array(chart[:, : n * n].reshape(G, n, n), dtype=complex)
        at, size = chart_layout(l, n)
        u = np.zeros((G, n_u, n, n), dtype=complex)
        if n_u:
            u[:, :, ~np.eye(n, dtype=bool)] = chart[:, n * n: at].reshape(
                G, n_u, n * n - n)
        lam = chart[:, at: size].reshape(G, n, n)
        return cls(l, ts, H, _frame_inverses(ts, H, DegenerateChartError), lam,
                   np.asarray(lam_irr, dtype=complex), u, index, cols)

    @cached_property
    def unipotent(self):
        """Coefficients of ``I + u(zeta)`` and of its inverse through order
        l-1, each of shape (G, l, n, n): ``unipotent``."""
        return unipotent(self.u, self.l)

    @cached_property
    def frame(self):
        """Coefficients of the frame ``F = h (I + u)`` and of ``F^-1 =
        (I + u)^-1 h^-1`` through order l-1."""
        return frames(self.h, self.h_inv, *self.unipotent)

    @cached_property
    def lam_jet(self):
        """Dressed polar coefficients, row k <-> order -(k+1); shape
        (G, l, n, n)."""
        return lam_jet(self.lam_res, self.lam_irr, self.l)

    def dressed_polar(self, inner):
        """``dress`` with the group's frames."""
        return dress(*self.frame, inner)

    @cached_property
    def polar(self):
        """``[C_1, ..., C_l]`` per pole, shape (G, l, n, n): the dressed
        ``lam_jet``."""
        return self.dressed_polar(self.lam_jet[:, None])[:, 0]


@dataclass(frozen=True)
class FlowState:
    """Full deformation state: canonical pole data plus frozen twist sites."""

    n: int
    poles: tuple
    twist: object = None           # MatrixDivisor or None

    def __post_init__(self):
        positions = [p.t for p in self.poles]
        check_separated(positions, "pole positions")
        if self.twist is not None:
            self.twist.check_rank(self.n)
            check_separated(positions + self.twist.points(),
                            "poles and twist sites")
        for p in self.poles:
            if p.n != self.n:
                raise MalformedInputError("pole data rank mismatch")
            if p.l > 1:
                lead = p.lam_irr[-1]
                check_regular(lead, max(1.0, float(np.max(np.abs(lead)))))

    def pole(self, i):
        """Pole ``i``, checked: the one rule for pole indices.  Negative
        indices are rejected rather than read from the end."""
        m = len(self.poles)
        if not 0 <= i < m:
            raise MalformedInputError(
                f"pole index {i}; the state has poles 0..{m - 1}")
        return self.poles[i]

    # -- polar data, each computed once per state -----------------------------

    @cached_property
    def groups(self):
        """The poles grouped by order, one ``PoleGroup`` per order in order
        of first appearance, each pole's chart coordinates in ``cols``."""
        at = self._chart_at
        members = {}
        for i, p in enumerate(self.poles):
            members.setdefault(p.l, []).append(i)
        return tuple(
            PoleGroup.stack([self.poles[i] for i in index], index,
                            at[index][:, None] + np.arange(chart_layout(
                                self.poles[index[0]].l, self.n)[1]))
            for index in members.values())

    @cached_property
    def polar(self):
        """Every pole's polar coefficients ``[C_1, ..., C_l]``: its rows of
        its group's ``polar``, shape (l, n, n)."""
        rows = {i: C for g in self.groups for i, C in zip(g.index, g.polar)}
        return [rows[i] for i in range(len(self.poles))]

    @cached_property
    def regular_jets(self):
        """Taylor coefficients at every pole of the other poles' polar parts
        (the regular part of A there), orders ``0 .. l_i-1`` at pole i:
        every order that pairs with the pole's own polar part: one product
        of the table ``extension_weights`` at every pair of poles, a pole's
        own pair masked out, with the polar coefficients padded to the
        longest order."""
        ts = np.array([p.t for p in self.poles])
        L = max((g.l for g in self.groups), default=0)
        C = np.zeros((len(ts), L, self.n, self.n), dtype=complex)
        for g in self.groups:
            C[list(g.index), : g.l] = g.polar
        R = regular_jets(ts, C, _signed_binomials(L, L))
        return [R[i, : p.l] for i, p in enumerate(self.poles)]

    @cached_property
    def blocks(self):
        """The chart layer's per-group blocks, ``chart_blocks(self)``."""
        from .symplectic import chart_blocks
        return chart_blocks(self)

    @cached_property
    def gram_blocks(self):
        """Per group: its poles' chart columns and their transposed Gram
        blocks (``PoleChartBlock.gram_transposed``), what the chart solve
        and the rank guard read."""
        return [(g.cols, b.gram_transposed)
                for g, b in zip(self.groups, self.blocks)]

    def jet_at_pole(self, i):
        """Laurent jet of A at pole i, orders ``-l_i .. l_i-2``."""
        return pole_jet(self.poles[i].t, self.polar[i], self.regular_jets[i])

    def diagonal_jet(self, i):
        """Diagonal of the formal normal form ``B`` of A at pole i, orders
        ``-l_i .. l_i-2`` (rows in the lexicographic branch order)."""
        order = 2 * self.poles[i].l - 2
        return diagonalize_jet(self.jet_at_pole(i), order).b_diag

    def connection(self):
        data = [(p.t, C) for p, C in zip(self.poles, self.polar)]
        conn = Connection.from_polar_parts(data, n=self.n)
        if self.twist is not None:
            from .twist import push_connection
            conn = push_connection(self.twist, conn)
        return conn

    @classmethod
    def from_connection(cls, conn, twist=None):
        """Factor a connection into canonical pole data (zero frame jets).

        Fuchsian poles get ``h = I``; at higher-order poles the frame is the
        eigenframe of the (regular) leading coefficient, which must
        simultaneously diagonalize every order ``<= -2`` coefficient (states
        outside this slice can be brought into it with a jet gauge first).
        A state holds no polynomial tail and no base pole, so a connection
        with either is refused.
        """
        if conn.polar_parts[1].size:
            raise MalformedInputError(
                "tail: a state holds no polynomial tail")
        if conn.base_pole is not None:
            raise MalformedInputError("base_pole: a state holds no base pole")
        poles = []
        for (t, Cs), l in zip(conn.divisor_polar_parts, conn.divisor.mults):
            if l == 1:
                poles.append(PoleData(t, 1, np.eye(conn.n), Cs[0]))
                continue
            w, V = _sorted_eig(Cs[-1])
            check_regular(w, max(1.0, float(np.max(np.abs(w)))))
            D = np.linalg.inv(V) @ np.stack(Cs) @ V
            for k, Dk in enumerate(D[1:], start=2):
                off = Dk - np.diag(np.diag(Dk))
                if np.max(np.abs(off)) > 1e-8 * max(1.0, np.max(np.abs(Dk))):
                    raise MalformedInputError(
                        f"order -{k} coefficient at {t} is not diagonal in "
                        f"the leading eigenframe; gauge into the chart first")
            poles.append(PoleData(t, l, V, D[0], np.einsum("kii->ki", D[1:])))
        return cls(conn.n, tuple(poles), twist)

    # -- flat complex coordinates (chart vector) -------------------------------

    @cached_property
    def _chart_at(self):
        """Where each pole's chart slice starts, then the chart dimension."""
        return np.cumsum([0] + [chart_layout(p.l, p.n)[1]
                                for p in self.poles])

    def chart_dim(self):
        return int(self._chart_at[-1])

    def chart_vector(self):
        parts = [p.chart_slice() for p in self.poles]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)

    def flat(self):
        """The state as one vector: pole positions, the chart vector, then
        every pole's irregular entries (row-major), pole by pole."""
        positions = np.array([p.t for p in self.poles], dtype=complex)
        return np.concatenate([positions, self.chart_vector()]
                              + [p.lam_irr.ravel() for p in self.poles])

    @cached_property
    def _flat_index(self):
        """Per group: where its poles' positions, chart slices and irregular
        entries sit in ``flat()``; then the length of ``flat()``."""
        m = len(self.poles)
        irr_at = m + self.chart_dim() + np.cumsum(
            [0] + [(p.l - 1) * p.n for p in self.poles])
        return [(list(g.index), m + g.cols,
                 irr_at[list(g.index)][:, None] + np.arange((g.l - 1) * g.n))
                for g in self.groups], int(irr_at[-1])

    def with_flat(self, vec):
        """The state whose ``flat()`` is ``vec``.  This state's ``flat()``
        laid ``vec`` out, so only its length is checked.  Each group's
        frames are inverted in one call, and a singular or non-finite one
        raises ``DegenerateChartError``; the groups are the new state's
        ``groups``, and its poles are row views of their stacks."""
        index, size = self._flat_index
        if len(vec) != size:
            raise MalformedInputError(
                f"flat vector: length {len(vec)}, expected {size}")
        groups, poles = [], [None] * len(self.poles)
        for g, (at, chart, irr) in zip(self.groups, index):
            new = PoleGroup.from_chart(
                g.l, g.n, vec[at], vec[chart],
                vec[irr].reshape(len(at), g.l - 1, g.n), g.index, g.cols)
            groups.append(new)
            for r, i in enumerate(g.index):
                poles[i] = _trusted(
                    PoleData, t=new.t[r], l=g.l, h=new.h[r],
                    _h_inv=new.h_inv[r], lam_res=new.lam_res[r],
                    lam_irr=new.lam_irr[r], u=new.u[r])
        return _trusted(FlowState, n=self.n, poles=tuple(poles),
                        twist=self.twist, groups=tuple(groups))


@dataclass(frozen=True)
class ExtendedState:
    """Flow state plus the cotangent variables dual to the base directions.

    ``q_dual`` holds, per pole, the polar-slot data of a quadratic
    differential with divisor bounded by D (slot ``m`` pairs with the local
    direction ``zeta**m d/dzeta``); ``b_dual`` holds, per pole, diagonal
    data shaped like the sub-leading diagonal jet (orders ``0 .. l-2``).
    """

    state: FlowState
    q_dual: tuple     # one (l_i,) complex array per pole
    b_dual: tuple     # one (l_i - 1, n) complex array per pole

    def __post_init__(self):
        for p, q, b in zip(self.state.poles, self.q_dual, self.b_dual):
            if np.shape(q) != (p.l,):
                raise MalformedInputError("q_dual slot shape mismatch")
            if np.shape(b) != (p.l - 1, p.n):
                raise MalformedInputError("b_dual slot shape mismatch")

    def flat(self):
        """``state.flat()``, then every pole's ``q_dual``, then every pole's
        ``b_dual`` entries (row-major)."""
        return np.concatenate([self.state.flat()]
                              + [np.ravel(q) for q in self.q_dual]
                              + [np.ravel(b) for b in self.b_dual])

    def with_flat(self, vec):
        """The extended state whose ``flat()`` is ``vec``, checked as in
        ``FlowState.with_flat``."""
        poles = self.state.poles
        at = self.state._flat_index[1]
        size = at + sum(p.l + (p.l - 1) * p.n for p in poles)
        if len(vec) != size:
            raise MalformedInputError(
                f"flat vector: length {len(vec)}, expected {size}")
        state = self.state.with_flat(vec[:at])
        q_dual, b_dual = [], []
        for p in poles:
            q_dual.append(vec[at: at + p.l].copy())
            at += p.l
        for p in poles:
            k = (p.l - 1) * p.n
            b_dual.append(vec[at: at + k].reshape(p.l - 1, p.n).copy())
            at += k
        return _trusted(ExtendedState, state=state, q_dual=tuple(q_dual),
                        b_dual=tuple(b_dual))
