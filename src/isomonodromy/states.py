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
sites' rank and their separation from the poles.  ``FlowState.pole`` is
the one index rule, and ``irregular_rows`` the one shape rule of a pole's
irregular rows.

A ``FlowState`` reads its numbers through one ``plan``
(``symplectic.ChartPlan``, compiled for its layout, the one code that
knows where a number sits in a flat vector) and the plan's ``stage`` of its
own ``flat()``, each built once, on first use: ``flat()`` is the plan's
``pack``, and ``polar``, ``regular_jets``, ``gram_blocks`` and
``jet_at_pole`` read the stage, whose polar half is built at once and its
chart half when first read, so ``connection()`` builds no Gram block.
``with_flat`` checks only its vector's length, and a singular frame there
raises ``DegenerateChartError`` (a flow drove it there; a moving leading
type is checked by the flow, in ``diagonalize_jet``).  ``_from_stage`` is
the one constructor of a state from a stage, whose plan it shares and whose
stacks its poles are row views of: a flow's samples are built from the
stages its steps built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connection import (
    Connection,
    _sorted_eig,
    check_regular,
    check_separated,
    diagonalize_jet,
)
from .errors import MalformedInputError


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
        _frame_inverses([t], h[None])
        lam_res = _shaped(lam_res, "lam_res", (n, n))
        lam_irr = _shaped(np.zeros((l - 1, n)) if lam_irr is None else lam_irr,
                          "lam_irr", (l - 1, n))
        u = _shaped(np.zeros((n_u, n, n)) if u is None else u, "u", (n_u, n, n))
        for k in range(n_u):
            if np.max(np.abs(np.diag(u[k]))) > 1e-13 * max(1.0, np.max(np.abs(u[k]))):
                raise MalformedInputError(
                    "frame-jet coordinates must have zero diagonal")
            np.fill_diagonal(u[k], 0.0)
        vars(self).update(t=t, l=l, h=h, lam_res=lam_res, lam_irr=lam_irr,
                          u=u)

    @property
    def n(self):
        return self.h.shape[0]


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

    def irregular_rows(self, i, rows, name):
        """``rows`` at pole ``i`` (``pole``) as a complex array of the
        pole's irregular shape ``(l - 1, n)``; ``name`` names them."""
        p = self.pole(i)
        rows = np.asarray(rows, dtype=complex)
        if rows.shape != (p.l - 1, p.n):
            raise MalformedInputError(
                f"{name}: shape {rows.shape} at pole {i} of order {p.l} and "
                f"rank {p.n}; expected {(p.l - 1, p.n)}")
        return rows

    # -- chart data, each computed once per state -----------------------------

    @cached_property
    def plan(self):
        """The chart layer compiled for this state's layout
        (``symplectic.ChartPlan``), shared by every state ``with_flat``
        derives from this one."""
        from .symplectic import ChartPlan
        return ChartPlan([p.l for p in self.poles], self.n)

    @cached_property
    def stage(self):
        """The plan's stage of ``flat()``: everything the chart layer reads
        of this state, each part built once, on first use."""
        return self.plan.stage(self.flat())

    @cached_property
    def polar(self):
        """Every pole's polar coefficients ``[C_1, ..., C_l]``, shape
        (l, n, n): its rows of its group's array in the stage."""
        return [self.plan.polar(self.stage, i) for i in range(len(self.poles))]

    @cached_property
    def regular_jets(self):
        """Taylor coefficients at every pole of the other poles' polar parts
        (the regular part of A there), orders ``0 .. l_i-1`` at pole i:
        every order that pairs with the pole's own polar part."""
        return [self.plan.regular(self.stage, i)
                for i in range(len(self.poles))]

    @property
    def gram_blocks(self):
        """Per group: its poles' chart columns and their transposed Gram
        blocks, what the chart solve and the rank guard read."""
        return self.stage.gram_blocks

    def jet_at_pole(self, i):
        """Laurent jet of A at pole i, orders ``-l_i .. l_i-2``."""
        return self.plan.jet(self.stage, i)

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

    # -- flat complex coordinates: the plan's layout -----------------------

    def chart_dim(self):
        return self.plan.dim

    def chart_vector(self):
        return self.flat()[self.plan.chart]

    def flat(self):
        """The state as one vector: pole positions, the chart vector, then
        every pole's irregular entries (``ChartPlan.pack``)."""
        return self.plan.pack(self.poles)

    def with_flat(self, vec):
        """The state ``_from_stage`` of the plan's stage of ``vec``, laid
        out by ``flat()``: only its length is checked, and a singular or
        non-finite frame raises ``DegenerateChartError``."""
        return self._from_stage(self.plan.stage(_flat_vector(vec,
                                                              self.plan.size)))

    def _from_stage(self, stage):
        """The state at the vector of ``stage``, a stage of this state's
        plan, which it shares: its poles are row views of the stage's
        stacks."""
        plan = self.plan
        poles = [None] * len(self.poles)
        for g, (h, u, lam_res, lam_irr) in zip(plan.groups, stage.fields):
            for r, (i, t) in enumerate(zip(g.index, stage.y[g.at])):
                poles[i] = _trusted(
                    PoleData, t=complex(t), l=g.l, h=h[r],
                    lam_res=lam_res[r], lam_irr=lam_irr[r], u=u[r])
        return _trusted(FlowState, n=self.n, poles=tuple(poles),
                        twist=self.twist, plan=plan, stage=stage)


def _flat_vector(vec, size):
    """``vec`` as a new complex array, which must have length ``size``."""
    if len(vec) != size:
        raise MalformedInputError(
            f"flat vector: length {len(vec)}, expected {size}")
    return np.array(vec, dtype=complex)


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
        ``b_dual`` entries (row-major): ``ChartPlan.pack``."""
        return self.state.plan.pack(self.state.poles, self.q_dual,
                                    self.b_dual)

    def with_flat(self, vec):
        """``FlowState.with_flat`` on the extended vector ``vec``."""
        plan = self.state.plan
        return self._from_stage(plan.stage(_flat_vector(vec,
                                                        plan.extended_size)))

    def _from_stage(self, stage):
        """``FlowState._from_stage``, with the dual slots read out of the
        stage's vector."""
        plan, y = self.state.plan, stage.y
        return _trusted(ExtendedState, state=self.state._from_stage(stage),
                        q_dual=tuple(y[q] for q in plan.q),
                        b_dual=tuple(y[b] for b in plan.b))
