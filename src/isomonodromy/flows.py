"""Monodromy-preserving deformation flows.

A flow direction prescribes rates for the base coordinates (pole positions
and irregular types).  Its action on a state decomposes as

* the reference lift: base coordinates move at the prescribed rates while
  every dressed polar coefficient is held constant in the flat ambient
  frame, and
* a Hamiltonian correction on the fiber chart, generated by the spectral
  Hamiltonians (residues of the quadratic trace form for position moves;
  the diagonal-jet pairing for irregular moves), obtained by inverting the
  chart symplectic form.

For position directions this reproduces the classical commutator equations
at simple poles and preserves monodromy at any pole order; for irregular
directions the decomposition is exact at order-2 poles (verified against
transported monodromy) and refused at higher orders, where the frozen-frame
lift is no longer the correct reference.

The correction Hamiltonian of a direction is coded once, in
``direction_differential``; the flow, the extended autonomous system and the
CLI's Hamiltonian fields all read it.  Its differential and the extended
system's section rates are taken in reverse mode, as weights on a pole's
jet pulled back to the chart or to the polar coefficients (``symplectic``).

One driver integrates both the flow and the extended autonomous system on
the flat state vector (``FlowState.flat``), with the library's DOP853
(``ode``).  Pole collision, coefficient blow-up and a degenerate chart are
terminal events of the integrator: they are tested on accepted steps only
and located by root-finding on the dense output, so ``abort_at`` is the
parameter at which the abort happened.  The
right-hand side solves the chart form without the rank guard
(``solve_chart``); the guard's measure is the event's.  The right-hand
side, the events and the samples share the stage states built from flat
vectors, so an accepted step's event reads the blocks and conditioning
of the state its last stage built.

Verification transports the keyholes of every sample of a trajectory in
one lock-step ``transport`` call (``monodromy_reps``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connection import branch_order, diagonalize_jet
from .errors import IntegrationAbort, MalformedInputError, PreconditionError
from .monodromy import (
    SAFETY,
    auto_base_point,
    conjugacy_residual,
    monodromy_reps,
)
from .states import ExtendedState, N_MAX
from .symplectic import (
    TAU_RANK,
    d_hamiltonian_beta_B,
    d_translation_hamiltonian,
    polar_weights,
    solve_chart,
    translation_hamiltonian_values,
)
from .ode import solve_ivp

TAU_COLLIDE = 1e-2
FLOW_TOL = 1e-10


# ---------------------------------------------------------------------------
# directions and derivatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Direction:
    """Rates on the base: ``dt_i/ds`` per pole and ``dLambda_irr/ds`` rows."""

    moduli_rates: dict          # pole index -> complex rate
    irregular_rates: dict       # pole index -> (l-1, n) complex array

    @classmethod
    def translation(cls, pole_index, rate=1.0):
        return cls({int(pole_index): complex(rate)}, {})

    @classmethod
    def irregular(cls, pole_index, rate_rows):
        return cls({}, {int(pole_index): np.asarray(rate_rows, dtype=complex)})

    def is_zero(self):
        return (all(r == 0 for r in self.moduli_rates.values())
                and all(not np.any(r) for r in self.irregular_rates.values()))


@dataclass
class StateDerivative:
    d_positions: np.ndarray     # (n_poles,)
    d_chart: np.ndarray         # (chart_dim,)
    d_irregular: list           # one (l-1, n) array per pole

    @classmethod
    def zero(cls, state):
        return cls(np.zeros(len(state.poles), dtype=complex),
                   np.zeros(state.chart_dim(), dtype=complex),
                   [np.zeros((p.l - 1, p.n), dtype=complex)
                    for p in state.poles])

    def flat(self):
        """The derivative in the layout of ``FlowState.flat``."""
        return np.concatenate([self.d_positions, self.d_chart]
                              + [r.ravel() for r in self.d_irregular])


def _check_poles(direction, state):
    for i in [*direction.moduli_rates, *direction.irregular_rates]:
        state.pole(i)


def lift_I0(direction, state):
    """Frozen-coefficient reference lift: base rates in, zero fiber motion.

    Positions move at the prescribed rates and the fixed diagonal irregular
    coefficients at theirs, while every dressed polar coefficient of the
    connection is carried along unchanged in the flat ambient frame.
    """
    _check_poles(direction, state)
    out = StateDerivative.zero(state)
    for i, rate in direction.moduli_rates.items():
        out.d_positions[i] = rate
    for i, rows in direction.irregular_rates.items():
        p = state.poles[i]
        rows = np.asarray(rows, dtype=complex)
        if rows.shape != (p.l - 1, p.n):
            raise MalformedInputError(
                f"irregular rate shape {rows.shape} does not match pole of "
                f"order {p.l}")
        out.d_irregular[i] = rows
    return out


def beta_for_rate(rate_rows, pole):
    """The truncated tail dual to a prescribed irregular rate, in the sorted
    torus coordinates of the diagonal-jet pairing.

    Row ``j`` of the rate moves the order ``-(j+2)`` coefficient of the
    pole's diagonal data (components in state order); the tail with that
    differential has order ``-(j+1)`` entry ``-rate_j / (j+1)``, with
    components re-indexed to the lexicographic eigenvalue-branch order the
    diagonal jet uses.
    """
    rate_rows = np.asarray(rate_rows, dtype=complex)
    if not rate_rows.shape[0]:
        return rate_rows
    perm = branch_order(pole.lam_irr[pole.l - 2])
    return np.stack([-rate_rows[j][perm] / (j + 1)
                     for j in range(rate_rows.shape[0])])


def direction_differential(direction, state):
    """Chart differential of the correction Hamiltonian of a direction.

    Position rates contribute the analytic residue differentials of
    ``res tr(A^2)``; irregular rates contribute the analytic differential of
    twice the diagonal-jet pairing (the chart form carries twice the
    canonical normalization, fixed once by the quadratic Hamiltonians), one
    reverse sweep of the formal diagonalization per pole.  Both are taken
    in reverse mode (``symplectic``).
    """
    _check_poles(direction, state)
    dH = np.zeros(state.chart_dim(), dtype=complex)
    for i, rate in direction.moduli_rates.items():
        if rate != 0:
            dH += rate * d_translation_hamiltonian(state, i)
    for i, rows in direction.irregular_rates.items():
        if not np.any(rows):
            continue
        p = state.poles[i]
        if p.l > 2:
            raise PreconditionError(
                "irregular deformation directions are supported at poles of "
                "order 2; the frozen-frame reference lift is not the correct "
                "decomposition at higher orders")
        beta = beta_for_rate(rows, p)
        # the chart form carries twice the canonical normalization (fixed by
        # the quadratic Hamiltonians) and the linear diagonal-jet pairing
        # enters with the opposite orientation; both are pinned against the
        # transported-monodromy oracle
        dH += -2.0 * d_hamiltonian_beta_B(state, i, beta)
    return dH


def isomonodromic_rhs(direction, state):
    """Reference lift plus Hamiltonian correction for the given direction.

    The correction is ``solve_chart``'s, without the rank guard of
    ``hamiltonian_vector_field``: the integrators test the guard's measure
    on accepted steps (the ``degenerate_chart`` event), and a stage that
    meets an exactly singular block raises ``DegenerateChartError``.
    """
    out = lift_I0(direction, state)
    if direction.is_zero():
        return out
    dH = direction_differential(direction, state)
    if np.any(dH):
        out.d_chart += solve_chart(dH, state)
    return out


# ---------------------------------------------------------------------------
# paths in the base
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowPath:
    """A path in the base over ``s in [0, 1]``, given by its rates:
    ``rates(s)`` is the direction at ``s``.

    The path stores no base point: the flow integrates one from the rates,
    starting at the state it is integrated from (``lift_I0`` moves positions
    and irregular types at ``rates(s)``).  The constructors take that state
    for a uniform call signature; the rates do not read it.
    """

    rates: object

    @classmethod
    def stationary(cls, state):
        return cls(lambda s: Direction({}, {}))

    @classmethod
    def pole_motion(cls, state, pole_index, velocity):
        """Move one pole at ``dt/ds = velocity(s)``."""
        return cls(lambda s: Direction({pole_index: velocity(s)}, {}))

    @classmethod
    def line(cls, state, pole_index, displacement):
        d = complex(displacement)
        return cls.pole_motion(state, pole_index, lambda s: d)

    @classmethod
    def semicircle(cls, state, pole_index, diameter, upper=True):
        """Half circle from ``t0`` to ``t0 + diameter`` (arc length ~ pi d/2),
        through ``t0 + d/2 + i d/2`` when ``upper`` (``- i d/2`` otherwise)."""
        d = complex(diameter)
        sign = -1.0 if upper else 1.0

        def velocity(s):
            return -(d / 2) * sign * 1j * np.pi * np.exp(sign * 1j * np.pi * s)

        return cls.pole_motion(state, pole_index, velocity)

    @classmethod
    def irregular_line(cls, state, pole_index, rate_rows, length=1.0):
        rate = np.asarray(rate_rows, dtype=complex)
        return cls(lambda s: Direction({}, {pole_index: length * rate}))


# ---------------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """The sampled states of a flow.  ``abort_kind`` names the event that
    ended an aborted trajectory (``pole_collision``,
    ``movable_singularity`` or ``degenerate_chart``), and ``abort_at`` the
    located ``s`` at which it fired; ``states`` end at the last sample
    before it."""

    samples: list               # s values
    states: list                # FlowState at each sample
    status: str = "completed"   # or 'aborted'
    abort_kind: str | None = None
    abort_at: float | None = None


def _abort_events(state, stage):
    """Terminal abort events on vectors whose first part is in the layout of
    ``state.flat()``, named by their abort kind: two poles closer than
    ``TAU_COLLIDE``, a coefficient entry beyond ``N_MAX``, or a chart whose
    ``chart_conditioning`` falls to ``TAU_RANK``.  The caps are read at
    call time.

    ``stage(y)`` is the flow state of a whole vector ``y``, the one the
    right-hand side last built from ``y`` when it was called there: on an
    accepted step, the state of the step's last stage.  So the
    ``degenerate_chart`` event reads that state's memoized Gram blocks and
    conditioning, which the start of the next sub-interval reads again."""
    m = len(state.poles)
    n_state = len(state.flat())
    pairs = np.triu_indices(m, 1)

    def pole_collision(s, y):
        gaps = np.abs(y[:m, None] - y[None, :m])[pairs]
        return np.min(gaps, initial=np.inf) - TAU_COLLIDE

    def movable_singularity(s, y):
        return N_MAX - np.max(np.abs(y[m:n_state]), initial=0.0)

    def degenerate_chart(s, y):
        return stage(y).conditioning - TAU_RANK

    return [pole_collision, movable_singularity, degenerate_chart]


def _integrate(start, state, field, tol, n_samples):
    """Integrate ``dx/ds = field(s, x)`` from ``start`` over ``s in [0, 1]``.

    ``start`` is ``state`` or an extended state over it; ``field`` returns
    the derivative in the layout of ``start.flat()``.  One ``solve_ivp`` call
    per sub-interval between samples; an abort ends the trajectory at the
    last sample, with ``abort_at`` the located ``s`` of the event.

    The right-hand side, the abort events and the samples share the stage
    states: the two last built from flat vectors, kept by the vectors'
    bytes.  An accepted step's events and the sample at its end read the
    state its last stage built, and the next sub-interval's start reads it
    again, so none of them builds its own.
    """
    if n_samples < 2:
        raise MalformedInputError(
            f"samples: {n_samples} given; a trajectory needs at least 2 "
            f"(s = 0 and s = 1)")
    # the last two built: solve_ivp's initial step probe comes between a
    # sub-interval's first right-hand side and its first event evaluation
    built = {}

    def stage(y):
        key = y.tobytes()
        if key not in built:
            if len(built) == 2:
                del built[next(iter(built))]
            built[key] = start.with_flat(y)
        return built[key]

    events = _abort_events(state, stage if start is state
                           else lambda y: stage(y).state)
    y = start.flat()
    samples, states = [0.0], [start]
    for event in events:
        if event(0.0, y) < 0:
            return Trajectory(samples, states, "aborted", event.__name__, 0.0)

    def rhs(s, y):
        return field(s, stage(y))

    # DOP853's floor for rtol, 100 eps (scipy's raises a smaller rtol to it
    # with a warning)
    rtol = max(SAFETY * tol, 100 * np.finfo(float).eps)
    svals = np.linspace(0.0, 1.0, n_samples)
    for s0, s1 in zip(svals[:-1], svals[1:]):
        sol = solve_ivp(rhs, (s0, s1), y, events=events, rtol=rtol,
                        atol=SAFETY * tol)
        if not sol.success:
            raise IntegrationAbort(f"flow integration failed: {sol.message}")
        if sol.status == 1:
            return Trajectory(samples, states, "aborted",
                              events[sol.event].__name__, sol.t_event)
        y = sol.y
        samples.append(float(s1))
        states.append(stage(y))
    return Trajectory(samples, states)


def integrate_flow(state, path, tol=FLOW_TOL, n_samples=9):
    """Integrate the deformation along the path; sample the trajectory.

    Pole collisions, coefficient blow-ups and degenerate charts abort with
    the partial trajectory flagged (``pole_collision`` /
    ``movable_singularity`` / ``degenerate_chart``) and located on the
    accepted steps (``abort_at``).
    """
    return _integrate(
        state, state,
        lambda s, st: isomonodromic_rhs(path.rates(s), st).flat(),
        tol, n_samples)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class DriftReport:
    samples: list
    invariants: np.ndarray        # (n_samples, k) conjugation invariants
    max_drift: float
    formal: list                  # per sample: list per pole of (l, n) diag orders -l..-1
    formal_residue_drift: float   # drift of the order -1 formal exponents
    base_point: complex
    conjugacy_residual: list      # per sample: against s = 0, by pole
    notes: list = field(default_factory=list)


def formal_invariants(state):
    """Diagonal jet data (orders -l .. -1) at every higher-order pole."""
    return [state.diagonal_jet(i)[: p.l] if p.l > 1
            else np.zeros((0, p.n), dtype=complex)
            for i, p in enumerate(state.poles)]


def verify_isomonodromy(trajectory, tol=FLOW_TOL, base_point=None):
    """Transport-based drift report for a sampled trajectory.

    Conjugation invariants of the monodromy generators are computed with a
    single base point fixed across samples; per-pole characteristic
    polynomials are tracked by pole identity.  The keyholes of every
    sample go through one lock-step transport (``monodromy_reps``), and
    each sample's matrices are the bits its own ``monodromy_rep`` gives.
    At higher-order poles the diagonal formal exponents ride along, and
    the drift of the order ``-1`` exponents (never prescribed by a path)
    is reported separately.  At n >= 3 the invariants miss some directions
    of the tuple; the ``conjugacy_residual`` of each sample's pole loops
    against the first sample's sees them all, and is reported, not
    checked.
    """
    if not trajectory.states:
        raise PreconditionError("empty trajectory")
    states = trajectory.states
    conns = [st.connection() for st in states]
    z0 = base_point if base_point is not None else \
        auto_base_point(conns[0].all_finite_poles())

    inv_rows, formal_rows, loop_rows = [], [], []
    for st, rep in zip(states, monodromy_reps(conns, z0, tol)):
        loops = [rep.matrix_for_pole(p.t) for p in st.poles]
        loop_rows.append(loops)
        chunks = []
        for M in loops:
            chunks.extend(np.poly(M).astype(complex).tolist())
        for M1, M2 in zip(rep.matrices, rep.matrices[1:]):
            chunks.append(complex(np.trace(M1 @ M2)))
        inv_rows.append(chunks)
        formal_rows.append(formal_invariants(st))

    inv = np.array(inv_rows)
    drift = float(np.max(np.abs(inv - inv[0]))) if inv.size else 0.0
    res_drift = 0.0
    for row in formal_rows:
        for i, bd in enumerate(row):
            if bd.shape[0]:
                base = formal_rows[0][i]
                res_drift = max(res_drift,
                                float(np.max(np.abs(bd[-1] - base[-1]))))
    notes = []
    if trajectory.status != "completed":
        notes.append(f"trajectory aborted: {trajectory.abort_kind} "
                     f"at s={trajectory.abort_at}")
    return DriftReport(list(trajectory.samples), inv, drift,
                       formal_rows, res_drift, z0,
                       [conjugacy_residual(loop_rows[0], loops)
                        for loops in loop_rows], notes)


# ---------------------------------------------------------------------------
# extended autonomous system
# ---------------------------------------------------------------------------

def section_S(state):
    """Section values: quadratic-differential slots and diagonal-jet slots.

    ``q_slots[i][m] = res(zeta^m Q)`` at pole i (zero for ``m >= 1`` under
    the fixed reference convention); ``b_slots[i]`` are the diagonal jet
    coefficients of orders ``0 .. l-2``.
    """
    vals = translation_hamiltonian_values(state)
    q_slots = []
    b_slots = []
    for i, p in enumerate(state.poles):
        q = np.zeros(p.l, dtype=complex)
        q[0] = vals[i]
        q_slots.append(q)
        if p.l == 1:
            b_slots.append(np.zeros((0, p.n), dtype=complex))
        else:
            b_slots.append(state.diagonal_jet(i)[p.l:])   # orders 0..l-2
    return tuple(q_slots), tuple(b_slots)


def extend_state(state):
    q_slots, b_slots = section_S(state)
    return ExtendedState(state, q_slots, b_slots)


def _section_rates(direction, state):
    """Derivatives of ``section_S`` along the reference lift of a direction,
    fiber frozen, in closed form and in reverse mode.

    The frozen fiber keeps every frame, so irregular rates move pole j's
    polar coefficients by the polar part of ``F dLambda F^-1``, and position
    rates move another pole's polar term as seen from pole i by
    ``d/d dist C (zeta + dist)**-k = -k C (zeta + dist)**-(k+1)``: an order
    ``k + 1`` term ``-(dt_i - dt_j) k C_k``.  At pole i the section values'
    weights on its jet are stacked, the q slot's as in
    ``d_translation_hamiltonian`` and the b slots' as one pullback of the
    unit weights on ``B``'s diagonal stacked, taken to every pole's polar
    coefficients by ``polar_weights`` and paired with these variations.
    """
    dt = np.zeros(len(state.poles), dtype=complex)
    for i, rate in direction.moduli_rates.items():
        dt[i] = rate
    # per group, through order l + 1: the lift's polar variations, and
    # k C_k at order k + 1
    moves = []
    for g in state.groups:
        dlam = np.zeros((len(g.index), 1, g.l, g.n, g.n), dtype=complex)
        for r, j in enumerate(g.index):
            for s, row in enumerate(direction.irregular_rates.get(j, ())):
                dlam[r, 0, s + 1] = np.diag(row)
        move = np.zeros((2, len(g.index), g.l + 1, g.n, g.n), dtype=complex)
        move[0, :, : g.l] = g.dressed_polar(dlam)[:, 0]
        move[1, :, 1:] = np.arange(1, g.l + 1)[:, None, None] * g.polar
        moves.append(move)
    dq, db = [], []
    for i, p in enumerate(state.poles):
        x = (p.l - 1) * p.n
        polar_w = np.empty((1 + x, p.l, p.n, p.n), dtype=complex)
        regular_w = np.zeros_like(polar_w)
        polar_w[0] = 2.0 * state.regular_jets[i]
        regular_w[0] = 2.0 * state.polar[i]
        if x:    # a unit weight on each entry of B's orders 0 .. l - 2
            units = np.zeros((x, 2 * p.l - 1, p.n))
            units[:, p.l:] = np.eye(x).reshape(x, p.l - 1, p.n)
            A_weight = diagonalize_jet(state.jet_at_pole(i),
                                       2 * p.l - 2).pullback(units)
            polar_w[1:] = A_weight[:, p.l - 1::-1]
            regular_w[1:, :-1] = A_weight[:, p.l:]
        rates = np.zeros(1 + x, dtype=complex)
        for g, move, W in zip(state.groups, moves, polar_weights(
                state, i, polar_w, regular_w, extra=1)):
            dC = move[0] - (dt[i] - dt[list(g.index)])[:, None, None, None] \
                * move[1]
            rates += np.einsum("gxkpq,gkqp->x", W, dC)
        dq.append(np.concatenate([rates[:1], np.zeros(p.l - 1)]))
        db.append(rates[1:].reshape(p.l - 1, p.n))
    return tuple(dq), tuple(db)


def extended_autonomous_rhs(direction, ext):
    """Hamiltonian dynamics of the autonomous system on the extended space.

    The state part is the isomonodromic field of the direction: the
    correction Hamiltonian it reads from the section values (``q_slots``
    for position rates, ``-2`` times the diagonal-jet pairing of
    ``b_slots`` for irregular rates) is the one ``direction_differential``
    differentiates.  The dual variables move with the base-partial
    derivative of the section values along the direction, fiber frozen,
    taken in closed form and in reverse mode (no shifted states).
    """
    state = ext.state
    out = isomonodromic_rhs(direction, state)
    dq, db = _section_rates(direction, state)
    return out, dq, db


def integrate_extended(ext, path, tol=FLOW_TOL, n_samples=9):
    """Integrate the autonomous system; returns the samples, the sampled
    extended states and ``(status, abort kind)``, aborting as
    ``integrate_flow`` does."""
    def field(s, e):
        d, dq, db = extended_autonomous_rhs(path.rates(s), e)
        return np.concatenate([d.flat()] + [np.ravel(q) for q in dq]
                              + [np.ravel(b) for b in db])

    traj = _integrate(ext, ext.state, field, tol, n_samples)
    return traj.samples, traj.states, (traj.status, traj.abort_kind)
