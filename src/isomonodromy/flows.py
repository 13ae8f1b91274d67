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

A direction is checked once, by ``_checked_rates``: the lift, the
differential and the section rates read its irregular rates from that
output.  The correction Hamiltonian of a direction is coded once, in
``direction_differential``; the flow, the extended autonomous system and the
CLI's Hamiltonian fields read it through ``RhsPlan.differential``.  Its
differential and the extended system's section rates are taken in reverse
mode, as weights on a pole's jet pulled back to the chart or to the polar
coefficients (``symplectic``), the b slots' by ``_pairing_weights``.

One driver integrates both the flow and the extended autonomous system on
the flat state vector (``FlowState.flat``), with the library's DOP853
(``ode``).  Its right-hand side (``RhsPlan``) extends the start state's
own chart plan (``FlowState.plan``), compiled once per chart layout and
shared by every state rebuilt along the flow: each evaluation builds the
plan's whole stage of the flat vector and no state or derivative object.
The public ``isomonodromic_rhs``, ``direction_differential``,
``lift_I0`` and ``extended_autonomous_rhs`` run the same plan on the
stage the state they are given holds of itself; a ``StateDerivative``
holds the plan's flat vector and reads its parts by the plan's index
arrays.  Pole collision, coefficient blow-up and a degenerate chart are
terminal events of the integrator: they are tested on accepted steps only
and located by root-finding on the dense output, so ``abort_at`` is the
parameter at which the abort happened.  The right-hand side solves the
chart form without the rank guard (``solve_chart``); the guard's measure
is the event's, taken on the Gram blocks that the step's last evaluation
assembled.  A state is built only at the samples, from the stage the last
step built (``_from_stage``).

Verification transports the keyholes of every sample of a trajectory in
one lock-step ``transport`` call (``monodromy_reps``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connection import branch_order
from .errors import IntegrationAbort, MalformedInputError, PreconditionError
from .monodromy import (
    SAFETY,
    auto_base_point,
    conjugacy_residual,
    min_separation,
    monodromy_reps,
)
from .states import ExtendedState
from .symplectic import (
    TAU_RANK,
    ChartPlan,
    _pairing_weights,
    chart_conditioning,
    dress,
    solve_chart,
    translation_hamiltonian_values,
)
from .ode import solve_ivp

TAU_COLLIDE = 1e-2
N_MAX = 1e8   # coefficient-norm cap; beyond this a flow is flagged as blown up
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


@dataclass
class StateDerivative:
    """A state's derivative: the right-hand side's vector ``dy``, in the
    layout of ``FlowState.flat``; its parts are read by the plan's index
    arrays, as copies, ``d_irregular`` as one ``(l-1, n)`` array per pole."""

    dy: np.ndarray
    plan: ChartPlan = field(repr=False, compare=False)    # the layout

    @property
    def d_positions(self):
        return self.dy[self.plan.positions]

    @property
    def d_chart(self):
        return self.dy[self.plan.chart]

    @property
    def d_irregular(self):
        return [self.dy[irr] for irr in self.plan.irr]

    def flat(self):
        return self.dy.copy()


def _checked_rates(direction, state):
    """The direction's irregular rates as arrays, its pole indices and rate
    shapes checked (``FlowState.pole``, ``irregular_rows``): the one reader
    of its irregular rates."""
    for i in direction.moduli_rates:
        state.pole(i)
    return {i: state.irregular_rows(i, rows, "irregular rate")
            for i, rows in direction.irregular_rates.items()}


def lift_I0(direction, state):
    """Frozen-coefficient reference lift: base rates in, zero fiber motion.

    Positions move at the prescribed rates and the fixed diagonal irregular
    coefficients at theirs, while every dressed polar coefficient of the
    connection is carried along unchanged in the flat ambient frame.
    """
    return StateDerivative(RhsPlan(state).lift(
        direction, _checked_rates(direction, state)), state.plan)


def beta_for_rate(rate_rows, lead):
    """The truncated tail dual to an irregular rate at a pole of leading type
    ``lead``, in the sorted torus coordinates of the diagonal-jet pairing.

    Row ``j`` of the rate moves the order ``-(j+2)`` coefficient of the
    pole's diagonal data (components in state order); the tail with that
    differential has order ``-(j+1)`` entry ``-rate_j / (j+1)``, with
    components re-indexed to the lexicographic eigenvalue-branch order the
    diagonal jet uses.
    """
    rate_rows = np.asarray(rate_rows, dtype=complex)
    perm = branch_order(lead)
    return np.stack([-rate_rows[j][perm] / (j + 1)
                     for j in range(rate_rows.shape[0])])


def direction_differential(direction, state):
    """Chart differential of the correction Hamiltonian of a direction.

    Position rates contribute the analytic residue differentials of
    ``res tr(A^2)``; irregular rates contribute the analytic differential of
    twice the diagonal-jet pairing (the chart form carries twice the
    canonical normalization, fixed once by the quadratic Hamiltonians), one
    reverse sweep of the formal diagonalization per pole.  Both are taken
    in reverse mode (``symplectic``), by ``RhsPlan.differential``.
    """
    return RhsPlan(state).differential(
        direction, _checked_rates(direction, state), state.stage)


def isomonodromic_rhs(direction, state):
    """Reference lift plus Hamiltonian correction for the given direction:
    ``RhsPlan``'s, split into its parts.

    The correction is ``solve_chart``'s, without the rank guard of
    ``hamiltonian_vector_field``: the integrators test the guard's measure
    on accepted steps (the ``degenerate_chart`` event), and a stage that
    meets an exactly singular block raises ``DegenerateChartError``.
    """
    return StateDerivative(RhsPlan(state)(direction, state.stage),
                           state.plan)


# ---------------------------------------------------------------------------
# the right-hand side, compiled per chart layout
# ---------------------------------------------------------------------------

class RhsPlan(ChartPlan):
    """The isomonodromic right-hand side compiled for one chart layout:
    ``state``'s own ``ChartPlan``, whose compiled layout and tables it
    shares rather than compiling them again, with the direction's lift,
    differential and solve, and with ``extended`` the extended system's
    section rates.

    Calling the plan on a direction and a stage (``stage(y)``) gives
    ``dy/ds`` in the layout of ``y``: the flow's, and with ``extended`` the
    extended system's, whose dual slots follow.  No state or derivative
    object is built, and a state's stage is the same plan's, so the bits
    are a state's.
    """

    def __init__(self, state, extended=False):
        vars(self).update(vars(state.plan))
        self.state, self.extended = state, extended

    def stage(self, y):
        """``ChartPlan.stage`` with its regular jets and chart half built
        at once: the right-hand side reads them all."""
        st = super().stage(y)
        self._chart_half(st)
        st.R = self._regular_jets(st)
        return st

    def __call__(self, direction, st):
        """``dy/ds`` along ``direction`` at the stage ``st``: the reference
        lift, plus the correction ``solve_chart`` takes from the
        direction's differential, plus the section rates when the plan is
        extended."""
        rates = _checked_rates(direction, self.state)
        dy = self.lift(direction, rates)
        dH = self.differential(direction, rates, st)
        if dH.any():
            dy[self.chart] += solve_chart(dH, st)
        if self.extended:
            self.put_duals(dy, *self.section_rates(direction, rates, st))
        return dy

    def lift(self, direction, rates):
        """``lift_I0`` in the layout of ``y``, given the direction's
        ``_checked_rates``."""
        dy = np.zeros(self.extended_size if self.extended else self.size,
                      dtype=complex)
        for i, rate in direction.moduli_rates.items():
            dy[self.positions[i]] = rate
        for i, rows in rates.items():
            dy[self.irr[i]] = rows
        return dy

    def differential(self, direction, rates, st):
        """``direction_differential`` at the stage ``st``, given the
        direction's ``_checked_rates``: each position rate times
        ``d_translation_hamiltonian``, each irregular rate times ``-2
        d_hamiltonian_beta_B``, as those take them on a state."""
        dH = np.zeros(self.dim, dtype=complex)
        for i, rate in direction.moduli_rates.items():
            if rate != 0:
                dH += rate * self.translation_differential(st, i)
        for i, rows in rates.items():
            if not rows.any():
                continue
            l = self.orders[i]
            if l > 2:
                raise PreconditionError(
                    "irregular deformation directions are supported at "
                    "poles of order 2; the frozen-frame reference lift is "
                    "not the correct decomposition at higher orders")
            beta = beta_for_rate(rows, st.y[self.irr[i][l - 2]])
            # the chart form carries twice the canonical normalization
            # (fixed by the quadratic Hamiltonians) and the linear
            # diagonal-jet pairing enters with the opposite orientation;
            # both are pinned against the transported-monodromy oracle
            dH += -2.0 * self.pairing_differential(st, i, beta)
        return dH

    def section_rates(self, direction, rates, st):
        """Derivatives of ``section_S`` along the reference lift of a
        direction, fiber frozen, in closed form and in reverse mode, given
        the direction's ``_checked_rates``.

        The frozen fiber keeps every frame, so irregular rates move pole
        j's polar coefficients by the polar part of ``F dLambda F^-1``, and
        position rates move another pole's polar term as seen from pole i
        by ``d/d dist C (zeta + dist)**-k = -k C (zeta + dist)**-(k+1)``:
        an order ``k + 1`` term ``-(dt_i - dt_j) k C_k``.  At pole i the
        section values' weights on its jet are stacked, the q slot's as in
        ``d_translation_hamiltonian`` and the b slots' as one
        ``_pairing_weights`` of the unit ``beta`` on ``B``'s entries stacked,
        taken to every pole's polar coefficients by ``ChartPlan.weights``
        and paired with these variations."""
        n = self.n
        dt = np.zeros(self.m, dtype=complex)
        for i, rate in direction.moduli_rates.items():
            dt[i] = rate
        # per group, through order l + 1: the lift's polar variations, and
        # k C_k at order k + 1
        moves = []
        for g, (F, F_inv), P in zip(self.groups, st.frames, st.P):
            move = np.zeros((2, len(g.index), g.l + 1, n, n), dtype=complex)
            rows = [rates.get(j, ()) for j in g.index]
            # without irregular rates the dressed variation is zero (the
            # accumulation from +0 takes every -0 product to +0)
            if any(len(r) for r in rows):
                dlam = np.zeros((len(g.index), 1, g.l, n, n), dtype=complex)
                for r, rate in enumerate(rows):
                    for s, row in enumerate(rate):
                        dlam[r, 0, s + 1] = np.diag(row)
                move[0, :, : g.l] = dress(F, F_inv, dlam)[:, 0]
            move[1, :, 1:] = np.arange(1, g.l + 1)[:, None, None] * P
            moves.append((move, dt[g.at]))
        dq, db = [], []
        for i, l in enumerate(self.orders):
            x = (l - 1) * n
            polar_w = (2.0 * self.regular(st, i))[None]
            regular_w = (2.0 * self.polar(st, i))[None]
            if x:
                polar_w = np.concatenate(
                    [polar_w, np.empty((x, l, n, n), dtype=complex)])
                regular_w = np.concatenate(
                    [regular_w, np.zeros((x, l, n, n), dtype=complex)])
                polar_w[1:], regular_w[1:, :-1] = _pairing_weights(
                    self.jet(st, i), np.eye(x).reshape(x, l - 1, n))
            dS = np.zeros(1 + x, dtype=complex)
            for (move, dt_g), W in zip(moves, self.weights(
                    st.y, i, polar_w, regular_w, extra=1)):
                dC = move[0] - (dt[i] - dt_g)[:, None, None, None] * move[1]
                dS += np.einsum("gxkpq,gkqp->x", W, dC)
            q = np.zeros(l, dtype=complex)
            q[0] = dS[0]
            dq.append(q)
            db.append(dS[1:].reshape(l - 1, n))
        return tuple(dq), tuple(db)


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
    before it.  ``nfev`` lists the right-hand side evaluations of each
    sub-interval integrated, the aborted one last."""

    samples: list               # s values
    states: list                # FlowState at each sample
    status: str = "completed"   # or 'aborted'
    abort_kind: str | None = None
    abort_at: float | None = None
    nfev: list = field(default_factory=list)


def _abort_events(plan, stage):
    """Terminal abort events on flat vectors, read by the ``ChartPlan``
    ``plan``, named by their abort kind: two poles closer than
    ``TAU_COLLIDE``, a coefficient entry beyond ``N_MAX``, or a chart whose
    ``chart_conditioning`` falls to ``TAU_RANK``; caps read at call time.

    ``stage(y)`` is the plan's stage of a whole vector ``y``, the one the
    right-hand side last built from ``y`` when it was called there: on an
    accepted step, the stage of the step's last evaluation.  So the
    ``degenerate_chart`` event takes the singular values of the Gram blocks
    that evaluation assembled."""
    def pole_collision(s, y):
        return min_separation(y[plan.positions]) - TAU_COLLIDE

    def movable_singularity(s, y):
        return N_MAX - np.max(np.abs(y[plan.coefficients]), initial=0.0)

    def degenerate_chart(s, y):
        return chart_conditioning(stage(y)) - TAU_RANK

    return [pole_collision, movable_singularity, degenerate_chart]


def _integrate(start, path, tol, n_samples):
    """Integrate the flow along ``path`` from ``start`` over ``s in [0,
    1]``: a state, or an extended state over one, whose system
    ``RhsPlan`` runs on the start state's plan.  One ``solve_ivp``
    call per sub-interval between samples; an abort ends the trajectory at
    the last sample, with ``abort_at`` the located ``s`` of the event.

    The right-hand side, the abort events and the samples share the
    plan's stages: the two last built, kept by their vectors' bytes and
    built on a copy of them, which the solver's buffers do not share.  An
    accepted step's events, the sample there (``_from_stage``) and the
    next sub-interval's start read the stage its last evaluation built.
    """
    if n_samples < 2:
        raise MalformedInputError(
            f"samples: {n_samples} given; a trajectory needs at least 2 "
            f"(s = 0 and s = 1)")
    state = start.state if isinstance(start, ExtendedState) else start
    plan = RhsPlan(state, extended=start is not state)
    # the last two built: solve_ivp's initial step probe comes between a
    # sub-interval's first right-hand side and its first event evaluation
    built = {}

    def stage(y):
        key = y.tobytes()
        if key not in built:
            if len(built) == 2:
                del built[next(iter(built))]
            built[key] = plan.stage(np.frombuffer(key, dtype=y.dtype))
        return built[key]

    events = _abort_events(plan, stage)
    y = start.flat()
    samples, states, nfev = [0.0], [start], []
    for event in events:
        if event(0.0, y) < 0:
            return Trajectory(samples, states, "aborted", event.__name__, 0.0)

    def rhs(s, y):
        return plan(path.rates(s), stage(y))

    # DOP853's floor for rtol, 100 eps (scipy's raises a smaller rtol to it
    # with a warning)
    rtol = max(SAFETY * tol, 100 * np.finfo(float).eps)
    svals = np.linspace(0.0, 1.0, n_samples)
    for s0, s1 in zip(svals[:-1], svals[1:]):
        sol = solve_ivp(rhs, (s0, s1), y, events=events, rtol=rtol,
                        atol=SAFETY * tol)
        nfev.append(sol.nfev)
        if not sol.success:
            raise IntegrationAbort(f"flow integration failed: {sol.message}")
        if sol.status == 1:
            return Trajectory(samples, states, "aborted",
                              events[sol.event].__name__, sol.t_event, nfev)
        y = sol.y
        samples.append(float(s1))
        states.append(start._from_stage(stage(y)))
    return Trajectory(samples, states, nfev=nfev)


def integrate_flow(state, path, tol=FLOW_TOL, n_samples=9):
    """Integrate the deformation along the path; sample the trajectory.

    Pole collisions, coefficient blow-ups and degenerate charts abort with
    the partial trajectory flagged (``pole_collision`` /
    ``movable_singularity`` / ``degenerate_chart``) and located on the
    accepted steps (``abort_at``).
    """
    return _integrate(state, path, tol, n_samples)


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
    fiber frozen: ``RhsPlan.section_rates``."""
    return RhsPlan(state).section_rates(
        direction, _checked_rates(direction, state), state.stage)


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
    plan, st = RhsPlan(ext.state), ext.state.stage
    rates = _checked_rates(direction, ext.state)
    return (StateDerivative(plan(direction, st), ext.state.plan),
            *plan.section_rates(direction, rates, st))


def integrate_extended(ext, path, tol=FLOW_TOL, n_samples=9):
    """Integrate the autonomous system; returns the samples, the sampled
    extended states and ``(status, abort kind)``, aborting as
    ``integrate_flow`` does."""
    traj = _integrate(ext, path, tol, n_samples)
    return traj.samples, traj.states, (traj.status, traj.abort_kind)
