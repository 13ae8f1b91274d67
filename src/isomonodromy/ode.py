"""DOP853, its step loop and the ``solve_ivp`` loop, forward only: both of
the library's integrations run on them, over increasing ``t``.

DOP853 is the explicit Runge-Kutta pair of Dormand and Prince of order 8,
with error estimators of orders 5 and 3 and a dense output of order 7
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.5-6).  This module follows
scipy's ``scipy.integrate`` DOP853 operation for operation, so a run takes
scipy's steps and gets scipy's bits:

* the tableau, with the rows of the dense output: scipy's own file
  ``scipy.integrate._ivp.dop853_coefficients``, loaded alone;
* ``DOP853._initial_steps``, the start of a run (HNW II.4);
* ``error_norm``, a step's error estimate, from the 2-norms of its scaled
  order-5 and order-3 estimates (``norms``);
* ``step_factor``, the step-size control;
* ``rk_step``, the nonlinear stage loop;
* ``DOP853``, the one step loop: lanes of one system, each under its own
  step control, a round of attempts at a time;
* ``solve_ivp``, the integration loop, with terminal events.

The flows integrate with ``DOP853`` on one lane, whose attempt is
``rk_step``.  Transport integrates a linear system on many lanes in lock
step with ``monodromy._LinearDOP853``, a ``DOP853`` whose attempt is one
triangular solve per lane, its lanes' segments of one class stacked: the
start, the norm, the control and the loop are this module's, written
once.

``load_alone`` loads one module of scipy by itself, after only scipy's
top-level package: the tableau here, and transport's LAPACK extension in
``monodromy``.  Importing ``scipy.integrate`` would load some 580 modules
more, 345 of them scipy's.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from importlib import import_module
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from math import inf, isfinite, nextafter, sqrt

import numpy as np


def load_alone(name):
    """scipy's module ``name``: the module already loaded, if any, or else
    the file found in its package's directory and run under that name,
    without running that package or any between it and ``scipy`` (finding
    it imports only ``scipy``).  A package imported later gets no attribute
    for it: ``from package import module`` and ``sys.modules`` give it."""
    if name in sys.modules:
        return sys.modules[name]
    parts = name.split(".")
    spec = import_module(parts[0]).__spec__
    for depth in range(2, len(parts) + 1):
        path = spec.submodule_search_locations
        spec = path and PathFinder.find_spec(".".join(parts[:depth]), path)
        if not spec:
            raise ImportError(f"scipy's module {name} is missing", name=name)
    module = module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


# ---------------------------------------------------------------------------
# the tableau
# ---------------------------------------------------------------------------

_tableau = load_alone("scipy.integrate._ivp.dop853_coefficients")
N_STAGES = _tableau.N_STAGES
N_STAGES_EXTENDED = _tableau.N_STAGES_EXTENDED
INTERPOLATOR_POWER = _tableau.INTERPOLATOR_POWER
B, E3, E5, D = _tableau.B, _tableau.E3, _tableau.E5, _tableau.D
# the slices are scipy's DOP853's
A = _tableau.A[:N_STAGES, :N_STAGES]
C = _tableau.C[:N_STAGES]
A_EXTRA = _tableau.A[N_STAGES + 1:]
C_EXTRA = _tableau.C[N_STAGES + 1:]

# ---------------------------------------------------------------------------
# start, error norm and step-size control
# ---------------------------------------------------------------------------

ERROR_ESTIMATOR_ORDER = 7
ERROR_EXPONENT = -1 / (ERROR_ESTIMATOR_ORDER + 1)
STEP_SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
EPS = np.finfo(float).eps
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def norms(x):
    """The 2-norm of every row of ``x``, as ``np.linalg.norm`` takes it:
    ``sqrt(re.re + im.im)``, written out so that it runs on stacked
    rows."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def error_norm(h, norm5, norm3, size):
    """DOP853's error norm of a step of size ``h`` of a system of ``size``
    equations, from the 2-norms of its order-5 and order-3 error estimates
    divided by the step's scale."""
    err5_norm_2, err3_norm_2 = norm5 ** 2, norm3 ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / sqrt(denom * size)


def step_factor(norm, rejected):
    """``(accepted, factor)`` of an attempted step with error norm ``norm``:
    the step size is multiplied by ``factor``, and after a rejection since
    the last acceptance an accepted step does not grow it."""
    if norm < 1:
        if norm == 0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, STEP_SAFETY * norm ** ERROR_EXPONENT)
        if rejected:
            factor = min(1, factor)
        return True, factor
    return False, max(MIN_FACTOR, STEP_SAFETY * norm ** ERROR_EXPONENT)


# ---------------------------------------------------------------------------
# the stepper
# ---------------------------------------------------------------------------

def rk_step(fun, t, y, f, h, K):
    """One DOP853 step of size ``h`` from ``(t, y)`` with ``f = fun(t, y)``:
    the stages into the rows of ``K`` (the last is ``f_new``), and ``(y_new,
    f_new)``."""
    K[0] = f
    for s, (a, c) in enumerate(zip(A[1:], C[1:]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


class DOP853:
    """DOP853 on ``y' = fun(t, y)`` from ``t0`` forward to ``t_bound``, with
    relative and absolute tolerances ``rtol`` and ``atol``, on ``lanes``
    equal slices of ``y``, each under its own step control.  Here ``lanes``
    is 1; ``monodromy._LinearDOP853`` sets it from its segments.

    Every lane starts with ``f0`` on its own right-hand side
    (``_lane_rhs``) and the first step size of ``_initial_steps``, and
    keeps its own ``t``, step size and rejection flag.  A ``step`` runs
    rounds of attempts: a round takes one attempt of every unfinished lane
    with the one hook ``_attempt(y, t, h) -> (y_new, f_new, K)`` on the
    stacked lanes, and each lane's error norm (``_error_norms``) and
    ``step_factor`` decide it.  The ``step`` returns once every lane
    unfinished at its start has accepted a step, and a lane takes the steps
    and the bits it takes alone.  The solver's ``t`` is the least lane
    ``t``, ``t_old`` that at the step's start, and ``status`` is
    ``running``, ``finished`` or ``failed``.  ``nfev`` counts evaluations
    of the right-hand side.

    The lanes' state is updated in place, and is right after every
    ``step``.  A round does only what changes from round to round:
    ``_set_live`` runs when the set of unfinished lanes changes, and holds
    their rows of ``y`` and ``f`` (``rows``) as a slice when they are
    consecutive, so that a round reads them as views and writes an
    accepted round back in place, gathering and scattering rows only for
    a set with gaps.  The step control runs on Python floats, with libm's
    ``pow``, lane by lane.

    On its one lane, ``_attempt`` is ``rk_step``, and ``dense_output``
    interpolates the last step.
    """

    E3, E5 = E3, E5
    lanes = 1
    # labels of the lanes in a failure message
    names = None

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        y0 = np.asarray(y0)
        self.y = y0.astype(complex if np.iscomplexobj(y0) else float)
        if self.y.ndim != 1:
            raise ValueError("`y0` must be 1-dimensional.")
        if not np.isfinite(self.y).all():
            raise ValueError("All components of the initial state `y0` must "
                             "be finite.")
        if t_bound < t0:
            raise ValueError("DOP853 integrates forward only: t_bound < t0.")
        self._fun, self.rtol, self.atol = fun, rtol, atol
        self.t_old, self.t, self.t_bound = None, t0, t_bound
        self.status = "running"
        self.nfev = 0
        self.width = self.y.size // self.lanes
        ys = self.y.reshape(self.lanes, self.width)
        self.f = np.array([self._lane_rhs(k, t0, y) for k, y in enumerate(ys)])
        self.h_abs = self._initial_steps(t0, ys)
        self.ts = [float(t0)] * self.lanes
        self.rejected = [False] * self.lanes
        self._set_live(range(self.lanes))

    def fun(self, t, y):
        self.nfev += 1
        return np.asarray(self._fun(t, y), dtype=self.y.dtype)

    def _lane_rhs(self, k, t, y):
        return self.fun(t, y)

    def _initial_steps(self, t0, ys):
        # scipy's select_initial_step for every lane (HNW II.4): the scale
        # and the norms stacked over the lanes, the probe evaluation one
        # _lane_rhs per lane, and the rest on each lane's numpy scalars, as
        # scipy has them
        if not self.width:
            return [inf] * self.lanes
        interval_length = abs(self.t_bound - t0)
        if interval_length == 0.0:
            return [0.0] * self.lanes
        scale = self.atol + np.abs(ys) * self.rtol
        root = self.width ** 0.5
        d0 = norms(ys / scale) / root
        d1 = norms(self.f / scale) / root
        h0 = [min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b,
                  interval_length) for a, b in zip(d0, d1)]
        f1 = np.array([self._lane_rhs(k, t0 + h, y + h * f)
                       for k, (h, y, f) in enumerate(zip(h0, ys, self.f))])
        d2 = norms((f1 - self.f) / scale) / root
        out = []
        for h, b, c in zip(h0, d1, d2 / h0):
            if b <= 1e-15 and c <= 1e-15:
                h1 = max(1e-6, h * 1e-3)
            else:
                h1 = (0.01 / max(b, c)) ** (1 / (ERROR_ESTIMATOR_ORDER + 1))
            out.append(float(min(100 * h, h1, interval_length)))
        return out

    def _set_live(self, lanes):
        # the unfinished lanes, and their rows of y and f: a slice, read
        # and written in place, when they are consecutive
        live = self.live = [k for k in lanes if self.ts[k] < self.t_bound]
        self.rows = (slice(live[0], live[-1] + 1)
                     if live and live[-1] - live[0] == len(live) - 1
                     else live)

    def _attempt(self, y, t, h):
        # the one lane's step; the last attempt is the accepted step, the
        # one dense_output interpolates.  y is a view of self.y, which the
        # accepted step overwrites: y_old is a copy
        self.y_old, self.h_previous = y[0].copy(), h[0]
        self.K_extended = np.empty((N_STAGES_EXTENDED, self.width),
                                   dtype=self.y.dtype)
        K = self.K_extended[:N_STAGES + 1]
        y_new, f_new = rk_step(self.fun, t[0], y[0], self.f[0], h[0], K)
        return y_new[None], f_new[None], K[None]

    def _error_norms(self, K, h, scale):
        # the DOP853 error norm per lane from the E5 and E3 rows, each its
        # own vector-matrix product, with np.linalg.norm's 2-norm
        err = np.empty((len(K), 2, self.width), dtype=K.dtype)
        np.matmul(self.E5, K, out=err[:, 0])
        np.matmul(self.E3, K, out=err[:, 1])
        err /= scale[:, None]
        return [error_norm(h_k, norm5, norm3, self.width)
                for h_k, (norm5, norm3) in zip(h, norms(err).tolist())]

    def step(self):
        """One step of every unfinished lane; returns the failure message of
        a failed one, else None."""
        if self.status != "running":
            raise RuntimeError("Attempt to step on a failed or finished "
                               "solver.")
        t_old = self.t
        if self.y.size == 0 or t_old == self.t_bound:
            self.t_old, self.t, self.status = t_old, self.t_bound, "finished"
            return None
        ys = self.y.reshape(self.lanes, self.width)
        waiting = set(self.live)
        while waiting:
            live, ts, hs, t_new = self.live, [], [], []
            for k in live:
                # a step starts at its minimum step; a step size cut below
                # it, or one that is not finite (it would be cut forever),
                # fails the run
                t, h_abs = self.ts[k], self.h_abs[k]
                min_step = 10 * abs(nextafter(t, inf) - t)
                if h_abs < min_step and not self.rejected[k]:
                    h_abs = self.h_abs[k] = min_step
                if h_abs < min_step or not isfinite(h_abs):
                    self.status = "failed"
                    message = (TOO_SMALL_STEP if h_abs < min_step else
                               f"step size {h_abs} is not finite")
                    return (f"{self.names[k]}: {message}" if self.names
                            else message)
                t1 = min(t + h_abs, self.t_bound)
                ts.append(t)
                hs.append(t1 - t)
                t_new.append(t1)
            y = ys[self.rows]
            y_new, f_new, K = self._attempt(y, np.array(ts), np.array(hs))
            scale = (self.atol
                     + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol)
            accepted = []
            for i, (k, h, norm) in enumerate(zip(
                    live, hs, self._error_norms(K, hs, scale))):
                ok, factor = step_factor(norm, self.rejected[k])
                self.h_abs[k], self.rejected[k] = abs(h) * factor, not ok
                if ok:
                    self.ts[k] = t_new[i]
                    accepted.append(i)
                    waiting.discard(k)
            if len(accepted) == len(live):
                ys[self.rows], self.f[self.rows] = y_new, f_new
            elif accepted:
                lanes = [live[i] for i in accepted]
                ys[lanes], self.f[lanes] = y_new[accepted], f_new[accepted]
            if self.t_bound in (t_new[i] for i in accepted):
                self._set_live(live)
        self.t_old, self.t = t_old, min(self.ts)
        if self.t >= self.t_bound:
            self.status = "finished"
        return None

    def dense_output(self):
        """The order-7 interpolant ``sol(t)`` of the one lane's last step,
        from three more evaluations."""
        if self.t == self.t_old:
            return lambda t: self.y
        K, h = self.K_extended, self.h_previous
        for s, (a, c) in enumerate(zip(A_EXTRA, C_EXTRA),
                                   start=N_STAGES + 1):
            dy = np.dot(K[:s].T, a[:s]) * h
            K[s] = self.fun(self.t_old + c * h, self.y_old + dy)
        F = np.empty((INTERPOLATOR_POWER, self.y.size), dtype=self.y.dtype)
        f_old = K[0]
        delta_y = self.y - self.y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self.f[0] + f_old)
        F[3:] = h * np.dot(D, K)
        t_old, step, y_old = self.t_old, self.t - self.t_old, self.y_old

        def sol(t):
            x = (np.asarray(t) - t_old) / step
            y = np.zeros_like(y_old)
            for i, f in enumerate(reversed(F)):
                y += f
                if i % 2 == 0:
                    y *= x
                else:
                    y *= 1 - x
            y += y_old
            return y

        return sol


# ---------------------------------------------------------------------------
# the integration loop
# ---------------------------------------------------------------------------

@dataclass
class Solution:
    """A run of ``solve_ivp``.  ``t`` is the start, then the end of every
    step (the located event's ``t`` last, when one ended the run), and
    ``y`` the state at the end.  ``status`` is 0 when the run reached the
    end of its interval, 1 when ``event`` (an index into the events)
    fired at ``t_event``, and -1 when a step failed with ``message``."""

    t: list
    y: np.ndarray
    nfev: int
    status: int
    message: str | None = None
    event: int | None = None
    t_event: float | None = None

    @property
    def success(self):
        return self.status >= 0


def _locate(event, sol, t_old, t):
    # scipy.optimize is imported by the first run that fires an event
    from scipy.optimize import brentq
    return brentq(lambda s: event(s, sol(s)), t_old, t,
                  xtol=4 * EPS, rtol=4 * EPS)


def solve_ivp(fun, t_span, y0, method=DOP853, events=(), **options):
    """Integrate ``y' = fun(t, y)`` over ``t_span`` from ``y0`` with the
    stepper ``method(fun, t0, y0, t1, **options)``; returns a
    ``Solution``.

    Every event ``g(t, y)`` is terminal, and fires on an accepted step
    along which it falls to zero: ``g >= 0`` at the step's start and ``g <=
    0`` at its end (scipy's terminal event of ``direction`` -1).  Its root
    is located on the step's dense output by ``brentq`` to ``4 eps``, and
    the run ends at the earliest root, the earliest event on a tie.
    """
    t0, t1 = map(float, t_span)
    solver = method(fun, t0, y0, t1, **options)
    ts = [t0]
    g = [event(t0, y0) for event in events]
    status, message, fired, t_event = None, None, None, None
    while status is None:
        message = solver.step()
        if solver.status == "failed":
            status = -1
            break
        if solver.status == "finished":
            status = 0
        t, y = solver.t, solver.y
        if events:
            g_new = [event(t, y) for event in events]
            active = [i for i, (a, b) in enumerate(zip(g, g_new))
                      if a >= 0 >= b]
            if active:
                sol = solver.dense_output()
                roots = [_locate(events[i], sol, solver.t_old, t)
                         for i in active]
                first = min(range(len(active)), key=roots.__getitem__)
                status, fired = 1, active[first]
                t = t_event = roots[first]
                y = sol(t)
            g = g_new
        ts.append(t)
    return Solution(ts, solver.y if status != 1 else y, solver.nfev, status,
                    message, fired, t_event)
