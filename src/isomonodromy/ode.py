"""DOP853, its step loop and the ``solve_ivp`` loop, which both of the
library's integrations run on.

DOP853 is the explicit Runge-Kutta pair of Dormand and Prince of order 8,
with error estimators of orders 5 and 3 and a dense output of order 7
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.5-6).  This module follows
scipy's ``scipy.integrate`` DOP853 operation for operation, so a run takes
scipy's steps and gets scipy's bits:

* the tableau, with the rows of the dense output;
* ``select_initial_step``, the start of a run (HNW II.4);
* ``error_norm``, a step's error estimate, from the 2-norms of its scaled
  order-5 and order-3 estimates;
* ``step_factor``, the step-size control;
* ``rk_step``, the nonlinear stage loop;
* ``DOP853``, the one step loop: lanes of one system, each under its own
  step control, a round of attempts at a time;
* ``solve_ivp``, the integration loop, with terminal events.

The flows integrate with ``DOP853`` on one lane, whose attempt is
``rk_step``.  Transport integrates a linear system on many lanes in lock
step with ``monodromy._LinearDOP853``, a ``DOP853`` whose attempt is one
triangular solve per lane: the start, the norm, the control and the loop
are this module's, written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import isfinite, nextafter, sqrt

import numpy as np

# ---------------------------------------------------------------------------
# the tableau
# ---------------------------------------------------------------------------

# The coefficients below are those of scipy's
# scipy/integrate/_ivp/dop853_coefficients.py (scipy 1.17), which carries
# this notice:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

_C = np.array([0.0,
               0.526001519587677318785587544488e-01,
               0.789002279381515978178381316732e-01,
               0.118350341907227396726757197510,
               0.281649658092772603273242802490,
               0.333333333333333333333333333333,
               0.25,
               0.307692307692307692307692307692,
               0.651282051282051282051282051282,
               0.6,
               0.857142857142857142857142857142,
               1.0,
               1.0,
               0.1,
               0.2,
               0.777777777777777777777777777778])

_A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
_A[1, 0] = 5.26001519587677318785587544488e-2

_A[2, 0] = 1.97250569845378994544595329183e-2
_A[2, 1] = 5.91751709536136983633785987549e-2

_A[3, 0] = 2.95875854768068491816892993775e-2
_A[3, 2] = 8.87627564304205475450678981324e-2

_A[4, 0] = 2.41365134159266685502369798665e-1
_A[4, 2] = -8.84549479328286085344864962717e-1
_A[4, 3] = 9.24834003261792003115737966543e-1

_A[5, 0] = 3.7037037037037037037037037037e-2
_A[5, 3] = 1.70828608729473871279604482173e-1
_A[5, 4] = 1.25467687566822425016691814123e-1

_A[6, 0] = 3.7109375e-2
_A[6, 3] = 1.70252211019544039314978060272e-1
_A[6, 4] = 6.02165389804559606850219397283e-2
_A[6, 5] = -1.7578125e-2

_A[7, 0] = 3.70920001185047927108779319836e-2
_A[7, 3] = 1.70383925712239993810214054705e-1
_A[7, 4] = 1.07262030446373284651809199168e-1
_A[7, 5] = -1.53194377486244017527936158236e-2
_A[7, 6] = 8.27378916381402288758473766002e-3

_A[8, 0] = 6.24110958716075717114429577812e-1
_A[8, 3] = -3.36089262944694129406857109825
_A[8, 4] = -8.68219346841726006818189891453e-1
_A[8, 5] = 2.75920996994467083049415600797e1
_A[8, 6] = 2.01540675504778934086186788979e1
_A[8, 7] = -4.34898841810699588477366255144e1

_A[9, 0] = 4.77662536438264365890433908527e-1
_A[9, 3] = -2.48811461997166764192642586468
_A[9, 4] = -5.90290826836842996371446475743e-1
_A[9, 5] = 2.12300514481811942347288949897e1
_A[9, 6] = 1.52792336328824235832596922938e1
_A[9, 7] = -3.32882109689848629194453265587e1
_A[9, 8] = -2.03312017085086261358222928593e-2

_A[10, 0] = -9.3714243008598732571704021658e-1
_A[10, 3] = 5.18637242884406370830023853209
_A[10, 4] = 1.09143734899672957818500254654
_A[10, 5] = -8.14978701074692612513997267357
_A[10, 6] = -1.85200656599969598641566180701e1
_A[10, 7] = 2.27394870993505042818970056734e1
_A[10, 8] = 2.49360555267965238987089396762
_A[10, 9] = -3.0467644718982195003823669022

_A[11, 0] = 2.27331014751653820792359768449
_A[11, 3] = -1.05344954667372501984066689879e1
_A[11, 4] = -2.00087205822486249909675718444
_A[11, 5] = -1.79589318631187989172765950534e1
_A[11, 6] = 2.79488845294199600508499808837e1
_A[11, 7] = -2.85899827713502369474065508674
_A[11, 8] = -8.87285693353062954433549289258
_A[11, 9] = 1.23605671757943030647266201528e1
_A[11, 10] = 6.43392746015763530355970484046e-1

_A[12, 0] = 5.42937341165687622380535766363e-2
_A[12, 5] = 4.45031289275240888144113950566
_A[12, 6] = 1.89151789931450038304281599044
_A[12, 7] = -5.8012039600105847814672114227
_A[12, 8] = 3.1116436695781989440891606237e-1
_A[12, 9] = -1.52160949662516078556178806805e-1
_A[12, 10] = 2.01365400804030348374776537501e-1
_A[12, 11] = 4.47106157277725905176885569043e-2

_A[13, 0] = 5.61675022830479523392909219681e-2
_A[13, 6] = 2.53500210216624811088794765333e-1
_A[13, 7] = -2.46239037470802489917441475441e-1
_A[13, 8] = -1.24191423263816360469010140626e-1
_A[13, 9] = 1.5329179827876569731206322685e-1
_A[13, 10] = 8.20105229563468988491666602057e-3
_A[13, 11] = 7.56789766054569976138603589584e-3
_A[13, 12] = -8.298e-3

_A[14, 0] = 3.18346481635021405060768473261e-2
_A[14, 5] = 2.83009096723667755288322961402e-2
_A[14, 6] = 5.35419883074385676223797384372e-2
_A[14, 7] = -5.49237485713909884646569340306e-2
_A[14, 10] = -1.08347328697249322858509316994e-4
_A[14, 11] = 3.82571090835658412954920192323e-4
_A[14, 12] = -3.40465008687404560802977114492e-4
_A[14, 13] = 1.41312443674632500278074618366e-1

_A[15, 0] = -4.28896301583791923408573538692e-1
_A[15, 5] = -4.69762141536116384314449447206
_A[15, 6] = 7.68342119606259904184240953878
_A[15, 7] = 4.06898981839711007970213554331
_A[15, 8] = 3.56727187455281109270669543021e-1
_A[15, 12] = -1.39902416515901462129418009734e-3
_A[15, 13] = 2.9475147891527723389556272149
_A[15, 14] = -9.15095847217987001081870187138

B = _A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# end of the vendored coefficients; the slices are scipy's DOP853's
A = _A[:N_STAGES, :N_STAGES]
C = _C[:N_STAGES]
A_EXTRA = _A[N_STAGES + 1:]
C_EXTRA = _C[N_STAGES + 1:]

# ---------------------------------------------------------------------------
# start, error norm and step-size control
# ---------------------------------------------------------------------------

ERROR_ESTIMATOR_ORDER = 7
ERROR_EXPONENT = -1 / (ERROR_ESTIMATOR_ORDER + 1)
STEP_SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
EPS = np.finfo(float).eps
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def rms_norm(x):
    return np.linalg.norm(x) / x.size ** 0.5


def select_initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """The first step size from ``t0`` toward ``t_bound``, from ``f0 =
    fun(t0, y0)`` and one more evaluation (HNW II.4)."""
    if y0.size == 0:
        return np.inf
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0 = rms_norm(y0 / scale)
    d1 = rms_norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = rms_norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (ERROR_ESTIMATOR_ORDER + 1))
    return min(100 * h0, h1, interval_length)


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
    """DOP853 on ``y' = fun(t, y)`` from ``t0`` toward ``t_bound``, with
    relative and absolute tolerances ``rtol`` and ``atol``, on ``lanes``
    equal slices of ``y``, each under its own step control.  Here ``lanes``
    is 1; ``monodromy._LinearDOP853`` sets it from its segments.

    Every lane starts with ``f0`` and ``select_initial_step`` on its own
    right-hand side (``_lane_rhs``), and keeps its own ``t``, step size and
    rejection flag.  A ``step`` runs rounds of attempts: a round takes one
    attempt of every unfinished lane with the one hook ``_attempt(y, t, h)
    -> (y_new, f_new, K)`` on the stacked lanes, and each lane's error norm
    (``_error_norms``) and ``step_factor`` decide it.  The ``step`` returns
    once every lane unfinished at its start has accepted a step, and a lane
    takes the steps and the bits it takes alone.  The solver's ``t`` is the
    least lane ``t``, ``t_old`` that at the step's start, and ``status`` is
    ``running``, ``finished`` or ``failed``.  ``nfev`` counts evaluations
    of the right-hand side.  The lanes' state is updated in place.

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
        self._fun, self.rtol, self.atol = fun, rtol, atol
        self.t_old, self.t, self.t_bound = None, t0, t_bound
        self.direction = 1.0 if t_bound >= t0 else -1.0
        self.status = "running"
        self.nfev = 0
        self.width = self.y.size // self.lanes
        ys = self.y.reshape(self.lanes, self.width)
        self.f = np.array([self._lane_rhs(k, t0, y) for k, y in enumerate(ys)])
        self.h_abs = [float(select_initial_step(
            partial(self._lane_rhs, k), t0, y, t_bound, f, self.direction,
            rtol, atol)) for k, (y, f) in enumerate(zip(ys, self.f))]
        self.ts = [float(t0)] * self.lanes
        self.rejected = [False] * self.lanes
        self._set_live(range(self.lanes))

    def fun(self, t, y):
        self.nfev += 1
        return np.asarray(self._fun(t, y), dtype=self.y.dtype)

    def _lane_rhs(self, k, t, y):
        return self.fun(t, y)

    def _set_live(self, lanes):
        # the unfinished lanes
        self.live = [k for k in lanes
                     if self.direction * (self.ts[k] - self.t_bound) < 0]

    def _attempt(self, y, t, h):
        # the one lane's step; the last attempt is the accepted step, the
        # one dense_output interpolates
        self.y_old, self.h_previous = y[0], h[0]
        self.K_extended = np.empty((N_STAGES_EXTENDED, self.width),
                                   dtype=self.y.dtype)
        K = self.K_extended[:N_STAGES + 1]
        y_new, f_new = rk_step(self.fun, t[0], y[0], self.f[0], h[0], K)
        return y_new[None], f_new[None], K[None]

    def _error_norms(self, K, h, scale):
        # the DOP853 error norm per lane from the E5 and E3 rows, each its
        # own vector-matrix product, with np.linalg.norm's 2-norm
        # sqrt(re.re + im.im) written out
        err = np.empty((len(K), 2, self.width), dtype=K.dtype)
        np.matmul(self.E5, K, out=err[:, 0])
        np.matmul(self.E3, K, out=err[:, 1])
        err /= scale[:, None]
        norms = np.sqrt(np.vecdot(err.real, err.real)
                        + np.vecdot(err.imag, err.imag)).tolist()
        return [error_norm(h_k, norm5, norm3, self.width)
                for h_k, (norm5, norm3) in zip(h, norms)]

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
                min_step = 10 * abs(nextafter(t, self.direction * np.inf) - t)
                if h_abs < min_step and not self.rejected[k]:
                    h_abs = self.h_abs[k] = min_step
                if h_abs < min_step or not isfinite(h_abs):
                    self.status = "failed"
                    message = (TOO_SMALL_STEP if h_abs < min_step else
                               f"step size {h_abs} is not finite")
                    return (f"{self.names[k]}: {message}" if self.names
                            else message)
                t1 = t + h_abs * self.direction
                if self.direction * (t1 - self.t_bound) > 0:
                    t1 = self.t_bound
                ts.append(t)
                hs.append(t1 - t)
                t_new.append(t1)
            y = ys[live]
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
            if accepted:
                lanes = [live[i] for i in accepted]
                ys[lanes] = y_new[accepted]
                self.f[lanes] = f_new[accepted]
                if self.t_bound in (t_new[i] for i in accepted):
                    self._set_live(live)
        self.t_old, self.t = t_old, min(self.ts)
        if self.direction * (self.t - self.t_bound) >= 0:
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
    the run ends at the first root in the direction of integration, the
    earliest event on a tie.
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
                first = min(range(len(active)),
                            key=lambda j: roots[j] * solver.direction)
                status, fired = 1, active[first]
                t = t_event = roots[first]
                y = sol(t)
            g = g_new
        ts.append(t)
    return Solution(ts, solver.y if status != 1 else y, solver.nfev, status,
                    message, fired, t_event)
