"""DOP853 on Python floats, for the linear systems of :mod:`sturmosc.ode`.

The module holds DOP853's tableau and step control constants as float
literals, the nonzero entries of the coefficients scipy ships, and ports
Hairer, Norsett and Wanner's first step; it imports numpy only.
``tests/test_ode.py`` checks the literals, the constants and the first
step against scipy bit for bit.  The step floor and the stepper class are
read from here on every solve.  Steps run forward only.

Every system solved here is y' = (y1 / V(t), Q(t) y0).  The stepper asks
the system for V and Q at the 15 abscissae t + C h of a trial in one call,
``rhs.stages(t, h)``, and runs the stages as straight-line code on those
values.  At import the module writes the source of two functions from the
nonzero entries of whatever tableau it holds, each coefficient as its
``repr`` literal, and compiles it once: ``_trial`` runs stages 1-11, the
new state, stage 12 and the E5 and E3 error sums, and ``_extra`` the three
dense-output stages and the four D rows.  Each stage k = (Y1 / V, Q Y0)
is taken at the state Y = y + h sum(a * k), and every sum adds a * k left
to right from 0.0 in tableau order, so each result is the one a loop
``acc += a * k`` over the row, calling the system pointwise, gives, bit for
bit; ``tests/test_ode.py`` holds that loop as the reference and checks both
functions against it.  A V of 0 divides as numpy does, to inf or nan with
numpy's warning, not with Python's ZeroDivisionError: the kernel then
reruns the trial with every division through ``_divide``.
"""

from __future__ import annotations

import math

import numpy as np

# an accepted step shorter than this many ulps of t no longer resolves the
# solution in t (scipy itself only gives up below 10 ulp)
MIN_STEP_ULPS = 1024
# the order of DOP853's error estimator, and the exponent of the step
# factor that follows from it
_ERROR_ORDER = 7
_ERROR_EXPONENT = -1.0 / (_ERROR_ORDER + 1)
# step control: the safety factor on the optimal step, and the bounds on
# the ratio of one step to the last
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
# the stages of one step: stage 0 is f(t, y), stage N_STAGES is f(t + h,
# y_new), which the next step reuses as its stage 0
N_STAGES = 12

# DOP853's tableau (Hairer, Norsett and Wanner, Solving ODE I, II.10), each
# row as its (stage, coefficient) pairs with the zeros left out: (c, row)
# for stages 1-11 and for the three extra stages of the dense output
# (13-15), the solution weights B, the embedded error weights E5 and E3,
# and the four rows D of the dense-output polynomial.
_STAGES = (
    (0.05260015195876773, ((0, 0.05260015195876773),)),
    (0.0789002279381516, ((0, 0.0197250569845379), (1, 0.0591751709536137))),
    (0.1183503419072274, ((0, 0.02958758547680685), (2, 0.08876275643042054))),
    (0.2816496580927726,
     ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792))),
    (0.3333333333333333,
     ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242))),
    (0.25,
     ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
      (5, -0.017578125))),
    (0.3076923076923077,
     ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
      (5, -0.015319437748624402), (6, 0.008273789163814023))),
    (0.6512820512820513,
     ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
      (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996))),
    (0.6,
     ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
      (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
      (8, -0.020331201708508627))),
    (0.8571428571428571,
     ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
      (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
      (8, 2.4936055526796523), (9, -3.0467644718982196))),
    (1.0,
     ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
      (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
      (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636))),
)
_EXTRA_STAGES = (
    (0.1,
     ((0, 0.056167502283047954), (6, 0.25350021021662483), (7, -0.2462390374708025),
      (8, -0.12419142326381637), (9, 0.15329179827876568), (10, 0.00820105229563469),
      (11, 0.007567897660545699), (12, -0.008298))),
    (0.2,
     ((0, 0.03183464816350214), (5, 0.028300909672366776), (6, 0.053541988307438566),
      (7, -0.05492374857139099), (10, -0.00010834732869724932),
      (11, 0.0003825710908356584), (12, -0.00034046500868740456),
      (13, 0.1413124436746325))),
    (0.7777777777777778,
     ((0, -0.42889630158379194), (5, -4.697621415361164), (6, 7.683421196062599),
      (7, 4.06898981839711), (8, 0.3567271874552811), (12, -0.0013990241651590145),
      (13, 2.9475147891527724), (14, -9.15095847217987))),
)
_B = ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
      (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
      (10, 0.20136540080403034), (11, 0.04471061572777259))
_E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
       (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
       (10, 0.08192320648511571), (11, -0.022355307863886294))
_E3 = ((0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
       (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
       (10, 0.20136540080403034), (11, 0.02265179219836082))
_D = (
    ((0, -8.428938276109013), (5, 0.5667149535193777), (6, -3.0689499459498917),
     (7, 2.38466765651207), (8, 2.117034582445028), (9, -0.871391583777973),
     (10, 2.2404374302607883), (11, 0.6315787787694688), (12, -0.08899033645133331),
     (13, 18.148505520854727), (14, -9.194632392478356), (15, -4.436036387594894)),
    ((0, 10.427508642579134), (5, 242.28349177525817), (6, 165.20045171727028),
     (7, -374.5467547226902), (8, -22.113666853125306), (9, 7.733432668472264),
     (10, -30.674084731089398), (11, -9.332130526430229), (12, 15.697238121770845),
     (13, -31.139403219565178), (14, -9.35292435884448), (15, 35.81684148639408)),
    ((0, 19.985053242002433), (5, -387.0373087493518), (6, -189.17813819516758),
     (7, 527.8081592054236), (8, -11.57390253995963), (9, 6.8812326946963),
     (10, -1.0006050966910838), (11, 0.7777137798053443), (12, -2.778205752353508),
     (13, -60.19669523126412), (14, 84.32040550667716), (15, 11.99229113618279)),
    ((0, -25.69393346270375), (5, -154.18974869023643), (6, -231.5293791760455),
     (7, 357.6391179106141), (8, 93.40532418362432), (9, -37.45832313645163),
     (10, 104.0996495089623), (11, 29.8402934266605), (12, -43.53345659001114),
     (13, 96.32455395918828), (14, -39.17726167561544), (15, -149.72683625798564)),
)


# the abscissae c of the stages one trial samples the coefficients at: stages
# 1-11, the new state (stage 12, c = 1) and the three extra stages 13-15
C = np.array([c for c, _ in _STAGES] + [1.0] + [c for c, _ in _EXTRA_STAGES])


def _sum(row, component):
    """Source of sum(a * k_j) over the (j, a) pairs of ``row`` for one component:
    the tableau order, added left to right from 0.0."""
    return " + ".join(["0.0"] + [f"{a!r} * k{j}_{component}" for j, a in row])


def _stage(j, row, divide):
    """Source lines of stage j of y' = (y1 / V, Q y0): at the state
    y + h sum(a * k) over ``row``, or at the new state n for row None."""
    state0, state1 = (("n0", "n1") if row is None else
                      (f"y0 + ({_sum(row, 0)}) * h", f"(y1 + ({_sum(row, 1)}) * h)"))
    return [f"Y0 = {state0}", f"k{j}_0 = {divide(state1, f'v{j}')}", f"k{j}_1 = q{j} * Y0"]


def _kernel_source():
    """Source of ``_trial`` and ``_extra``, straight-line code over the tableau
    above: each body runs with a / V, and again with _divide(a, V) when a V
    of 0 raised ZeroDivisionError."""
    last, n = N_STAGES, len(C)
    stages = ", ".join(f"k{j}_0, k{j}_1" for j in range(last + 1))

    def trial(divide):
        lines = ["k0_0, k0_1 = f", f"{', '.join(f'v{j}' for j in range(1, n + 1))} = v",
                 f"{', '.join(f'q{j}' for j in range(1, n + 1))} = q"]
        for j, (_, row) in enumerate(_STAGES, 1):
            lines += _stage(j, row, divide)
        return lines + [f"n0 = y0 + h * ({_sum(_B, 0)})", f"n1 = y1 + h * ({_sum(_B, 1)})",
                        *_stage(last, None, divide),
                        f"return (n0, n1, {_sum(_E5, 0)}, {_sum(_E5, 1)},",
                        f"        {_sum(_E3, 0)}, {_sum(_E3, 1)}, ({stages}))"]

    def extra(divide):
        lines = [f"{stages} = ks",
                 f"{', '.join(f'v{j}' for j in range(last + 1, n + 1))} = v[{last}:]",
                 f"{', '.join(f'q{j}' for j in range(last + 1, n + 1))} = q[{last}:]"]
        for j, (_, row) in enumerate(_EXTRA_STAGES, last + 1):
            lines += _stage(j, row, divide)
        rows = (f"    (h * ({_sum(row, 0)}), h * ({_sum(row, 1)}))," for row in _D)
        return lines + ["return [", *rows, "]"]

    source = []
    for head, body in (("_trial(h, y0, y1, f, v, q)", trial),
                       ("_extra(h, y0, y1, ks, v, q)", extra)):
        source += [f"def {head}:", "    try:",
                   *(f"        {line}" for line in body(lambda a, b: f"{a} / {b}")),
                   "    except ZeroDivisionError:",
                   *(f"        {line}" for line in body(lambda a, b: f"_divide({a}, {b})"))]
    return "\n".join(source) + "\n"


def _divide(a, b):
    """a / b, and numpy's inf or nan with its warning where b is 0."""
    return a / b if b else np.divide(a, b)


# _trial(h, y0, y1, f, v, q) returns (n0, n1, E5.k, E3.k, stages 0-12), with
# n = y + h B.k and the stages flat, (k0_0, k0_1, ..., k12_1); _extra(h, y0,
# y1, stages, v, q) returns the four dense rows h D.k over stages 0-12 and
# the extra stages 13-15 it runs.  v and q are V and Q at t + C h.
_KERNEL = {"_divide": _divide}
exec(compile(_kernel_source(), "<sturmosc._dop853 kernel>", "exec"), _KERNEL)
_trial, _extra = _KERNEL["_trial"], _KERNEL["_extra"]


def _rms(x):
    """The root mean square of the array ``x``, by scipy's ``norm``."""
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(rhs, t0, y0, f0, t_bound, rtol, atol):
    """The first step of a forward solve (Hairer, Norsett and Wanner, Solving
    ODE I, II.4), by the numpy operations of scipy's ``select_initial_step``
    for DOP853 with no maximum step; it calls ``rhs`` once, on an array state."""
    interval_length = t_bound - t0
    if interval_length == 0.0:
        return 0.0
    y0, f0 = np.array(y0), np.array(f0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = rhs(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ORDER + 1))
    return min(100 * h0, h1, interval_length)


class Stepper:
    """DOP853 steps on Python floats, forward from t0 to t_bound >= t0.

    The systems here have two components, (value, flux), for which numpy's
    per-call overhead dominates the arithmetic, so ``y`` is a pair of
    floats.  ``rhs`` is the system: ``rhs(t, y)`` gives y' at one point and
    ``rhs.stages(t, h)`` V and Q at t + C h.  The state is ``t``, ``y``,
    ``f`` = rhs(t, y), the next step size ``h_abs``, the count of
    right-hand side evaluations ``nfev`` and the last step's dense rows
    ``rows``.  The first step is :func:`_initial_step`; ``nfev`` counts f0
    and its trial call, as scipy's solver does, then 12 evaluations per
    trial and 3 per accepted step, though a trial samples all 15 abscissae.
    ``step`` repeats scipy's stages, error norm and step control, and returns
    None, or the reason no step could be accepted, as scipy's
    ``OdeSolver.step`` does.  Each accepted step also runs the three extra
    stages of the dense output and leaves its seven dense rows in ``rows``,
    as floats in the order of scipy's ``Dop853DenseOutput.F``: the
    interpolant on [t_old, t] is
    y_old + F0 x + F1 x(1 - x) + F2 x^2(1 - x) + ..., with
    x = (s - t_old) / (t - t_old).  The stages, sums and rows come from the
    generated ``_trial`` and ``_extra`` (see the module docstring), called
    by the methods ``_trial`` and ``_dense``; their sums run in another
    order than numpy's dot products, so a trajectory agrees with scipy's to
    rounding, not bit for bit.

    Near a pole of the coefficients the accepted steps shrink towards the
    ulp of t; stopping at MIN_STEP_ULPS ends such a solve after a few
    hundred steps instead of grinding down to scipy's own 10-ulp floor.
    A final step clipped onto t_bound is exempt.
    """

    def __init__(self, rhs, t0, y0, t_bound, *, rtol, atol):
        self.rhs, self.t, self.t_bound, self.rtol, self.atol = rhs, t0, t_bound, rtol, atol
        self.y = float(y0[0]), float(y0[1])
        # nfev counts f0 and the first step's trial call
        self.f, self.nfev, self.rows = rhs(t0, self.y), 2, None
        self.h_abs = float(_initial_step(rhs, t0, self.y, self.f, t_bound, rtol, atol))

    def _trial(self, t, h, y0, y1, f):
        """One trial of the step h: ``_trial`` on V and Q at t + C h, which it keeps
        for ``_dense``."""
        self._samples = v, q = self.rhs.stages(t, h)
        return _trial(h, y0, y1, f, v, q)

    def _dense(self, h, y0, y1, ks):
        """The four dense rows h D.k of the last trial, by ``_extra``."""
        return _extra(h, y0, y1, ks, *self._samples)

    def step(self):
        """Take one accepted step: None, or the reason no step could be taken."""
        t, f, (y0, y1), t_bound = self.t, self.f, self.y, self.t_bound
        rtol, atol = self.rtol, self.atol
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            # NaN too: a right-hand side that is NaN at the start gives a NaN step
            if not h_abs >= min_step:
                return "no step of at least 10 ulp of t is accepted"
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            n0, n1, e0, e1, g0, g1, ks = self._trial(t, h, y0, y1, f)
            self.nfev += N_STAGES
            s0 = atol + max(abs(y0), abs(n0)) * rtol
            s1 = atol + max(abs(y1), abs(n1)) * rtol
            e0, e1, g0, g1 = e0 / s0, e1 / s1, g0 / s0, g1 / s1
            err5, err3 = e0 * e0 + e1 * e1, g0 * g0 + g1 * g1
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
            if error_norm == 0.0:
                factor = MAX_FACTOR
            else:
                factor = SAFETY * error_norm ** _ERROR_EXPONENT
            if error_norm < 1.0:
                h_abs = h * min(1.0 if rejected else MAX_FACTOR, factor)
                break
            h_abs = h * max(MIN_FACTOR, factor)
            rejected = True
        if t_new != t_bound and h < MIN_STEP_ULPS * math.ulp(t):
            return f"step shorter than {MIN_STEP_ULPS} ulp of t"
        extra = self._dense(h, y0, y1, ks)
        self.nfev += len(_EXTRA_STAGES)
        (p0, p1), (q0, q1) = f, ks[-2:]
        dy0, dy1 = n0 - y0, n1 - y1
        self.rows = [(dy0, dy1), (h * p0 - dy0, h * p1 - dy1),
                     (2.0 * dy0 - h * (q0 + p0), 2.0 * dy1 - h * (q1 + p1)), *extra]
        self.t, self.y, self.f, self.h_abs = t_new, (n0, n1), (q0, q1), h_abs
        return None
