"""Optimizer settings, a lockstep Nelder-Mead and Powell's method.

Every search in the package is a pure function of its inputs.  All but
one start from structured points and read no seed; the Powell multistart
of the extension constant draws its starts from generators fixed by the
``OptimizerConfig``'s (seed, restart index).

``nelder_mead_rows`` is scipy's Nelder-Mead run from many starts in lockstep,
with one call of a row-stacked objective per step (and one per shrink): each
start's control in plain Python, the vertex arithmetic of all starts batched
in numpy.  The call evaluates all four trial points of every running start,
of which scipy evaluates one or two.  It is scipy's, start by start and bit
for bit, for an objective whose value at a row does not depend on the other
rows of the stack.  fblab's objectives pair their rows by one matrix product,
which gives other bits for a single row (a BLAS matrix-vector kernel) than for
a stack; no call of the lockstep has a single row but the shrink of one start
that its budget cuts to one evaluation (or of a one-dimensional start), so
a start's result does not depend on which other starts are still running.

Powell's method here is scipy's ``minimize(method="Powell")`` without
bounds, bit for bit in its point, value and evaluation count: the direction
set of Powell (Comput. J. 7 (1964)) with its extrapolation step, each line
search a bracket from (0, 1) and Brent's minimization (*Algorithms for
Minimization without Derivatives*, 1973) at tolerance 100 xtol, the recovery
from a bracket that fails, and the maxfev count, which can stop it inside a
line search.  The step arithmetic is in Python floats, and the bracket's
first point, the line search's start, is not evaluated again when its value
is known (it still counts against maxfev, as in scipy).  It has no bounds,
callback, initial directions (``direc``) or ``maxiter``.

Powell's run is written once, as a generator (``_Powell.run``) that yields
the stacks of points it needs and is sent their values, and so is its line
search (``_line_search``), which yields each step.  ``_drive`` runs any
number of such runs in lockstep, with one call of a row-stacked objective
per step for the points all of them ask for; the two entry points differ
only in what they hand it:

- ``powell_rows``: one run whose sweeps step a window of line searches in
  lockstep from one point (``_Lockstep``).  Most line searches of a sweep
  end where they started, so each is the line search that would run one at
  a time; at the first that moves, the later ones are dropped and the next
  window starts from there;
- ``powell_starts``: one run per start, each as scipy would run it alone,
  with the start's known value taken for its first point.

Each returns scipy's point, value and count, bit for bit.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass
from itertools import compress

import numpy as np

__all__ = ["OptimizerConfig", "nelder_mead_rows", "powell_rows", "powell_starts"]


@dataclass(frozen=True)
class OptimizerConfig:
    """The settings of the one search that draws random numbers: the
    Powell multistart of the extension constant at p = 1 and over balls
    that are not small polytopes (``restarts`` starts, at most 31, drawn
    from ``seed``).  Every public estimator takes a config for a uniform
    signature; every other search starts from structured points and reads
    neither field.
    """

    seed: int = 0
    restarts: int = 64

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


# scipy's non-adaptive Nelder-Mead (rho = 1, chi = 2, psi = 1/2): a trial point is
# a * centroid - c * worst vertex, rows (a, c) for an expansion, a reflection, an
# outside and an inside contraction (times 1.0 and subtracting -psi * worst are exact)
_TRIALS = np.array([[3.0, 2.0], [2.0, 1.0], [1.5, 0.5], [0.5, -0.5]])
_SIGMA, _NONZDELT, _ZDELT = 0.5, 0.05, 0.00025  # shrink; first steps from x != 0, x = 0
_ENDS = np.array([0, -2, -1])  # the best, second-worst and worst vertex of a sorted simplex


def nelder_mead_rows(F, X0: np.ndarray, maxfev: int, xatol: float, fatol: float):
    """Minimize from each row of X0 as scipy's ``minimize(method="Nelder-Mead")``
    with options maxfev, xatol and fatol would, start by start.  F maps an
    (m, N) stack of points to their m values.  Each start has its own budget,
    maxfev > N, and stops where scipy's counter stops it, in the middle of a
    shrink too.  Returns the best points, their values and the evaluation counts.

    Each step makes one call of F, on the (4, m, N) stack of the expansion,
    reflection and two contraction points of the m running starts; a shrink
    makes one more.  Each start's control (its step, whether its budget
    allows a trial point, better or shrink, its counts) is plain Python on a
    few values read from that call; numpy builds the points, the shrinks and
    the sort of the running starts at once.  The counts are scipy's: a point
    scipy would not evaluate is not counted.  The results are scipy's, bit
    for bit, where F's value at a row does not depend on the other rows of
    the stack.  A start leaves these arrays, its result written out, when it
    stops."""
    X0 = np.asarray(X0, dtype=float)
    K, N = X0.shape
    j = np.arange(1, N + 1)
    s = np.repeat(X0[:, None, :], N + 1, axis=1)
    s[:, j, j - 1] = np.where(X0 != 0, (1 + _NONZDELT) * X0, _ZDELT)
    f = F(s.reshape(K * (N + 1), N)).reshape(K, N + 1)
    X, fun, nfev = np.empty((K, N)), np.empty(K), np.empty(K, dtype=int)
    live, used, rows = list(range(K)), [N + 1] * K, np.arange(K)[:, None]
    ind = f.argsort(axis=1)  # scipy sorts the first simplex twice
    s, f = s[rows, ind], f[rows, ind]
    while live:
        ind = f.argsort(axis=1)
        s, f = s[rows, ind], f[rows, ind]
        top = f[:, _ENDS].tolist()  # per start its best, second-worst and worst value
        # scipy's stop test; on a sorted simplex the f part is its worst vertex's
        done = [u >= maxfev for u in used]
        flat = [abs(hi - lo) <= fatol for lo, _, hi in top]
        if any(flat):
            small = (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= xatol).tolist()
            done = [d or a and b for d, a, b in zip(done, flat, small)]
        if any(done):
            gone = list(compress(live, done))
            X[gone], fun[gone], nfev[gone] = s[done, 0], f[done].min(axis=1), list(compress(used, done))
            keep = [not d for d in done]
            live, used, top = (list(compress(v, keep)) for v in (live, used, top))
            if not live:
                break
            s, f, rows = s[keep], f[keep], rows[: len(live)]
        # every live start's four trial points in one stack, one call of F for all
        xbar, worst = np.add.reduce(s[:, :-1], 1) / N, s[:, -1]
        allp = _TRIALS[:, :1, None] * xbar - _TRIALS[:, 1:, None] * worst
        vals = F(allp.reshape(4 * len(live), N)).reshape(4, -1).tolist()
        # the replaced worst vertices: start, row of allp and value
        new_i, new_k, new_v, shrink = [], [], [], []
        for i, (r, (lo, mid, hi)) in enumerate(zip(vals[1], top)):
            used[i] += 1
            # 0: expand, 1: accept the reflection, 2, 3: contract outside, inside
            c = 0 if r < lo else 1 if r < mid else 2 if r < hi else 3
            k, v = 1, r
            if c != 1:
                if used[i] >= maxfev:  # scipy evaluates no trial point
                    continue
                used[i] += 1
                ft = vals[c][i]
                if ft < r if c == 0 else ft <= r if c == 2 else ft < hi:
                    k, v = c, ft
                elif c:
                    shrink.append(i)
                    continue
            new_i.append(i)
            new_k.append(k)
            new_v.append(v)
        if new_i:
            s[new_i, -1], f[new_i, -1] = allp[new_k, new_i], new_v
        # a shrink cut short by the budget moves one vertex more than it evaluates
        if shrink:
            best, budget = s[shrink, :1], np.array([maxfev - used[i] for i in shrink])[:, None]
            moved = best + _SIGMA * (s[shrink, 1:] - best)
            evaluated, fmoved = j <= budget, f[shrink, 1:]
            if evaluated.any():
                fmoved[evaluated] = F(moved[evaluated])
            s[shrink, 1:] = np.where((j <= budget + 1)[:, :, None], moved, s[shrink, 1:])
            f[shrink, 1:] = fmoved
            for i in shrink:
                used[i] += min(maxfev - used[i], N)
    return X, fun, nfev


# scipy's bracket and Brent constants: the golden ratio and its complement, the
# bracket's growth limit and smallest denominator, Brent's absolute tolerance
_GOLD, _CGOLD, _GROW, _TINY, _MINTOL = 1.618034, 0.3819660, 110.0, 1e-21, 1.0e-11

# the lockstep windows of powell_rows: the first window of a run (in lines), the
# divisor after a window whose last line moved the point, the factor after one
# that did not, and the spare rows that lines may run ahead before any is counted.
# On the fbl-witness bench (10 alternating pairs, 2-core x86 host) a fixed window
# of the whole rest of the sweep took 38% longer, and falling to one line after
# a move 20% longer, than this halving schedule.
_WINDOW = (16, 2, 2, 2048)

_bits = struct.Struct("d").pack  # a float's bytes, to compare values bit for bit


class _Spent(Exception):
    """The evaluation budget ran out."""


def powell_rows(F, x0, maxfev: int, xtol: float, ftol: float) -> tuple[np.ndarray, float, int]:
    """Minimize from x0 as scipy's ``minimize(method="Powell")`` with
    options maxfev, xtol and ftol would, for a row-stacked objective: F maps
    an (m, N) stack of points, which it must not write into, to their m
    values, each as the one-point objective would give it.  Returns scipy's
    ``x``, ``fun`` and ``nfev``, bit for bit; a budget spent inside a line
    search returns that line search's start.

    The line searches of a sweep run a window at a time in lockstep from
    the window's start, one call of F per step for all of them.  Lines are
    accepted in order while each returns the start with its bytes and its
    value's bits, which is where the next line would start one at a time;
    at the first line that moves, the later ones are dropped and the next
    window starts from the moved point.  Windows follow ``_WINDOW``, and a
    run evaluates at most 2 nfev rows plus its spare rows."""
    return _drive(lambda Y: F(Y).tolist(), [_Lockstep(maxfev, xtol).run(x0, ftol)])[0]


def powell_starts(F, X0, maxfev: int, xtol: float, ftol: float, f0) -> list[tuple[np.ndarray, float, int]]:
    """scipy's Powell from each row of X0, whose values as F gives them
    are f0, in lockstep: one call of the row-stacked objective F (as for
    ``powell_rows``) per step, on the next point of every run still going.
    Each run takes its start's value from f0, which still counts against
    maxfev.  Returns, per start, scipy's ``x``, ``fun`` and ``nfev`` from
    that start alone, bit for bit."""
    return _drive(lambda Y: F(Y).tolist(), [_Powell(maxfev, xtol).run(x, ftol, f) for x, f in zip(X0, f0)])


def _drive(F, runs: list) -> list:
    """Run Powell generators (``_Powell.run``) to their ends in lockstep:
    each yields a stack of points and is sent the list of their values; one
    call of F, which maps a stack to that list, per step evaluates the
    stacks of all runs still going.  Returns the runs' results in order."""
    out, sends = [None] * len(runs), [(i, None) for i in range(len(runs))]
    while sends:
        asks = []
        for i, v in sends:
            try:
                asks.append((i, runs[i].send(v)))
            except StopIteration as stop:
                out[i] = stop.value
        if not asks:
            break
        vals = F(np.concatenate([Y for _, Y in asks]))
        sends, j = [], 0
        for i, Y in asks:
            sends.append((i, vals[j : j + len(Y)]))
            j += len(Y)
    return out


def _line_search(xtol: float):
    """scipy's unbounded ``_linesearch_powell`` as a generator over the step
    a along the line: it yields each step, is sent the value there, and
    returns the step taken and its value.  The bracket starts from (0, 1);
    a bracket that fails is recovered by its best point, or by nan, and a
    valid one is searched by Brent's method at tolerance 100 xtol.  The
    first step is 0.0, the line's start."""
    xa, xb = 0.0, 1.0
    fa = yield xa
    fb = yield xb
    if fa < fb:
        xa, xb, fa, fb = xb, xa, fb, fa
    xc = xb + _GOLD * (xb - xa)
    fc = yield xc
    it = 0
    while fc < fb:
        tmp1 = (xb - xa) * (fb - fc)
        tmp2 = (xb - xc) * (fb - fa)
        val = tmp2 - tmp1
        denom = 2.0 * _TINY if abs(val) < _TINY else 2.0 * val
        w = xb - ((xb - xc) * tmp2 - (xb - xa) * tmp1) / denom
        wlim = xb + _GROW * (xc - xb)
        if it > 1000:
            raise RuntimeError("No valid bracket was found before the iteration limit was reached.")
        it += 1
        if (w - xc) * (xb - w) > 0.0:
            fw = yield w
            if fw < fc:
                xa, xb, fa, fb = xb, w, fb, fw
                break
            if fw > fb:
                xc, fc = w, fw
                break
            w = xc + _GOLD * (xc - xb)
            fw = yield w
        elif (w - wlim) * (wlim - xc) >= 0.0:
            w = wlim
            fw = yield w
        elif (w - wlim) * (xc - w) > 0.0:
            fw = yield w
            if fw < fc:
                xb, xc, fb, fc = xc, w, fc, fw
                w = xc + _GOLD * (xc - xb)
                fw = yield w
        else:
            w = xc + _GOLD * (xc - xb)
            fw = yield w
        xa, xb, xc, fa, fb, fc = xb, xc, w, fb, fc, fw
    if not (
        ((fb < fc and fb <= fa) or (fb < fa and fb <= fc))
        and (xa < xb < xc or xc < xb < xa)
        and math.isfinite(xa) and math.isfinite(xb) and math.isfinite(xc)
    ):
        # the recovery from an invalid bracket: its best point, or nan
        xs, fs = (xa, xb, xc), (fa, fb, fc)
        if any(v != v for v in xs + fs):
            return math.nan, math.nan
        return min(zip(xs, fs), key=lambda t: t[1])
    return (yield from _brent(xa, xb, xc, fb, 100 * xtol))


def _brent(xa: float, xb: float, xc: float, fb: float, tol: float):
    """scipy's ``Brent.optimize`` (at most 500 steps) over the bracket
    xa, xb, xc whose middle value is fb, a generator as ``_line_search``:
    returns the point and its value."""
    x = w = v = xb
    fw = fv = fx = fb
    a, b = (xa, xc) if xa < xc else (xc, xa)
    deltax = rat = 0.0
    for _ in range(500):
        tol1 = tol * abs(x) + _MINTOL
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < tol2 - 0.5 * (b - a):
            break
        golden = abs(deltax) <= tol1
        if not golden:  # a parabolic step, where it is useful
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp, deltax = deltax, rat
            golden = not (p > tmp2 * (a - x) and p < tmp2 * (b - x) and abs(p) < abs(0.5 * tmp2 * dx_temp))
            if not golden:
                rat = p / tmp2
                u = x + rat
                if u - a < tol2 or b - u < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
        if golden:  # a golden-section step
            deltax = a - x if x >= xmid else b - x
            rat = _CGOLD * deltax
        if abs(rat) < tol1:  # a step of at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = yield u
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
    return x, fx


class _Powell:
    """Powell's direction set with scipy's maxfev count, written once as a
    generator (``run``) that yields the stacks of points it needs and is
    sent their values; ``sweep`` runs the line searches one at a time."""

    def __init__(self, maxfev: int, xtol: float) -> None:
        self.maxfev, self.xtol, self.nfev = maxfev, xtol, 0

    def count(self) -> None:
        """Count one evaluation against maxfev."""
        if self.nfev >= self.maxfev:
            raise _Spent
        self.nfev += 1

    def line(self, p: np.ndarray, fp: float, xi: np.ndarray):
        """The line search from p, whose value is fp, along xi, a generator
        as ``run``: returns the value, the point and the step taken.  Its
        start p + 0 xi is answered from fp unless that changes p's bytes (a
        -0.0 entry, an infinite step) or fp is a nan, which the recovery
        reports for a point it did not evaluate; it still counts against
        maxfev."""
        if not xi.any():
            return fp, p, xi
        search = _line_search(self.xtol)
        q = p + next(search) * xi
        self.count()
        v = fp if fp == fp and q.tobytes() == p.tobytes() else (yield q[None])[0]
        try:
            while True:
                q = p + search.send(v) * xi
                self.count()
                v = (yield q[None])[0]
        except StopIteration as stop:
            a, fx = stop.value
        xi = a * xi
        return fx, p + xi, xi

    def sweep(self, x: np.ndarray, fval: float, direc: list, i: int):
        """The results (value, point) of the line searches along direc[i],
        direc[i + 1], ... as they run one after the other from x: here the
        first only."""
        fx, p, _ = yield from self.line(x, fval, direc[i])
        return [(fx, p)]

    def run(self, x0, ftol: float, f0: float | None = None):
        """The run from x0, a generator: it yields (m, N) stacks of points,
        is sent the list of their m values, and returns scipy's x, fun
        and nfev.  f0, if given, is x0's value."""
        x = np.asarray(x0, dtype=float).flatten()
        self.count()
        fval = (yield x[None])[0] if f0 is None else f0
        x1, direc = x, list(np.eye(len(x)))
        try:
            while True:
                fx, bigind, delta = fval, 0, 0.0
                i = 0
                while i < len(direc):
                    for fval_i, x_i in (yield from self.sweep(x, fval, direc, i)):
                        fx2, fval, x = fval, fval_i, x_i
                        if fx2 - fval > delta:
                            delta, bigind = fx2 - fval, i
                        i += 1
                if 2.0 * (fx - fval) <= ftol * (abs(fx) + abs(fval)) + 1e-20 or self.nfev >= self.maxfev:
                    break
                if fx != fx and fval != fval:  # a nan region
                    break
                # the extrapolated point; no array is written in place, so x1 may alias x
                direc1, x1 = x - x1, x
                self.count()
                fx2 = (yield (x + direc1)[None])[0]
                if fx > fx2:
                    t = 2.0 * (fx + fx2 - 2.0 * fval)
                    temp = fx - fval - delta
                    t *= temp * temp
                    temp = fx - fx2
                    t -= delta * temp * temp
                    if t < 0.0:
                        fval, x, direc1 = yield from self.line(x, fval, direc1)
                        if direc1.any():
                            direc[bigind] = direc[-1]
                            direc[-1] = direc1
        except _Spent:
            pass
        return x, fval, self.nfev


class _Lockstep(_Powell):
    """``_Powell`` whose sweeps run a window of line searches at a time,
    one stack of points per step for all of them."""

    def __init__(self, maxfev: int, xtol: float) -> None:
        super().__init__(maxfev, xtol)
        self.window, self.ahead = _WINDOW[0], 0

    def sweep(self, x, fval, direc, i):
        """The line searches along the window direc[i : i + window] in
        lockstep from x.  Each is a generator that runs as it would alone
        from x, so a line whose predecessors all return x with fval's bits
        is the line that would run one at a time; the results are those of
        the lines up to the first that moves, and later lines are dropped.

        The first unfinished line, the head, runs until it ends or reaches
        what is left of the budget.  The lines after it run ahead, in
        order, while the rows of the run evaluated ahead of a head stay
        within the spare rows of ``_WINDOW`` plus the evaluations counted
        so far; the others wait.  So a run evaluates at most 2 nfev rows
        plus the spare ones.  A line ahead that reaches the budget left at
        the window's start ends the window there."""
        XI = np.array(direc[i : i + self.window])
        m = len(XI)
        budget = self.maxfev - self.nfev
        searches = [_line_search(self.xtol) for _ in range(m)]
        steps = [next(s) for s in searches]
        counts, done = [0] * m, [None] * m
        last = m  # the first line that moves or spends the budget; later ones are dropped
        live = []
        for k in range(m):
            if XI[k].any():
                live.append(k)
            else:  # no step along a zero direction
                done[k] = (fval, x)
        spare, begun = _WINDOW[3], 0  # the lines from begun on have taken no step
        while live:
            head = live[0]
            # the budget used once the lines before the head are counted
            used = min(self.maxfev, self.nfev + sum(counts[:head]))
            # the lines run as a prefix of live, so their counts fall along it
            if counts[head] >= self.maxfev - used:
                last = min(last, head)
                break
            if len(live) > 1 and counts[live[1]] >= budget:
                last = min(last, live[1])
                live = live[:1]
            run = live[: 1 + max(0, spare + used - self.ahead)]
            Y = x + np.array([steps[k] for k in run])[:, None] * XI[run]
            # a line's first step p + 0 xi takes fval where it keeps p's bytes
            first = bisect.bisect_left(run, begun)
            if first < len(run) and fval == fval:
                known = np.zeros(len(run), dtype=bool)
                known[first:] = (Y[first:].view(np.int64) == x.view(np.int64)).all(axis=1)
                vals = np.full(len(run), fval)
                if not known.all():
                    vals[~known] = yield Y[~known]
                vals = vals.tolist()
                self.ahead += len(run) - 1 - int(known[1:].sum())
            else:
                vals = yield Y
                self.ahead += len(run) - 1
            begun = max(begun, run[-1] + 1)
            ended = False
            for k, v in zip(run, vals):
                counts[k] += 1
                try:
                    steps[k] = searches[k].send(v)
                except StopIteration as stop:
                    a, fx = stop.value
                    point = x + a * XI[k]
                    done[k], ended = (fx, point), True
                    if point.tobytes() != x.tobytes() or _bits(fx) != _bits(fval):
                        last = min(last, k)
            if ended:
                live = [k for k in live if done[k] is None and k < last]
        out = done[: last + 1]
        for k, c in enumerate(counts[: last + 1]):
            if out[k] is None or self.nfev + c > self.maxfev:
                self.nfev = self.maxfev
                raise _Spent
            self.nfev += c
        _, shrink, growth, _ = _WINDOW
        self.window = max(1, self.window // shrink) if last < m else self.window * growth
        return out
