"""Optimizer settings and a lockstep Nelder-Mead.

Every search in the package is a pure function of its inputs and an
``OptimizerConfig``.  All but one start from structured points and read
no seed; the Powell multistart of the extension constant draws its
starts from generators fixed by (seed, restart index).

``nelder_mead_rows`` is scipy's Nelder-Mead, bit for bit, run from many starts
in lockstep with one call of a row-stacked objective per phase: each start's
control in plain Python, the vertex arithmetic of all starts batched in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

__all__ = ["OptimizerConfig", "nelder_mead_rows"]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by the searches.

    seed and restarts drive one search only: the Powell multistart of the
    extension constant at p = 1 and over balls that are not small
    polytopes (``restarts`` starts, at most 31, drawn from ``seed``).
    Every other search starts from structured points and reads neither.
    family_size caps witness families, the moduli combinations whose p =
    infinity norm is a largest signed sum, and the row-sign side (2^(N-1)
    sign patterns) of exact norms into ell_1^N, the weak-1 norm among
    them, not their cube side over a sup-norm ball.  polish turns the
    local refinement of the best candidates on or off; the epigraph
    program is a solve, not a refinement, and always runs.
    """

    seed: int = 0
    restarts: int = 64
    family_size: int = 20
    polish: bool = True

    def with_seed(self, seed: int) -> "OptimizerConfig":
        return replace(self, seed=seed)

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.family_size < 1:
            raise ValueError("restarts and family_size must be positive")
        if self.family_size > 20:
            raise ValueError("family_size above 20 breaks the sign-enumeration budget")


# scipy's non-adaptive Nelder-Mead (rho = 1, chi = 2, psi = 1/2): a trial point is
# a * centroid - c * worst vertex, rows (a, c) for an expansion, a reflection, an
# outside and an inside contraction (subtracting -psi * worst adds it exactly)
_TRIALS = np.array([[3.0, 2.0], [2.0, 1.0], [1.5, 0.5], [0.5, -0.5]])
_SIGMA, _NONZDELT, _ZDELT = 0.5, 0.05, 0.00025  # shrink; first steps from x != 0, x = 0
_ENDS = np.array([0, -2, -1])  # the best, second-worst and worst vertex of a sorted simplex


def nelder_mead_rows(F, X0: np.ndarray, maxfev: int, xatol: float, fatol: float):
    """Minimize from each row of X0 as scipy's ``minimize(method="Nelder-Mead")``
    with options maxfev, xatol and fatol would, start by start.  F maps an
    (m, N) stack of points to their m values.  Each start has its own budget,
    maxfev > N, and stops where scipy's counter stops it, in the middle of a
    shrink too.  Returns the best points, their values and the evaluation counts.

    Each start's control (its step, whether its budget allows a trial point,
    better or shrink, its counts) is plain Python on a few values; numpy
    builds the points, the shrinks and the sort of the running starts at once.
    A start leaves these arrays, its result written out, when it stops."""
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
        xbar, worst = np.add.reduce(s[:, :-1], 1) / N, s[:, -1]
        xr = 2.0 * xbar - worst  # _TRIALS[1]: times 1.0 is exact
        fxr = F(xr).tolist()
        used = [u + 1 for u in used]
        # 0: expand, 1: accept the reflection, 2, 3: contract outside, inside
        case = [0 if r < lo else 1 if r < mid else 2 if r < hi else 3 for r, (lo, mid, hi) in zip(fxr, top)]
        trial = [i for i, c in enumerate(case) if c != 1 and used[i] < maxfev]
        # the replaced worst vertices: (start, row of xr or of the trial points, value)
        new = [(i, i, r) for i, (c, r) in enumerate(zip(case, fxr)) if c == 1]
        shrink, pts = [], xr
        if trial:
            coef = _TRIALS[[case[i] for i in trial]]
            xt = coef[:, :1] * xbar[trial] - coef[:, 1:] * worst[trial]
            pts = np.concatenate((xr, xt))
            for t, (i, ft) in enumerate(zip(trial, F(xt).tolist()), len(live)):
                used[i] += 1
                c, r = case[i], fxr[i]
                if ft < r if c == 0 else ft <= r if c == 2 else ft < top[i][2]:
                    new.append((i, t, ft))
                elif c == 0:
                    new.append((i, i, r))
                else:
                    shrink.append(i)
        if new:
            i, t, v = (list(c) for c in zip(*new))
            s[i, -1], f[i, -1] = pts[t], v
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
