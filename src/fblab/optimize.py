"""Deterministic multistart search utilities.

All searches in the package are pure functions of their inputs and a
master seed.  Per-restart generators are derived from the master seed
and the restart index, and the reduction over restarts takes the first
strict improvement, so a parallel execution with the same seeds would
reproduce the sequential result bit for bit.

``nelder_mead_rows`` is scipy's Nelder-Mead, bit for bit, run from many starts
in lockstep with one call of a row-stacked objective per phase.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["OptimizerConfig", "nelder_mead_rows", "restart_rng"]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by every multistart search.

    seed fixes every random start; restarts is the number of random starts
    per search that draws them: the candidate functionals of the p =
    infinity norm off its convex paths, the outer starts of the extension
    constant and the multistart ascents of operator norms off their exact
    paths.  The witness search (finite-p norms, summing norms, embedding
    gaps) and the closed-form p-concavification witness draw none and
    read neither.  family_size caps witness families, the moduli
    combinations whose p = infinity norm is a largest signed sum, and the
    row-sign side (2^(N-1) sign patterns) of exact norms into ell_1^N, the
    weak-1 norm among them, not their cube side over a sup-norm ball.
    polish turns the local refinement of the best candidates on or off.
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


def restart_rng(cfg: OptimizerConfig, restart: int, salt: int = 0) -> np.random.Generator:
    """The generator owned by one restart; fixed by (seed, salt, restart)."""
    return np.random.default_rng((int(cfg.seed), int(salt), int(restart)))


# scipy's non-adaptive Nelder-Mead (rho = 1, chi = 2, psi = 1/2): a trial point is
# a * centroid - c * worst vertex, rows (a, c) for an expansion, a reflection, an
# outside and an inside contraction (subtracting -psi * worst adds it exactly)
_TRIALS = np.array([[3.0, 2.0], [2.0, 1.0], [1.5, 0.5], [0.5, -0.5]])
_SIGMA, _NONZDELT, _ZDELT = 0.5, 0.05, 0.00025  # shrink; first steps from x != 0, x = 0


def _sorted(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, ind = np.arange(len(fsim))[:, None], np.argsort(fsim, axis=1)
    return sim[rows, ind], fsim[rows, ind]


def nelder_mead_rows(F, X0: np.ndarray, maxfev: int, xatol: float, fatol: float):
    """Minimize from each row of X0 as scipy's ``minimize(method="Nelder-Mead")``
    with options maxfev, xatol and fatol would, start by start.  F maps an
    (m, N) stack of points to their m values.  Each start has its own budget,
    maxfev > N, and stops where scipy's counter stops it, in the middle of a
    shrink too.  Returns the best points, their values and the evaluation counts."""
    X0 = np.asarray(X0, dtype=float)
    K, N = X0.shape
    j = np.arange(1, N + 1)
    sim = np.repeat(X0[:, None, :], N + 1, axis=1)
    sim[:, j, j - 1] = np.where(X0 != 0, (1 + _NONZDELT) * X0, _ZDELT)
    fsim = F(sim.reshape(K * (N + 1), N)).reshape(K, N + 1)
    sim, fsim = _sorted(*_sorted(sim, fsim))  # scipy sorts the first simplex twice
    nfev, live = np.full(K, N + 1), np.full(K, N + 1 < maxfev)
    while live.any():
        k = np.flatnonzero(live)
        s, f = sim[k], fsim[k]
        done = np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= xatol
        done &= np.abs(f[:, :1] - f[:, 1:]).max(axis=1) <= fatol
        live[k[done]] = False
        k, s, f = k[~done], s[~done], f[~done]
        if not k.size:
            break
        xbar, worst = np.add.reduce(s[:, :-1], 1) / N, s[:, -1]
        xr = _TRIALS[1, 0] * xbar - _TRIALS[1, 1] * worst
        fxr = F(xr)
        nfev[k] += 1
        # 0: expand, 1: accept the reflection, 2, 3: contract outside, inside
        case = np.where(fxr < f[:, 0], 0, np.where(fxr < f[:, -2], 1, 3 - (fxr < f[:, -1])))
        xt, ft = _TRIALS[case, :1] * xbar - _TRIALS[case, 1:] * worst, np.full(k.size, np.nan)
        more = (case != 1) & (nfev[k] < maxfev)
        if more.any():
            ft[more] = F(xt[more])
            nfev[k[more]] += 1
        better = more & np.choose(case, [ft < fxr, ft < fxr, ft <= fxr, ft < f[:, -1]])
        take_r = (case == 1) | (more & (case == 0) & ~better)
        s[take_r, -1], f[take_r, -1] = xr[take_r], fxr[take_r]
        s[better, -1], f[better, -1] = xt[better], ft[better]
        # a shrink cut short by the budget moves one vertex more than it evaluates
        shrink = more & (case >= 2) & ~better
        if shrink.any():
            best, budget = s[shrink, :1], (maxfev - nfev[k[shrink]])[:, None]
            moved = best + _SIGMA * (s[shrink, 1:] - best)
            evaluated, fmoved = j <= budget, f[shrink, 1:]
            if evaluated.any():
                fmoved[evaluated] = F(moved[evaluated])
            s[shrink, 1:] = np.where((j <= budget + 1)[:, :, None], moved, s[shrink, 1:])
            f[shrink, 1:] = fmoved
            nfev[k[shrink]] += np.minimum(budget[:, 0], N)
        sim[k], fsim[k] = _sorted(s, f)
        live[k] = nfev[k] < maxfev
    return sim[:, 0], fsim.min(axis=1), nfev
