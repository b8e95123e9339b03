"""The lockstep Nelder-Mead against scipy's, run start by start.

On objectives whose rows do not depend on each other, ``nelder_mead_rows``
must return scipy's points, values and evaluation counts bit for bit.
Half the budgets are small, so some starts stop on their budget, one in
the middle of a shrink, while others converge first.
"""

import functools

import numpy as np
import pytest
from scipy.optimize import minimize

from fblab.optimize import nelder_mead_rows

DIMS = (1, 2, 3, 6, 20)
STARTS = 6
XATOL, FATOL = 1e-10, 1e-12


def _objectives(N):
    """Row-stacked objectives: a weighted quadratic, a kinked max plus a
    quadratic, and a negated homogeneous ratio with kinks."""
    w = np.random.default_rng(N).uniform(0.5, 2.0, N)

    def quadratic(X):
        return np.sum(w * (X - 0.3) ** 2, axis=-1)

    def kinked(X):
        return np.max(np.abs(X - 0.2), axis=-1) + np.sum(w * X * X, axis=-1)

    def ratio(X):
        num = np.abs(np.sum(w * X, axis=-1)) + np.maximum(X[:, 0], -X[:, -1])
        den = np.sum(np.abs(X), axis=-1)
        return -np.divide(num, den, out=np.zeros(len(X)), where=den > 1e-14)

    return {"quadratic": quadratic, "kinked": kinked, "ratio": ratio}


def _starts(N):
    X0 = np.random.default_rng(100 + N).standard_normal((STARTS, N))
    X0[1, 0] = 0.0  # scipy steps a zero coordinate by its own constant
    return X0


@functools.cache
def _scipy_runs(N, name, maxfev):
    F = _objectives(N)[name]
    return [
        minimize(
            lambda y: F(y[None, :])[0],
            x0,
            method="Nelder-Mead",
            options={"maxfev": maxfev, "xatol": XATOL, "fatol": FATOL},
        )
        for x0 in _starts(N)
    ]


CASES = [
    (N, name, maxfev)
    for N in DIMS
    for name in ("quadratic", "kinked", "ratio")
    for maxfev in (50 * N, 200 * N)
]


@pytest.mark.parametrize("N,name,maxfev", CASES)
def test_matches_scipy_start_by_start(N, name, maxfev):
    x, fun, nfev = nelder_mead_rows(_objectives(N)[name], _starts(N), maxfev, XATOL, FATOL)
    for k, ref in enumerate(_scipy_runs(N, name, maxfev)):
        assert np.array_equal(x[k], ref.x)
        assert fun[k] == ref.fun
        assert nfev[k] == ref.nfev


def test_cases_reach_every_way_of_stopping():
    stops = {"budget": 0, "converged": 0, "mid-shrink": 0, "uneven": 0}
    for N, name, maxfev in CASES:
        runs = _scipy_runs(N, name, maxfev)
        for ref in runs:
            stops["budget" if ref.nfev == maxfev else "converged"] += 1
            sim, fsim = ref.final_simplex
            # a shrink cut short leaves a moved vertex with its old value
            stops["mid-shrink"] += not np.array_equal(_objectives(N)[name](sim), fsim)
        stops["uneven"] += len({ref.nit for ref in runs}) > 1
    assert all(stops.values()), stops
