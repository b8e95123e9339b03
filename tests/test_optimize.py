"""The lockstep Nelder-Mead against scipy's, run start by start.

On objectives whose rows do not depend on each other, ``nelder_mead_rows``
must return scipy's points, values and evaluation counts bit for bit.
Half the budgets are small, so some starts stop on their budget, one in
the middle of a shrink, while others converge first.
"""

import functools
import hashlib

import numpy as np
import pytest
from scipy.optimize import minimize

from fblab import Abs, Gen, GeneratorBinding, Join, OptimizerConfig, PosPart, SpaceSpec
from fblab.fbl import _dual_multistart
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


def _holes(N):
    """The quadratic, but nan where x_0 > 1 and inf where x_last < -1."""
    quadratic = _objectives(N)["quadratic"]

    def holes(X):
        v = np.where(X[:, 0] > 1.0, np.nan, quadratic(X))
        return np.where(X[:, -1] < -1.0, np.inf, v)

    return holes


def _retiring_starts(N):
    """Two tiny starts, whose first simplex already passes both tests, and
    two pairs of equal starts, which stop on the same step."""
    g = np.random.default_rng(200 + N).standard_normal((3, N))
    return np.vstack([1e-12 * g[0], 1e-12 * g[0], g[1], g[1], g[2], g[2]])


def _assert_matches_scipy(F, X0, maxfev, xatol=XATOL, fatol=FATOL):
    x, fun, nfev = nelder_mead_rows(F, X0, maxfev, xatol, fatol)
    assert x.shape == X0.shape and fun.shape == nfev.shape == (len(X0),)
    options = {"maxfev": maxfev, "xatol": xatol, "fatol": fatol}
    for k, x0 in enumerate(X0):
        ref = minimize(lambda y: F(y[None, :])[0], x0, method="Nelder-Mead", options=options)
        assert np.array_equal(x[k], ref.x)
        assert np.array_equal(fun[k], ref.fun, equal_nan=True)
        assert nfev[k] == ref.nfev
    return nfev


@pytest.mark.parametrize("N", DIMS)
@pytest.mark.parametrize("name", ["quadratic", "kinked", "ratio"])
def test_one_start_matches_scipy(N, name):
    _assert_matches_scipy(_objectives(N)[name], _starts(N)[2:3], 200 * N)


@pytest.mark.parametrize("N", DIMS)
@pytest.mark.parametrize("extra", [1, 2])
def test_smallest_budgets_match_scipy(N, extra):
    """maxfev = N + 1 only evaluates the first simplex; N + 2 adds one
    reflection and no trial point."""
    nfev = _assert_matches_scipy(_objectives(N)["kinked"], _starts(N), N + extra)
    assert np.all(nfev == N + extra)


@pytest.mark.parametrize("N", DIMS)
def test_nan_and_inf_values_match_scipy(N):
    # scipy's own tolerance test subtracts inf from inf
    with np.errstate(invalid="ignore"):
        _assert_matches_scipy(_holes(N), 1.5 * _starts(N), 100 * N)


@pytest.mark.parametrize("N", DIMS)
def test_starts_retiring_together_match_scipy(N):
    nfev = _assert_matches_scipy(_objectives(N)["quadratic"], _retiring_starts(N), 200 * N)
    assert nfev[0] == nfev[1] == N + 1  # stopped on the very first check
    assert nfev[2] == nfev[3] and nfev[4] == nfev[5]


def _row_counts(N, name, maxfev):
    """How many objective calls, how many rows in all, and a digest of the
    rows per call, in order."""
    F = _holes(N) if name == "holes" else _objectives(N)[name]
    counts = []

    def counted(X):
        counts.append(len(X))
        return F(X)

    with np.errstate(invalid="ignore"):
        nelder_mead_rows(counted, 1.5 * _starts(N), maxfev, XATOL, FATOL)
    digest = hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()[:16]
    return len(counts), sum(counts), digest


# recorded before the per-start control moved to Python: the lockstep must
# keep the number of objective calls and the rows of each
ROW_COUNT_CASES = {
    (2, "kinked", 400): (286, 1508, "064a1b8424c540f0"),
    (2, "holes", 400): (300, 1486, "9a20d20e10d82e6c"),
    (6, "quadratic", 2400): (1592, 6498, "f45c0e1ec1e1c463"),
    (6, "ratio", 300): (374, 1800, "d7a42d1599754c14"),
    (20, "quadratic", 4000): (5816, 24000, "239ae99d0dbf3924"),
}


@pytest.mark.parametrize("key", list(ROW_COUNT_CASES))
def test_objective_calls_and_rows_are_pinned(key):
    assert _row_counts(*key) == ROW_COUNT_CASES[key]


def _dual_digest(dim):
    """The bytes of ``_dual_multistart`` on a fixed non-convex expression
    over a weighted ell_r^dim."""
    rng = np.random.default_rng(dim)
    r = {2: 1.5, 6: 2.0, 12: 1.25, 20: 3.0}[dim]
    b = GeneratorBinding.from_matrix(
        SpaceSpec(r, dim, tuple(rng.uniform(0.5, 2.0, dim))), rng.standard_normal((4, dim))
    )
    e = Abs(Gen(0)) * 0.9 + Join(Gen(1), Gen(2)) * 1.1 - Abs(Gen(3)) * 0.6 + PosPart(Gen(0) - Gen(1)) * 0.8
    est = _dual_multistart(e, b, OptimizerConfig())
    witness = hashlib.sha256(est.witness.matrix.tobytes()).hexdigest()[:16]
    return est.lower.hex(), est.upper.hex(), est.method[1], witness


# recorded before the per-start control moved to Python
DUAL_DIMS = {
    2: ("0x1.3f3cbbcec1477p+2", "0x1.4747ae6fd8852p+2", "Lipschitz grid upper", "b38d6dba034be494"),
    6: ("0x1.d0214444fe051p+2", "0x1.d0214444fe051p+2", "upper not certified (dual dim > 3)", "080c1175a3f0afe2"),
    12: ("0x1.a77eb15748ca1p+3", "0x1.a77eb15748ca1p+3", "upper not certified (dual dim > 3)", "06b95f0d62f22ee7"),
    20: ("0x1.ea6b2d7694fe6p+2", "0x1.ea6b2d7694fe6p+2", "upper not certified (dual dim > 3)", "cf2bf7f3d2b5156d"),
}


@pytest.mark.parametrize("dim", list(DUAL_DIMS))
def test_dual_multistart_bytes_are_pinned(dim):
    assert _dual_digest(dim) == DUAL_DIMS[dim]
