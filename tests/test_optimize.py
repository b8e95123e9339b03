"""The lockstep Nelder-Mead against scipy's, run start by start, and
Powell's method, in lockstep over the line searches of a sweep and over
many starts, against scipy's.

On objectives whose rows do not depend on each other, ``nelder_mead_rows``
must return scipy's points, values and evaluation counts bit for bit.
Half the budgets are small, so some starts stop on their budget, one in
the middle of a shrink, while others converge first.  ``powell_rows`` must
return scipy's Powell point, value and count, and ``powell_starts`` from
each start what scipy's Powell returns from it alone.
"""

import functools
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

import fblab.optimize
from fblab import Abs, Gen, GeneratorBinding, Join, PosPart, SpaceSpec
from fblab.fbl import _dual_multistart
from fblab.optimize import nelder_mead_rows, powell_rows, powell_starts

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


# recorded with one call of the objective per step for the four trial points
# of every running start (plus one per shrink): the lockstep must keep the
# number of objective calls and the rows of each
ROW_COUNT_CASES = {
    (2, "kinked", 400): (144, 3214, "ea852b0f41dab93e"),
    (2, "holes", 400): (200, 2638, "208c57d0afc983d9"),
    (6, "quadratic", 2400): (812, 16354, "6be1e5b13ca0b82c"),
    (6, "ratio", 300): (190, 4474, "6ff4944cb1cd5b6b"),
    (20, "quadratic", 4000): (3238, 77018, "b8e4917c60a72fa8"),
}


@pytest.mark.parametrize("key", list(ROW_COUNT_CASES))
def test_objective_calls_and_rows_are_pinned(key):
    assert _row_counts(*key) == ROW_COUNT_CASES[key]


_DUAL_R = {2: 1.5, 6: 2.0, 12: 1.25, 20: 3.0}


def _dual_digest(dim, r=None):
    """The bytes of ``_dual_multistart`` on a fixed non-convex expression
    over a weighted ell_r^dim, r by ``_DUAL_R`` unless given."""
    rng = np.random.default_rng(dim)
    b = GeneratorBinding.from_matrix(
        SpaceSpec(_DUAL_R[dim] if r is None else r, dim, tuple(rng.uniform(0.5, 2.0, dim))),
        rng.standard_normal((4, dim)),
    )
    e = Abs(Gen(0)) * 0.9 + Join(Gen(1), Gen(2)) * 1.1 - Abs(Gen(3)) * 0.6 + PosPart(Gen(0) - Gen(1)) * 0.8
    est = _dual_multistart(e, b)
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


def _recorded_nelder_mead(monkeypatch):
    """Make ``_dual_multistart`` record the arguments of its Nelder-Mead
    call in the returned list."""
    calls = []

    def recording(F, X0, *args):
        calls.append((F, X0, args))
        return nelder_mead_rows(F, X0, *args)

    monkeypatch.setattr(fblab.fbl, "nelder_mead_rows", recording)
    return calls


@pytest.mark.parametrize("dim", list(DUAL_DIMS))
def test_each_dual_start_alone_matches_the_lockstep(dim, monkeypatch):
    """A start's point, value and count do not depend on which other starts
    are still running.  The dual objective pairs its rows by one matrix
    product, which takes a different BLAS kernel, and other bits, for a
    single row than for a stack; no call of the lockstep has one row."""
    calls = _recorded_nelder_mead(monkeypatch)
    _dual_digest(dim)
    [(F, X0, args)] = calls
    X, fun, nfev = nelder_mead_rows(F, X0, *args)
    for k, x0 in enumerate(X0):
        x, f, n = nelder_mead_rows(F, x0[None], *args)
        assert (x[0].tobytes(), f[0].hex(), n[0]) == (X[k].tobytes(), fun[k].hex(), nfev[k])


# recorded while every repeated start still ran: over ell_1^2 and ell_inf^3
# the six best candidates hold three and four distinct rows
REPEATED_STARTS = {
    (2, 1.0): ("0x1.83e78d1038b48p+2", "0x1.8c9dc9c55c499p+2", "Lipschitz grid upper", "e077172409ed971e"),
    (3, math.inf): ("0x1.4a31dac4f855cp+2", "0x1.913b9020e5e9dp+2", "Lipschitz grid upper", "f2fd7285104cfb21"),
}


@pytest.mark.parametrize("dim, r", list(REPEATED_STARTS))
def test_repeated_dual_starts_run_once_with_the_same_bytes(dim, r, monkeypatch):
    calls = _recorded_nelder_mead(monkeypatch)
    assert _dual_digest(dim, r) == REPEATED_STARTS[dim, r]
    [(_, X0, _)] = calls
    assert len(X0) < 6 and len({x.tobytes() for x in X0}) == len(X0)


# --------------------------------------------------------------------------
# Powell's method against scipy's
# --------------------------------------------------------------------------


def _powell_rows_objectives(N):
    """Row-stacked objectives: those of ``_objectives`` and the holes, one
    constant (every bracket fails), one that reads y_0 only (zero steps
    along the other axes) and one with flat steps."""
    rows = {**_objectives(N), "holes": _holes(N)}
    kinked = rows["kinked"]
    rows["flat"] = lambda X: np.full(len(X), 1.5)
    rows["first"] = lambda X: np.abs(X[:, 0] - 0.2) + 0.5 * X[:, 0] * X[:, 0]
    rows["steps"] = lambda X: np.floor(4.0 * kinked(X))
    return rows


def _powell_objectives(N):
    """Scalar objectives: those above, one constant (every bracket fails),
    one that reads y_0 only (zero steps along the other axes) and one with
    flat steps; ``_powell_rows_objectives`` holds their row-stacked forms."""
    rows = {**_objectives(N), "holes": _holes(N)}
    funs = {name: (lambda y, F=F: F(y[None, :])[0]) for name, F in rows.items()}
    kinked = funs["kinked"]
    funs["flat"] = lambda y: 1.5
    funs["first"] = lambda y: abs(y[0] - 0.2) + 0.5 * y[0] * y[0]
    funs["steps"] = lambda y: float(np.floor(4.0 * kinked(y)))
    return funs


# lockstep windows forced to one line (one at a time), to three lines and to
# the whole sweep, with no bound on the rows that run ahead; the whole sweep
# with no spare rows, so lines ahead wait for evaluations to be counted; and
# the default
_FORCED_WINDOWS = [
    (1, 1, 1, 0),
    (3, 1, 1, 10**18),
    (10**9, 1, 1, 10**18),
    (10**9, 1, 1, 0),
    fblab.optimize._WINDOW,
]


def _lockstep_runs(F, x0, maxfev, xtol, ftol):
    """powell_rows under each window of ``_FORCED_WINDOWS``: its result and
    the rows it evaluated."""
    runs = []
    for window in _FORCED_WINDOWS:
        rows = []

        def counted(X):
            rows.append(len(X))
            return F(X)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fblab.optimize, "_WINDOW", window)
            runs.append((powell_rows(counted, x0, maxfev, xtol, ftol), sum(rows)))
    return runs


def _same(result, ref):
    x, value, nfev = result
    return (x.tobytes(), np.float64(value).tobytes(), nfev) == (ref.x.tobytes(), np.float64(ref.fun).tobytes(), ref.nfev)


def _scipy_powell(fun, x0, maxfev, xtol, ftol):
    """scipy's unbounded Powell from x0; its numpy scalars meet inf and nan
    on the objectives with holes."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return minimize(fun, x0, method="Powell", options={"maxfev": maxfev, "xtol": xtol, "ftol": ftol})


_COORDS = st.one_of(st.sampled_from([-0.0, 0.0, 1.0]), st.floats(-3.0, 3.0))


@given(
    N=st.integers(1, 4),
    name=st.sampled_from(["quadratic", "kinked", "ratio", "holes", "flat", "first", "steps"]),
    data=st.data(),
    maxfev=st.integers(1, 300),
    xtol=st.sampled_from([1e-4, 1e-8, 1e-10]),
    ftol=st.sampled_from([1e-4, 1e-10, 1e-12]),
)
@settings(max_examples=300, deadline=None)
def test_powell_matches_scipy(N, name, data, maxfev, xtol, ftol):
    """``powell_rows`` under every forced window returns scipy's result;
    the lockstep runs evaluate at most 2 nfev rows plus their spare rows."""
    F = _powell_rows_objectives(N)[name]
    fun = _powell_objectives(N)[name]
    x0 = np.array(data.draw(st.lists(_COORDS, min_size=N, max_size=N)))
    ref = _scipy_powell(fun, x0, maxfev, xtol, ftol)
    runs = _lockstep_runs(F, x0, maxfev, xtol, ftol)
    for window, (result, rows) in zip(_FORCED_WINDOWS, runs):
        assert _same(result, ref), window
        assert rows <= 2 * ref.nfev + window[3]


@pytest.mark.parametrize("N,name,start", [(1, "kinked", 2), (3, "ratio", 2), (2, "holes", 3)])
def test_powell_stopped_at_every_evaluation_matches_scipy(N, name, start):
    """A budget of every size up to the full run's count runs out at every
    one of its evaluations: in a bracket, in Brent's search and at the
    extrapolated point; in lockstep also in a line that runs ahead."""
    F = _powell_rows_objectives(N)[name]
    fun = _powell_objectives(N)[name]
    x0 = 1.5 * _starts(N)[start]
    full = _scipy_powell(fun, x0, 10**6, 1e-10, 1e-12).nfev
    for maxfev in range(1, full + 2):
        ref = _scipy_powell(fun, x0, maxfev, 1e-10, 1e-12)
        runs = _lockstep_runs(F, x0, maxfev, 1e-10, 1e-12)
        for window, (result, rows) in zip(_FORCED_WINDOWS, runs):
            assert _same(result, ref) and rows <= 2 * ref.nfev + window[3], window
    assert ref.nfev == full < maxfev


def _lockstep_counts(N, name, maxfev):
    """How many objective calls powell_rows makes from 1.5 times the third
    start, how many rows in all, and a digest of the rows per call."""
    F = _powell_rows_objectives(N)[name]
    counts = []

    def counted(X):
        counts.append(len(X))
        return F(X)

    powell_rows(counted, 1.5 * _starts(N)[2], maxfev, 1e-10, 1e-12)
    digest = hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()[:16]
    return len(counts), sum(counts), digest


# recorded when the lockstep Powell was written: its calls and rows per call
LOCKSTEP_COUNT_CASES = {
    (6, "kinked", 3000): (2884, 3039, "84fee1770a7c1af3"),
    (20, "ratio", 4000): (731, 3099, "d23ab25d08c0e9bf"),
}


@pytest.mark.parametrize("key", list(LOCKSTEP_COUNT_CASES))
def test_lockstep_calls_and_rows_are_pinned(key):
    assert _lockstep_counts(*key) == LOCKSTEP_COUNT_CASES[key]


# --------------------------------------------------------------------------
# Powell from many starts in lockstep against scipy's from each alone
# --------------------------------------------------------------------------


def _many_starts(N):
    """``_starts`` with the origin and a start in the nan region of
    ``_holes`` (x_0 > 1) added."""
    nan_start = np.full(N, 0.5)
    nan_start[0] = 2.0
    return np.vstack([_starts(N), np.zeros(N), nan_start])


def _assert_starts_match_powell(F, fun, X0, maxfev, xtol=1e-10, ftol=1e-12):
    """powell_starts returns what scipy's Powell returns from each start
    alone, in at most max nfev calls of F, and evaluates no start again: at
    most sum nfev - len(X0) rows.  Returns the counts."""
    alone = [(ref.x, ref.fun, ref.nfev) for ref in (_scipy_powell(fun, x0, maxfev, xtol, ftol) for x0 in X0)]
    rows = []

    def counted(X):
        rows.append(len(X))
        return F(X)

    runs = powell_starts(counted, X0, maxfev, xtol, ftol, F(X0).tolist())
    assert len(runs) == len(X0)
    for (x, value, nfev), (x1, value1, nfev1) in zip(runs, alone):
        assert (x.tobytes(), np.float64(value).tobytes(), nfev) == (x1.tobytes(), np.float64(value1).tobytes(), nfev1)
    counts = [n for _, _, n in alone]
    assert len(rows) <= max(counts) and sum(rows) <= sum(counts) - len(X0)
    return counts


@pytest.mark.parametrize("N,name", [(1, "kinked"), (3, "ratio"), (2, "holes"), (6, "holes"), (3, "steps"), (2, "first")])
def test_powell_starts_match_powell_alone(N, name):
    """Each start of the lockstep run returns scipy's point, value and
    count from that start alone, at full budget and at budgets that stop some runs inside a line
    search or at an extrapolated point while others have converged; the
    starts take different numbers of rounds, one is the origin and one is in
    a nan region."""
    F = _powell_rows_objectives(N)[name]
    fun = _powell_objectives(N)[name]
    X0 = 1.5 * _many_starts(N)
    full = _assert_starts_match_powell(F, fun, X0, 10**6)
    assert len(set(full)) > 2  # the runs end on different steps
    for maxfev in sorted({1, 2, min(full), *np.quantile(full, [0.25, 0.5, 0.75]).astype(int).tolist(), max(full)}):
        counts = _assert_starts_match_powell(F, fun, X0, maxfev)
        if min(full) < maxfev < max(full):
            assert maxfev in counts and min(counts) < maxfev  # some stopped, some converged


@given(
    N=st.integers(1, 4),
    name=st.sampled_from(["quadratic", "kinked", "ratio", "holes", "flat", "first", "steps"]),
    data=st.data(),
    maxfev=st.integers(1, 300),
    xtol=st.sampled_from([1e-4, 1e-8, 1e-10]),
    ftol=st.sampled_from([1e-4, 1e-10, 1e-12]),
)
@settings(max_examples=150, deadline=None)
def test_powell_starts_match_powell_on_drawn_starts(N, name, data, maxfev, xtol, ftol):
    """Drawn starts, budgets and tolerances: each start returns what scipy's
    Powell returns from it alone."""
    K = data.draw(st.integers(1, 5))
    X0 = np.array(data.draw(st.lists(st.lists(_COORDS, min_size=N, max_size=N), min_size=K, max_size=K)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _assert_starts_match_powell(_powell_rows_objectives(N)[name], _powell_objectives(N)[name], X0, maxfev, xtol, ftol)
