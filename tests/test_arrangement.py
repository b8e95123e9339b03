"""p = inf norms over weighted ell_1 and ell_inf by the extreme rays of the
arrangement (``fbl._arrangement_sup``): the sup recomputed over the same
planes in exact rational arithmetic, sampled dual points, the witness, the
multistart, and the cap."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from test_dc_certificate import _random_expr

from fblab import (
    Abs,
    Add,
    Gen,
    GeneratorBinding,
    Join,
    Meet,
    Neg,
    PosPart,
    Scale,
    SpaceSpec,
    fbl,
    fbl_infty_norm,
)
from fblab.exprs import _exact_dc_split, eval_rows, mass_bound
from fblab.fbl import _arrangement_normals, _convex_sup, _dual_multistart
from fblab.spaces import norms_rows

TAG = ("polyhedral arrangement", "extreme-ray enumeration")


def _case(seed: int):
    """A random expression off the convex paths with an exact split and at
    most 600 candidate rays, over a weighted ell_1 or ell_inf of dimension
    1-4 (both from the seed)."""
    rng = np.random.default_rng(seed)
    r, d = (1.0, math.inf)[seed % 2], 1 + (seed // 2) % 4
    while True:
        count = int(rng.integers(1, 4))
        E = SpaceSpec(r, d, tuple(rng.uniform(0.5, 2.0, d)))
        b = GeneratorBinding.from_matrix(E, rng.standard_normal((count, d)))
        e = _random_expr(rng, count, 4)
        split = _exact_dc_split(e, b)
        if split is None or _convex_sup(e, b) is not None:
            continue
        if math.comb(len(_arrangement_normals(E, split)), d - 1) <= 600:
            return e, b


def _exact_value(e, b, y: list) -> Fraction:
    """e at the functional y (Fractions), in exact arithmetic."""
    w = [Fraction(x) for x in b.space.weights]
    X = [[Fraction(x) for x in row] for row in b.matrix.tolist()]

    def ev(n):
        if isinstance(n, Gen):
            return sum(wj * yj * xj for wj, yj, xj in zip(w, y, X[n.index]))
        if isinstance(n, Scale):
            return Fraction(n.c) * ev(n.e)
        if isinstance(n, Add):
            return ev(n.left) + ev(n.right)
        if isinstance(n, Neg):
            return -ev(n.e)
        if isinstance(n, Abs):
            return abs(ev(n.e))
        if isinstance(n, PosPart):
            return max(ev(n.e), Fraction(0))
        if isinstance(n, (Join, Meet)):
            return (max if isinstance(n, Join) else min)(ev(n.left), ev(n.right))
        raise TypeError(type(n).__name__)

    return ev(e)


def _exact_dual_norm(E: SpaceSpec, y: list) -> Fraction:
    if E.r == 1:
        return max(abs(c) for c in y)
    return sum(Fraction(w) * abs(c) for w, c in zip(E.weights, y))


def _null_vector(rows: list) -> list:
    """The cofactor expansion of the d - 1 integer rows: entry j is (-1)^j
    times the minor without column j (Leibniz formula)."""
    m = len(rows)
    d = m + 1
    y = []
    for j in range(d):
        cols = [c for c in range(d) if c != j]
        det = 0
        for s in itertools.permutations(range(m)):
            sign = (-1) ** sum(s[k] > s[l] for k in range(m) for l in range(k + 1, m))
            det += sign * math.prod(rows[k][cols[s[k]]] for k in range(m))
        y.append((-1) ** j * det)
    return y


def _exact_sup(e, b) -> Fraction:
    """max |e(y)| / ||y||_* over the lines where d - 1 of the planes meet,
    both signs, in exact arithmetic."""
    E = b.space
    normals = _arrangement_normals(E, _exact_dc_split(e, b)).tolist()
    best = Fraction(0)
    for rows in itertools.combinations(normals, E.dim - 1):
        y = [Fraction(c) for c in _null_vector(list(rows))]
        if any(y):
            n = _exact_dual_norm(E, y)
            for s in (1, -1):
                best = max(best, abs(_exact_value(e, b, [s * c for c in y])) / n)
    return best


@pytest.mark.parametrize("seed", range(24))
def test_exact_sup_is_inside_the_interval(seed):
    """The sup over the candidate rays, recomputed with Fractions (the
    sup itself, since the rays are the exact extreme rays), lies in
    [lower, upper], and the interval is closed to 1e-12 (of the mass
    bound where e vanishes on the dual ball)."""
    e, b = _case(seed)
    est = fbl_infty_norm(e, b)
    assert est.method == TAG
    assert est.lower_certified and est.upper_certified
    exact = _exact_sup(e, b)
    assert Fraction(est.lower) <= exact <= Fraction(est.upper)
    assert est.upper <= est.lower * (1.0 + 1e-12) if exact else est.upper <= 1e-12 * mass_bound(e, b)


@pytest.mark.parametrize("seed", range(24))
def test_samples_witness_and_multistart_stay_below_the_upper(seed):
    """No float evaluation at 10^5 sampled points of the dual sphere, nor
    the multistart's lower bound, reads above the upper bound, which is
    widened by the evaluation's rounding; the witness replays the lower
    bound."""
    e, b = _case(seed)
    est = fbl_infty_norm(e, b)
    G = np.random.default_rng(seed + 1000).standard_normal((100_000, b.space.dim))
    G /= norms_rows(b.space.dual, G)[:, None]
    assert np.max(np.abs(eval_rows(e, b, G))) <= est.upper
    assert _dual_multistart(e, b).lower <= est.upper
    y = est.witness.matrix
    assert norms_rows(b.space.dual, y)[0] == pytest.approx(1.0, rel=1e-12)
    assert abs(eval_rows(e, b, y)[0]) == pytest.approx(est.lower, rel=1e-12)
    assert est.witness.objective == est.lower


@pytest.mark.parametrize("seed", range(4))
def test_above_the_cap_the_multistart_runs_without_rays(seed, monkeypatch):
    """With the cap below the candidate count the rays are never built and
    the bytes are the multistart's."""
    e, b = _case(seed + 4)
    monkeypatch.setattr(fbl, "_ARRANGEMENT_CAP", 0)

    def no_rays(*args):
        raise AssertionError("candidate rays built above the cap")

    monkeypatch.setattr(fbl, "_extreme_rays", no_rays)
    assert json.dumps(fbl_infty_norm(e, b).to_json()) == json.dumps(_dual_multistart(e, b).to_json())


@pytest.mark.parametrize("dim, X", [(20, np.eye(20)), (16, np.random.default_rng(0).standard_normal((2, 16)))])
def test_few_subsets_with_wide_middle_stages_take_the_multistart(dim, X, monkeypatch):
    """|d0| - |d1| over ell_inf^20 (identity binding) and ell_inf^16 (random
    binding) has 20 and 18 planes: few (d - 1)-subsets (20 and 816), but
    the wedge products between them pass C(20, 10)^2 and 10^8 minors.  The
    cap counts those, so the rays are never built and the bytes are the
    multistart's."""
    b = GeneratorBinding.from_matrix(SpaceSpec(math.inf, dim), X)
    e = Abs(Gen(0)) - Abs(Gen(1))
    normals = _arrangement_normals(b.space, _exact_dc_split(e, b))
    assert math.comb(len(normals), dim - 1) <= 816
    assert fbl._arrangement_work(len(normals), dim) > fbl._ARRANGEMENT_CAP

    def no_rays(*args):
        raise AssertionError("candidate rays built above the cap")

    monkeypatch.setattr(fbl, "_extreme_rays", no_rays)
    assert json.dumps(fbl_infty_norm(e, b).to_json()) == json.dumps(_dual_multistart(e, b).to_json())


def test_difference_of_moduli_over_weighted_ell_1():
    """|d0| - 2 |d1| over a weighted ell_1^2 with bound vectors e_0, e_1:
    at y = (1, 0), e = w_0 = 1.5, the sup."""
    E = SpaceSpec(1.0, 2, (1.5, 0.25))
    b = GeneratorBinding.from_matrix(E, np.eye(2))
    est = fbl_infty_norm(Abs(Gen(0)) - Scale(2.0, Abs(Gen(1))), b)
    assert est.method == TAG
    assert est.lower <= 1.5 <= est.upper <= 1.5 * (1.0 + 1e-14)


@pytest.mark.parametrize("seed", [2, 5, 7])
@pytest.mark.parametrize("scale", [1e-140, 1e140])
def test_tiny_and_huge_scales(seed, scale):
    """Data scaled by 1e+-140 is scaled into the float window by the entry
    point and closes at the scaled value."""
    e, b = _case(seed)
    est = fbl_infty_norm(e, b)
    big = fbl_infty_norm(e, GeneratorBinding.from_matrix(b.space, b.matrix * scale))
    assert big.method == TAG
    assert big.lower == pytest.approx(est.lower * scale, rel=1e-12)
    assert big.upper <= big.lower * (1.0 + 1e-12)


def test_rays_above_the_float_range():
    """Entries 1e-200 beside entries near 1 make normals of 768 bits, whose
    cross products pass 2^1024 and are scaled by a power of two before
    their rounding; the interval still closes and holds at samples."""
    E = SpaceSpec(math.inf, 3, (0.7, 1.3, 2.1))
    X = np.array([[1.0, 3e-200, -0.5], [0.25, -1.0, 7e-180], [1.5e-190, 0.6, 1.1]])
    b = GeneratorBinding.from_matrix(E, X)
    e = Abs(Gen(0)) - Scale(0.8, Join(Gen(1), Gen(2)))
    normals = _arrangement_normals(E, _exact_dc_split(e, b))
    assert max(abs(int(c)) for c in normals.ravel()).bit_length() > 700
    est = fbl_infty_norm(e, b)
    assert est.method == TAG
    assert est.upper <= est.lower * (1.0 + 1e-12)
    G = np.random.default_rng(0).standard_normal((100_000, 3))
    G /= norms_rows(E.dual, G)[:, None]
    assert np.max(np.abs(eval_rows(e, b, G))) <= est.upper
