"""The seed stage of the witness search, bit for bit against the work it
skips: the signed-sum maxima of matrices with at most one nonzero per
column (families of disjoint members, such as coordinate families), which
``spaces._max_signed_sum`` reads off the all-plus sum instead of
enumerating, and ``summing.witness_search``, which considers each distinct
seed once.

The shortcut is compared with the enumeration on the same stack: directly
on weighted and unweighted ell_r, and through the value functions of
``operators._exact_plan`` on the member side and on the cube side, with
the check switched on for every stack (``_DISJOINT_CHECK`` = 0) against
the check switched off.  Stacks mix plain matrices with ones holding
+-0.0 entries, zero rows, a second nonzero in one column, or entries near
2^300 or 2^-300, the ends of the float window (``spaces._window_exponent``)
of the exponents drawn here (at most 3): the public entry points scale
data outside it before it reaches these kernels.  Both forms run under
the suite's warnings-as-errors filter.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fblab.spaces
import fblab.summing
from fblab import Abs, Gen, GeneratorBinding, LinearMap, SpaceSpec, witness_search
from fblab.fbl import _convex_sup
from fblab.operators import _exact_plan, _unit_space
from fblab.spaces import _max_signed_sum
from fblab.summing import _pi_objective, _pi_seeds

EXPONENTS = [1.0, 1.5, 2.0, 3.0, math.inf]
SPECIALS = ["plain", "zero rows", "second nonzero", "huge", "tiny"]


def _disjoint_stack(K, n, dim, special, rng):
    """K matrices of n rows in R^dim, each column with at most one nonzero
    and its other entries +0.0 or -0.0; the special case goes into some of
    them, so a stack mixes it with plain matrices."""
    M = np.where(rng.random((K, n, dim)) < 0.5, 0.0, -0.0)
    for k in range(K):
        owner = rng.integers(n + 1, size=dim)  # n: a zero column
        cols = np.flatnonzero(owner < n)
        M[k, owner[cols], cols] = rng.standard_normal(len(cols))
    chosen = rng.random(K) < 0.5
    chosen[rng.integers(K)] = True
    for k in np.flatnonzero(chosen):
        if special == "zero rows":
            M[k, rng.integers(n, size=max(1, n // 2))] = -0.0
        elif special == "second nonzero" and n > 1:
            c = rng.integers(dim)
            rows = rng.choice(n, size=2, replace=False)
            M[k, rows, c] = rng.standard_normal(2)
        elif special == "huge":
            M[k] *= 2.0**300
        elif special == "tiny":
            M[k] *= 2.0**-300
    return M


def _space(r, dim, weighted, rng):
    return SpaceSpec(r, dim, tuple(rng.uniform(0.5, 2.0, dim)) if weighted else ())


def _with_check(gate, fn, *args):
    """fn(*args) with ``_DISJOINT_CHECK`` at ``gate``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fblab.spaces, "_DISJOINT_CHECK", gate)
        return fn(*args)


_DRAW = dict(
    K=st.sampled_from([1, 2, 7]),
    n=st.integers(1, 9),
    dim=st.integers(1, 8),
    special=st.sampled_from(SPECIALS),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@given(r=st.sampled_from(EXPONENTS), **_DRAW)
@settings(max_examples=300, deadline=None)
def test_disjoint_maxima_are_the_enumerations(r, K, n, dim, special, weighted, seed):
    """The maxima and winning sums of a stack, and of each of its matrices
    alone, with the bits of the enumeration's."""
    rng = np.random.default_rng(seed)
    space = _space(r, dim, weighted, rng)
    M = _disjoint_stack(K, n, dim, special, rng)
    top, z = _with_check(0, _max_signed_sum, M, space)
    enumerated, z_enumerated = _with_check(math.inf, _max_signed_sum, M, space)
    assert top.tobytes() == enumerated.tobytes() and z.tobytes() == z_enumerated.tobytes()
    for k in range(K):
        alone, z_alone = _with_check(0, _max_signed_sum, M[k], space)
        assert np.float64(alone).tobytes() == top[k].tobytes() and z_alone.tobytes() == z[k].tobytes()


@given(
    r=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    side=st.sampled_from(["member", "cube"]),
    weighted_codomain=st.booleans(),
    **_DRAW,
)
@settings(max_examples=300, deadline=None)
def test_disjoint_plan_values_are_the_enumerations(r, side, weighted_codomain, K, n, dim, special, weighted, seed):
    """The value functions of ``_exact_plan`` that enumerate signed sums:
    the member side measures the n members' signed sums in the dual of a
    non-sup ball E (dual exponent r), the cube side the cube vertices'
    images in a codomain ell_r^N over a sup-norm ball.  A stack's values
    with the check on every stack are those with it off."""
    rng = np.random.default_rng(seed)
    if side == "member":
        E = _space(r / (r - 1.0) if r > 1 else math.inf, dim, weighted, rng)
        C = _space(1.0, n, weighted_codomain, rng)
        Y = _disjoint_stack(K, n, dim, special, rng)  # columns of a family are disjoint
    else:
        E = _space(math.inf, dim, weighted, rng)
        C = _space(r, n, weighted_codomain, rng)
        Y = np.swapaxes(_disjoint_stack(K, dim, n, special, rng), 1, 2)  # each member has one nonzero
    plan = _exact_plan(E, C)
    assert plan is not None and plan[1] in ("sign enumeration", "cube-vertex enumeration")
    value = plan[0]
    checked, unchecked = _with_check(0, value, Y), _with_check(math.inf, value, Y)
    assert checked.tobytes() == unchecked.tobytes()


def _spy_shortcut(monkeypatch):
    runs = []
    all_plus = fblab.spaces._all_plus_sums
    monkeypatch.setattr(fblab.spaces, "_all_plus_sums", lambda M, space: runs.append(M.shape) or all_plus(M, space))
    return runs


def test_coordinate_families_take_the_shortcut_on_both_sides(monkeypatch):
    """20 coordinate functionals over ell_inf^64 (the member side) and 20
    members of one coordinate each over ell_inf^12 (the cube side): the
    maximum is read off the all-plus sum, with the enumeration's bits."""
    runs = _spy_shortcut(monkeypatch)
    rng = np.random.default_rng(11)
    coordinates = np.eye(64)[np.sort(rng.choice(64, 20, replace=False))] * rng.uniform(0.5, 2.0, (20, 1))
    single = np.eye(12)[rng.integers(12, size=20)] * rng.standard_normal((20, 1))
    for Y, shape in [(coordinates, (1, 20, 64)), (single, (1, 12, 20))]:
        dim = Y.shape[1]
        E = SpaceSpec(math.inf, dim, tuple(rng.uniform(0.5, 2.0, dim)))
        value, tag, _ = _exact_plan(E, _unit_space(1.0, 20))
        fast = value(Y)
        assert tag == "sign enumeration" and runs[-1] == shape
        assert np.float64(fast).tobytes() == np.float64(_with_check(math.inf, value, Y)).tobytes()
    assert len(runs) == 2


def test_small_stacks_are_not_checked(monkeypatch):
    """Below ``_DISJOINT_CHECK`` signed-sum entries a disjoint stack is
    enumerated: the check would cost more than it saves."""
    runs = _spy_shortcut(monkeypatch)
    M = np.eye(8)[:4][None].repeat(3, axis=0)  # 2^3 patterns of 8 entries
    _max_signed_sum(M, SpaceSpec(2.0, 8))
    assert runs == []
    _max_signed_sum(np.eye(13), SpaceSpec(2.0, 13))  # 2^12 patterns of 13 entries
    assert runs == [(1, 13, 13)]


def _disjoint_binding(r, weighted, count, dim, seed):
    rng = np.random.default_rng(seed)
    E = _space(r, dim, weighted, rng)
    owner = rng.integers(count, size=dim)
    X = np.zeros((count, dim))
    X[owner, np.arange(dim)] = rng.standard_normal(dim)
    return GeneratorBinding(E, X)


# (r, weighted) -> the sup's float.hex() and the sha256 of the attaining
# functional's bytes, for sum_k (1 + k/4) |d_k| of 14 disjoint vectors in R^24
CONVEX_SUP = {
    (1.0, False): ("0x1.8255d09598327p+5", "0f4a534f9b66d73d"),
    (1.0, True): ("0x1.befe648324996p+5", "2297b8c1f6ff3f0b"),
    (1.5, False): ("0x1.39975295da980p+4", "be27a37d2a7c181e"),
    (1.5, True): ("0x1.5a590ca0f87abp+4", "20d4586ef65ed0db"),
    (2.0, False): ("0x1.a3da4c5983621p+3", "0fe2940fde22e00e"),
    (2.0, True): ("0x1.bea3606e357edp+3", "11407c96c84d7e6b"),
    (3.0, False): ("0x1.2dacd44038fccp+3", "67e68cb1c8857271"),
    (3.0, True): ("0x1.2a504e65756a3p+3", "fd410d35d5e69a05"),
}


@pytest.mark.parametrize("r, weighted", sorted(CONVEX_SUP))
def test_convex_sup_of_disjoint_moduli_keeps_its_bytes(r, weighted):
    """``fbl._convex_sup`` reads the winning signed sum, not only its norm,
    so it keeps the enumeration on disjoint vectors too."""
    b = _disjoint_binding(r, weighted, 14, 24, 7)
    e = Abs(Gen(0))
    for k in range(1, 14):
        e = e + (1.0 + 0.25 * k) * Abs(Gen(k))
    top, y, how = _convex_sup(e, b)
    assert how == "signed-sum enumeration"
    assert (top.hex(), hashlib.sha256(y.tobytes()).hexdigest()[:16]) == CONVEX_SUP[(r, weighted)]


@pytest.mark.parametrize("r, p", [(math.inf, 1.0), (2.0, 1.0), (3.0, 2.0)])
def test_witness_search_considers_each_distinct_seed_once(r, p, monkeypatch):
    """Repeated seeds (copies, and an integer array equal to a float one)
    reach the weak-p oracle once, and the result keeps the bytes it has
    without the repeats."""
    rng = np.random.default_rng(5)
    T = LinearMap(rng.standard_normal((3, 4)), SpaceSpec(r, 4, (0.5, 1.0, 1.5, 2.0)), SpaceSpec(1.5, 3))
    ball, objective = T.domain.dual, _pi_objective(T, 2.0)
    seeds = _pi_seeds(T)
    repeated = seeds + [s.copy() for s in seeds[::2]] + [np.eye(4, dtype=int), seeds[0].tolist()]
    oracle = fblab.summing._bound
    results = []
    for family in (seeds, repeated):
        calls = []
        monkeypatch.setattr(fblab.summing, "_bound", lambda E, Y, C: calls.append((Y.shape, Y.tobytes())) or oracle(E, Y, C))
        val, witness, tight = witness_search(ball, p, objective, family)
        results.append((np.float64(val).tobytes(), witness.functionals.tobytes(), tight, calls))
    assert results[0] == results[1]
    calls = results[1][3]
    distinct = {(np.shape(s), np.asarray(s, dtype=float).tobytes()) for s in seeds}
    assert len(set(calls)) == len(calls) and distinct <= set(calls)
