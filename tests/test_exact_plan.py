"""The exact-norm paths resolved once per ball (``operators._exact_plan``
and ``spaces._signed_sum_plan``) against the per-call dispatch they
replaced, bit for bit, and polished witness searches on fixed inputs, over
dual balls and over B_F on each path of its weak-p bound, which run, as the
extension multistart does, without scipy's minimize."""

import math

import numpy as np
import pytest
import scipy.optimize

import fblab.summing
from fblab import (
    Abs, Gen, GeneratorBinding, Join, LinearMap, OptimizerConfig, PosPart, SpaceSpec, SubspaceSpec,
    extension_constant, witness_search,
)
from fblab.exprs import eval_pairings
from fblab.fbl import _fbl_objective
from fblab.operators import _exact_plan, _unit_space
from fblab.optimize import powell_rows
from fblab.spaces import _EXTREME_ENUM_CAP, _SIGNED_SUM_BLOCK, _max_signed_sum, _sign_table, norms_rows
from fblab.summing import lp_combine


def _reference_max_signed_sum(M, space):
    """The enumeration with its set-up rebuilt on every call, as it was
    written before the set-up was kept per (rows, space)."""
    n, d = M.shape
    b = n // 2
    sb, sh = _sign_table(b), _sign_table(n - 1 - b)
    L = M[0] + sb @ M[1 : 1 + b]
    H = sh @ M[1 + b :]
    w = space.weight_array
    euclid, HH = space.r == 2, (H * H) @ w
    rows = max(1, _SIGNED_SUM_BLOCK // (len(H) * (1 if euclid else d)))
    best, i, j = -math.inf, 0, 0
    for start in range(0, len(L), rows):
        Lb = L[start : start + rows]
        if euclid:
            vals = 2.0 * (Lb * w) @ H.T + ((Lb * Lb) @ w)[:, None] + HH
        else:
            block = np.abs(Lb[:, None, :] + H)
            if space.is_sup:
                vals = np.max(block, axis=2)
            else:
                vals = (block if space.r == 1 else block ** space.r) @ w
        k = int(np.argmax(vals))
        if vals.flat[k] > best:
            best = vals.flat[k]
            i, j = divmod(k + start * len(H), len(H))
    z = np.concatenate(([1.0], sb[i], sh[j])) @ M
    return float(norms_rows(space, z[None, :])[0]), z


def _reference_exact_norm(Y, E, C):
    """The exact-norm dispatch decided on every call, as it was written
    before the path was kept per ball and codomain."""
    N, dim = C.dim, E.dim
    if C.is_sup:
        return float(np.max(norms_rows(E.dual, Y))), "weak-inf closed form", True
    if E.r == 1:
        V = np.abs(Y) if C.r == 1 else np.abs(Y) ** C.r
        if not C.unweighted:
            V = V * C.weight_array[:, None]
        return float(np.max(np.sum(V, axis=0))) ** (1.0 / C.r), "cross-polytope enumeration", True
    if C.r == 1 and N <= 20:
        tag = "sign enumeration"
        cheap = (1 << (N - 1)) * min(dim, N) <= (1 << 17)
        on_cube = E.is_sup and (1 << (dim - 1)) * N < (1 << (N - 1)) * dim
    elif E.is_sup and dim <= _EXTREME_ENUM_CAP:
        tag = "cube-vertex enumeration"
        cheap = (1 << dim) * N <= (1 << 21)
        on_cube = True
    else:
        return None
    if on_cube:
        val = _reference_max_signed_sum((Y if E.unweighted else Y * E.weight_array).T, C)[0]
    else:
        val = _reference_max_signed_sum(Y if C.unweighted else Y * C.weight_array[:, None], E.dual)[0]
    return val, tag, cheap


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    return float(a[0]).hex() == float(b[0]).hex() and a[1:] == b[1:]


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("weighted", [False, True])
def test_exact_norm_plan_matches_per_call_dispatch(r, weighted):
    """Every path of ``_exact_plan`` (closed forms, both sides of sign
    enumeration, cube vertices, no path) over unweighted and weighted balls
    and codomains gives the bytes of the per-call dispatch, with the
    family cap of 20 members."""
    rng = np.random.default_rng(70 + int(weighted))
    tags = set()
    for dim in (1, 2, 3, 5, 8, 23):
        E = SpaceSpec(r, dim, tuple(rng.uniform(0.5, 2.0, dim)) if weighted else ())
        for N in (1, 2, 3, 6, 11, 21):
            for p in (1.0, 2.0, 3.0, math.inf):
                C = SpaceSpec(p, N, tuple(rng.uniform(0.5, 2.0, N))) if weighted else _unit_space(p, N)
                Y = rng.standard_normal((N, dim))
                plan = _exact_plan(E, C)
                got = None if plan is None else (plan[0](Y), *plan[1:])
                want = _reference_exact_norm(Y, E, C)
                assert _same(got, want), (r, dim, N, p)
                tags.add(None if got is None else got[1])
    if r == 1:
        assert tags == {"weak-inf closed form", "cross-polytope enumeration"}
    else:
        cube = {"cube-vertex enumeration"} if math.isinf(r) else set()
        assert tags == {"weak-inf closed form", "sign enumeration", None} | cube


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("weighted", [False, True])
def test_max_signed_sum_plan_matches_per_call_set_up(r, weighted):
    """Euclidean, sup, ell_1 and generic norms: the same maximum and the
    same winning signed sum (so the same tie order) as the set-up rebuilt
    per call, for rows with repeated and zero members."""
    rng = np.random.default_rng(80 + int(weighted))
    for d in (1, 3, 6):
        space = SpaceSpec(r, d, tuple(rng.uniform(0.5, 2.0, d)) if weighted else ())
        for n in (1, 2, 3, 4, 7, 12):
            M = rng.standard_normal((n, d))
            if n > 3:
                M[2] = -M[1]
                M[3] = 0.0
            (v, z), (v0, z0) = _max_signed_sum(M, space), _reference_max_signed_sum(M, space)
            assert v.hex() == v0.hex() and z.tobytes() == z0.tobytes()


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0, math.inf])
def test_max_signed_sum_plan_over_several_blocks(r):
    """2^20 patterns of six entries run in blocks of 2^18 entries; ties
    between blocks keep the first, as before: the only row with a last
    entry ties every pattern with the one that flips that row's sign,
    which lies 2^9 rows of the half table away, in another block, and
    has the opposite last entry."""
    rng = np.random.default_rng(90)
    space = SpaceSpec(r, 6, tuple(rng.uniform(0.5, 2.0, 6)))
    M = rng.standard_normal((21, 6))
    M[:, 5] = 0.0
    M[10] = [0.0, 0.0, 0.0, 0.0, 0.0, 1.5]
    assert 1 << 20 >= 4 * _SIGNED_SUM_BLOCK
    (v, z), (v0, z0) = _max_signed_sum(M, space), _reference_max_signed_sum(M, space)
    assert v.hex() == v0.hex() and z.tobytes() == z0.tobytes() and z[5] == 1.5


# a polished search on fixed inputs: the bits of its value and its Powell
# evaluations, recorded before the paths were planned and the polish ran in
# lockstep; over the B_F balls of _F_BALLS, recorded while the B_F polish
# still evaluated one family at a time
_POLISHED = {
    2.0: ("0x1.54dcedc56390ep+2", 400),
    math.inf: ("0x1.ac00000000000p+2", 660),
    3.0: ("0x1.a634f4a66689ep+2", 400),
    "B_F-aligned-ell_inf-p=inf": ("0x1.97fffffffec68p+0", 400),
    "B_F-aligned-ell_1-p=2": ("0x1.4c070abf30d35p+1", 400),
    "B_F-aligned-ell_2-p=1": ("0x1.2d0d48acbc32ep+1", 400),
    "B_F-aligned-ell_inf-p=2": ("0x1.97ffffffffff4p+0", 400),
    "B_F-generic-ell_1-p=1": ("0x1.1c06665fc3be3p+3", 400),
    "B_F-generic-ell_inf-p=2": ("0x1.9ac6718f3f212p+1", 400),
    "B_F-generic-ell_2-p=1": ("0x1.4e1f7c6191382p+2", 400),
    "B_F-generic-ell_3-p=2": ("0x1.16569ab28aacep+2", 400),
}

# the B_F balls: the ambient exponent, whether F is axis-aligned, p, and the
# path of the weak-p bound the polish runs on (None: off the exact paths,
# the triangle-inequality bound family by family)
_F_BALLS = {
    "B_F-aligned-ell_inf-p=inf": (math.inf, True, math.inf, "weak-inf closed form"),
    "B_F-aligned-ell_1-p=2": (1.0, True, 2.0, "cross-polytope enumeration"),
    "B_F-aligned-ell_2-p=1": (2.0, True, 1.0, "sign enumeration"),
    "B_F-aligned-ell_inf-p=2": (math.inf, True, 2.0, "cube-vertex enumeration"),
    "B_F-generic-ell_1-p=1": (1.0, False, 1.0, "B_F vertex enumeration"),
    "B_F-generic-ell_inf-p=2": (math.inf, False, 2.0, "B_F vertex enumeration"),
    "B_F-generic-ell_2-p=1": (2.0, False, 1.0, None),
    "B_F-generic-ell_3-p=2": (3.0, False, 2.0, None),
}

_X = np.array([[1.0, -0.5, 0.25, 2.0], [0.5, 1.5, -1.0, 0.0], [-0.75, 0.25, 1.0, 1.0], [2.0, 1.0, 0.5, -1.5]])
_EXPR = Abs(Gen(0)) * 1.25 + Join(Gen(1), Gen(2)) * 0.5 - Abs(Gen(3)) * 0.75 + PosPart(Gen(0) - Gen(1))


def _subspace(r, aligned):
    """A three-dimensional F in a weighted ell_r^4: scaled coordinate
    vectors or the first three rows of _X."""
    E = SpaceSpec(r, 4, (0.7, 1.3, 0.9, 1.1))
    if aligned:
        return SubspaceSpec.from_arrays(E, [[0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, -0.5], [1.5, 0.0, 0.0, 0.0]],
                                        [[0.0, 0.0, 1.0, 0.0]])
    return SubspaceSpec.from_arrays(E, _X[:3], [[0.0, 0.0, 0.0, 1.0]])


def _polished_search(case, k=0):
    """Over the dual ball of ell_r^4 for a float case; over B_F for a case
    of _F_BALLS, with the embedding gap's objective on four generators of
    F (rows of coordinates) and three-member families of forms on F; the
    objective times 2^k."""
    scaled = lambda objective: objective if k == 0 else (lambda G: np.ldexp(objective(G), k))
    if case in _F_BALLS:
        r, aligned, p, _ = _F_BALLS[case]
        coords = np.array([[1.0, 0.5, -0.25], [0.5, -1.0, 1.5], [-0.75, 1.0, 0.5], [2.0, 0.25, -1.0]])
        objective = lambda G: lp_combine(eval_pairings(_EXPR, G @ coords.T), p)
        return witness_search(_subspace(r, aligned), p, scaled(objective), [np.eye(3), coords[:3]], OptimizerConfig())
    E = SpaceSpec(case, 4, (0.7, 1.3, 0.9, 1.1) if case == 2 else ())
    b = GeneratorBinding.from_matrix(E, _X)
    seeds = [np.eye(4), _X[:3] * E.weight_array]
    return witness_search(E.dual, 1.0, scaled(_fbl_objective(_EXPR, b, 1.0)), seeds, OptimizerConfig())


@pytest.mark.parametrize("case", list(_POLISHED))
def test_polished_witness_search_keeps_its_bytes(case, monkeypatch):
    nfev = []

    def counted(*args):
        x, fun, n = powell_rows(*args)
        nfev.append(n)
        return x, fun, n

    monkeypatch.setattr(fblab.summing, "powell_rows", counted)
    val, witness, tight = _polished_search(case)
    assert (val.hex(), nfev[0]) == _POLISHED[case] and len(nfev) == 1
    assert tight == (case not in _F_BALLS or _F_BALLS[case][3] is not None)
    assert witness.objective == val


@pytest.mark.parametrize("k", [-80, 80])
@pytest.mark.parametrize("case", [2.0, "B_F-generic-ell_2-p=1"])
def test_polish_works_at_the_power_of_two_of_its_value(case, k):
    """The polish takes the ratio at the power of two of its starting
    value, so Powell's absolute floors on value differences (1e-20, 1e-21)
    act the same on a small-valued objective (2^-80 times, values near
    1e-23) as on a unit one: the value and evaluation count keep the bits
    pinned above, 2^k times, and the witness family is the same."""
    nfev = []

    def counted(*args):
        x, fun, n = powell_rows(*args)
        nfev.append(n)
        return x, fun, n

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fblab.summing, "powell_rows", counted)
        val, witness, _ = _polished_search(case, k)
    unit_hex, unit_nfev = _POLISHED[case]
    assert (val, nfev) == (math.ldexp(float.fromhex(unit_hex), k), [unit_nfev])
    assert np.array_equal(witness.matrix, _polished_search(case)[1].matrix)


@pytest.mark.parametrize("case", list(_F_BALLS))
def test_polished_B_F_balls_reach_each_path(case):
    """The B_F cases above polish on each path of ``_exact_plan``: the
    model space's closed form, cross-polytope, sign and cube-vertex
    enumeration, the vertices of B_F, and off them the fallback bound."""
    r, aligned, p, tag = _F_BALLS[case]
    plan = _exact_plan(_subspace(r, aligned), _unit_space(p, 3))
    assert (None if plan is None else plan[1]) == tag


def test_polish_and_extension_multistart_run_without_scipy_minimize(monkeypatch):
    """The witness polish (``optimize.powell_rows``), over a ``SpaceSpec``
    ball and over B_F with the fallback bound, and the extension
    constant's Powell multistart, whose polishes run in lockstep
    (``optimize.powell_starts``), run without scipy's minimize."""

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.minimize was called")

    monkeypatch.setattr(scipy.optimize, "minimize", refuse)
    assert _polished_search(2.0)[0].hex() == _POLISHED[2.0][0]
    case = "B_F-generic-ell_3-p=2"
    assert _polished_search(case)[0].hex() == _POLISHED[case][0]
    E = SpaceSpec(math.inf, 4)
    sub = SubspaceSpec.from_arrays(E, [[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 1.0]],
                                   [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    T = LinearMap.from_array([[1.0, 0.5], [-0.5, 1.0]], SpaceSpec(math.inf, 2), SpaceSpec(1.0, 2))
    est = extension_constant(sub, T, 1.0, OptimizerConfig(restarts=2))
    assert est.method[0] == "outer minimization over complement values" and est.upper >= 1.0
