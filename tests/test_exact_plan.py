"""The exact-norm paths resolved once per ball (``operators._exact_plan``
and ``spaces._signed_sum_plan``) against the per-call dispatch they
replaced, bit for bit, and a polished witness search on fixed inputs."""

import math

import numpy as np
import pytest
import scipy.optimize

from fblab import Abs, Gen, GeneratorBinding, Join, OptimizerConfig, PosPart, SpaceSpec, witness_search
from fblab.fbl import _fbl_objective
from fblab.operators import _exact_norm, _unit_space
from fblab.spaces import _EXTREME_ENUM_CAP, _SIGNED_SUM_BLOCK, _max_signed_sum, _sign_table, norms_rows


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


def _reference_exact_norm(Y, E, C, family_size):
    """The exact-norm dispatch decided on every call, as it was written
    before the path was kept per (E, C, family_size)."""
    N, dim = C.dim, E.dim
    if C.is_sup:
        return float(np.max(norms_rows(E.dual, Y))), "weak-inf closed form", True
    if E.r == 1:
        V = np.abs(Y) if C.r == 1 else np.abs(Y) ** C.r
        if not C.unweighted:
            V = V * C.weight_array[:, None]
        return float(np.max(np.sum(V, axis=0))) ** (1.0 / C.r), "cross-polytope enumeration", True
    if C.r == 1 and N <= family_size:
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
    """Every path of ``_exact_norm`` (closed forms, both sides of sign
    enumeration, cube vertices, no path) over unweighted and weighted balls
    and codomains gives the bytes of the per-call dispatch."""
    rng = np.random.default_rng(70 + int(weighted))
    tags = set()
    for dim in (1, 2, 3, 5, 8, 23):
        E = SpaceSpec(r, dim, tuple(rng.uniform(0.5, 2.0, dim)) if weighted else ())
        for N in (1, 2, 3, 6, 11, 21):
            for p in (1.0, 2.0, 3.0, math.inf):
                C = SpaceSpec(p, N, tuple(rng.uniform(0.5, 2.0, N))) if weighted else _unit_space(p, N)
                Y = rng.standard_normal((N, dim))
                got, want = _exact_norm(Y, E, C, 20), _reference_exact_norm(Y, E, C, 20)
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
# evaluations, recorded before the paths were planned
_POLISHED = {
    2.0: ("0x1.54dcedc56390ep+2", 400),
    math.inf: ("0x1.ac00000000000p+2", 660),
    3.0: ("0x1.a634f4a66689ep+2", 400),
}


@pytest.mark.parametrize("r", sorted(_POLISHED))
def test_polished_witness_search_keeps_its_bytes(r, monkeypatch):
    nfev = []
    minimize = scipy.optimize.minimize

    def counted(*args, **kwargs):
        res = minimize(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(scipy.optimize, "minimize", counted)
    X = np.array([[1.0, -0.5, 0.25, 2.0], [0.5, 1.5, -1.0, 0.0], [-0.75, 0.25, 1.0, 1.0], [2.0, 1.0, 0.5, -1.5]])
    e = Abs(Gen(0)) * 1.25 + Join(Gen(1), Gen(2)) * 0.5 - Abs(Gen(3)) * 0.75 + PosPart(Gen(0) - Gen(1))
    E = SpaceSpec(r, 4, (0.7, 1.3, 0.9, 1.1) if r == 2 else ())
    b = GeneratorBinding.from_matrix(E, X)
    seeds = [np.eye(4), X[:3] * E.weight_array]
    val, witness, tight = witness_search(E.dual, 1.0, _fbl_objective(e, b, 1.0), seeds, OptimizerConfig())
    assert (val.hex(), nfev[0]) == _POLISHED[r] and len(nfev) == 1 and tight
    assert witness.objective == val
