"""The stacked evaluators of the lockstep polish against their one-family
forms, bit for bit: ``spaces._max_signed_sum`` (value and winning sum),
every path of ``operators._exact_plan``, ``exprs.eval_rows``,
``summing.lp_combine``, and the free-lattice and summing-norm objectives.

A stack (K, N, dim) holds K families of N members.  Each family's value
from the stack must have the bits it has alone, whatever the other
families hold: a zero member, a member equal to -3 times another, or rows
near 2^300 or 2^-300, the ends of the float window
(``spaces._window_exponent``) of the exponents drawn here (at most 3); the
public entry points scale data outside it before it reaches these
evaluators.  "Alone" is checked twice: against the stacked code given one
family (a 2-d array, which it treats as a stack of one), and against
references in this module written family by family, as the evaluators
were before they took stacks (``_one_family_*``): a winning sign pattern
as one vector times M, row norms of a (1, dim) row, reductions of one
array to a float.  Every draw runs under the test suite's
warnings-as-errors filter.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fblab.extension
import fblab.spaces
from fblab import (
    Abs, Gen, GeneratorBinding, Join, LinearMap, Meet, OptimizerConfig, PosPart, PowerSum, SpaceSpec, SubspaceSpec,
    embedding_gap,
)
from fblab.exprs import _VALUES, _fold, eval_rows
from fblab.fbl import _fbl_objective
from fblab.operators import _bound, _exact_plan, _fstar_norm_upper, _unit_space
from fblab.spaces import _max_signed_sum, _signed_sum_plan, norms_rows
from fblab.summing import _pi_objective, lp_combine

EXPONENTS = [1.0, 1.5, 2.0, 3.0, math.inf]
SPECIALS = ["plain", "zero member", "minus three times", "huge", "tiny"]


def _space(r, dim, weighted, rng):
    return SpaceSpec(r, dim, tuple(rng.uniform(0.5, 2.0, dim)) if weighted else ())


def _stack(K, N, dim, special, rng):
    """K families of N members in R^dim; the special case goes into some of
    them, so a stack mixes it with plain families."""
    Y = rng.standard_normal((K, N, dim))
    chosen = rng.random(K) < 0.5
    chosen[rng.integers(K)] = True
    for k in np.flatnonzero(chosen):
        if special == "zero member":
            Y[k, rng.integers(N)] = 0.0
        elif special == "minus three times" and N > 1:
            Y[k, N - 1] = -3.0 * Y[k, 0]
        elif special == "huge":
            Y[k] *= 2.0**300
        elif special == "tiny":
            Y[k] *= 2.0**-300
    return Y


def _bits(v):
    return np.float64(v).tobytes()


# --------------------------------------------------------------------------
# one-family references
# --------------------------------------------------------------------------


def _one_family_enumeration(M, space):
    """The maximum and winning signed sum of n rows M: blocks of rows of L,
    the first strict maximum over the blocks, and the winning pattern
    (1, sb[i], sh[j]) as one vector times M."""
    b, sb, sh, _, rows, branch = _signed_sum_plan(len(M), space)
    L = M[0] + sb @ M[1 : 1 + b]
    H = sh @ M[1 + b :]
    w = space.weight_array
    best, i, j = -math.inf, 0, 0
    for start in range(0, len(L), rows):
        Lb = L[start : start + rows]
        if branch == "euclid":
            vals = 2.0 * (Lb * w) @ H.T + ((Lb * Lb) @ w)[:, None] + (H * H) @ w
        else:
            block = np.abs(Lb[:, None, :] + H)
            if branch == "sup":
                vals = np.max(block, axis=2)
            else:
                vals = (block if branch == "l1" else block ** space.r) @ w
        k = int(vals.argmax())
        top = vals.flat[k]
        if top > best:
            best = top
            i, j = divmod(k + start * len(H), len(H))
    z = np.concatenate(([1.0], sb[i], sh[j])) @ M
    return float(norms_rows(space, z[None, :])[0]), z


def _one_family_plan_value(E, C, tag, Y):
    """The value of ``_exact_plan(E, C)`` with path ``tag`` at one family
    Y: the largest dual norm of a member, the root of the largest column
    sum of powers, or the largest signed sum on the cheaper side."""
    if tag == "weak-inf closed form":
        return float(np.max(norms_rows(E.dual, Y)))
    if tag == "cross-polytope enumeration":
        V = np.abs(Y) if C.r == 1 else np.abs(Y) ** C.r
        if not C.unweighted:
            V = V * C.weight_array[:, None]
        return float(np.max(np.sum(V, axis=0))) ** (1.0 / C.r)
    N, dim = Y.shape
    on_cube = tag == "cube-vertex enumeration" or (E.is_sup and (1 << (dim - 1)) * N < (1 << (N - 1)) * dim)
    if on_cube:
        return _one_family_enumeration((Y if E.unweighted else Y * E.weight_array).T, C)[0]
    return _one_family_enumeration(Y if C.unweighted else Y * C.weight_array[:, None], E.dual)[0]


def _one_family_lp_combine(values, p):
    """(sum |v|^p)^(1/p) of one vector, the max at p = inf."""
    values = np.abs(np.asarray(values, dtype=float))
    if math.isinf(p):
        return float(values.max()) if values.size else 0.0
    if p == 1:
        return float(values.sum())
    return float((values**p).sum()) ** (1.0 / p)


_DRAW = dict(
    K=st.sampled_from([1, 2, 7, 33]),
    N=st.integers(1, 8),
    dim=st.integers(1, 6),
    special=st.sampled_from(SPECIALS),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@given(r=st.sampled_from(EXPONENTS), small_blocks=st.booleans(), **_DRAW)
@settings(max_examples=200, deadline=None)
def test_max_signed_sum_of_a_stack(r, small_blocks, K, N, dim, special, weighted, seed):
    """Values and winning sums; with small blocks the stack is cut into
    blocks of a few families, and a family's rows of L into several
    blocks."""
    rng = np.random.default_rng(seed)
    space = _space(r, dim, weighted, rng)
    M = _stack(K, N, dim, special, rng)
    _check_max_signed_sum(M, space, 16 if small_blocks else None)


def _check_max_signed_sum(M, space, block):
    """The stack's values and winning sums against each matrix's, from
    ``_max_signed_sum`` alone and from the one-family reference, with
    ``block`` entries a block when it is given."""
    K, dim = len(M), M.shape[2]
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(fblab.spaces, "_SIGNED_SUM_BLOCK", block)
        _signed_sum_plan.cache_clear()  # the plan holds the rows per block
        try:
            top, z = _max_signed_sum(M, space)
            alone = [_max_signed_sum(M[k], space) for k in range(K)]
            ref = [_one_family_enumeration(M[k], space) for k in range(K)]
        finally:
            _signed_sum_plan.cache_clear()
    assert top.shape == (K,) and z.shape == (K, dim)
    for k, ((t, y), (u, x)) in enumerate(zip(alone, ref)):
        assert _bits(top[k]) == _bits(t) == _bits(u)
        assert z[k].tobytes() == y.tobytes() == x.tobytes()


@given(
    r=st.sampled_from(EXPONENTS),
    K=st.sampled_from([1, 2, 7]),
    n=st.integers(13, 16),
    dim=st.integers(1, 4),
    special=st.sampled_from(SPECIALS),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_max_signed_sum_of_a_stack_of_many_rows(r, K, n, dim, special, weighted, seed):
    """13 to 16 rows: up to 2^15 patterns a matrix, in several blocks of
    rows of L at the default block size."""
    rng = np.random.default_rng(seed)
    _check_max_signed_sum(_stack(K, n, dim, special, rng), _space(r, dim, weighted, rng), None)


def _plan_cases(E, N, rng):
    """Codomains for the weak-p norms of N-member families and for operator
    norms: unweighted ell_p^N and a weighted ell_r^N."""
    return [SpaceSpec(p, N) for p in (1.0, 2.0, math.inf)] + [_space(rng.choice([1.0, 1.5, 3.0]), N, True, rng)]


@given(r=st.sampled_from(EXPONENTS), wide=st.booleans(), **_DRAW)
@settings(max_examples=200, deadline=None)
def test_exact_plan_values_of_a_stack(r, wide, K, N, dim, special, weighted, seed):
    """Families of 1 to 8 members, or of 21 to 28 (``wide``), past the
    family cap of 20, where no row signs are enumerated."""
    rng = np.random.default_rng(seed)
    N += 20 * wide
    E = _space(r, dim, weighted, rng)
    Y = _stack(K, N, dim, special, rng)
    for C in _plan_cases(E, N, rng):
        plan = _exact_plan(E, C)
        if plan is None:
            continue
        values = plan[0](Y)
        alone = [plan[0](Y[k]) for k in range(K)]
        ref = [_one_family_plan_value(E, C, plan[1], Y[k]) for k in range(K)]
        assert values.shape == (K,)
        assert [_bits(v) for v in values] == [_bits(v) for v in alone] == [_bits(v) for v in ref], plan[1]


def test_exact_plan_draws_reach_every_path():
    """The draws above meet each path of ``_exact_plan``: the closed forms,
    signed sums of the members and of the cube vertices, and cube-vertex
    enumeration."""
    seen = set()
    for r in EXPONENTS:
        for dim in (1, 3, 6):
            for N in (1, 2, 5, 8, 21, 28):
                for C in _plan_cases(SpaceSpec(r, dim), N, np.random.default_rng(N)):
                    plan = _exact_plan(SpaceSpec(r, dim), C)
                    if plan is not None:
                        on_cube = r == math.inf and C.r == 1 and N <= 20 and (
                            (1 << (dim - 1)) * N < (1 << (N - 1)) * dim
                        )
                        seen.add((plan[1], on_cube))
    assert seen == {
        ("weak-inf closed form", False),
        ("cross-polytope enumeration", False),
        ("sign enumeration", False),
        ("sign enumeration", True),
        ("cube-vertex enumeration", False),
    }


_EXPRESSIONS = [
    Abs(Gen(0)) * 1.25 + Join(Gen(1), Gen(2)) * 0.5 - Abs(Gen(3)) * 0.75 + PosPart(Gen(0) - Gen(1)),
    PowerSum(3.0, (Gen(0), Meet(Gen(1), Gen(3)), Abs(Gen(2)) * 2.0)),
    PowerSum(1.5, (Abs(Gen(1)), PosPart(Gen(2) - Gen(0)))) - Join(Gen(3), Gen(0) * -0.5),
]


@given(
    r=st.sampled_from(EXPONENTS),
    p=st.sampled_from(EXPONENTS),
    expression=st.integers(0, len(_EXPRESSIONS) - 1),
    **_DRAW,
)
@settings(max_examples=200, deadline=None)
def test_expression_objective_of_a_stack(r, p, expression, K, N, dim, special, weighted, seed):
    """``eval_rows`` and the free-lattice objective (the ell_p combination
    of the values at the members)."""
    rng = np.random.default_rng(seed)
    space = _space(r, dim, weighted, rng)
    b = GeneratorBinding.from_matrix(space, rng.standard_normal((4, dim)))
    e = _EXPRESSIONS[expression]
    Y = _stack(K, N, dim, special, rng)
    objective = _fbl_objective(e, b, p)
    values, objectives = eval_rows(e, b, Y), objective(Y)
    alone = [(eval_rows(e, b, Y[k]), objective(Y[k])) for k in range(K)]
    folded = [_fold(e, _VALUES, Y[k] @ b._weighted_t) for k in range(K)]
    ref = [(v, _one_family_lp_combine(v, p)) for v in folded]
    assert values.shape == (K, N) and objectives.shape == (K,)
    for k, ((v, o), (u, q)) in enumerate(zip(alone, ref)):
        assert values[k].tobytes() == v.tobytes() == u.tobytes()
        assert _bits(objectives[k]) == _bits(o) == _bits(q)


@given(r=st.sampled_from(EXPONENTS), q=st.sampled_from(EXPONENTS), rows=st.integers(1, 6), **_DRAW)
@settings(max_examples=200, deadline=None)
def test_summing_norm_objective_of_a_stack(r, q, rows, K, N, dim, special, weighted, seed):
    """The strong q-sums of T's images of the members."""
    rng = np.random.default_rng(seed)
    T = LinearMap.from_array(rng.standard_normal((rows, dim)), _space(r, dim, weighted, rng),
                             _space(rng.choice(EXPONENTS), rows, weighted, rng))
    Y = _stack(K, N, dim, special, rng)
    objective = _pi_objective(T, q)
    values = objective(Y)
    alone = [objective(Y[k]) for k in range(K)]
    ref = [_one_family_lp_combine(norms_rows(T.codomain, Y[k] @ T.matrix.T), q) for k in range(K)]
    assert [_bits(v) for v in values] == [_bits(v) for v in alone] == [_bits(v) for v in ref]


@given(
    p=st.sampled_from(EXPONENTS),
    K=st.sampled_from([1, 2, 7, 33]),
    N=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_lp_combine_of_a_stack(p, K, N, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((K, N)) * 10.0 ** rng.integers(-3, 4, (K, N))
    V[rng.random((K, N)) < 0.2] = 0.0
    combined = lp_combine(V, p)
    assert combined.shape == (K,)
    assert [_bits(v) for v in combined] == [_bits(lp_combine(V[k], p)) for k in range(K)]
    assert [_bits(v) for v in combined] == [_bits(_one_family_lp_combine(V[k], p)) for k in range(K)]


# --------------------------------------------------------------------------
# the weak-p bounds over B_F and the embedding gap's objective on F
# --------------------------------------------------------------------------


def _section(r, aligned, k, n, rng):
    """F of dimension k in a weighted ell_r^n: scaled coordinate vectors on
    distinct coordinates, or k rows of a Gaussian matrix."""
    E = _space(r, n, True, rng)
    if aligned:
        perm = rng.permutation(n)
        s = rng.uniform(0.5, 2.0, k) * rng.choice([-1.0, 1.0], k)
        return SubspaceSpec.from_arrays(E, np.eye(n)[perm[:k]] * s[:, None], np.eye(n)[perm[k:]])
    full = rng.standard_normal((n, n))
    return SubspaceSpec.from_arrays(E, full[:k], full[k:])


def _one_family_plan_F_value(sub, C, tag, M):
    """The value of ``_exact_plan(sub, C)`` with path ``tag`` at one
    map M, as the exact norm over B_F was written before it took stacks:
    the model's plan at M / d, or the largest norm of the vertices' images
    by M."""
    if tag == "B_F vertex enumeration":
        return float(np.max(norms_rows(C, sub._vertices @ M.T)))
    space_F, d = sub._model
    return _one_family_plan_value(space_F, C, tag, M / d)


_SECTIONS = dict(
    k=st.integers(1, 4),
    extra=st.integers(0, 2),
    K=st.sampled_from([1, 2, 7, 33]),
    N=st.integers(1, 8),
    special=st.sampled_from(SPECIALS),
    seed=st.integers(0, 2**32 - 1),
)


@given(
    ball=st.sampled_from([(r, True) for r in EXPONENTS] + [(1.0, False), (math.inf, False)]),
    wide=st.booleans(),
    **_SECTIONS,
)
@settings(max_examples=200, deadline=None)
def test_exact_plan_F_values_of_a_stack(ball, wide, k, extra, K, N, special, seed):
    """Every path of ``_exact_plan`` over B_F: the model space of an
    axis-aligned F through each path over B_E, and the vertices of B_F over
    generic sections of ell_1 and ell_inf; families of 1 to 8 members, or
    of 21 to 28 (``wide``), past the family cap."""
    rng = np.random.default_rng(seed)
    N += 20 * wide
    sub = _section(*ball, k, k + extra, rng)
    M = _stack(K, N, k, special, rng)
    for C in _plan_cases(sub.ambient, N, rng):
        plan = _exact_plan(sub, C)
        if plan is None:
            continue
        values = plan[0](M)
        alone = [plan[0](M[j]) for j in range(K)]
        ref = [_one_family_plan_F_value(sub, C, plan[1], M[j]) for j in range(K)]
        assert values.shape == (K,)
        assert [_bits(v) for v in values] == [_bits(v) for v in alone] == [_bits(v) for v in ref], plan[1]


def test_exact_plan_F_draws_reach_every_path():
    """The draws above meet each path of ``_exact_plan`` over B_F."""
    seen = set()
    rng = np.random.default_rng(0)
    for r, aligned in [(r, True) for r in EXPONENTS] + [(1.0, False), (math.inf, False)]:
        for k in (1, 3):
            sub = _section(r, aligned, k, k + 1, rng)
            for N in (1, 5, 21):
                for C in _plan_cases(sub.ambient, N, rng):
                    plan = _exact_plan(sub, C)
                    if plan is not None:
                        seen.add(plan[1])
    assert seen == {
        "weak-inf closed form",
        "cross-polytope enumeration",
        "sign enumeration",
        "cube-vertex enumeration",
        "B_F vertex enumeration",
    }


@given(r=st.sampled_from([2.0, 3.0]), p=st.sampled_from(EXPONENTS), **_SECTIONS)
@settings(max_examples=100, deadline=None)
def test_fallback_weak_F_bound_of_a_stack(r, p, k, extra, K, N, special, seed):
    """Off the exact paths (generic F in ell_2 or ell_3), ``operators._bound``
    into ell_p^N hands the polish the triangle-inequality bound of each
    family of a stack: the lp-combination of the members' upper bounds, as
    it gives it for that family alone."""
    rng = np.random.default_rng(seed)
    sub = _section(r, False, max(k, 2), max(k, 2) + 1 + extra, rng)
    assert sub._model is None
    G = _stack(K, N, sub.dim, special, rng)
    C = _unit_space(p, N)
    bound = _bound(sub, G[0], C)[2]
    values = bound(G)
    alone = [_bound(sub, G[j], C)[0] for j in range(K)]
    ref = [_one_family_lp_combine([_fstar_norm_upper(sub, g) for g in G[j]], p) for j in range(K)]
    assert values.shape == (K,)
    assert [_bits(v) for v in values] == [_bits(v) for v in alone] == [_bits(v) for v in ref]


@functools.cache
def _gap_objective(r, aligned, p, expression, seed):
    """The F-side objective that ``embedding_gap`` hands to
    ``witness_search``, and the F coordinates of its generators."""
    rng = np.random.default_rng(seed)
    sub = _section(r, aligned, 3, 4, rng)
    b = GeneratorBinding.from_matrix(sub.ambient, rng.standard_normal((4, 3)) @ sub.basis_matrix)
    handed = []

    def recording(ball, p, objective, seeds, cfg=None):
        handed.append(objective)
        return 0.0, None, True

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fblab.extension, "witness_search", recording)
        embedding_gap(sub, _EXPRESSIONS[expression], b, p, OptimizerConfig())
    return handed[0], sub.coordinates(b.matrix)


@given(
    r=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    aligned=st.booleans(),
    p=st.sampled_from(EXPONENTS),
    expression=st.integers(0, len(_EXPRESSIONS) - 1),
    K=st.sampled_from([1, 2, 7, 33]),
    N=st.integers(1, 8),
    special=st.sampled_from(SPECIALS),
    seed=st.integers(0, 3),
)
@settings(max_examples=100, deadline=None)
def test_embedding_gap_objective_of_a_stack(r, aligned, p, expression, K, N, special, seed):
    """The lp-combination of the expression's values at a stack of
    families of forms on F, paired with the generators' F coordinates."""
    objective, coords = _gap_objective(r, aligned, p, expression, seed)
    G = _stack(K, N, 3, special, np.random.default_rng((seed, K, N)))
    e = _EXPRESSIONS[expression]
    values = objective(G)
    alone = [objective(G[j]) for j in range(K)]
    ref = [_one_family_lp_combine(_fold(e, _VALUES, G[j] @ coords.T), p) for j in range(K)]
    assert values.shape == (K,)
    assert [_bits(v) for v in values] == [_bits(v) for v in alone] == [_bits(v) for v in ref]
