"""Fused expression kernels, row norms with ``norm``'s bits, and the
mended ``lp_combine``: every value keeps the bits of the reference it
replaces."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fblab import (
    Abs,
    Add,
    Gen,
    Join,
    Meet,
    Neg,
    PosPart,
    PowerSum,
    Scale,
    SpaceSpec,
    eval_pairings,
    experiment_names,
    lipschitz_bound,
    mass_bound,
    norm,
    run_experiment,
    sample_sphere,
    sublattice_generators,
    weak_p_norm,
)
from fblab import exprs
from fblab.exprs import _LIPSCHITZ, _MASS, _VALUES, _fold
from fblab.spaces import _WINDOW, _norm_each_row
from fblab.summing import lp_combine

GENS = 6
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan]


def _folded(e, P):
    """The fold's values, family by family."""
    return np.array([_fold(e, _VALUES, P[k]) for k in range(len(P))])


def _assert_same(e, P):
    """Every non-NaN value of the kernel has the fold's bytes, and the NaNs
    sit at the same places; a NaN's sign may differ."""
    with np.errstate(all="ignore"):  # inf - inf and 0 * inf are part of the draw
        got, want = eval_pairings(e, P), _folded(e, P)
    nan = np.isnan(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


# --------------------------------------------------------------------------
# expression families
# --------------------------------------------------------------------------

_WRAP = {
    "neg": lambda e, c: Neg(e),
    "abs": lambda e, c: Abs(e),
    "scale": lambda e, c: Scale(c, e),
}


@st.composite
def _terms(draw):
    """A generator under any order of up to three of Neg, Scale and Abs
    (a column when Abs sits right on the generator and there is at most
    one Scale), or a term that is no column."""
    g = draw(st.integers(0, GENS - 1))
    if draw(st.integers(0, 4)) == 0:
        h = draw(st.integers(0, GENS - 1))
        kind = draw(st.sampled_from([Join, Meet, "pos"]))
        return PosPart(Gen(g)) if kind == "pos" else kind(Gen(g), Gen(h))
    e = Gen(g)
    for wrap in draw(st.lists(st.sampled_from(sorted(_WRAP)), max_size=3)):
        c = draw(st.sampled_from([1.0, -1.0, 0.0, -0.0, 3.0, 0.1]) | st.floats(-3.0, 3.0))
        e = _WRAP[wrap](e, c)
    return e


@st.composite
def _chains(draw):
    """A left-deep sum of 1 to 16 terms; sometimes one more chain that
    shares a prefix with it, or a term that reads one of its partial sums,
    as ``sublattice_generators`` and their combinations do."""
    terms = draw(st.lists(_terms(), min_size=1, max_size=16))
    sums = list(itertools.accumulate(terms, Add))
    e = sums[-1]
    shape = draw(st.sampled_from(["plain", "shared prefix", "reads a sum"]))
    if shape == "shared prefix":
        at = draw(st.integers(0, len(sums) - 1))
        rest = draw(st.lists(_terms(), min_size=1, max_size=8))
        other = functools.reduce(Add, rest, sums[at])
        e = draw(st.sampled_from([Join, Add, Meet]))(e, other)
    elif shape == "reads a sum":
        at = draw(st.integers(0, len(sums) - 1))
        e = functools.reduce(Add, draw(st.lists(_terms(), max_size=6)), e + Abs(sums[at]))
    return e


@st.composite
def _power_sums(draw):
    parts = draw(st.lists(st.sampled_from(["gen", "abs", "neg", "scale"]), min_size=1, max_size=7))
    nodes = []
    for kind in parts:
        g = Gen(draw(st.integers(0, GENS - 1)))
        nodes.append({"gen": g, "abs": Abs(g), "neg": Neg(g), "scale": Scale(1.5, g)}[kind])
    return PowerSum(draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])), tuple(nodes))


@st.composite
def _pairings(draw):
    """A stack (K, rows, GENS) of pairings with some entries +-0.0, +-inf or nan."""
    K, rows = draw(st.sampled_from([1, 3, 7])), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.standard_normal((K, rows, GENS)) * 10.0 ** rng.integers(-8, 9, (K, rows, GENS))
    if draw(st.booleans()):
        spots = rng.random(P.shape) < 0.15
        P[spots] = rng.choice(SPECIAL, size=int(spots.sum()))
    return P


@given(e=_chains(), P=_pairings())
@settings(max_examples=300, deadline=None)
def test_fused_chains_match_the_fold(e, P):
    _assert_same(e, P)


@given(e=_power_sums(), P=_pairings())
@settings(max_examples=150, deadline=None)
def test_fused_power_sums_match_the_fold(e, P):
    _assert_same(e, P)


def test_fused_sum_adds_from_the_left():
    """1 + 15 * 2^-53 is 1.0 one add at a time; a pairwise sum of the
    small terms first would not be."""
    e = functools.reduce(Add, [Abs(Gen(0))] + [Abs(Gen(1))] * 15)
    P = np.array([[[1.0, 2.0**-53]]])
    assert eval_pairings(e, P).tobytes() == _folded(e, P).tobytes() == np.array([[1.0]]).tobytes()


def test_nested_scales_stay_two_products():
    """10 (0.1 x) is not (10 0.1) x at x = 3: a term under two scales is
    no column."""
    term = Scale(10.0, Scale(0.1, Abs(Gen(0))))
    e = functools.reduce(Add, [term, Abs(Gen(1)), Abs(Gen(1)), term])
    P = np.array([[[3.0, 0.0]]])
    assert eval_pairings(e, P).tobytes() == _folded(e, P).tobytes()
    assert eval_pairings(e, P)[0, 0] != 6.0


def test_shared_prefixes_of_the_sublattice_generators():
    """The penalty chains of f_k and f_(k+1) share a prefix; a positive
    combination of all four reads them through one kernel."""
    exprs_, binding, _ = sublattice_generators(SpaceSpec(2.0, 4), 4, 12)
    e = functools.reduce(Add, [f * a for f, a in zip(exprs_, [0.3, 1.1, 0.7, 2.0])])
    rng = np.random.default_rng(3)
    for K in (1, 3, 7):
        P = binding.pairings(rng.standard_normal((K, 5, 12)))
        _assert_same(e, P)


def _kernel_lines(e):
    code = e._kernel.__code__
    return max(line for *_, line in code.co_lines() if line is not None) - code.co_firstlineno + 1


def test_a_deep_moduli_sum_is_a_few_lines():
    """10^4 scaled moduli compile to one gather, abs, product and
    accumulate, in one pass over the program."""
    a = np.random.default_rng(4).uniform(0.5, 1.5, 10**4)
    e = functools.reduce(Add, [Abs(Gen(k)) * a[k] for k in range(10**4)])
    assert _kernel_lines(e) <= 12
    P = np.random.default_rng(5).standard_normal((2, 3, 10**4))
    _assert_same(e, P)


def test_short_runs_keep_one_add_per_term():
    """Runs of fewer than three columns, and terms that are no columns,
    are added one at a time, as the fold adds them."""
    e = Abs(Gen(0)) * 0.5 + Join(Gen(1), Gen(2)) * 2.0 - Abs(Gen(3)) * 1.5 + PosPart(Gen(0) - Gen(1))
    source_ops = [n for n in e._kernel.__code__.co_names if n in ("acc_", "concat")]
    assert source_ops == []
    _assert_same(e, np.random.default_rng(6).standard_normal((3, 2, 4)))


# --------------------------------------------------------------------------
# row norms, sampling and the bounds that read them
# --------------------------------------------------------------------------

EXPONENTS = [1.0, 1.25, 1.5, 2.0, 3.0, math.inf]


def _formula(space, a):
    """(sum_i w_i a_i^r)^(1/r) of the |entries| a of one row as written
    out: np.sum of the weighted powers and C's pow for the root."""
    if math.isinf(space.r):
        return float(np.max(a))
    return float(np.sum(space.weight_array * a**space.r)) ** (1.0 / space.r)


def _in_window(a, r):
    """Whether the largest |entry| of a lies in [2^(-L/m), 2^(L/m)] (or is
    0), L the float window of ``spaces`` and m the larger of r and 2."""
    top = float(np.max(a))
    return top == 0.0 or abs(math.log2(top)) * max(2.0, r if r < math.inf else 2.0) <= _WINDOW


def _written_out_norm(space, row):
    """``norm`` of one row as written out: the formula on the row inside
    the float window of r; outside it, on the row times 2^-e, e the
    exponent of its largest |entry|, with the root multiplied by 2^e."""
    a = np.abs(np.asarray(row, dtype=float))
    if _in_window(a, space.r):
        return _formula(space, a)
    e = math.frexp(float(np.max(a)))[1]
    return math.ldexp(_formula(space, np.ldexp(a, -e)), e)


@given(
    r=st.sampled_from(EXPONENTS),
    dim=st.integers(1, 12),
    weighted=st.booleans(),
    scale=st.sampled_from([1.0, 1e-200, 1e200, 1e-320]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_row_norms_have_the_bits_of_norm(r, dim, weighted, scale, seed):
    """``norm`` row by row has the bits of the written-out formula with the
    float window; on a stack inside the window the row-norm kernel and,
    unweighted, ``lp_combine`` of the stack and of each row have them too
    (the kernels take the float range from the entry points)."""
    rng = np.random.default_rng(seed)
    weights = tuple(rng.uniform(0.25, 4.0, dim)) if weighted else ()
    space = SpaceSpec(r, dim, weights)
    R = rng.standard_normal((40, dim)) * scale
    R[3] = 0.0
    R[4] = -0.0
    R[5, : dim // 2] = -0.0
    want = np.array([_written_out_norm(space, row) for row in R])
    assert np.array([norm(space, row) for row in R]).tobytes() == want.tobytes()
    assert [type(norm(space, row)) for row in R[:2]] == [float, float]
    if _in_window(np.abs(R), r):
        assert _norm_each_row(space, R).tobytes() == want.tobytes()
        if not weighted:
            assert lp_combine(R, r).tobytes() == want.tobytes()
            assert np.array([lp_combine(row, r) for row in R]).tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [1.25, 1.5, 2.0, 3.0])
def test_row_norms_near_the_float_limits_are_the_written_out_scaling(r):
    """Rows outside the float window of r are measured at 2^-e and scaled
    back by 2^e, bit for bit, and rows inside it keep the formula's bits;
    so is a row whose sum of powers would be subnormal (about 2^-1060)."""
    space = SpaceSpec(r, 3, (0.5, 1.0, 2.0))
    x = np.array([0.3, -1.0, 0.7])
    sub = x * 2.0 ** (-1060 // r)
    R = np.array([x, x * 1e-200, x * 1e200, x * 1e-320, [1e-320, 0.0, -0.0], x * 1e-150, sub])
    want = np.array([_written_out_norm(space, row) for row in R])
    assert np.all((0.0 < want) & (want < math.inf))
    assert [norm(space, row).hex() for row in R] == [v.hex() for v in want.tolist()]
    assert norm(space, sub) / 2.0 ** (-1060 // r) == pytest.approx(norm(space, x), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("p", [1.0, 1.25, 2.0, 3.0, math.inf])
def test_lp_combine_of_empty_vectors_is_zero(p):
    assert lp_combine([], p) == 0.0 and type(lp_combine([], p)) is float
    assert lp_combine(np.zeros((3, 0)), p).tolist() == [0.0, 0.0, 0.0]


def _sample_sphere_one_by_one(space, count, seed):
    """sample_sphere as one draw and one norm per point."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        g = rng.standard_normal(space.dim)
        n = norm(space, g)
        if n > 1e-12:
            out.append(g / n)
    return out


@pytest.mark.parametrize(
    "space",
    [SpaceSpec(1.0, 3), SpaceSpec(1.5, 4, (0.5, 1.0, 2.0, 0.25)), SpaceSpec(2.0, 8), SpaceSpec(3.0, 5),
     SpaceSpec(math.inf, 6), SpaceSpec(4.0, 2, (3.0, 0.1)), SpaceSpec(1.25, 12)],
)
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_sample_sphere_keeps_the_stream_of_single_draws(space, seed):
    got = sample_sphere(space, 300, seed)
    want = _sample_sphere_one_by_one(space, 300, seed)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_bounds_keep_their_bytes_on_the_catalog(monkeypatch):
    """mass_bound and lipschitz_bound of every expression and binding that
    the seed-0 catalog bounds, against the folds that measure each
    generator by ``norm``."""
    seen = []
    fold = exprs._fold

    def recording(e, rules, ctx):
        if rules is _MASS or rules is _LIPSCHITZ:
            seen.append((e, ctx))
        return fold(e, rules, ctx)

    monkeypatch.setattr(exprs, "_fold", recording)
    for name in experiment_names():
        run_experiment(name, seed=0)
    monkeypatch.undo()
    by_norm = {Gen: lambda n, v, k, b: norm(b.space, b.matrix[n.index])}
    assert len(seen) > 20
    for e, b in seen:
        for bound, rules in ((mass_bound, _MASS), (lipschitz_bound, _LIPSCHITZ)):
            got, want = bound(e, b), fold(e, {**rules, **by_norm}, b)
            assert type(got) is type(want) and got.hex() == want.hex()


# --------------------------------------------------------------------------
# lp_combine at finite p > 1
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "values, p, true",
    [
        ([1e-200, 1e-200], 2.0, math.sqrt(2.0) * 1e-200),
        ([3e200, 4e200], 2.0, 5e200),
        ([1e-120, -2e-120, 2e-120], 3.0, 17.0 ** (1 / 3) * 1e-120),
        ([1e300, 1e300], 1.5, 2.0 ** (2 / 3) * 1e300),
    ],
)
def test_lp_norm_of_values_whose_sums_under_or_overflow(values, p, true):
    """The ell_p norm of values outside the float window is the scaled true
    value, finite and non-zero, with no warning; ``lp_combine`` has the
    norm's bits on a vector inside the window."""
    assert norm(SpaceSpec(p, len(values)), values) == pytest.approx(true, rel=1e-14)
    inside = [3.0, 4.0] + [0.0] * (len(values) - 2)
    assert lp_combine(inside, p) == norm(SpaceSpec(p, len(values)), inside)


def test_crude_weak_bound_of_huge_members_is_finite():
    """ell_2 into ell_2^2 has no exact path: the upper bound is the crude
    one, the ell_2 combination of the members' dual norms."""
    Y = np.array([[1e200, 1.0], [2.0, 1e200]])
    est = weak_p_norm(Y, SpaceSpec(2.0, 2), 2.0)
    assert est.method == ("multistart lower", "triangle upper")
    assert est.upper == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-14)
