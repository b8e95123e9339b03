"""Weighted ell_r spaces: norms, duality, and exact enumerations."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fblab import (
    GeneratorBinding,
    NormEstimate,
    OptimizerConfig,
    LinearMap,
    SpaceSpec,
    dual_space,
    norm,
    norming_functional,
    norming_vector,
    operator_norm,
    pairing,
    sample_sphere,
    space_from_json,
    space_to_json,
    weak_p_norm,
    witness_search,
)
from fblab.spaces import (
    BallNotPolytopal,
    EnumerationTooLarge,
    _max_signed_sum,
    extreme_points_matrix,
    norms_rows,
)
from fblab.operators import _exact_plan
from fblab.summing import lp_combine

SPACES = [
    SpaceSpec(1.0, 3),
    SpaceSpec(1.0, 4, (0.25, 0.25, 0.25, 0.25)),
    SpaceSpec(2.0, 3),
    SpaceSpec(2.0, 2, (2.0, 0.5)),
    SpaceSpec(3.0, 4),
    SpaceSpec(math.inf, 3),
    SpaceSpec(math.inf, 4, (0.1, 0.2, 0.3, 0.4)),
]


@pytest.mark.parametrize("space", SPACES)
def test_norm_axioms(space):
    rng = np.random.default_rng(42)
    for _ in range(25):
        x = rng.standard_normal(space.dim)
        y = rng.standard_normal(space.dim)
        t = float(rng.standard_normal())
        assert norm(space, x) >= 0
        assert abs(norm(space, t * x) - abs(t) * norm(space, x)) <= 1e-12 * (
            1 + norm(space, x)
        )
        assert norm(space, x + y) <= norm(space, x) + norm(space, y) + 1e-12


@pytest.mark.parametrize("space", SPACES)
def test_dual_involution(space):
    assert dual_space(dual_space(space)) == space


@pytest.mark.parametrize("space", SPACES)
def test_holder_saturation(space):
    """The norming functional pairs to exactly the norm and has dual norm 1."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal(space.dim)
        f = norming_functional(space, x)
        assert abs(pairing(space, f, x) - norm(space, x)) <= 1e-10 * (1 + norm(space, x))
        assert abs(norm(dual_space(space), f) - 1.0) <= 1e-10


@pytest.mark.parametrize("space", SPACES)
def test_norming_vector_maximizes_plain_form(space):
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = rng.standard_normal(space.dim)
        x = norming_vector(space, g)
        assert abs(norm(space, x) - 1.0) <= 1e-10
        attained = float(g @ x)
        # compare against random competitors on the sphere
        for y in sample_sphere(space, 30, seed=3):
            assert float(g @ y) <= attained + 1e-9
        assert abs(attained - norm(space.dual, g / space.weight_array)) <= 1e-10


@pytest.mark.parametrize("scale", [1e-250, 1e250])
@pytest.mark.parametrize("r", [1.25, 1.5, 3.0])
def test_norming_vector_of_tiny_and_huge_forms(r, scale):
    """The maximizer does not depend on the scale of the form, also where
    the powers of its entries under- or overflow."""
    E = SpaceSpec(r, 3, (0.5, 1.0, 2.0))
    g = np.array([0.3, -1.0, 0.7])
    x = norming_vector(E, scale * g)
    assert np.all(np.isfinite(x))
    assert x == pytest.approx(norming_vector(E, g), rel=1e-12)


@pytest.mark.parametrize("k", [-537, 600])
def test_norming_functional_of_tiny_and_huge_points(k):
    """The norming functional does not depend on the scale of the point:
    over ell_3^3 it read (0, -1, 0) at 2^-537, where the squares are
    subnormal, and raised OverflowError at 2^600."""
    E = SpaceSpec(3.0, 3)
    x = np.array([0.3, -1.0, 0.7])
    assert norming_functional(E, np.ldexp(x, k)) == pytest.approx(norming_functional(E, x), rel=1e-12)


def test_norming_functional_where_an_entry_power_overflows():
    """With a tiny weight an entry's square overflows while the norm's
    does not (1e320 against 1e120); f still pairs to the norm and has dual
    norm 1."""
    E = SpaceSpec(3.0, 2, (1e-300, 1.0))
    x = np.array([1e160, 1.0])
    f = norming_functional(E, x)
    assert np.all(np.isfinite(f))
    assert pairing(E, f, x) == pytest.approx(norm(E, x), rel=1e-12)
    assert norm(dual_space(E), f) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
def test_norm_of_tiny_and_huge_vectors(r):
    """The norm and the dual norm of a plain form do not under- or
    overflow where the norm itself is a float: 1e-110 ** 3 is 0.0 and
    1e110 ** 3 is inf."""
    E = SpaceSpec(r, 2, (0.5, 2.0))
    x = np.array([0.3, -1.0])
    form_norm = lambda g: norm(E.dual, g / E.weight_array)
    for scale in (1e-110, 1e-300, 1e110, 1e300):
        # a direct power of a huge entry loses ~1e-14 in the exponent 1/r
        assert norm(E, scale * x) == pytest.approx(scale * norm(E, x), rel=1e-12, abs=0.0)
        assert form_norm(scale * x) == pytest.approx(scale * form_norm(x), rel=1e-12, abs=0.0)
    assert norm(SpaceSpec(3.0, 1), [1e-110]) == pytest.approx(1e-110, rel=1e-15, abs=0.0)
    assert norm(SpaceSpec(3.0, 1), [1e110]) == pytest.approx(1e110, rel=1e-15)
    top = norm(SpaceSpec(r, 2), [1e308, 1e308])  # inf only where the norm is above the floats
    assert top == math.inf if r == 1 else top == pytest.approx(2.0 ** (1 / r) * 1e308, rel=1e-15)


@pytest.mark.parametrize("w", [1e-300, 1e-30, 1e30, 1e300])
@pytest.mark.parametrize("scale", [1e-100, 1e-143, 1e100])
def test_float_window_counts_the_weights(w, scale):
    """The window narrows by the weights' largest |log2|: norm(SpaceSpec(2,
    1, (1e-300,)), [1e-100]) read 0.0, w x^2 = 1e-500, and the weak-inf and
    weak-1 norms of that member read exactly 0.0; weights near 1e-30 left
    sums of 1e-143 squares, inside the unweighted window, among the
    subnormals.  Each reads sqrt(w) times its unweighted value, exact
    where that is."""
    x = scale * np.array([0.3, -1.0])
    E, unit = SpaceSpec(2.0, 2, (w, 2.0 * w)), SpaceSpec(2.0, 2, (1.0, 2.0))
    assert norm(E, x) == pytest.approx(math.sqrt(w) * norm(unit, x), rel=1e-12, abs=0.0)
    for p in (math.inf, 1.0):
        est, ref = weak_p_norm(x[None], E.dual, p), weak_p_norm(x[None], unit.dual, p)
        assert est.exact and est.lower == pytest.approx(math.sqrt(w) * ref.lower, rel=1e-12, abs=0.0)
    f = norming_functional(E, x)
    assert pairing(E, f, x) == pytest.approx(norm(E, x), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_max_signed_sum_of_tiny_and_huge_rows(r, scale):
    """The largest signed sum of the rows of M is the weak-1 norm of M over
    the dual ball (the member side of the sign enumeration), and it does not
    under- or overflow where it is a float: it once read 0.0 for rows of
    size 1e-300 and inf for 1e300."""
    space = SpaceSpec(r, 3, (0.5, 1.0, 2.0))
    M = np.array([[0.3, -1.0, 0.7], [1.0, 0.5, -0.2], [-0.4, 0.1, 0.9]])
    top = weak_p_norm(M, space.dual, 1.0)
    assert top.method == ("sign enumeration",) and top.lower == _max_signed_sum(M, space)[0]
    scaled = weak_p_norm(scale * M, space.dual, 1.0)
    assert scaled.method == top.method
    assert scaled.lower == scaled.upper == pytest.approx(scale * top.lower, rel=1e-12, abs=0.0)


# rows whose Euclidean tables overflow to inf - inf = nan in every block: the
# first pattern's norm, 1.0, was once returned as the maximum
_NAN_BLOCK_ROWS = [[1e200, 0.0], [-1e200, 0.0], [1e200, 0.0], [-1e200, 1.0]]


def test_weak_1_norm_of_rows_that_overflow_the_tables():
    """Rows near 1e200 are outside the float window of ell_2, so the weak-1
    norm enumerates their signed sums once at a power-of-two scale."""
    est = weak_p_norm(np.array(_NAN_BLOCK_ROWS), SpaceSpec(2.0, 2), 1.0)
    assert est.exact and est.lower == 4e200


def test_operator_norm_of_rows_that_overflow_the_tables():
    T = LinearMap.from_array(np.array(_NAN_BLOCK_ROWS), SpaceSpec(2.0, 2), SpaceSpec(1.0, 4))
    est = operator_norm(T)
    assert est.lower == est.upper == 4e200 and est.upper_certified


@pytest.mark.parametrize("e", [-830, 830])
def test_crude_row_norm_bounds_of_tiny_and_huge_maps(e):
    """The crude row-norm bounds do not under- or overflow where the norm is
    a float: the ascent's 1.366e-250 was once snapped to a certified upper
    bound 0.0 at 1e-250, and the upper bound read inf at 1e250.  The
    witness search normalizes a seed by the crude weak-p bound where no
    exact path applies (p = 1.5 and 2 over ell_3), and reads the same value
    at any scale of the seed."""
    E = SpaceSpec(3.0, 2)
    A = np.array([[1.0, 0.5], [0.2, 1.0]])
    est = operator_norm(LinearMap(A, E, E))
    scaled = operator_norm(LinearMap(np.ldexp(A, e), E, E))
    assert 0.0 < scaled.lower <= scaled.upper < math.inf
    assert np.ldexp(scaled.lower, -e) == pytest.approx(est.lower, rel=1e-12)
    assert np.ldexp(scaled.upper, -e) == pytest.approx(est.upper, rel=1e-12)
    objective = lambda Y: lp_combine(lp_combine(Y, 2.0), 1.0)
    for p in (1.5, 2.0):
        unit, _, tight = witness_search(E, p, objective, [A])
        assert not tight
        assert witness_search(E, p, objective, [np.ldexp(A, e)])[::2] == (pytest.approx(unit, rel=1e-12), False)


# a (domain, codomain) pair per path of operators._exact_plan, with the map
# [[1, .5], [.2, 1]] or, where 3 rows are needed to reach the path, [[1, .5],
# [.2, 1], [-.3, .4]]
_EXACT_PATH_MAPS = [
    (SpaceSpec(1.0, 2), SpaceSpec(3.0, 2), "cross-polytope enumeration"),
    (SpaceSpec(1.0, 2), SpaceSpec(2.0, 2), "cross-polytope enumeration"),
    (SpaceSpec(1.0, 2, (0.5, 2.0)), SpaceSpec(1.5, 3, (1.0, 0.25, 3.0)), "cross-polytope enumeration"),
    (SpaceSpec(3.0, 2), SpaceSpec(math.inf, 2), "weak-inf closed form"),
    (SpaceSpec(1.5, 2, (0.5, 2.0)), SpaceSpec(math.inf, 3), "weak-inf closed form"),
    (SpaceSpec(3.0, 2), SpaceSpec(1.0, 3), "sign enumeration"),
    (SpaceSpec(math.inf, 2), SpaceSpec(1.0, 3), "sign enumeration"),
    (SpaceSpec(math.inf, 2), SpaceSpec(3.0, 3), "cube-vertex enumeration"),
]


@pytest.mark.parametrize("e", [-830, 830])
@pytest.mark.parametrize("E, C, tag", _EXACT_PATH_MAPS)
def test_exact_plan_of_tiny_and_huge_maps(E, C, tag, e):
    """Every exact path of the operator norm, and so of the weak-p norms of
    ``operators._bound``, reads the scaled interval: the closed forms once
    read [0.0, 0.0], certified, at 2^-830 and overflowed to inf (a
    ValueError) at 2^830.  The value function of a stack has the unit
    map's value for A and -A."""
    A = np.array([[1.0, 0.5], [0.2, 1.0], [-0.3, 0.4]])[: C.dim]
    assert _exact_plan(E, C)[1] == tag
    est = operator_norm(LinearMap(A, E, C))
    scaled = operator_norm(LinearMap(np.ldexp(A, e), E, C))
    stack = _exact_plan(E, C)[0](np.stack([A, -A, 0 * A]) / E.weight_array)  # pairing coordinates
    assert scaled.lower_certified and scaled.upper_certified
    assert 0.0 < scaled.lower == scaled.upper < math.inf
    assert np.ldexp(scaled.upper, -e) == pytest.approx(est.upper, rel=1e-12)
    assert stack.tolist() == pytest.approx([est.upper, est.upper, 0.0], rel=1e-12)


def test_norm_in_range_is_the_direct_formula():
    """Only data outside the float window is scaled, so norms of vectors
    inside it are bit for bit the direct formula."""
    rng = np.random.default_rng(5)
    for r in (1.0, 1.5, 3.0):
        E = SpaceSpec(r, 4, tuple(rng.uniform(0.25, 2.0, 4)))
        for x in rng.standard_normal((20, 4)) * 10.0 ** rng.integers(-30, 30, (20, 1)):
            direct = float(np.sum(E.weight_array * np.abs(x) ** r) ** (1.0 / r))
            assert norm(E, x) == direct
    assert norm(SpaceSpec(3.0, 2), [0.0, -0.0]) == 0.0


def test_norms_rows_matches_scalar():
    rng = np.random.default_rng(0)
    for space in SPACES:
        rows = rng.standard_normal((6, space.dim))
        batch = norms_rows(space, rows)
        for i in range(6):
            assert abs(batch[i] - norm(space, rows[i])) <= 1e-12


def test_weight_array_is_built_once_and_read_only():
    E = SpaceSpec(2.0, 3, (0.5, 1.0, 2.0))
    w = E.weight_array
    assert w is E.weight_array and not w.flags.writeable
    assert w.tolist() == list(E.weights)
    with pytest.raises(ValueError):
        w[0] = 3.0
    assert E == SpaceSpec(2.0, 3, (0.5, 1.0, 2.0))
    assert hash(E) == hash(SpaceSpec(2.0, 3, (0.5, 1.0, 2.0)))


@pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
def test_dual_space_is_built_once(r):
    E = SpaceSpec(r, 3, (0.5, 1.0, 2.0))
    D = dual_space(E)
    assert D is dual_space(E)
    assert dual_space(D) == E
    assert not D.weight_array.flags.writeable
    with pytest.raises(ValueError):
        D.weight_array[0] = 3.0
    assert D.weights == E.weights


def test_extreme_points_l1_and_sup():
    E1 = SpaceSpec(1.0, 3, (0.5, 1.0, 2.0))
    pts = extreme_points_matrix(E1)
    assert len(pts) == 6
    for p in pts:
        assert abs(norm(E1, p) - 1.0) <= 1e-12

    Esup = SpaceSpec(math.inf, 4)
    pts = extreme_points_matrix(Esup)
    assert pts.shape == (16, 4)
    assert np.all(np.abs(pts) == 1.0)

    with pytest.raises(BallNotPolytopal):
        extreme_points_matrix(SpaceSpec(2.0, 3))
    with pytest.raises(EnumerationTooLarge):
        extreme_points_matrix(SpaceSpec(math.inf, 30))


def test_sup_norm_ignores_weights():
    """ess-sup of a step function does not depend on the atom masses."""
    E = SpaceSpec(math.inf, 3, (0.1, 0.5, 10.0))
    assert norm(E, np.array([1.0, -2.0, 0.5])) == 2.0


def test_sample_sphere_deterministic():
    E = SpaceSpec(2.0, 5)
    a = sample_sphere(E, 10, seed=123)
    b = sample_sphere(E, 10, seed=123)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
        assert abs(norm(E, x) - 1.0) <= 1e-12


@given(
    r=st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
    dim=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_norm_scaling_property(r, dim, data):
    w = tuple(
        data.draw(st.floats(min_value=0.1, max_value=5.0)) for _ in range(dim)
    )
    space = SpaceSpec(r, dim, w)
    x = np.array(
        [data.draw(st.floats(min_value=-10, max_value=10)) for _ in range(dim)]
    )
    c = data.draw(st.floats(min_value=-4, max_value=4))
    assert norm(space, c * x) == pytest.approx(abs(c) * norm(space, x), abs=1e-9)


def test_operator_norm_diagonal_oracle():
    """diag(d): ell_r^n -> ell_r^n has norm max |d_i| for unweighted r, and
    so has diag(d) from any ell_r^n into the sup norm.  Every case but the
    Euclidean one into itself is on an exact path: an ell_1 domain, a
    sup-norm domain, or the closed form into a sup-norm codomain."""
    d = np.array([0.5, -3.0, 2.0, 1.0])
    for r, s in ((1.0, 1.0), (2.0, 2.0), (math.inf, math.inf), (2.0, math.inf), (3.0, math.inf)):
        T = LinearMap.from_array(np.diag(d), SpaceSpec(r, 4), SpaceSpec(s, 4))
        est = operator_norm(T)
        assert est.lower <= 3.0 + 1e-9
        assert est.lower >= 3.0 - 1e-6
        assert est.exact == ((r, s) != (2.0, 2.0))


def test_operator_norm_exact_vs_multistart():
    """On a polytopal domain the enumerated value is the truth; the
    multistart path (forced by a Euclidean domain of the adjoint kind)
    should approach it from below on transposed data."""
    rng = np.random.default_rng(5)
    cfg = OptimizerConfig(restarts=48)
    for _ in range(5):
        A = rng.standard_normal((4, 4))
        T = LinearMap.from_array(A, SpaceSpec(math.inf, 4), SpaceSpec(2.0, 4))
        exact = operator_norm(T, cfg)
        assert exact.exact
        # brute force over the 16 cube vertices
        vertices = extreme_points_matrix(SpaceSpec(math.inf, 4))
        brute = max(norm(SpaceSpec(2.0, 4), A @ v) for v in vertices)
        assert exact.lower == pytest.approx(brute, abs=1e-12)

        # ell_2 -> ell_2 has a spectral-norm oracle for the multistart path
        S = LinearMap.from_array(A, SpaceSpec(2.0, 4), SpaceSpec(2.0, 4))
        est = operator_norm(S, cfg)
        sigma = float(np.linalg.svd(A, compute_uv=False)[0])
        assert est.lower == pytest.approx(sigma, rel=1e-6)
        assert est.upper >= sigma - 1e-9


def test_operator_norm_sup_domain_memory_stays_bounded():
    """ell_inf^22 -> ell_inf^3 at the enumeration cap: the closed form
    max_i sum_j |a_ij|, with no 2^22-row vertex array built (that array
    alone is 740 MB)."""
    rng = np.random.default_rng(22)
    A = rng.standard_normal((3, 22))
    T = LinearMap.from_array(A, SpaceSpec(math.inf, 22), SpaceSpec(math.inf, 3))
    tracemalloc.start()
    try:
        est = operator_norm(T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.exact
    assert est.lower == pytest.approx(float(np.max(np.sum(np.abs(A), axis=1))), rel=1e-13)
    assert peak < 64 * 2**20


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_operator_norm_into_sup_codomain_is_the_largest_row(r):
    """Into a sup-norm codomain the norm is the largest dual norm of a row,
    exact over any weighted ell_r domain; sampled points of the sphere
    stay below it and the norming point of the largest row attains it."""
    rng = np.random.default_rng(23)
    E = SpaceSpec(r, 5, (0.5, 1.0, 2.0, 1.5, 0.25))
    A = rng.standard_normal((3, 5))
    est = operator_norm(LinearMap.from_array(A, E, SpaceSpec(math.inf, 3)))
    rows = [norm(E.dual, row / E.weight_array) for row in A]
    assert est.exact and est.method == ("extreme-point enumeration",)
    assert est.lower == pytest.approx(max(rows), rel=1e-13)
    x = norming_vector(E, A[int(np.argmax(rows))])
    assert np.max(np.abs(A @ x)) == pytest.approx(est.lower, rel=1e-12)
    assert max(np.max(np.abs(A @ x)) for x in sample_sphere(E, 2000, seed=24)) <= est.lower * (1 + 1e-12)


def test_space_json_roundtrip():
    for space in SPACES:
        assert space_from_json(space_to_json(space)) == space
    assert space_from_json({"r": "inf", "dim": 2}).is_sup
    with pytest.raises(ValueError):
        space_from_json({"dim": 2})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(ValueError):
        SpaceSpec(1.0, 2, (1.0, bad))
    E = SpaceSpec(2.0, 2)
    with pytest.raises(ValueError):
        GeneratorBinding.from_matrix(E, [[1.0, bad]])
    with pytest.raises(ValueError):
        LinearMap.from_array([[1.0, bad]], E, SpaceSpec(1.0, 1))
    if math.isnan(bad):
        for lower, upper in ((bad, 1.0), (0.0, bad), (bad, bad)):
            with pytest.raises(ValueError):
                NormEstimate(lower, upper, True, True)


@pytest.mark.parametrize("lower", [math.inf, -math.inf])
def test_norm_estimate_refuses_an_infinite_lower_bound(lower):
    """An infinite lower bound is an overflowed evaluation, not a value;
    an infinite upper bound only says that none is known."""
    with pytest.raises(ValueError, match="lower bound must be finite"):
        NormEstimate(lower, math.inf, True, False)
    est = NormEstimate(2.0, math.inf, True, False)
    assert est.upper == math.inf and est.to_json()["upper"] is None


def test_norm_estimate_meets_rounding_and_refuses_inverted_bounds():
    """A lower bound a rounding error above its upper bound is set to the
    upper bound; one further above is a bug and raises."""
    assert NormEstimate(1.0 + 2e-16, 1.0).lower == 1.0
    assert NormEstimate(0.5, 1.0).lower == 0.5
    with pytest.raises(ValueError):
        NormEstimate(1.0 + 1e-6, 1.0)
    # below magnitude 1 the slack is relative: a wrong tiny interval raises
    assert NormEstimate(1e-250 * (1.0 + 2e-16), 1e-250).lower == 1e-250
    with pytest.raises(ValueError):
        NormEstimate(1.366e-250, 0.0)
    with pytest.raises(ValueError):
        NormEstimate(2e-9, 1e-9)
