"""Lattice expressions: evaluation identities, pushforward, DSL."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fblab import (
    Abs,
    Add,
    Gen,
    GeneratorBinding,
    Join,
    LinearMap,
    Meet,
    Neg,
    PosPart,
    PowerSum,
    Scale,
    SpaceSpec,
    adjoint,
    disjointness_check,
    dual_space,
    eval_expr,
    eval_pairings,
    eval_rows,
    expr_to_text,
    fbl_norm,
    hom_image,
    homogeneity_check,
    lipschitz_bound,
    mass_bound,
    norm,
    parse_expr,
    pushforward,
    sample_sphere,
)
from fblab.exprs import _fold, max_generator_index, recognize_moduli_combination


def _binding(dim=3, count=3, seed=0, r=2.0):
    rng = np.random.default_rng(seed)
    return GeneratorBinding.from_matrix(SpaceSpec(r, dim), rng.standard_normal((count, dim)))


def test_lattice_identities():
    """|x| = x v (-x), x^+ = x v 0, a v b + a ^ b = a + b."""
    b = _binding(seed=3)
    fs = np.array(sample_sphere(dual_space(b.space), 50, seed=1))
    x = Gen(0) + Scale(-2.0, Gen(1))
    y = Gen(2)

    abs_direct = eval_rows(Abs(x), b, fs)
    abs_joined = eval_rows(Join(x, Neg(x)), b, fs)
    assert np.max(np.abs(abs_direct - abs_joined)) <= 1e-12

    pos_direct = eval_rows(PosPart(x), b, fs)
    pos_joined = eval_rows(Join(x, Scale(0.0, x)), b, fs)
    assert np.max(np.abs(pos_direct - pos_joined)) <= 1e-12

    lhs = eval_rows(Join(x, y), b, fs) + eval_rows(Meet(x, y), b, fs)
    rhs = eval_rows(x + y, b, fs)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_operator_overloads_match_nodes():
    b = _binding(seed=4)
    fs = np.array(sample_sphere(dual_space(b.space), 20, seed=2))
    via_ops = Gen(0) * 2.0 - Gen(1)
    via_nodes = Scale(2.0, Gen(0)) + Neg(Gen(1))
    assert np.array_equal(eval_rows(via_ops, b, fs), eval_rows(via_nodes, b, fs))


def test_homogeneity():
    b = _binding(seed=5)
    e = Join(Abs(Gen(0)), Gen(1) + Gen(2)) + PowerSum(3.0, (Gen(0), Gen(1)))
    assert homogeneity_check(e, b, samples=200, seed=9) <= 1e-9


def test_pushforward_adjoint_contract():
    """eval(pushforward(e), y*) == eval(e, T* y*)."""
    rng = np.random.default_rng(6)
    dom = SpaceSpec(2.0, 3, (1.0, 2.0, 0.5))
    cod = SpaceSpec(1.0, 4, (0.25, 0.25, 0.25, 0.25))
    b = GeneratorBinding.from_matrix(dom, rng.standard_normal((2, 3)))
    T = LinearMap.from_array(rng.standard_normal((4, 3)), dom, cod)
    e = Join(Abs(Gen(0)), Gen(1)) - Gen(0)
    e2, b2 = pushforward(e, b, T)
    Tstar = adjoint(T)
    for y in sample_sphere(dual_space(cod), 25, seed=3):
        left = eval_expr(e2, b2, y)
        right = eval_expr(e, b, Tstar.apply(y))
        assert left == pytest.approx(right, abs=1e-10)


def test_pushforward_composition():
    rng = np.random.default_rng(7)
    E = SpaceSpec(2.0, 3)
    F = SpaceSpec(2.0, 4)
    G = SpaceSpec(2.0, 2)
    b = GeneratorBinding.from_matrix(E, rng.standard_normal((3, 3)))
    T = LinearMap.from_array(rng.standard_normal((4, 3)), E, F)
    S = LinearMap.from_array(rng.standard_normal((2, 4)), F, G)
    e = Join(Gen(0), Meet(Gen(1), Abs(Gen(2))))
    _, b_one = pushforward(*pushforward(e, b, T), S)
    ST = LinearMap.from_array(S.array @ T.array, E, G)
    _, b_two = pushforward(e, b, ST)
    assert np.max(np.abs(b_one.matrix - b_two.matrix)) <= 1e-12


def test_hom_image_coordinate_oracle():
    """Coordinate j of the image equals eval at the j-th coordinate
    functional of the codomain."""
    rng = np.random.default_rng(8)
    E = SpaceSpec(2.0, 3)
    cod = SpaceSpec(2.0, 4)
    b = GeneratorBinding.from_matrix(E, rng.standard_normal((2, 3)))
    T = LinearMap.from_array(rng.standard_normal((4, 3)), E, cod)
    e = Abs(Gen(0)) + Neg(Abs(Gen(1)))
    img = hom_image(e, b, T)
    e2, b2 = pushforward(e, b, T)
    eye = np.eye(4)
    for j in range(4):
        assert img[j] == pytest.approx(eval_expr(e2, b2, eye[j]), abs=1e-12)


def test_hom_image_is_lattice_homomorphism():
    rng = np.random.default_rng(9)
    E = SpaceSpec(2.0, 3)
    cod = SpaceSpec(1.0, 3)
    b = GeneratorBinding.from_matrix(E, rng.standard_normal((2, 3)))
    T = LinearMap.from_array(rng.standard_normal((3, 3)), E, cod)
    x, y = Gen(0) + Gen(1), Gen(0) - Gen(1)
    assert np.max(np.abs(
        hom_image(Join(x, y), b, T)
        - np.maximum(hom_image(x, b, T), hom_image(y, b, T))
    )) <= 1e-12
    assert np.max(np.abs(
        hom_image(Abs(x), b, T) - np.abs(hom_image(x, b, T))
    )) <= 1e-12
    with pytest.raises(ValueError):
        hom_image(x, b, LinearMap.from_array(np.eye(3), E, SpaceSpec(1.0, 3, (0.5, 1, 1))))


def test_lipschitz_bound_holds():
    b = _binding(seed=10)
    e = Join(Abs(Gen(0)) * 3.0, Gen(1) - Gen(2))
    L = lipschitz_bound(e, b)
    rng = np.random.default_rng(11)
    Ed = dual_space(b.space)
    for _ in range(100):
        f = rng.standard_normal(3)
        g = rng.standard_normal(3)
        diff = abs(eval_expr(e, b, f) - eval_expr(e, b, g))
        assert diff <= L * norm(Ed, f - g) + 1e-10


def test_mass_bound_dominates_eval():
    b = _binding(seed=12)
    e = Join(Abs(Gen(0)), Gen(1)) + PowerSum(2.0, (Gen(1), Gen(2)))
    M = mass_bound(e, b)
    for f in sample_sphere(dual_space(b.space), 200, seed=13):
        assert abs(eval_expr(e, b, f)) <= M + 1e-10


def test_disjointness_check_flags_overlap():
    b = GeneratorBinding.from_matrix(SpaceSpec(2.0, 2), np.eye(2))
    rep = disjointness_check(PosPart(Gen(0)), PosPart(Neg(Gen(0))), b, 500, seed=1)
    assert rep.max_violation <= 1e-12
    rep2 = disjointness_check(Abs(Gen(0)), Abs(Gen(0)), b, 500, seed=1)
    assert rep2.max_violation > 0.5


def test_recognize_moduli_combination():
    e = Abs(Gen(0)) * 2.0 + Abs(Gen(2))
    assert recognize_moduli_combination(e) == {0: 2.0, 2: 1.0}
    assert recognize_moduli_combination(Abs(Gen(0)) - Abs(Gen(1))) is None
    assert recognize_moduli_combination(Join(Gen(0), Gen(1))) is None
    assert recognize_moduli_combination(Abs(Gen(0)) + Abs(Gen(0))) is None


def test_max_generator_index():
    assert max_generator_index(parse_expr("max(d0, d3) + abs(d1)")) == 3


@pytest.mark.parametrize(
    "text",
    [
        "abs(d0)+abs(d1)",
        "max(d0, min(d1, d2))",
        "2*d0 - 0.5*abs(d1)",
        "pos(d0 - d1)",
        "-(d0 + d1) * 3",
    ],
)
def test_dsl_roundtrip(text):
    e = parse_expr(text)
    again = parse_expr(expr_to_text(e))
    b = _binding(seed=14)
    fs = np.array(sample_sphere(dual_space(b.space), 30, seed=4))
    assert np.max(np.abs(eval_rows(e, b, fs) - eval_rows(again, b, fs))) <= 1e-12


@pytest.mark.parametrize("bad", ["d0 *", "abs(d0", "max(d0)", "3", "d0 d1", "foo(d0)"])
def test_dsl_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_expr(bad)


@given(
    coeffs=st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=2
    ),
    lam=st.floats(min_value=0, max_value=100),
)
@settings(max_examples=50, deadline=None)
def test_positive_homogeneity_property(coeffs, lam):
    b = GeneratorBinding.from_matrix(SpaceSpec(2.0, 2), np.eye(2))
    e = Join(Gen(0) * coeffs[0], Abs(Gen(1)) * coeffs[1])
    f = np.array([0.3, -0.7])
    assert eval_expr(e, b, lam * f) == pytest.approx(
        lam * eval_expr(e, b, f), rel=1e-9, abs=1e-9
    )


# --------------------------------------------------------------------------
# deep and shared expressions: every walk is a loop over one program
# --------------------------------------------------------------------------

DEEP = 10**4


def test_deep_moduli_sum():
    """A left-deep sum of 10^4 scaled moduli over a weighted L_1 evaluates,
    bounds, prints and is recognized; its p = 1 norm is sum a_k ||x_k||."""
    rng = np.random.default_rng(15)
    space = SpaceSpec(1.0, 5, tuple(rng.uniform(0.5, 1.5, 5)))
    X = rng.standard_normal((DEEP, 5))
    a = rng.uniform(0.5, 1.5, DEEP)
    b = GeneratorBinding.from_matrix(space, X)
    e = Abs(Gen(0)) * a[0]
    for k in range(1, DEEP):
        e = e + Abs(Gen(k)) * a[k]
    w = np.asarray(space.weights)
    target = float(a @ (np.abs(X) * w).sum(axis=1))

    F = rng.standard_normal((20, 5))
    reference = np.abs(F @ (X * w).T) @ a
    assert np.allclose(eval_rows(e, b, F), reference, rtol=1e-12, atol=0)
    assert mass_bound(e, b) == pytest.approx(target, rel=1e-12)
    assert lipschitz_bound(e, b) == mass_bound(e, b)  # no join or meet
    assert max_generator_index(e) == DEEP - 1
    assert recognize_moduli_combination(e) == {k: a[k] for k in range(DEEP)}
    text = expr_to_text(e)
    assert text.count("abs(d") == DEEP and text.endswith(f"*(abs(d{DEEP - 1})))")

    est = fbl_norm(e, b, 1.0)
    assert est.lower == pytest.approx(target, rel=1e-12)
    assert est.upper == pytest.approx(target, rel=1e-12)


def test_deep_nested_chain():
    """10^4 nested negations of d0 are d0 again."""
    b = _binding(seed=16)
    e = Gen(0)
    for _ in range(DEEP):
        e = Neg(e)
    fs = np.array(sample_sphere(dual_space(b.space), 10, seed=5))
    assert np.array_equal(eval_rows(e, b, fs), eval_rows(Gen(0), b, fs))
    assert mass_bound(e, b) == lipschitz_bound(e, b) == norm(b.space, b.matrix[0])
    assert max_generator_index(e) == 0
    assert recognize_moduli_combination(e) is None
    assert expr_to_text(e) == "-(" * DEEP + "d0" + ")" * DEEP


def _subtree():
    return Join(Abs(Gen(0)) * 2.0, Gen(1) - Gen(2))


def test_shared_subtree_evaluates_as_a_copy():
    b = _binding(seed=17)
    fs = np.array(sample_sphere(dual_space(b.space), 40, seed=6))
    s = _subtree()
    shared = Add(s, Meet(PowerSum(2.0, (s, Gen(1), s)), Neg(s)))
    unshared = Add(
        _subtree(), Meet(PowerSum(2.0, (_subtree(), Gen(1), _subtree())), Neg(_subtree()))
    )
    assert np.array_equal(eval_rows(shared, b, fs), eval_rows(unshared, b, fs))
    assert mass_bound(shared, b) == mass_bound(unshared, b)
    assert lipschitz_bound(shared, b) == lipschitz_bound(unshared, b)
    assert expr_to_text(shared) == expr_to_text(unshared)
    # a shared modulus repeats its generator
    t = Abs(Gen(1))
    assert recognize_moduli_combination(t + t) is None
    assert recognize_moduli_combination(t * 2.0 + Abs(Gen(0))) == {1: 2.0, 0: 1.0}


def test_doubling_chain_is_linear_in_distinct_nodes():
    """x -> x + x sixty times: 2^60 leaves but 61 distinct nodes."""
    b = _binding(seed=18)
    e = Gen(0)
    for _ in range(60):
        e = e + e
    fs = np.array(sample_sphere(dual_space(b.space), 5, seed=7))
    assert np.array_equal(eval_rows(e, b, fs), 2.0**60 * eval_rows(Gen(0), b, fs))
    assert mass_bound(e, b) == 2.0**60 * norm(b.space, b.matrix[0])
    assert recognize_moduli_combination(e) is None


def test_dsl_nesting_limit():
    deepest = parse_expr("abs(" * 100 + "d0" + ")" * 100)
    assert np.array_equal(eval_rows(deepest, _binding(), np.eye(3)), np.abs(_binding().matrix[0]))
    with pytest.raises(ValueError, match="nests deeper"):
        parse_expr("abs(" * 101 + "d0" + ")" * 101)
    with pytest.raises(ValueError, match="nests deeper"):
        parse_expr("(" * 400 + "d0" + ")" * 400)


# --------------------------------------------------------------------------
# the binding holds its vectors once, read-only
# --------------------------------------------------------------------------


def test_binding_matrix_is_read_only_and_copied():
    X = np.arange(6.0).reshape(2, 3)
    b = GeneratorBinding.from_matrix(SpaceSpec(2.0, 3), X)
    with pytest.raises(ValueError):
        b.matrix[0, 0] = 1.0
    X[0, 0] = 99.0
    assert b.matrix[0, 0] == 0.0 and b.matrix is b.vectors
    tuples = GeneratorBinding(SpaceSpec(2.0, 3), ((0.0, 1.0, 2.0), (3.0, 4.0, 5.0)))
    assert np.array_equal(tuples.matrix, b.matrix) and not tuples.matrix.flags.writeable


def test_binding_pairings_reuse_one_weighted_view():
    rng = np.random.default_rng(22)
    X = rng.standard_normal((4, 3))
    b = GeneratorBinding.from_matrix(SpaceSpec(3.0, 3, (1.0, 0.5, 2.0)), X)
    F = rng.standard_normal((7, 3))
    weighted = (X * b.space.weight_array).T
    assert b._weighted_t is b._weighted_t
    assert b._weighted_t.strides == weighted.strides
    assert np.array_equal(b.pairings(F), F @ weighted)


def test_binding_json_round_trip():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((4, 3))
    b = GeneratorBinding.from_matrix(SpaceSpec(3.0, 3, (1.0, 0.5, 2.0)), X)
    text = json.dumps(b.to_json())
    assert json.loads(text)["vectors"] == [[float(v) for v in row] for row in X]
    again = GeneratorBinding.from_json(json.loads(text))
    assert again.space == b.space and np.array_equal(again.matrix, X)
    assert json.dumps(again.to_json()) == text


def _reference_eval(e, P):
    """The direct recursive evaluation: the same numpy operations in the
    same order as the program, so the two agree bit for bit."""
    if isinstance(e, Gen):
        return P[:, e.index]
    if isinstance(e, Scale):
        return e.c * _reference_eval(e.e, P)
    if isinstance(e, Add):
        return _reference_eval(e.left, P) + _reference_eval(e.right, P)
    if isinstance(e, Neg):
        return -_reference_eval(e.e, P)
    if isinstance(e, Abs):
        return np.abs(_reference_eval(e.e, P))
    if isinstance(e, Join):
        return np.maximum(_reference_eval(e.left, P), _reference_eval(e.right, P))
    if isinstance(e, Meet):
        return np.minimum(_reference_eval(e.left, P), _reference_eval(e.right, P))
    if isinstance(e, PosPart):
        return np.maximum(_reference_eval(e.e, P), 0.0)
    acc = np.zeros(P.shape[0])
    for part in e.parts:
        acc = acc + np.abs(_reference_eval(part, P)) ** e.q
    return acc ** (1.0 / e.q)


def _random_expr(rng, depth):
    kind = int(rng.integers(9)) if depth else 0
    if kind == 0:
        return Gen(int(rng.integers(3)))
    if kind == 1:
        return Scale(float(rng.normal()), _random_expr(rng, depth - 1))
    if kind <= 4:
        return (Neg, Abs, PosPart)[kind - 2](_random_expr(rng, depth - 1))
    if kind <= 7:
        left = _random_expr(rng, depth - 1)
        return (Add, Join, Meet)[kind - 5](left, _random_expr(rng, depth - 1))
    parts = tuple(_random_expr(rng, depth - 1) for _ in range(3))
    return PowerSum(float(rng.choice([1.0, 1.5, 3.0])), parts)


def test_program_matches_recursive_reference():
    rng = np.random.default_rng(20)
    b = _binding(seed=21)
    P = b.pairings(np.array(sample_sphere(dual_space(b.space), 15, seed=8)))
    for _ in range(300):
        e = _random_expr(rng, 5)
        assert np.array_equal(eval_pairings(e, P), _reference_eval(e, P))


# the reference text: each node's string built from its children's strings
# (quadratic in the length of a left-deep sum, but plainly right)
_REFERENCE_TEXT = {
    Gen: lambda n, v, k, _: f"d{n.index}",
    Scale: lambda n, v, k, _: f"{n.c:g}*({v[k[0]]})",
    Add: lambda n, v, k, _: f"({v[k[0]]}) + ({v[k[1]]})",
    Neg: lambda n, v, k, _: f"-({v[k[0]]})",
    Abs: lambda n, v, k, _: f"abs({v[k[0]]})",
    Join: lambda n, v, k, _: f"max({v[k[0]]}, {v[k[1]]})",
    Meet: lambda n, v, k, _: f"min({v[k[0]]}, {v[k[1]]})",
    PosPart: lambda n, v, k, _: f"pos({v[k[0]]})",
    PowerSum: lambda n, v, k, _: f"powersum[{n.q:g}]({', '.join(v[j] for j in k)})",
}


def test_text_matches_per_node_strings():
    rng = np.random.default_rng(23)
    for _ in range(300):
        e = _random_expr(rng, 5)
        assert expr_to_text(e) == _fold(e, _REFERENCE_TEXT, None)
    long_sum = functools.reduce(Add, [Abs(Gen(k)) for k in range(30_000)])
    assert expr_to_text(long_sum) == _fold(long_sum, _REFERENCE_TEXT, None)
