"""Lattice expressions: evaluation identities, pushforward, DSL."""

import functools
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from fblab.exprs import _VALUES, _fold, max_generator_index, recognize_moduli_combination


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
    ST = LinearMap.from_array(S.matrix @ T.matrix, E, G)
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


@pytest.mark.parametrize(
    "bad",
    ["d0 *", "abs(d0", "max(d0)", "3", "d0 d1", "foo(d0)",
     # non-finite scales, which once made a certified infinite norm
     "inf*abs(d0)", "nan*d0", "1e400*abs(d0)", "1e200*1e200*abs(d0)", "-inf*d0"],
)
def test_dsl_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_expr(bad)


def test_scale_rejects_non_finite_factor():
    """A scale factor that is or multiplies out to inf or NaN is an input
    error (the parser's cases are in test_dsl_rejects_malformed)."""
    for c in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="scale factor must be finite"):
            Abs(Gen(0)) * c
        with pytest.raises(ValueError, match="scale factor must be finite"):
            Scale(c, Gen(0))
    with pytest.raises(ValueError, match="scale factor must be finite"):
        Abs(Gen(0)) * (1e200 * 1e200)


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


# --------------------------------------------------------------------------
# the compiled kernel against the fold it replaces in evaluation
# --------------------------------------------------------------------------

_KINDS = {"neg": Neg, "abs": Abs, "pos": PosPart, "add": Add, "join": Join, "meet": Meet}


def _node(kind, param, args):
    if kind == "gen":
        return Gen(param)
    if kind == "scale":
        return Scale(param, args[0])
    if kind == "powersum":
        return PowerSum(param, tuple(args))
    return _KINDS[kind](*args)


def _copy(recipes, k, memo):
    """A structurally equal copy of node k, built anew with its children."""
    if k not in memo:
        kind, param, kids, _ = recipes[k]
        memo[k] = _node(kind, param, [_copy(recipes, j, memo) for j in kids])
    return memo[k]


@st.composite
def _dags(draw):
    """Expressions whose nodes reuse earlier nodes, either as the same
    object or as a structurally equal copy, with signed zero scales."""
    recipes = [("gen", i, (), Gen(i)) for i in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["scale", "powersum", *_KINDS]))
        arity = {"add": 2, "join": 2, "meet": 2, "powersum": draw(st.integers(1, 3))}.get(kind, 1)
        kids = [draw(st.integers(0, len(recipes) - 1)) for _ in range(arity)]
        param = None
        if kind == "scale":
            param = draw(st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-3.0, 3.0))
        elif kind == "powersum":
            param = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
        args = [_copy(recipes, j, {}) if draw(st.booleans()) else recipes[j][3] for j in kids]
        recipes.append((kind, param, kids, _node(kind, param, args)))
    return recipes[-1][3]


@given(e=_dags(), seed=st.integers(0, 2**16), rows=st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_fold_bytes(e, seed, rows):
    P = np.random.default_rng(seed).standard_normal((rows, 3))
    P[0, :] = -np.abs(P[0, :])  # a row of negative pairings shows the sign of a zero scale
    assert eval_pairings(e, P).tobytes() == _fold(e, _VALUES, P).tobytes()


def _steps(e):
    """The values the kernel of e names: one per distinct structure."""
    return [v for v in e._kernel.__code__.co_varnames if v.startswith("v")]


def test_kernel_merges_equal_structure_and_keeps_signed_zeros_apart():
    assert len(_steps(Add(Abs(Gen(0)), Abs(Gen(0))))) == 3
    assert len(_steps(Add(Scale(2.0, Gen(1)), Scale(2, Gen(1))))) == 4  # int and float scales
    e = Add(Scale(0.0, Gen(0)), Scale(-0.0, Gen(0)))
    assert len(_steps(e)) == 4
    P = -np.ones((2, 1))
    assert eval_pairings(e, P).tobytes() == _fold(e, _VALUES, P).tobytes()
    assert not np.any(np.signbit(eval_pairings(e, P)))  # -0.0 + 0.0, not -0.0 + -0.0


def test_kernel_matches_fold_on_a_deep_sum():
    """2,000 distinct terms, then the same terms again built anew."""
    rng = np.random.default_rng(24)
    a = rng.uniform(-1.5, 1.5, 2000)

    def term(k):
        return Abs(Gen(k)) * a[k] if k % 3 else Meet(Gen(k), Neg(Gen(0))) * a[k]

    e = functools.reduce(Add, [term(k) for k in range(2000)] + [term(k) for k in range(2000)])
    P = rng.standard_normal((4, 2000))
    assert eval_pairings(e, P).tobytes() == _fold(e, _VALUES, P).tobytes()
    assert len(_steps(e)) < len(e._program)


def test_evaluated_expression_pickles_without_its_kernel():
    e = Join(Abs(Gen(0)) * 2.0, Gen(1) - Gen(2))
    P = np.random.default_rng(25).standard_normal((3, 3))
    value = eval_pairings(e, P)
    again = pickle.loads(pickle.dumps(e))
    assert again == e and "_kernel" not in again.__dict__
    assert eval_pairings(again, P).tobytes() == value.tobytes()


def test_unbound_generator_message_is_the_folds():
    e = Add(Gen(0), Join(Gen(5), Abs(Gen(7))))
    P = np.zeros((2, 3))
    with pytest.raises(IndexError) as folded:
        _fold(e, _VALUES, P)
    with pytest.raises(IndexError, match=r"^generator d5 is not bound \(3 vectors available\)$") as kernel:
        eval_pairings(e, P)
    assert str(kernel.value) == str(folded.value)
    assert eval_pairings(e, np.ones((2, 8))).shape == (2,)


@pytest.mark.parametrize("index", [-1, 1.0, 2.5, True, "0", None])
def test_generator_index_must_be_a_nonnegative_integer(index):
    """A negative index once read the last bound vector, silently."""
    with pytest.raises(ValueError, match="nonnegative integer"):
        Gen(index)


def test_generator_index_accepts_numpy_integers():
    g = Gen(np.int64(2))
    assert type(g.index) is int and g == Gen(2)


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


@given(
    st.integers(0, 5),
    st.integers(1, 4),
    st.lists(st.floats(-1e30, 1e30), min_size=20, max_size=20),
    st.sampled_from(["2-d", "1-d", "list", "float32", "int", "transposed"]),
)
@example(0, 3, [0.0] * 20, "2-d")
@example(2, 2, [-0.0] * 20, "2-d")
@example(1, 1, [-0.0] * 20, "1-d")
def test_pairings_keeps_its_bytes(rows, dim, entries, kind):
    """A 2-d float64 array goes to the product as it is; every other input
    is converted as before, and the bytes are those of the conversion."""
    b = GeneratorBinding.from_matrix(SpaceSpec(1.5, dim, (0.5, 2.0, 1.0, 0.25)[:dim]), np.eye(dim)[::-1] * 0.75)
    F = np.array(entries[: rows * dim]).reshape(rows, dim)
    f = {
        "2-d": F,
        "1-d": F[0] if rows else np.zeros(dim),
        "list": F.tolist() or [[-0.0] * dim],
        "float32": F.astype(np.float32),
        "int": np.rint(np.clip(F, -1e6, 1e6)).astype(int),
        "transposed": np.asfortranarray(F),
    }[kind]
    before = np.atleast_2d(np.asarray(f, dtype=float)) @ b._weighted_t
    after = b.pairings(f)
    assert after.shape == before.shape and after.tobytes() == before.tobytes()
