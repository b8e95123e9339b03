"""Free-lattice norms: exact moduli identities, sup-norm case,
sublattice generators, concavification duality."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fblab.fbl as fbl_module
from fblab import (
    Abs,
    Add,
    Gen,
    GeneratorBinding,
    Join,
    Meet,
    Neg,
    OptimizerConfig,
    PosPart,
    PowerSum,
    SpaceSpec,
    disjointness_check,
    dual_space,
    eval_expr,
    fbl_infty_norm,
    fbl_norm,
    moduli_norm,
    norm,
    pconcavification_witness,
    sample_sphere,
    sublattice_generators,
)
from fblab.experiments import _moduli_sum, summing_basis_matrix
from fblab.exprs import _convex_shape, eval_rows
from fblab.fbl import _dual_multistart
from fblab.spaces import norms_rows

CFG = OptimizerConfig(restarts=12)


def _L1(n):
    return SpaceSpec(1.0, n, (1.0 / n,) * n)


def test_moduli_norm_exact_over_L1():
    """Over an L_1(mu)-type space the 1-convex norm of a moduli sum is
    exactly sum a_k ||x_k||."""
    rng = np.random.default_rng(0)
    E = _L1(8)
    X = rng.standard_normal((3, 8))
    a = np.array([1.0, 0.5, 2.0])
    est = moduli_norm(E, X, a, 1.0, CFG)
    assert est.exact
    expected = sum(ai * norm(E, xi) for ai, xi in zip(a, X))
    assert est.lower == pytest.approx(expected, abs=1e-12)


def test_moduli_norm_validation():
    E = _L1(4)
    with pytest.raises(ValueError):
        moduli_norm(E, np.eye(4), [-1.0, 1, 1, 1], 1.0, CFG)
    with pytest.raises(ValueError):
        moduli_norm(E, np.eye(4), [1.0, 1.0], 1.0, CFG)


def test_moduli_norm_single_vector_any_p():
    """One vector: the norm of a|delta_x| is exactly a||x||."""
    rng = np.random.default_rng(1)
    for r, p in ((2.0, 2.0), (2.0, 1.0), (1.0, 2.0)):
        E = SpaceSpec(r, 5)
        x = rng.standard_normal(5)
        est = moduli_norm(E, x[None, :], [1.5], p, CFG)
        expected = 1.5 * norm(E, x)
        assert est.upper == pytest.approx(expected, rel=1e-12)
        assert est.lower == pytest.approx(expected, rel=1e-6)


def test_fbl_norm_moduli_recognition_L1():
    """fbl_norm spots a positive moduli combination over L_1(mu) and
    returns the closed form without search."""
    rng = np.random.default_rng(2)
    E = _L1(6)
    b = GeneratorBinding.from_matrix(E, rng.standard_normal((2, 6)))
    e = Abs(Gen(0)) * 2.0 + Abs(Gen(1))
    est = fbl_norm(e, b, 1.0, CFG)
    assert est.exact
    expected = 2.0 * norm(E, b.matrix[0]) + norm(E, b.matrix[1])
    assert est.lower == pytest.approx(expected, abs=1e-12)


def test_fbl_norm_single_generator_is_vector_norm():
    rng = np.random.default_rng(3)
    for r, p in ((2.0, 2.0), (math.inf, 1.0), (1.0, 1.0)):
        E = SpaceSpec(r, 4)
        x = rng.standard_normal(4)
        b = GeneratorBinding.from_matrix(E, x[None, :])
        est = fbl_norm(Abs(Gen(0)), b, p, CFG)
        assert est.lower == pytest.approx(norm(E, x), rel=1e-6)
        assert est.upper >= est.lower - 1e-12


def test_fbl_norm_rejects_bad_p():
    b = GeneratorBinding.from_matrix(SpaceSpec(2.0, 2), np.eye(2))
    with pytest.raises(ValueError):
        fbl_norm(Abs(Gen(0)), b, 0.5, CFG)


def test_fbl_infty_norm_small_dim_certified():
    """|delta_x| is convex: its sup over the dual sphere, ||x||, comes
    with a certified upper bound."""
    rng = np.random.default_rng(4)
    for r in (1.0, 2.0, math.inf):
        E = SpaceSpec(r, 3)
        x = rng.standard_normal(3)
        b = GeneratorBinding.from_matrix(E, x[None, :])
        est = fbl_infty_norm(Abs(Gen(0)), b, CFG)
        assert est.upper_certified
        assert est.lower == pytest.approx(norm(E, x), rel=1e-6)
        assert est.upper >= est.lower - 1e-12
        assert est.upper <= norm(E, x) * 1.25


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_fbl_infty_norm_of_tiny_and_huge_moduli(scale):
    """|d0| + |d1| over ell_1.5^3 has sup ||e_0 + e_1||_1.5 = 2^(2/3) at any
    scale: the signed-sum enumeration once read 0.0 under a witness of
    1.59e-300 and raised, and inf with an overflow warning at 1e300."""
    b = GeneratorBinding.from_matrix(SpaceSpec(1.5, 3), np.eye(3))
    est = fbl_infty_norm(Abs(Gen(0)) * scale + Abs(Gen(1)) * scale, b, CFG)
    assert est.method == ("convex expression", "signed-sum enumeration")
    assert est.lower_certified and est.upper_certified
    assert est.lower == pytest.approx(2.0 ** (2 / 3) * scale, rel=1e-15)
    assert est.upper == pytest.approx(est.lower, rel=1e-15)


def test_fbl_infty_norm_join_of_atoms():
    E = SpaceSpec(math.inf, 2)
    b = GeneratorBinding.from_matrix(E, np.eye(2))
    from fblab import Join

    est = fbl_infty_norm(Join(Gen(0), Gen(1)), b, CFG)
    assert est.lower == pytest.approx(1.0, abs=1e-9)
    assert est.upper_certified


def test_fbl_infty_norm_grid_upper_off_the_convex_paths():
    """|d0| - |d1| is not convex; for dual dimension <= 3 the Lipschitz
    grid certifies an upper bound on its sup, 1."""
    for r, dim in ((1.0, 2), (2.0, 3), (math.inf, 3)):
        b = GeneratorBinding.from_matrix(SpaceSpec(r, dim), np.eye(dim))
        est = fbl_infty_norm(Abs(Gen(0)) - Abs(Gen(1)), b, CFG)
        assert est.method == ("dual-sphere multistart", "Lipschitz grid upper")
        assert est.upper_certified
        assert est.lower == pytest.approx(1.0, rel=1e-9)
        assert 1.0 <= est.upper <= 1.25


def test_fbl_infty_norm_large_dim_uncertified_upper():
    """Off the convex paths and above dual dimension 3 no upper bound is
    certified."""
    E = SpaceSpec(2.0, 5)
    b = GeneratorBinding.from_matrix(E, np.eye(5))
    est = fbl_infty_norm(Abs(Gen(0)) - Abs(Gen(3)), b, CFG)
    assert not est.upper_certified
    assert est.lower_certified


def test_fbl_infty_norm_convex_large_dim_exact():
    """|d0| + |d3| over ell_2^5 is convex: its sup is the largest signed
    sum, ||e_0 +- e_3||_2 = sqrt 2, at any dual dimension."""
    E = SpaceSpec(2.0, 5)
    b = GeneratorBinding.from_matrix(E, np.eye(5))
    est = fbl_infty_norm(Abs(Gen(0)) + Abs(Gen(3)), b, CFG)
    assert est.method == ("convex expression", "signed-sum enumeration")
    assert est.lower_certified and est.upper_certified
    assert est.lower == est.upper == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_fbl_infty_norm_convex_sum_is_not_polished(monkeypatch):
    """The sum of the moduli of the summing basis of ell_inf^20 is convex:
    its norm 20 is the largest value at the 40 vertices of the dual ball,
    with no Nelder-Mead run (the binding fbl calls refuses to run)."""

    def refuse(*args, **kwargs):
        raise AssertionError("the convex path runs no Nelder-Mead")

    monkeypatch.setattr(fbl_module, "nelder_mead_rows", refuse)
    m = 20
    b = GeneratorBinding.from_matrix(SpaceSpec(math.inf, m), summing_basis_matrix(m))
    est = fbl_infty_norm(_moduli_sum(m), b, CFG)
    assert est.lower == est.upper == 20.0
    assert est.upper_certified and est.lower_certified
    assert est.method == ("convex expression", "dual-ball vertex enumeration")


def test_fbl_infty_norm_linear_form_with_cancellation():
    """d0 - d1 with x_1 close to x_0 is linear, sup ||x_0 - x_1||: the
    rounding of the cancelling pairings raises no error."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(3)
    for r in (1.0, 2.0, 3.0, math.inf):
        for gap in (1e-9, 1e-14, 0.0):
            X = np.array([x, x + gap * rng.standard_normal(3)])
            b = GeneratorBinding.from_matrix(SpaceSpec(r, 3), X)
            est = fbl_infty_norm(Gen(0) - Gen(1), b, CFG)
            assert est.upper_certified and est.method[0] == "convex expression"
            assert est.lower <= est.upper
            assert est.upper == pytest.approx(norm(b.space, X[0] - X[1]), rel=1e-3, abs=1e-15)


def _random_convex(draw, count: int, rng) -> tuple:
    """A random convex expression over count generators, and whether it is a
    moduli combination or a linear form, enumerated over every space."""
    kind = draw(st.sampled_from(["moduli", "linear", "mixed"]))
    if kind == "moduli":
        idx = draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=count, unique=True))
        e = functools.reduce(Add, [Abs(Gen(i)) * float(rng.uniform(0.1, 2.0)) for i in idx])
        return e, True

    def linear():
        return functools.reduce(Add, [Gen(i) * float(rng.normal()) for i in range(count)])

    if kind == "linear":
        return linear(), True
    terms = []
    for part in draw(st.lists(st.sampled_from(["abs", "join", "pos", "lin", "powersum"]), min_size=1, max_size=4)):
        c = float(rng.uniform(0.1, 2.0))
        i, j = rng.integers(count, size=2)
        terms.append(
            {
                "abs": lambda: Abs(linear()) * c,
                "join": lambda: Join(Gen(int(i)), Gen(int(j))) * c,
                "pos": lambda: PosPart(linear()) * c,
                "lin": linear,
                "powersum": lambda: PowerSum(float(rng.choice([1.0, 2.0, 3.5])), (linear(), linear())) * c,
            }[part]()
        )
    return functools.reduce(Add, terms), False


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fbl_infty_norm_convex_brute_force(data):
    """On random convex expressions over weighted ell_r: the lower bound
    replays at its witness, the exact value is at least what the
    multistart finds, and no sampled point of the dual sphere exceeds the
    certified upper bound."""
    count = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    e, anywhere = _random_convex(data.draw, count, rng)
    # other convex expressions are enumerated only over polytopal dual balls
    r = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf] if anywhere else [1.0, math.inf]))
    dim = data.draw(st.integers(1, 4))
    E = SpaceSpec(r, dim, tuple(rng.uniform(0.25, 2.0, dim)))
    b = GeneratorBinding.from_matrix(E, rng.standard_normal((count, dim)))
    assert _convex_shape(e, b) is not None
    est = fbl_infty_norm(e, b, CFG)
    assert est.method[0] == "convex expression"
    assert est.lower_certified and est.upper_certified

    Ed = dual_space(E)
    y = est.witness.matrix
    assert norm(Ed, y[0]) == pytest.approx(1.0, rel=1e-12)
    assert abs(eval_rows(e, b, y)[0]) / norm(Ed, y[0]) == pytest.approx(est.lower, rel=1e-12)
    searched = _dual_multistart(e, b, OptimizerConfig(restarts=4))
    assert est.lower >= searched.lower - 1e-12 * searched.lower
    G = np.random.default_rng(11).standard_normal((10_000, dim))
    G /= norms_rows(Ed, G)[:, None]
    assert np.max(np.abs(eval_rows(e, b, G))) <= est.upper * (1.0 + 1e-12)


@given(
    st.lists(st.floats(0.0, 1e100), max_size=8),
    st.lists(st.sampled_from([0.0, 1e-15, 1e-14, 2e-14, 0.5, 1.0, 3.0, 1e100]), max_size=8),
)
@example([], [])
@example([0.0, 0.0], [0.0, 1.0])
def test_negated_ratio_keeps_its_bytes(values, norms):
    """The multistart's objective divides by the negated norm into fresh
    zeros where it once negated the ratio: the same bytes wherever the norm
    is above 1e-14, and a zero (of either sign) below, which the
    Nelder-Mead only compares."""
    k = min(len(values), len(norms))
    a, n = np.array(values[:k]), np.array(norms[:k])
    ratio = np.divide(a, n, out=np.zeros_like(n), where=n > 1e-14)
    before, after = -ratio, np.divide(a, -n, out=np.zeros(len(n)), where=n > 1e-14)
    big = n > 1e-14
    assert after[big].tobytes() == before[big].tobytes()
    assert np.all(after[~big] == 0.0) and np.all(before[~big] == 0.0)
    assert (-after)[big].tobytes() == ratio[big].tobytes()


def test_convex_shape_rejects_what_is_not_convex():
    """A meet, a negated modulus and the modulus of a join are not convex
    by their form; a linear form's shape is its vector."""
    b = GeneratorBinding.from_matrix(SpaceSpec(2.0, 3), np.arange(9.0).reshape(3, 3))
    for e in (Meet(Abs(Gen(0)), Abs(Gen(1))), Neg(Abs(Gen(0))), Abs(Join(Gen(0), Gen(1)))):
        assert _convex_shape(e, b) is None
    assert _convex_shape(Abs(Gen(0)) + Join(Gen(1), PosPart(Gen(2))), b) is True
    g = _convex_shape(Gen(0) * 2.0 - Gen(2), b)
    assert np.array_equal(g, 2.0 * b.matrix[0] - b.matrix[2])


def test_sublattice_generators_structure():
    E = SpaceSpec(2.0, 3)
    exprs, binding, errors = sublattice_generators(E, 3, 10)
    assert len(exprs) == len(errors) == 3
    assert binding.space.dim == 10
    assert errors[0] == pytest.approx(2.0**2 / 2.0**10)
    assert errors[2] == pytest.approx(2.0**6 / 2.0**10)
    with pytest.raises(ValueError):
        sublattice_generators(E, 5, 3)


def test_sublattice_generators_positive_and_disjoint():
    E = SpaceSpec(2.0, 2)
    exprs, binding, _ = sublattice_generators(E, 3, 9)
    for f in exprs:
        for y in sample_sphere(dual_space(binding.space), 100, seed=5):
            assert eval_expr(f, binding, y) >= 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            rep = disjointness_check(exprs[i], exprs[j], binding, 2000, seed=6)
            assert rep.max_violation <= 1e-9


def test_sublattice_combination_recovers_coefficient_norm():
    E = SpaceSpec(1.0, 2, (0.5, 0.5))
    exprs, binding, _ = sublattice_generators(E, 2, 9)
    alpha = (0.7, -1.3)
    combo = exprs[0] * alpha[0] + exprs[1] * alpha[1]
    est = fbl_norm(combo, binding, 1.0, OptimizerConfig(restarts=8))
    expected = norm(E, np.array(alpha))
    assert est.lower >= expected - 1e-9
    assert est.lower <= est.upper + 1e-12


def test_pconcavification_euclidean_oracle():
    """E = ell_2^n, p = 1: the duality value is exactly ||alpha||_2 and
    the optimal coefficients are alpha normalized."""
    rng = np.random.default_rng(7)
    E = SpaceSpec(2.0, 5)
    alpha = np.abs(rng.standard_normal(5)) + 0.1
    beta, val = pconcavification_witness(E, alpha, 1.0, CFG)
    target = float(np.linalg.norm(alpha))
    assert val == pytest.approx(target, rel=1e-9)
    assert np.max(np.abs(beta - alpha / target)) <= 1e-6


def test_pconcavification_is_lower_bound():
    rng = np.random.default_rng(8)
    for r in (1.5, 2.0, 4.0, math.inf):
        E = SpaceSpec(r, 4, (0.5, 1.0, 1.5, 2.0))
        alpha = np.abs(rng.standard_normal(4))
        _, val = pconcavification_witness(E, alpha, 1.0, CFG)
        assert val == pytest.approx(norm(E, alpha), rel=1e-12)  # the closed form is optimal


def test_pconcavification_validation():
    with pytest.raises(ValueError):
        pconcavification_witness(SpaceSpec(2.0, 2), [-1.0, 1.0], 1.0, CFG)
    with pytest.raises(ValueError):
        pconcavification_witness(SpaceSpec(1.0, 2), [1.0, 1.0], 2.0, CFG)
    with pytest.raises(ValueError, match="shape"):
        pconcavification_witness(SpaceSpec(2.0, 3), [1.0, 1.0], 1.0, CFG)
