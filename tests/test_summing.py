"""Weak-p norms and summing-norm estimators against brute force."""

import itertools
import math

import numpy as np
import pytest

from fblab import (
    LinearMap,
    OptimizerConfig,
    SpaceSpec,
    dual_space,
    functional_norm,
    norm,
    operator_norm,
    pi_1_exact_Linfty_domain,
    pi_p_lower,
    pi_q1_lower,
    sample_sphere,
    weak_p_norm,
    witness_search,
)
from fblab.spaces import _max_signed_sum, norms_rows
from fblab.summing import hadamard, lp_combine


def _brute_weak(Y, space, p, samples=4000, seed=0):
    """Sampled lower bound on the weak-p norm."""
    best = 0.0
    for x in sample_sphere(space, samples, seed=seed):
        best = max(best, lp_combine((Y * space.weight_array) @ x, p))
    return best


def test_hadamard_orthogonality():
    for m in (1, 2, 4, 8):
        H = hadamard(m)
        assert np.array_equal(H @ H.T, m * np.eye(m))
    with pytest.raises(ValueError):
        hadamard(3)


def test_lp_combine_limits():
    v = np.array([3.0, -4.0])
    assert lp_combine(v, 2.0) == pytest.approx(5.0)
    assert lp_combine(v, 1.0) == pytest.approx(7.0)
    assert lp_combine(v, math.inf) == pytest.approx(4.0)


def test_weak_inf_is_max_dual_norm():
    E = SpaceSpec(2.0, 3, (1.0, 2.0, 0.5))
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((5, 3))
    est = weak_p_norm(Y, E, math.inf)
    assert est.exact
    # the pairing carries the weights, so a member's value over the ball
    # is its weighted dual norm
    expected = max(norm(dual_space(E), y) for y in Y)
    assert est.lower == pytest.approx(expected, abs=1e-12)


def test_weak_1_sign_enumeration_vs_brute_force():
    """Sign enumeration must match the max over all 2^N sign patterns of
    the dual-norm of the signed sum."""
    rng = np.random.default_rng(2)
    for r in (2.0, 3.0, math.inf):
        E = SpaceSpec(r, 4, (0.5, 1.0, 1.5, 2.0))
        Y = rng.standard_normal((5, 4))
        est = weak_p_norm(Y, E, 1.0)
        assert est.exact
        brute = max(
            functional_norm(E, np.array(signs) @ (Y * E.weight_array))
            for signs in itertools.product((-1.0, 1.0), repeat=5)
        )
        assert est.lower == pytest.approx(brute, abs=1e-12)


def test_weak_p_crosspolytope_closed_form():
    """Over an ell_1 ball the supremum sits at a scaled atom."""
    rng = np.random.default_rng(3)
    E = SpaceSpec(1.0, 4, (0.5, 1.0, 2.0, 0.25))
    Y = rng.standard_normal((6, 4))
    for p in (1.0, 1.5, 2.0):
        est = weak_p_norm(Y, E, p)
        assert est.exact
        # brute force over the extreme points +/- e_i / w_i
        brute = 0.0
        for i in range(4):
            x = np.zeros(4)
            x[i] = 1.0 / E.weights[i]
            brute = max(brute, lp_combine((Y * E.weight_array) @ x, p))
        assert est.lower == pytest.approx(brute, abs=1e-12)
        assert _brute_weak(Y, E, p, seed=4) <= est.upper + 1e-9


def test_weak_p_cube_enumeration_vs_samples():
    E = SpaceSpec(math.inf, 5)
    rng = np.random.default_rng(5)
    Y = rng.standard_normal((4, 5))
    est = weak_p_norm(Y, E, 2.0)
    assert est.exact
    assert _brute_weak(Y, E, 2.0, seed=6) <= est.lower + 1e-9
    # the 1-exact path and the cube path must agree where both apply
    e1 = weak_p_norm(Y, E, 1.0)
    cube = max(
        float(np.sum(np.abs(Y @ np.array(v))))
        for v in itertools.product((-1.0, 1.0), repeat=5)
    )
    assert e1.lower == pytest.approx(cube, abs=1e-12)


def test_weak_p_heuristic_regime_brackets_truth():
    """Euclidean ball, p = 2, large family: no exact path, but the
    multistart lower and triangle upper must bracket the sampled value."""
    rng = np.random.default_rng(7)
    E = SpaceSpec(2.0, 4)
    Y = rng.standard_normal((30, 4))
    cfg = OptimizerConfig(restarts=16)
    est = weak_p_norm(Y, E, 2.0, cfg)
    assert est.lower <= est.upper + 1e-12
    sampled = _brute_weak(Y, E, 2.0, seed=8)
    assert est.lower >= sampled * 0.9  # multistart should not be far off
    assert est.upper >= sampled - 1e-9
    # for the Euclidean p = 2 case the truth is the spectral norm of the
    # weighted family matrix, an independent oracle
    sigma = float(np.linalg.svd(Y, compute_uv=False)[0])
    assert est.lower == pytest.approx(sigma, rel=1e-6)
    assert est.upper >= sigma - 1e-9


def test_weak_p_monotone_in_p():
    rng = np.random.default_rng(9)
    E = SpaceSpec(math.inf, 4)
    Y = rng.standard_normal((5, 4))
    vals = [weak_p_norm(Y, E, p).lower for p in (1.0, 1.5, 2.0, 4.0, math.inf)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_weak_p_rejects_wrong_width():
    with pytest.raises(ValueError):
        weak_p_norm(np.ones((2, 3)), SpaceSpec(2.0, 4), 1.0)


def test_pi_1_closed_form_matches_witness_search():
    rng = np.random.default_rng(10)
    cfg = OptimizerConfig(restarts=24)
    for k in range(20):
        A = rng.standard_normal((3, 4))
        T = LinearMap.from_array(A, SpaceSpec(math.inf, 4), SpaceSpec(1.0, 3))
        exact = pi_1_exact_Linfty_domain(T)
        assert exact == pytest.approx(float(np.sum(np.abs(A))), abs=1e-12)
        est = pi_p_lower(T, 1.0, cfg)
        assert est.lower <= exact + 1e-9
        assert est.lower >= exact - 1e-6  # the atom family attains it


def test_pi_1_closed_form_rejects_bad_shapes():
    T = LinearMap.from_array(np.eye(2), SpaceSpec(2.0, 2), SpaceSpec(1.0, 2))
    with pytest.raises(ValueError):
        pi_1_exact_Linfty_domain(T)
    T2 = LinearMap.from_array(np.eye(2), SpaceSpec(math.inf, 2), SpaceSpec(2.0, 2))
    with pytest.raises(ValueError):
        pi_1_exact_Linfty_domain(T2)


def test_pi_p_lower_is_lower_bound_and_witness_is_feasible():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 4))
    T = LinearMap.from_array(A, SpaceSpec(math.inf, 4), SpaceSpec(2.0, 4))
    est = pi_p_lower(T, 2.0, OptimizerConfig(restarts=12))
    assert est.lower_certified and not est.upper_certified
    assert math.isinf(est.upper)
    w = est.witness
    assert w is not None
    Y = w.matrix
    feas = weak_p_norm(Y, dual_space(T.domain), 2.0)
    assert feas.upper <= 1.0 + 1e-9
    achieved = lp_combine(norms_rows(T.codomain, Y @ A.T), 2.0)
    assert achieved == pytest.approx(est.lower, rel=1e-9)


def test_pi_q1_identity_sqrt_n():
    """pi_{2,1} of the identity on ell_1-type data realizes the sqrt(n)
    Hadamard value: id: ell_inf^n* = ell_1^n constraint, Hadamard rows."""
    n = 4
    T = LinearMap.from_array(np.eye(n), SpaceSpec(1.0, n), SpaceSpec(1.0, n))
    est = pi_q1_lower(T, 2.0, OptimizerConfig(restarts=12))
    assert est.lower >= 1.0 - 1e-9
    with pytest.raises(ValueError):
        pi_q1_lower(T, 0.5)


def test_witness_search_reports_true_lower_bound():
    """Whatever family the search returns, value <= objective of the
    normalized family; and the reported value matches the witness."""
    E = SpaceSpec(math.inf, 3)

    def obj(Y):
        return float(np.sum(np.abs(Y)))

    cfg = OptimizerConfig(restarts=8)
    val, witness, tight = witness_search(E, 1.0, obj, [np.eye(3)], cfg, salt=5)
    assert witness is not None
    assert tight
    assert obj(witness.matrix) == pytest.approx(val, rel=1e-9)
    assert weak_p_norm(witness.matrix, E, 1.0).upper <= 1.0 + 1e-9


def _sign_families(rng, dim):
    """Families for the exact sign enumerations: one member, a random
    family, and one with a member equal to -3 times another and a zero
    member."""
    Y = rng.standard_normal((7, dim))
    Y[4] = -3.0 * Y[1]
    Y[5] = 0.0
    return [rng.standard_normal((1, dim)), rng.standard_normal((9, dim)), Y]


@pytest.mark.parametrize("dim", [1, 4])
@pytest.mark.parametrize("r", [1.5, 2.0, 3.0, math.inf])
def test_weak_1_member_side_vs_brute_force(r, dim):
    """Member side: the max over all 2^N sign patterns of the members of
    the dual norm of the signed sum, weighted spaces."""
    rng = np.random.default_rng(40 + dim)
    E = SpaceSpec(r, dim, tuple(rng.uniform(0.25, 2.0, dim)))
    for Y in _sign_families(rng, dim):
        brute = max(
            functional_norm(E, np.array(s) @ (Y * E.weight_array))
            for s in itertools.product((-1.0, 1.0), repeat=len(Y))
        )
        assert _max_signed_sum(Y, dual_space(E)) == pytest.approx(brute, rel=1e-13)
        est = weak_p_norm(Y, E, 1.0)
        assert est.exact and est.method == ("sign enumeration",)
        assert est.lower == pytest.approx(brute, rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_weak_p_cube_side_vs_brute_force(p, dim):
    """Cube side: the max over all 2^dim vertices of a weighted sup-norm
    ball of the ell_p combination of the pairings."""
    rng = np.random.default_rng(50 + dim)
    E = SpaceSpec(math.inf, dim, tuple(rng.uniform(0.25, 2.0, dim)))
    for Y in _sign_families(rng, dim):
        W = Y * E.weight_array
        brute = max(
            lp_combine(W @ np.array(v), p)
            for v in itertools.product((-1.0, 1.0), repeat=dim)
        )
        assert _max_signed_sum(W.T, SpaceSpec(p, len(Y))) == pytest.approx(brute, rel=1e-13)
        assert weak_p_norm(Y, E, p).lower == pytest.approx(brute, rel=1e-13)


def test_weak_1_both_sides_agree_over_small_cube():
    """p = 1 over ell_inf^4 with 20 members: both sides are exact, the
    dispatch takes the cheaper cube side, and all three agree."""
    rng = np.random.default_rng(60)
    E = SpaceSpec(math.inf, 4, (0.5, 1.0, 1.5, 2.0))
    Y = rng.standard_normal((20, 4))
    Y[7] = -3.0 * Y[2]
    Y[11] = 0.0
    members = _max_signed_sum(Y, dual_space(E))
    cube = _max_signed_sum((Y * E.weight_array).T, SpaceSpec(1.0, 20))
    assert cube == pytest.approx(members, rel=1e-12)
    est = weak_p_norm(Y, E, 1.0)
    assert est.exact and est.method == ("sign enumeration",)
    assert est.lower == pytest.approx(members, rel=1e-12)


@pytest.mark.parametrize(
    "codomain",
    [SpaceSpec(1.0, 3, (0.5, 1.0, 2.0)), SpaceSpec(2.0, 3, (0.5, 1.0, 2.0)), SpaceSpec(math.inf, 3)],
)
def test_operator_norm_sup_domain_vs_brute_force(codomain):
    rng = np.random.default_rng(70)
    for n in (1, 2, 7):
        A = rng.standard_normal((3, n))
        if n > 2:
            A[:, 2] = -3.0 * A[:, 0]
            A[:, 1] = 0.0
        est = operator_norm(LinearMap.from_array(A, SpaceSpec(math.inf, n), codomain))
        brute = max(
            norm(codomain, A @ np.array(v))
            for v in itertools.product((-1.0, 1.0), repeat=n)
        )
        assert est.exact
        assert est.lower == pytest.approx(brute, rel=1e-13)
