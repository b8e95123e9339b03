"""Acceptance gate: the quantitative targets the whole package is built
around, each with explicit tolerances.

Two sub-cases are known to be unattainable as stated and fail honestly:

* the alternating summing-basis ratio at n = 64 cannot reach 0.4 with
  witness families capped at 20 members (the best reachable value under
  the cap is 2.0, ratio 0.25);
* the Hilbert bibasis ratio R(16)/R(4) computed with the join-norm
  numerator is 1.2998 < 1.4 (both factors are exact enumerations).

Everything else passes.
"""

import math

import numpy as np
import pytest

from fblab import (
    Abs,
    Gen,
    GeneratorBinding,
    Join,
    LinearMap,
    Neg,
    OptimizerConfig,
    PowerSum,
    SpaceSpec,
    SubspaceSpec,
    adjoint,
    disjointness_check,
    eval_expr,
    extension_constant,
    fbl_infty_norm,
    fbl_norm,
    hom_image,
    moduli_norm,
    norm,
    operator_norm,
    pi_1_exact_Linfty_domain,
    pi_p_lower,
    pushforward,
    sample_sphere,
    sublattice_generators,
)
from fblab.experiments import (
    dyadic_L1,
    haar_system,
    hilbert_matrix,
    rademacher_matrix,
    summing_basis_matrix,
)
from fblab.spaces import dual_space

K_G = 1.79


def _moduli_sum(count, signs=None):
    e = Abs(Gen(0))
    for k in range(1, count):
        t = Abs(Gen(k))
        if signs is not None and signs[k] < 0:
            t = Neg(t)
        e = e + t
    return e


def _join_all(count):
    e = Gen(0)
    for k in range(1, count):
        e = Join(e, Gen(k))
    return e


# ---------------------------------------------------------------------------
# 1. Haar exactness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_01_haar_exactness(n):
    rng = np.random.default_rng(100 + n)
    N = 1 << n
    L1 = dyadic_L1(N)
    H = haar_system(n)
    cfg = OptimizerConfig(restarts=4)
    for _ in range(20):
        a = rng.standard_normal(N)
        est = moduli_norm(L1, H, np.abs(a), 1.0, cfg)
        assert abs(est.lower - float(np.sum(np.abs(a)))) <= 1e-9
        assert est.exact


# ---------------------------------------------------------------------------
# 2. the 2 / sqrt(2) pair over the Euclidean plane
# ---------------------------------------------------------------------------


def test_criterion_02_unconditionality_pair():
    E = SpaceSpec(2.0, 2)
    b = GeneratorBinding.from_matrix(E, np.eye(2))
    cfg = OptimizerConfig(restarts=24)
    plus = fbl_norm(Abs(Gen(0)) + Abs(Gen(1)), b, 1.0, cfg)
    assert 1.998 <= plus.lower <= 2.0 + 1e-9
    assert plus.upper == pytest.approx(2.0, abs=1e-9)
    minus = fbl_norm(Abs(Gen(0)) + Neg(Abs(Gen(1))), b, 1.0, cfg)
    assert 1.407 <= minus.lower <= 1.41422


# ---------------------------------------------------------------------------
# 3. summing basis: sup-norm side and 1-convex alternating ratios
# ---------------------------------------------------------------------------


def test_criterion_03_summing_basis_sup_case():
    m = 20
    E = SpaceSpec(math.inf, m)
    b = GeneratorBinding.from_matrix(E, summing_basis_matrix(m))
    cfg = OptimizerConfig(restarts=12)
    total = fbl_infty_norm(_moduli_sum(m), b, cfg)
    assert m - 1e-6 <= total.lower <= m + 1e-9
    alt = fbl_infty_norm(_moduli_sum(m, [(-1) ** k for k in range(m)]), b, cfg)
    assert 1.0 - 1e-3 <= alt.lower <= 1.0 + 1e-3


@pytest.mark.parametrize("n", [4, 16, 64])
def test_criterion_03_summing_basis_alternating_ratio(n):
    # n = 64 fails: with witness families capped at 20 members the best
    # attainable value is 2.0, ratio 0.25 < 0.4
    E = SpaceSpec(math.inf, n)
    b = GeneratorBinding.from_matrix(E, summing_basis_matrix(n))
    cfg = OptimizerConfig(restarts=12)
    est = fbl_norm(_moduli_sum(n, [(-1) ** k for k in range(n)]), b, 1.0, cfg)
    ratio = est.lower / math.sqrt(n)
    assert 0.4 - 1e-9 <= ratio <= K_G + 1e-9


# ---------------------------------------------------------------------------
# 4. Rademacher contrast: joins collapse over L_1 but not over ell_2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [3, 4, 5])
def test_criterion_04_rademacher_contrast(m):
    cfg = OptimizerConfig(restarts=12)
    L1 = dyadic_L1(1 << m)
    b = GeneratorBinding.from_matrix(L1, rademacher_matrix(m))
    est = fbl_norm(_join_all(m), b, 1.0, cfg)
    assert 0.999 <= est.lower <= 1.0 + 1e-9
    assert est.lower_certified

    E = SpaceSpec(2.0, m)
    b2 = GeneratorBinding.from_matrix(E, np.eye(m))
    est2 = fbl_norm(_join_all(m), b2, 1.0, cfg)
    assert est2.lower >= math.sqrt(m) - 1e-6
    assert est2.lower_certified


# ---------------------------------------------------------------------------
# 5. Hilbert bibasis growth
# ---------------------------------------------------------------------------


def _bibasis_ratio(m):
    H = hilbert_matrix(m)
    partials = np.cumsum(H, axis=1)  # column n of row i is <e_i, sum_{k<=n} H e_k>
    join = np.max(np.abs(partials), axis=1)
    numerator = float(np.sum(join))
    T = LinearMap.from_array(H, SpaceSpec(math.inf, m), SpaceSpec(1.0, m))
    denom = operator_norm(T)
    assert denom.exact
    return numerator / denom.lower, join, H


def test_criterion_05_hilbert_bibasis_growth():
    values = {}
    for m in (4, 8, 16):
        ratio, join, H = _bibasis_ratio(m)
        values[m] = ratio
        # componentwise: the join of |partial sums| dominates H^+ 1 exactly
        positive_row_sums = np.sum(np.maximum(H, 0.0), axis=1)
        assert np.all(join >= positive_row_sums - 1e-12)
    assert values[4] < values[8] < values[16]


def test_criterion_05_hilbert_bibasis_ratio():
    # fails: R(16)/R(4) = 1.2998 with the join-norm numerator; both
    # factors are exact, so the target 1.4 is not attainable as defined
    r4, _, _ = _bibasis_ratio(4)
    r16, _, _ = _bibasis_ratio(16)
    assert r16 / r4 >= 1.4


# ---------------------------------------------------------------------------
# 6. sublattice isometry
# ---------------------------------------------------------------------------


def test_criterion_06_sublattice_isometry():
    E = SpaceSpec(2.0, 4)
    exprs, binding, _ = sublattice_generators(E, 4, 12)
    cfg = OptimizerConfig(restarts=12)
    rng = np.random.default_rng(600)
    for _ in range(20):
        alpha = np.abs(rng.standard_normal(4))
        combo = exprs[0] * alpha[0]
        for k in range(1, 4):
            combo = combo + exprs[k] * alpha[k]
        est = fbl_norm(combo, binding, 1.0, cfg)
        target = norm(E, alpha)
        assert abs(est.lower - target) <= 0.02 * target

    for i in range(4):
        for j in range(i + 1, 4):
            rep = disjointness_check(exprs[i], exprs[j], binding, 10_000, seed=601)
            assert rep.max_violation <= 1e-9


# ---------------------------------------------------------------------------
# 7. 1-summing oracle agreement
# ---------------------------------------------------------------------------


def test_criterion_07_pi1_oracle_agreement():
    rng = np.random.default_rng(700)
    cfg = OptimizerConfig(restarts=12)
    for _ in range(20):
        A = rng.standard_normal((3, 4))
        T = LinearMap.from_array(A, SpaceSpec(math.inf, 4), SpaceSpec(1.0, 3))
        exact = pi_1_exact_Linfty_domain(T)
        est = pi_p_lower(T, 1.0, cfg)
        assert abs(est.lower - exact) <= 0.01 * exact


# ---------------------------------------------------------------------------
# 8. extension constants: p = infinity exact, coordinate complements
# ---------------------------------------------------------------------------


def test_criterion_08_poe_infty_exact():
    rng = np.random.default_rng(800)
    cfg = OptimizerConfig(restarts=4)
    spaces = [SpaceSpec(1.0, 4), SpaceSpec(2.0, 4), SpaceSpec(math.inf, 4)]
    for t in range(100):
        E = spaces[t % 3]
        B = rng.standard_normal((2, 4))
        C = rng.standard_normal((2, 4))
        sub = SubspaceSpec.from_arrays(E, B, C)
        T = LinearMap.from_array(
            rng.standard_normal((3, 2)),
            SpaceSpec(math.inf, 2),
            SpaceSpec(math.inf, 3),
        )
        est = extension_constant(sub, T, math.inf, cfg)
        assert abs(est.lower - 1.0) <= 1e-9
        assert abs(est.upper - 1.0) <= 1e-9


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("r", [1.0, math.inf])
def test_criterion_08_coordinate_complement(p, r):
    rng = np.random.default_rng(801)
    cfg = OptimizerConfig(restarts=8)
    E = SpaceSpec(r, 4)
    eye = np.eye(4)
    sub = SubspaceSpec.from_arrays(E, eye[:2], eye[2:])
    for _ in range(5):
        M = rng.standard_normal((2, 2))
        T = LinearMap.from_array(M, SpaceSpec(p, 2), SpaceSpec(p, 2))
        est = extension_constant(sub, T, p, cfg)
        assert est.upper <= 1.0 + 1e-3


# ---------------------------------------------------------------------------
# 9. c0-type moduli scale
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 16])
def test_criterion_09_c0_moduli_scale(n):
    E = SpaceSpec(math.inf, 2 * n)
    X = np.eye(2 * n)[:n]
    b = GeneratorBinding.from_matrix(E, X)
    cfg = OptimizerConfig(restarts=12)
    est = fbl_norm(_moduli_sum(n), b, 1.0, cfg)
    assert est.lower_certified
    ratio = est.lower / math.sqrt(n)
    assert 0.5 - 1e-9 <= ratio <= 1.8


# ---------------------------------------------------------------------------
# 10. property-based inequality suite (200 instances per law)
# ---------------------------------------------------------------------------


def test_criterion_10_upper_root_inequality():
    rng = np.random.default_rng(1000)
    cfg = OptimizerConfig(restarts=2)
    for t in range(200):
        r = [1.0, 2.0, math.inf][t % 3]
        n = int(rng.integers(2, 5))
        E = SpaceSpec(r, n)
        scales = rng.random(n) + 0.1
        X = np.diag(scales)  # a 1-unconditional binding
        b = GeneratorBinding.from_matrix(E, X)
        a = rng.random(n)
        e = Abs(Gen(0)) * float(a[0])
        for k in range(1, n):
            e = e + Abs(Gen(k)) * float(a[k])
        est = fbl_norm(e, b, 1.0, cfg)
        bound = (
            K_G
            * math.sqrt(float(np.sum(a)))
            * norm(E, np.sqrt(a) @ X)
        )
        assert est.lower <= bound + 1e-9


def test_criterion_10_fbl_infty_below_fbl1_on_L1_moduli():
    rng = np.random.default_rng(1001)
    cfg = OptimizerConfig(restarts=4)
    for _ in range(200):
        L1 = dyadic_L1(4)
        X = rng.standard_normal((2, 4))
        a = rng.random(2)
        exact_1 = float(sum(ai * norm(L1, xi) for ai, xi in zip(a, X)))
        b = GeneratorBinding.from_matrix(L1, X)
        e = Abs(Gen(0)) * float(a[0]) + Abs(Gen(1)) * float(a[1])
        est_inf = fbl_infty_norm(e, b, cfg)
        assert est_inf.lower <= exact_1 + 1e-9


def test_criterion_10_hom_extension_contractivity():
    rng = np.random.default_rng(1002)
    cfg = OptimizerConfig(restarts=1)
    for t in range(200):
        p = [1.0, 2.0][t % 2]
        E = SpaceSpec(math.inf, 3)
        b = GeneratorBinding.from_matrix(E, rng.standard_normal((2, 3)))
        e = Join(Abs(Gen(0)), Abs(Gen(1))) + Gen(0)
        A = rng.standard_normal((3, 3))
        cod = SpaceSpec(p, 3)
        raw = LinearMap.from_array(A, E, cod)
        nm = operator_norm(raw, cfg)
        T = LinearMap.from_array(A / nm.upper, E, cod)  # a contraction
        img = hom_image(e, b, T)
        img_norm = norm(cod, img)
        est = fbl_norm(e, b, p, cfg)
        assert img_norm <= est.upper + 1e-9


def test_criterion_10_lattice_homomorphism_identities():
    rng = np.random.default_rng(1003)
    for _ in range(200):
        E = SpaceSpec(2.0, 3)
        b = GeneratorBinding.from_matrix(E, rng.standard_normal((2, 3)))
        T = LinearMap.from_array(rng.standard_normal((3, 3)), E, SpaceSpec(1.0, 3))
        x = Gen(0) + Gen(1) * float(rng.standard_normal())
        y = Gen(1) - Gen(0)
        assert np.max(np.abs(
            hom_image(Join(x, y), b, T)
            - np.maximum(hom_image(x, b, T), hom_image(y, b, T))
        )) <= 1e-12
        assert np.max(np.abs(
            hom_image(Abs(x), b, T) - np.abs(hom_image(x, b, T))
        )) <= 1e-12


def test_criterion_10_pushforward_composition():
    rng = np.random.default_rng(1004)
    E = SpaceSpec(2.0, 3)
    F = SpaceSpec(2.0, 3)
    G = SpaceSpec(2.0, 2)
    for _ in range(200):
        b = GeneratorBinding.from_matrix(E, rng.standard_normal((2, 3)))
        T = LinearMap.from_array(rng.standard_normal((3, 3)), E, F)
        S = LinearMap.from_array(rng.standard_normal((2, 3)), F, G)
        e = Join(Gen(0), Abs(Gen(1)))
        _, b_seq = pushforward(*pushforward(e, b, T), S)
        _, b_comp = pushforward(e, b, LinearMap.from_array(S.matrix @ T.matrix, E, G))
        assert np.max(np.abs(b_seq.matrix - b_comp.matrix)) <= 1e-12
        # adjoint contract on one random functional
        y = rng.standard_normal(3)
        e2, b2 = pushforward(e, b, T)
        assert abs(
            eval_expr(e2, b2, y) - eval_expr(e, b, adjoint(T).apply(y))
        ) <= 1e-12 * max(1.0, abs(eval_expr(e2, b2, y)))


# ---------------------------------------------------------------------------
# 11. convexity ceiling witness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 9])
def test_criterion_11_convexity_ceiling(n):
    E = SpaceSpec(2.0, n)
    b = GeneratorBinding.from_matrix(E, np.eye(n))
    e = PowerSum(4.0, tuple(Gen(k) for k in range(n)))
    cfg = OptimizerConfig(restarts=12)
    est = fbl_norm(e, b, 1.0, cfg)
    assert est.lower_certified
    assert est.lower >= 0.2 * math.sqrt(n)
