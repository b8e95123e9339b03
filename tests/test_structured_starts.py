"""Estimators that start from structure: no seed, Euclidean truths, and
the linear maximizer over a generic section B_F.

The p = infinity norm off its convex paths, the operator-norm ascent
(and so the heuristic weak-p regime) and the ascent over B_F draw no
random numbers, so ``OptimizerConfig.seed`` and ``restarts`` change no
byte of their results.
"""

import json
import math

import numpy as np
import pytest

from fblab import (
    Abs,
    Gen,
    GeneratorBinding,
    LinearMap,
    Meet,
    OptimizerConfig,
    SpaceSpec,
    SubspaceSpec,
    fbl_infty_norm,
    operator_norm,
    weak_p_norm,
)
from fblab.operators import _ascent_lower, _max_linear_over_BF
from fblab.spaces import norming_functional, norms_rows

CONFIGS = (OptimizerConfig(seed=0, restarts=1), OptimizerConfig(seed=404, restarts=64))


def _generic_sub(r: float, n: int, k: int, seed: int) -> SubspaceSpec:
    """A subspace of weighted ell_r^n spanned by k Gaussian vectors: not
    axis-aligned, and for r not in {1, inf} without a vertex set."""
    rng = np.random.default_rng(seed)
    E = SpaceSpec(r, n, tuple(rng.uniform(0.5, 2.0, n)))
    Q = rng.standard_normal((n, n))
    return SubspaceSpec.from_arrays(E, Q[:k], Q[k:])


def _same_bytes(run) -> bool:
    return len({run(cfg) for cfg in CONFIGS}) == 1


@pytest.mark.parametrize("r, dim", [(3.0, 2), (1.5, 5)])
def test_p_inf_norm_off_the_convex_paths_reads_no_seed(r, dim):
    rng = np.random.default_rng(dim)
    b = GeneratorBinding.from_matrix(SpaceSpec(r, dim), rng.standard_normal((3, dim)))
    e = Abs(Gen(0)) - Abs(Gen(1)) + Meet(Gen(1), Gen(2))
    # the multistart up to dual dimension 3, the DC certificate above
    path = "dual-sphere multistart" if dim <= 3 else "DC split"
    assert fbl_infty_norm(e, b, CONFIGS[0]).method[0] == path
    assert _same_bytes(lambda cfg: json.dumps(fbl_infty_norm(e, b, cfg).to_json()))


def test_operator_norm_ascent_reads_no_seed():
    A = np.random.default_rng(3).standard_normal((3, 4))
    T = LinearMap.from_array(A, SpaceSpec(3.0, 4), SpaceSpec(1.5, 3))
    assert operator_norm(T, CONFIGS[0]).method[0] == "multistart ascent"
    assert _same_bytes(lambda cfg: json.dumps(operator_norm(T, cfg).to_json()))


def test_weak_p_heuristic_regime_reads_no_seed():
    Y = np.random.default_rng(7).standard_normal((30, 4))
    E = SpaceSpec(3.0, 4, (0.5, 1.0, 1.5, 2.0))
    assert weak_p_norm(Y, E, 2.0, CONFIGS[0]).method[0] == "multistart lower"
    assert _same_bytes(lambda cfg: json.dumps(weak_p_norm(Y, E, 2.0, cfg).to_json()))


def test_ascent_over_F_reads_no_seed():
    sub = _generic_sub(3.0, 5, 3, 1)
    M = np.random.default_rng(2).standard_normal((2, 3))
    C = SpaceSpec(2.0, 2)
    assert _same_bytes(lambda cfg: repr(_ascent_lower(sub, M, C)))


@pytest.mark.parametrize("n, m", [(2, 2), (3, 5), (6, 4), (8, 8)])
def test_euclidean_operator_norm_reaches_the_top_singular_value(n, m):
    A = np.random.default_rng(10 * n + m).standard_normal((m, n))
    est = operator_norm(LinearMap.from_array(A, SpaceSpec(2.0, n), SpaceSpec(2.0, m)))
    sigma = float(np.linalg.svd(A, compute_uv=False)[0])
    assert abs(est.lower - sigma) <= 1e-12 * sigma
    assert est.upper >= est.lower


@pytest.mark.parametrize("seed", range(6))
def test_euclidean_norm_over_F_is_a_singular_value(seed):
    """Over B_F = {c : c G c <= 1}, G = (B w) B^T = L L^T, the substitution
    c = L^-T z makes B_F the Euclidean ball, so the norm of c -> M c into
    ell_2 is the top singular value of M L^-T."""
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(3, 8))
    k = int(rng.integers(2, n))
    sub = _generic_sub(2.0, n, k, seed)
    M = rng.standard_normal((int(rng.integers(2, 5)), k))
    B = sub.basis_matrix
    L = np.linalg.cholesky((B * sub.ambient.weight_array) @ B.T)
    sigma = float(np.linalg.svd(M @ np.linalg.inv(L).T, compute_uv=False)[0])
    val = _ascent_lower(sub, M, SpaceSpec(2.0, M.shape[0]))
    assert val == pytest.approx(sigma, rel=1e-9)


@pytest.mark.parametrize("r", [1.25, 1.5, 3.0, 6.0])
@pytest.mark.parametrize("seed", range(3))
def test_linear_maximizer_over_a_generic_section(r, seed):
    """The point is on the sphere of B_F, no sampled sphere point beats
    it, and it satisfies the optimality condition: the norming functional
    of c B, restricted to F, is parallel to v."""
    sub = _generic_sub(r, 6, 3, seed)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3)
    val, c = _max_linear_over_BF(sub, v)
    assert sub.ambient_norm(c) == pytest.approx(1.0, rel=1e-12)
    assert val == float(v @ c)
    S = rng.standard_normal((10_000, 3))
    S /= norms_rows(sub.ambient, S @ sub.basis_matrix)[:, None]
    assert np.max(S @ v) <= val
    g = sub.restrict(norming_functional(sub.ambient, c @ sub.basis_matrix))[0]
    assert g @ v / (np.linalg.norm(g) * np.linalg.norm(v)) == pytest.approx(1.0, abs=1e-9)
    assert math.isfinite(val) and val > 0.0


def test_ascent_starts_stay_bounded_as_the_map_grows(monkeypatch):
    """At most 32 coordinate starts, 32 row starts and the singular
    vector, however tall or wide the map; a tall family map is never
    factored with its square left factor (5,000^2 doubles = 200 MB)."""
    import tracemalloc

    from fblab import operators

    calls = []
    ascend = operators._ascend
    monkeypatch.setattr(operators, "_ascend", lambda *a: calls.append(1) or ascend(*a))
    rng = np.random.default_rng(11)
    Y = rng.standard_normal((5_000, 4))
    tracemalloc.start()
    est = weak_p_norm(Y, SpaceSpec(3.0, 4), 2.0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert est.method[0] == "multistart lower"
    assert len(calls) <= 4 + 32 + 1 and peak < 20e6
    assert 0.0 < est.lower <= est.upper
    calls.clear()
    A = rng.standard_normal((3, 100))
    est = operator_norm(LinearMap.from_array(A, SpaceSpec(3.0, 100), SpaceSpec(1.5, 3)))
    assert est.method[0] == "multistart ascent"
    assert len(calls) <= 32 + 3 + 1 and 0.0 < est.lower <= est.upper


def test_p_inf_candidates_stay_bounded_above_dual_dimension_32(monkeypatch):
    """Past dual dimension 32 the Hadamard rows stop at 32, so the
    candidates are the coordinate and norming functionals and 64 signed
    rows."""
    from fblab import fbl

    seen = []
    eval_rows = fbl.eval_rows
    monkeypatch.setattr(fbl, "eval_rows", lambda e, b, Y: seen.append(len(Y)) or eval_rows(e, b, Y))
    dim = 40
    b = GeneratorBinding.from_matrix(
        SpaceSpec(3.0, dim), np.random.default_rng(5).standard_normal((3, dim))
    )
    e = Abs(Gen(0)) - Abs(Gen(1)) + Meet(Gen(1), Gen(2))
    est = fbl._dual_multistart(e, b)
    assert est.method[0] == "dual-sphere multistart"
    assert seen[0] == dim + 3 + 64 and est.lower > 0.0
