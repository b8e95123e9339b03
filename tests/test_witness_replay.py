"""Witness families replayed without fblab's evaluators.

Every family a lower bound rests on must be feasible (weak-p norm at
most 1 over the constraint ball) and must attain the value it reports.
Here both are recomputed from scratch: weak-p norms over a cube by its
sign vertices and over a Euclidean ball by sign patterns of the family,
objectives from the expression or the matrix written out in numpy.
The embedding-gap witnesses are replayed in ``test_extension.py``.
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
    OptimizerConfig,
    Scale,
    SpaceSpec,
    fbl,
    fbl_infty_norm,
    fbl_norm,
    pi_p_lower,
    pi_q1_lower,
)

CFG = OptimizerConfig(restarts=8)
EXPR = Abs(Gen(0)) + Join(Gen(1), Gen(2)) - Scale(0.5, Abs(Gen(2)))


def _expr_values(P):
    """EXPR at the pairings P (one row of three pairings per functional)."""
    return np.abs(P[:, 0]) + np.maximum(P[:, 1], P[:, 2]) - 0.5 * np.abs(P[:, 2])


def _lp(values, p):
    values = np.abs(values)
    return float(values.max() if math.isinf(p) else (values ** p).sum() ** (1.0 / p))


def _signs(n):
    """All 2^n sign vectors as rows."""
    return 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)


def _weak_over_cube(Y, w, p):
    """Weak-p norm of the rows of Y over the unit ball of a sup-norm
    space with pairing weights w: the max over the cube's vertices."""
    P = np.abs(_signs(len(w)) @ (Y * w).T)
    vals = P.max(axis=1) if math.isinf(p) else (P ** p).sum(axis=1) ** (1.0 / p)
    return float(vals.max())


def _weak1_over_euclidean_ball(Y, w):
    """Weak-1 norm over a weighted ell_2 ball: the largest dual norm
    sqrt(sum_i w_i f_i^2) of a signed sum f = sum_k s_k y_k."""
    G = (Y * w) @ Y.T
    N = len(Y)
    best = 0.0
    for start in range(0, 1 << N, 1 << 12):
        idx = np.arange(start, min(start + (1 << 12), 1 << N))
        S = 1.0 - 2.0 * ((idx[:, None] >> np.arange(N)) & 1)
        best = max(best, float(np.max(np.sum((S @ G) * S, axis=1))))
    return math.sqrt(best)


def _fbl_case(space, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((3, space.dim))
    return GeneratorBinding.from_matrix(space, X), X


def test_fbl_norm_witness_replays_over_sup_space():
    E = SpaceSpec(math.inf, 6)
    b, X = _fbl_case(E, 0)
    est = fbl_norm(EXPR, b, 1.0, CFG)
    assert "witness search" in est.method
    Y = est.witness.matrix
    assert _weak_over_cube(Y, E.weight_array, 1.0) <= 1.0 + 1e-9
    assert _lp(_expr_values(Y @ X.T), 1.0) >= est.lower - 1e-9


def test_fbl_norm_witness_replays_over_weighted_euclidean_space():
    E = SpaceSpec(2.0, 4, (0.5, 1.0, 1.5, 2.0))
    b, X = _fbl_case(E, 1)
    est = fbl_norm(EXPR, b, 1.0, CFG)
    assert "witness search" in est.method
    Y = est.witness.matrix
    w = E.weight_array
    assert _weak1_over_euclidean_ball(Y, w) <= 1.0 + 1e-9
    assert _lp(_expr_values(Y @ (X * w).T), 1.0) >= est.lower - 1e-9


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, math.inf])
def test_fbl_infty_norm_witness_is_on_the_dual_sphere(r, monkeypatch):
    E = SpaceSpec(r, 4, (0.5, 1.0, 1.5, 2.0))
    b, X = _fbl_case(E, 2)
    est = fbl_infty_norm(EXPR, b, CFG)
    y = est.witness.matrix[0]
    w = E.weight_array
    if r == 1:
        dual = np.max(np.abs(y))
    elif math.isinf(r):
        dual = np.sum(w * np.abs(y))
    else:
        q = r / (r - 1.0)
        dual = np.sum(w * np.abs(y) ** q) ** (1.0 / q)
    assert dual <= 1.0 + 1e-9
    assert abs(_expr_values((y * w @ X.T)[None, :])[0]) >= est.lower - 1e-9
    # the polish starts from the best candidates and keeps a start it
    # cannot improve; unpolished, Nelder-Mead hands the starts back
    monkeypatch.setattr(fbl, "nelder_mead_rows", lambda F, X0, *args: (X0, F(X0), [0] * len(X0)))
    unpolished = fbl_infty_norm(EXPR, b, CFG)
    assert est.lower >= unpolished.lower


def _summing_case():
    """A map on a weighted ell_1 space (so families meet the weighted cube
    of its predual) into ell_2^3."""
    rng = np.random.default_rng(3)
    w = np.array([0.5, 1.0, 2.0, 1.0, 0.25])
    A = rng.standard_normal((3, 5))
    T = LinearMap.from_array(A, SpaceSpec(1.0, 5, tuple(w)), SpaceSpec(2.0, 3))
    return T, A, w


def test_pi_p_lower_witness_replays():
    T, A, w = _summing_case()
    est = pi_p_lower(T, 2.0, CFG)
    Y = est.witness.matrix
    assert _weak_over_cube(Y, w, 2.0) <= 1.0 + 1e-9
    assert _lp(np.linalg.norm(Y @ A.T, axis=1), 2.0) >= est.lower - 1e-9


def test_pi_q1_lower_witness_replays():
    T, A, w = _summing_case()
    est = pi_q1_lower(T, 2.0, CFG)
    Y = est.witness.matrix
    assert _weak_over_cube(Y, w, 1.0) <= 1.0 + 1e-9
    assert _lp(np.linalg.norm(Y @ A.T, axis=1), 2.0) >= est.lower - 1e-9
