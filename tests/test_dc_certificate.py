"""The DC certificate of p = inf norms above dual dimension 3: the split
e = g - h of ``exprs._dc_split`` and the nearest-point bound per piece of
``fbl._dc_sup``, against sampled dual points, the witness and the
multistart."""

import json
import math

import numpy as np
import pytest

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
    Scale,
    SpaceSpec,
    fbl_infty_norm,
)
from fblab import fbl
from fblab.experiments import _moduli_sum, summing_basis_matrix
from fblab.exprs import _DC_PIECES, _dc_split, _side_points, eval_rows
from fblab.fbl import _convex_sup, _dual_multistart
from fblab.spaces import norms_rows

RS = (1.0, 1.25, 2.0, 3.0, 4.0, math.inf)
DC_RS = (1.25, 2.0, 3.0, 4.0)  # the r for which fbl_infty_norm takes the DC path


def _random_expr(rng, count: int, depth: int):
    """A random mix of Join, Meet, PosPart, Abs, Neg, Scale and Add over
    count generators."""
    if depth == 0 or rng.random() < 0.25:
        return Gen(int(rng.integers(count)))
    kind = str(rng.choice(["join", "meet", "pos", "abs", "neg", "scale", "add"]))
    a = _random_expr(rng, count, depth - 1)
    if kind in ("join", "meet", "add"):
        return {"join": Join, "meet": Meet, "add": Add}[kind](a, _random_expr(rng, count, depth - 1))
    if kind == "scale":
        return Scale(float(rng.uniform(-2.0, 2.0)), a)
    return {"pos": PosPart, "abs": Abs, "neg": Neg}[kind](a)


def _case(seed: int, rs: tuple = DC_RS):
    """A random expression off the convex paths whose split is under the
    piece cap, over a weighted ell_r of dimension 4-8, r from rs."""
    rng = np.random.default_rng(seed)
    r = rs[seed % len(rs)]
    while True:
        dim, count = int(rng.integers(4, 9)), int(rng.integers(1, 5))
        E = SpaceSpec(r, dim, tuple(rng.uniform(0.5, 2.0, dim)))
        b = GeneratorBinding.from_matrix(E, rng.standard_normal((count, dim)))
        e = _random_expr(rng, count, 4)
        if _dc_split(e, b) is not None and _convex_sup(e, b) is None:
            return e, b


def _dual_sphere(E: SpaceSpec, count: int, seed: int) -> np.ndarray:
    G = np.random.default_rng(seed).standard_normal((count, E.dim))
    return G / norms_rows(E.dual, G)[:, None]


def _support(side: tuple, Y: np.ndarray) -> np.ndarray:
    """The sum of the support functions of a side's terms at the rows Y."""
    return sum(np.max(Y @ T.T, axis=1) for T in side)


@pytest.mark.parametrize("seed", range(24))
def test_dc_split_is_the_expression(seed):
    """g - h, each a sum of support functions, is e at sampled functionals
    (the pairing carries the weights)."""
    e, b = _case(seed, RS)
    g, h = _dc_split(e, b)
    Y = _dual_sphere(b.space, 2000, seed)
    Yw = Y * b.space.weight_array
    f = eval_rows(e, b, Y)
    assert np.allclose(_support(g, Yw) - _support(h, Yw), f, rtol=0, atol=1e-12 * (1 + np.max(np.abs(f))))
    assert all(len(_side_points(X)) <= _DC_PIECES for X in (g, h))


@pytest.mark.parametrize("seed", range(36))
def test_dc_certificate_holds_and_replays(seed):
    """The certified upper bound holds at 10^4 sampled points of the dual
    sphere, the witness replays the lower bound, the multistart finds
    nothing above the upper bound, and the interval is closed."""
    e, b = _case(seed)
    est = fbl_infty_norm(e, b, OptimizerConfig())
    assert est.method == ("DC split", "nearest-point certificate per piece")
    assert est.lower_certified and est.upper_certified
    G = _dual_sphere(b.space, 10_000, seed + 1000)
    assert np.max(np.abs(eval_rows(e, b, G))) <= est.upper * (1.0 + 1e-12)
    y = est.witness.matrix
    assert norms_rows(b.space.dual, y)[0] == pytest.approx(1.0, rel=1e-12)
    assert abs(eval_rows(e, b, y)[0]) == pytest.approx(est.lower, rel=1e-12)
    assert est.witness.objective == est.lower
    assert _dual_multistart(e, b).lower <= est.upper * (1.0 + 1e-12)
    assert est.upper <= est.lower * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_polyhedral_norms_keep_the_multistart(seed):
    """Over ell_1 and ell_inf the DC path is not taken: the bytes are the
    multistart's."""
    e, b = _case(seed, (1.0, math.inf))
    assert json.dumps(fbl_infty_norm(e, b).to_json()) == json.dumps(_dual_multistart(e, b).to_json())


@pytest.mark.parametrize("seed", [73, 107, 251])
def test_multistart_lower_where_newton_leaves_a_gap(seed, monkeypatch):
    """At r = 1.01 the Newton steps can stop short of the nearest point;
    the multistart then runs, and its lower bound is kept where higher.
    The upper bound still holds at sampled points, the lower bound is at
    least the multistart's, and the witness replays it."""
    e, b = _case(seed, (1.01,))
    calls = []
    monkeypatch.setattr(fbl, "_dual_multistart", lambda e, b: calls.append(1) or _dual_multistart(e, b))
    est = fbl_infty_norm(e, b)
    assert calls == [1]
    assert est.method == ("DC split", "nearest-point certificate per piece", "dual-sphere multistart lower")
    assert est.lower_certified and est.upper_certified
    G = _dual_sphere(b.space, 10_000, seed + 1000)
    assert np.max(np.abs(eval_rows(e, b, G))) <= est.upper * (1.0 + 1e-12)
    assert est.lower >= _dual_multistart(e, b).lower
    y = est.witness.matrix
    assert norms_rows(b.space.dual, y)[0] == pytest.approx(1.0, rel=1e-12)
    assert abs(eval_rows(e, b, y)[0]) == pytest.approx(est.lower, rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale", [1e-140, 1e-100, 1e100, 1e140])
def test_dc_certificate_at_tiny_and_huge_scales(seed, scale):
    """The DC certificate of data scaled by 1e+-100 and 1e+-140 closes at
    the scaled value: inside the float window at r = 2, and scaled into it
    by the entry point at r = 1.25, 3 and 4."""
    e, b = _case(seed)
    est = fbl_infty_norm(e, b)
    big = fbl_infty_norm(e, GeneratorBinding.from_matrix(b.space, b.matrix * scale))
    assert big.method[0] == "DC split"
    assert big.lower_certified and big.upper_certified
    assert big.lower == pytest.approx(est.lower * scale, rel=1e-12)
    assert big.upper <= big.lower * (1.0 + 1e-12)


def test_power_sum_keeps_the_multistart():
    """A PowerSum node has no DC split: the bytes are the multistart's."""
    b = GeneratorBinding.from_matrix(SpaceSpec(3.0, 5), np.random.default_rng(7).standard_normal((3, 5)))
    e = PowerSum(2.0, (Gen(0), Gen(1))) - Abs(Gen(2))
    assert _dc_split(e, b) is None
    assert json.dumps(fbl_infty_norm(e, b).to_json()) == json.dumps(_dual_multistart(e, b).to_json())


def test_alternating_sum_above_the_cap_keeps_the_multistart():
    """The alternating moduli sum of the summing basis of ell_inf^20 has
    2^10 points on each side, above the cap: the bytes are the multistart's."""
    m = 20
    b = GeneratorBinding.from_matrix(SpaceSpec(math.inf, m), summing_basis_matrix(m))
    e = _moduli_sum(m, [(-1) ** k for k in range(m)])
    assert _dc_split(e, b) is None
    assert json.dumps(fbl_infty_norm(e, b).to_json()) == json.dumps(_dual_multistart(e, b).to_json())


def test_difference_of_moduli_is_closed():
    """|d0| - |d3| over ell_2^5 has sup 1, at e_0."""
    b = GeneratorBinding.from_matrix(SpaceSpec(2.0, 5), np.eye(5))
    est = fbl_infty_norm(Abs(Gen(0)) - Abs(Gen(3)), b)
    assert est.method[0] == "DC split"
    assert est.lower == est.upper == 1.0
