"""Tests of the benchmark's own checks: each accepts fblab's true output
and rejects a corrupted one.

    python3 -m pytest bench/test_checks.py
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import fblab  # noqa: E402
from fblab import Abs, Gen, GeneratorBinding, Join, LinearMap, OptimizerConfig, SpaceSpec, SubspaceSpec  # noqa: E402

import checks  # noqa: E402

CFG = OptimizerConfig(restarts=4, seed=0)


def scaled_witness(est, factor):
    w = est.witness
    return replace(est, witness=replace(w, functionals=tuple(tuple(factor * v for v in row) for row in w.functionals)))


def rejected(errors, check):
    assert any(check in msg for msg in errors), errors


@pytest.fixture(scope="module")
def sup_norm_case():
    E = SpaceSpec(math.inf, 4)
    b = GeneratorBinding.from_matrix(E, np.random.default_rng(1).standard_normal((3, 4)))
    e = Abs(Gen(0)) - Abs(Gen(1)) + Join(Gen(1), Gen(2))
    return e, b, fblab.fbl_norm(e, b, 1.0, CFG)


def test_witness_replay_accepts_true_output(sup_norm_case):
    e, b, est = sup_norm_case
    assert checks.check_witness(e, b, 1.0, est) == []


def test_witness_replay_rejects_scaled_witness(sup_norm_case):
    e, b, est = sup_norm_case
    rejected(checks.check_witness(e, b, 1.0, scaled_witness(est, 1.01)), "weak-p")


def test_witness_replay_rejects_raised_lower(sup_norm_case):
    e, b, est = sup_norm_case
    rejected(checks.check_witness(e, b, 1.0, replace(est, lower=est.lower * 1.01)), "below lower")


def test_pi_q1_replay():
    idmap = LinearMap.from_array(np.eye(3), SpaceSpec(2.0, 3), SpaceSpec(2.0, 3))
    est = fblab.pi_q1_lower(idmap, 2.0, CFG)
    assert checks.check_pi_q1(idmap, 2.0, est) == []
    rejected(checks.check_pi_q1(idmap, 2.0, scaled_witness(est, 1.01)), "weak-1")
    rejected(checks.check_pi_q1(idmap, 2.0, replace(est, lower=est.lower * 1.01)), "below lower")


def test_dual_sphere_checks():
    E = SpaceSpec(3.0, 2, (0.7, 1.6))
    b = GeneratorBinding.from_matrix(E, np.random.default_rng(2).standard_normal((3, 2)))
    e = Abs(Gen(0)) - Abs(Gen(1)) + Join(Gen(1), Gen(2))
    est = fblab.fbl_infty_norm(e, b, CFG)
    assert est.upper_certified
    assert checks.check_dual_sphere(e, b, est, seed=0) == []
    rejected(checks.check_dual_sphere(e, b, replace(est, lower=est.lower * 1.01), seed=0), "witness ratio")
    low = est.lower * 0.99
    rejected(checks.check_dual_sphere(e, b, replace(est, lower=low, upper=low), seed=0), "dual-sphere sample")


@pytest.fixture(scope="module")
def extension_case():
    rng = np.random.default_rng(3)
    full = rng.standard_normal((4, 4))
    sub = SubspaceSpec.from_arrays(SpaceSpec(math.inf, 4), full[:2], full[2:])
    T = LinearMap.from_array(rng.standard_normal((2, 2)), SpaceSpec(2.0, 2), SpaceSpec(1.0, 2))
    return sub, T, fblab.extension_constant(sub, T, 1.0, CFG)


def test_extension_accepts_true_output(extension_case):
    sub, T, est = extension_case
    assert checks.check_extension(sub, T, 1.0, est) == []


def test_extension_rejects_broken_restriction(extension_case):
    sub, T, est = extension_case
    A = est.witness.matrix.copy()
    A[0] += 0.01 * np.asarray(sub.basis[0])  # no longer equal to T on F
    broken = replace(est, witness=replace(est.witness, functionals=tuple(map(tuple, A))))
    rejected(checks.check_extension(sub, T, 1.0, broken), "restriction")


def test_extension_rejects_unattained_upper(extension_case):
    sub, T, est = extension_case
    rejected(checks.check_extension(sub, T, 1.0, replace(est, upper=est.upper * 0.99)), "witness norm")


def test_extension_sup_norm_closed_form(extension_case):
    sub, _, _ = extension_case
    T = LinearMap.from_array(np.eye(2), SpaceSpec(2.0, 2), SpaceSpec(math.inf, 2))
    est = fblab.extension_constant(sub, T, math.inf, CFG)
    assert checks.check_extension(sub, T, math.inf, est) == []
    rejected(checks.check_extension(sub, T, math.inf, replace(est, upper=1.01)), "closed form")


def test_moduli_closed_form():
    E = SpaceSpec(1.0, 5, (0.5, 1.0, 1.5, 2.0, 0.25))
    X = np.random.default_rng(4).standard_normal((3, 5))
    a = np.array([0.5, 1.0, 2.0])
    est = fblab.moduli_norm(E, X, a, 1.0, CFG)
    assert checks.check_moduli_l1(X, a, E, est.lower, est.upper, "moduli") == []
    rejected(checks.check_moduli_l1(X, a, E, est.lower * 1.01, est.upper * 1.01, "moduli"), "closed form")


def test_embedding_gap_below_one_rejected():
    E = SpaceSpec(math.inf, 3)
    sub = SubspaceSpec.from_arrays(E, np.eye(3)[:2], np.eye(3)[2:])
    b = GeneratorBinding.from_matrix(E, np.array([[1.0, 0.5, 0.0], [-0.3, 1.0, 0.0]]))
    e = Abs(Gen(0)) + Join(Gen(0), Gen(1))
    gap = fblab.embedding_gap(sub, e, b, 1.0, CFG)
    assert checks.check_embedding_gap(sub, e, b, 1.0, gap) == []
    rejected(checks.check_embedding_gap(sub, e, b, 1.0, replace(gap, ratio=0.99)), "ratio")


def test_catalog_rule():
    report = fblab.run_experiment("haar-level", seed=0)
    assert checks.check_report(report) == []
    bad = replace(report, records=(replace(report.records[0], passed=False),))
    rejected(checks.check_report(bad), "rule of")


@pytest.mark.parametrize("r, expected", [(math.inf, 5.0), (2.0, math.sqrt(5.0)), (1.0, 1.0)])
def test_weak_one_of_unit_vectors(r, expected):
    assert checks.weak_p(np.eye(5), r, np.ones(5), 1.0) == pytest.approx(expected, rel=1e-12)


def test_sign_and_cube_enumerations_agree():
    Y = np.random.default_rng(5).standard_normal((12, 7))
    w = np.linspace(0.5, 2.0, 7)
    cube = checks.weak_p(Y, math.inf, w, 1.0)  # dim <= N - 1: cube vertices
    signs = checks._max_signed_sum_norm(Y, math.inf, w)
    assert cube == pytest.approx(signs, rel=1e-12)


def test_evaluation_of_deep_expression():
    e = Abs(Gen(0))
    for k in range(1, 3000):
        e = e + Abs(Gen(k))
    X = np.ones((3000, 2))
    assert checks.evaluate(e, X, np.ones(2), np.array([[1.0, -3.0]]))[0] == pytest.approx(6000.0)
