"""The benchmark's three workloads, built from a seed.

Each workload is a fixed list of tasks.  A task calls fblab's public
functions, through the package so that the benchmark's wrappers see the
calls, on inputs made here; the shapes of the inputs are fixed per task
and the seed draws their values (see Draws).  Catalog experiments run at their default parameters with the
benchmark's seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import fblab
from fblab import (
    Abs,
    Gen,
    GeneratorBinding,
    Join,
    LinearMap,
    Meet,
    Neg,
    OptimizerConfig,
    PosPart,
    SpaceSpec,
    SubspaceSpec,
)
from fblab.experiments import summing_basis_matrix

import checks


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    # checks of the task's own result, beyond those of the captured calls
    check: Callable[[object], list[str]] = field(default=lambda result: [])


def _catalog(name: str, seed: int) -> Task:
    return Task(name, lambda: fblab.run_experiment(name, seed=seed), checks.check_report)


def _moduli_sum(count: int, alternating: bool = False):
    """|d0| +- |d1| +- ... as the catalog builds it (a left-deep sum)."""
    e = Abs(Gen(0))
    for k in range(1, count):
        term = Abs(Gen(k))
        e = e + (Neg(term) if alternating and k % 2 else term)
    return e


def _mixed(c) -> object:
    """c0|d0| + c1 (d1 v d2) - c2|d3| + c3 (d0 - d1)^+ ; four generators."""
    return (
        Abs(Gen(0)) * c[0]
        + Join(Gen(1), Gen(2)) * c[1]
        - Abs(Gen(3)) * c[2]
        + PosPart(Gen(0) - Gen(1)) * c[3]
    )


def _alternating(c) -> object:
    """sum_k (-1)^k c_k |d_k| plus c (d0 ^ -d_last): len(c) - 1 generators."""
    e = Abs(Gen(0)) * c[0]
    for k in range(1, len(c) - 1):
        term = Abs(Gen(k)) * c[k]
        e = e + (Neg(term) if k % 2 else term)
    return e + Meet(Gen(0), Neg(Gen(len(c) - 2))) * c[-1]


class Draws:
    """Values of generated inputs: a base instance that is the same for every
    seed, perturbed by about 2% by a draw from the seed.  Every seed then
    asks for about the same work, and the quality metrics, which depend on
    the instance (an extension constant moved from 1.04 to 1.36 under 25%
    perturbations), move little between seeds."""

    def __init__(self, seed: int, salt: int):
        self._base = np.random.default_rng(salt)
        self._draw = np.random.default_rng((seed, salt))

    def normal(self, *shape: int) -> np.ndarray:
        return self._base.standard_normal(shape) + 0.02 * self._draw.standard_normal(shape)

    def positive(self, low: float, high: float, size: int) -> np.ndarray:
        return self._base.uniform(low, high, size) * np.exp(0.02 * self._draw.standard_normal(size))


def _rule(name: str, ok: bool, detail: str) -> list[str]:
    return [] if ok else [f"{name}: rule: {detail}"]


def _summing_basis_binding(n: int) -> GeneratorBinding:
    return GeneratorBinding.from_matrix(SpaceSpec(math.inf, n), summing_basis_matrix(n))


# --------------------------------------------------------------------------
# fbl-witness: p = 1 norms by witness search
# --------------------------------------------------------------------------


def fbl_witness(seed: int) -> list[Task]:
    rng = Draws(seed, 101)
    cfg = OptimizerConfig(restarts=24, seed=seed)
    tasks = [
        _catalog(name, seed)
        for name in (
            "c0-moduli-ell2",
            "sublattice-isometry",
            "upper-estimate-duality",
            "rademacher-join",
            "rad-linfty",
            "convexity-ceiling",
            "unconditionality-sqrt2",
        )
    ]

    # the p = 1 quantities of summing-basis, with the catalog's rule
    for n in (4, 16):
        b = _summing_basis_binding(n)
        e = _moduli_sum(n, alternating=True)
        tasks.append(
            Task(
                f"summing-basis alternating_p1({n})",
                lambda e=e, b=b: fblab.fbl_norm(e, b, 1.0, cfg),
                lambda est, n=n: _rule(
                    f"alternating_p1({n})",
                    est.lower / math.sqrt(n) >= 0.4 - 1e-9,
                    f"lower/sqrt(n) = {est.lower / math.sqrt(n)!r} < 0.4",
                ),
            )
        )
    # measured, no rule: families capped at 20 members certify only 2.0
    b64 = _summing_basis_binding(64)
    e64 = _moduli_sum(64, alternating=True)
    tasks.append(Task("summing-basis alternating_p1(64)", lambda: fblab.fbl_norm(e64, b64, 1.0, cfg)))

    # generated expressions over sup-norm and Euclidean spaces
    shapes = (
        ("mixed", SpaceSpec(math.inf, 6), 4),
        ("alternating", SpaceSpec(math.inf, 10), 6),
        ("mixed", SpaceSpec(2.0, 4, tuple(rng.positive(0.5, 2.0, 4))), 4),
        ("alternating", SpaceSpec(2.0, 8), 6),
    )
    for i, (kind, space, count) in enumerate(shapes):
        X = rng.normal(count, space.dim)
        b = GeneratorBinding.from_matrix(space, X)
        if kind == "mixed":
            e = _mixed(rng.positive(0.5, 1.5, 4))
        else:
            e = _alternating(rng.positive(0.5, 1.5, count + 1))
        r = "inf" if space.is_sup else f"{space.r:g}"
        tasks.append(
            Task(f"generated {kind} ell_{r}^{space.dim} #{i}", lambda e=e, b=b: fblab.fbl_norm(e, b, 1.0, cfg))
        )
    return tasks


# --------------------------------------------------------------------------
# subspace-extension: extension constants and embedding gaps
# --------------------------------------------------------------------------


def subspace_extension(seed: int) -> list[Task]:
    rng = Draws(seed, 103)
    cfg = OptimizerConfig(restarts=24, seed=seed)
    tasks = [_catalog("poe-constants", seed)]

    # generic subspaces of ell_inf^n: B_F is a polytope reached by linear programs
    for n, k, p in ((4, 2, 1.0), (4, 2, 2.0), (6, 3, 1.0), (6, 3, 2.0)):
        full = rng.normal(n, n)
        sub = SubspaceSpec.from_arrays(SpaceSpec(math.inf, n), full[:k], full[k:])
        T = LinearMap.from_array(rng.normal(2, k), SpaceSpec(2.0, k), SpaceSpec(p, 2))
        tasks.append(
            Task(
                f"extension ell_inf^{n} k={k} p={p:g}",
                lambda sub=sub, T=T, p=p: fblab.extension_constant(sub, T, p, cfg),
            )
        )

    # scaled coordinate subspaces of ell_inf^n, generators inside F
    for n, coords, p in ((5, [0, 2, 4], 1.0), (6, [1, 2, 5], 2.0)):
        k = len(coords)
        eye = np.eye(n)
        basis = eye[coords] * rng.positive(0.5, 2.0, k)[:, None]
        rest = eye[np.setdiff1d(np.arange(n), coords)]
        space = SpaceSpec(math.inf, n)
        sub = SubspaceSpec.from_arrays(space, basis, rest)
        b = GeneratorBinding.from_matrix(space, rng.normal(4, k) @ basis)
        e = _mixed(rng.positive(0.5, 1.5, 4))
        tasks.append(
            Task(
                f"embedding gap ell_inf^{n} k={k} p={p:g}",
                lambda sub=sub, e=e, b=b, p=p: fblab.embedding_gap(sub, e, b, p, cfg),
            )
        )
    return tasks


# --------------------------------------------------------------------------
# dual-closed-form: p = inf norms and closed forms over L_1
# --------------------------------------------------------------------------

# a sum of this many distinct moduli over L_1 is deeper than Python's
# default recursion limit for fblab's recursive tree walks
DEEP_SUM_TERMS = 2000


def _deep_moduli_sum() -> Task:
    """p = 1 norm of sum a_k |d_k| over L_1, with inputs fixed independently
    of the seed.  Its value is sum a_k ||x_k||."""
    rng = np.random.default_rng(20221003)
    space = SpaceSpec(1.0, 8, tuple(rng.uniform(0.5, 1.5, 8)))
    X = rng.standard_normal((DEEP_SUM_TERMS, 8))
    a = rng.uniform(0.5, 1.5, DEEP_SUM_TERMS)
    b = GeneratorBinding.from_matrix(space, X)
    e = Abs(Gen(0)) * a[0]
    for k in range(1, DEEP_SUM_TERMS):
        e = e + Abs(Gen(k)) * a[k]
    return Task(
        f"deep moduli sum ({DEEP_SUM_TERMS} terms) over L_1",
        lambda: fblab.fbl_norm(e, b, 1.0, OptimizerConfig()),
        lambda est: checks.check_moduli_l1(X, a, space, est.lower, est.upper, "deep moduli sum"),
    )


def dual_closed_form(seed: int) -> list[Task]:
    rng = Draws(seed, 107)
    cfg = OptimizerConfig(restarts=24, seed=seed)
    tasks = [
        _catalog(name, seed)
        for name in (
            "fblinfty-equivalence",
            "hilbert-bibasis",
            "haar-level",
            "haar-branch",
            "ell1-moduli",
            "lower2-ell1",
        )
    ]

    # the p = inf quantities of summing-basis, with the catalog's rules
    m = 20
    b20 = _summing_basis_binding(m)
    constant, alternating = _moduli_sum(m), _moduli_sum(m, alternating=True)
    tasks.append(
        Task(
            f"summing-basis constant_sup_norm({m})",
            lambda: fblab.fbl_infty_norm(constant, b20, cfg),
            lambda est: _rule(
                f"constant_sup_norm({m})",
                m - 1e-6 <= est.lower <= m + 1e-9,
                f"lower {est.lower!r} not in [m - 1e-6, m + 1e-9]",
            ),
        )
    )
    tasks.append(
        Task(
            f"summing-basis alternating_sup_norm({m})",
            lambda: fblab.fbl_infty_norm(alternating, b20, cfg),
            lambda est: _rule(
                f"alternating_sup_norm({m})",
                abs(est.lower - 1.0) <= 1e-3,
                f"lower {est.lower!r} != 1 +- 1e-3",
            ),
        )
    )

    # generated expressions over ell_r^d; d <= 3 gets a certified upper bound
    for r, d in ((1.5, 2), (1.0, 2), (3.0, 3), (math.inf, 3), (2.0, 6), (4.0, 9), (1.25, 12)):
        space = SpaceSpec(r, d, tuple(rng.positive(0.5, 2.0, d)))
        b = GeneratorBinding.from_matrix(space, rng.normal(4, d))
        e = _mixed(rng.positive(0.5, 1.5, 4))
        tasks.append(
            Task(f"generated ell_{r:g}^{d} p=inf", lambda e=e, b=b: fblab.fbl_infty_norm(e, b, cfg))
        )

    # a generated moduli combination over L_1(mu): closed form
    space = SpaceSpec(1.0, 16, tuple(rng.positive(0.5, 2.0, 16)))
    X = rng.normal(10, 16)
    a = rng.positive(0.1, 2.0, 10)
    tasks.append(Task("generated moduli over L_1^16", lambda: fblab.moduli_norm(space, X, a, 1.0, cfg)))

    tasks.append(_deep_moduli_sum())
    return tasks


WORKLOADS = {
    "fbl-witness": fbl_witness,
    "subspace-extension": subspace_extension,
    "dual-closed-form": dual_closed_form,
}
