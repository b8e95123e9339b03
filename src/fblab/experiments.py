"""Named, seeded experiments with structured pass/fail reports.

Each catalog entry reproduces one desk-scale computation: an exact norm
identity, a growth rate checked by ratios at a few sizes, or a
consistency inequality between independently computed quantities.
Reports are deterministic functions of (name, params, seed, version) and
serialize to JSON and flat CSV.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .exprs import (
    Abs,
    Gen,
    GeneratorBinding,
    Join,
    LatticeExpr,
    Neg,
    PowerSum,
    disjointness_check,
)
from .extension import embedding_gap, extension_constant
from .fbl import fbl_infty_norm, fbl_norm, moduli_norm, sublattice_generators
from .operators import LinearMap, operator_norm
from .optimize import OptimizerConfig
from .spaces import SpaceSpec, SubspaceSpec, norm
from .summing import pi_q1_lower

__all__ = [
    "Record",
    "ExperimentReport",
    "run_experiment",
    "experiment_names",
    "report_to_json",
    "report_to_csv",
    "growth_data",
    "haar_system",
    "haar_function",
    "rademacher_matrix",
    "summing_basis_matrix",
    "hilbert_matrix",
]


@dataclass(frozen=True)
class Record:
    quantity: str
    lower: float
    upper: float | None
    certified: bool
    claim: str
    rule: str
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    params: dict
    seed: int
    records: tuple[Record, ...]
    wall_clock: float
    version: str = __version__

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> dict:
        # wall clock is deliberately left out of the serialized form so
        # that identical (name, params, seed, version) give identical bytes
        return {
            "name": self.name,
            "params": self.params,
            "seed": self.seed,
            "version": self.version,
            "passed": self.passed,
            "records": [r.to_json() for r in self.records],
        }


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True)


_CSV_HEADER = "experiment,quantity,lower,upper,certified,claim,pass"


def report_to_csv(report: ExperimentReport) -> str:
    def cell(text: str) -> str:
        if any(ch in text for ch in ',"\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = [_CSV_HEADER]
    for r in report.records:
        lines.append(
            ",".join(
                [
                    cell(report.name),
                    cell(r.quantity),
                    repr(r.lower),
                    "" if r.upper is None else repr(r.upper),
                    str(r.certified).lower(),
                    cell(r.claim),
                    str(r.passed).lower(),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def growth_data(report: ExperimentReport) -> str:
    """Two-column (size, value) data for records named like 'f(<size>)',
    suitable for gnuplot."""
    rows = []
    for r in report.records:
        if "(" in r.quantity and r.quantity.endswith(")"):
            arg = r.quantity[r.quantity.rindex("(") + 1 : -1]
            try:
                rows.append((float(arg), r.lower))
            except ValueError:
                continue
    return "\n".join(f"{x:g} {y:.12g}" for x, y in rows) + ("\n" if rows else "")


# --------------------------------------------------------------------------
# shared constructions
# --------------------------------------------------------------------------


def dyadic_L1(n_atoms: int) -> SpaceSpec:
    """L_1 of the uniform measure on ``n_atoms`` dyadic atoms."""
    return SpaceSpec(1.0, n_atoms, tuple([1.0 / n_atoms] * n_atoms))


def haar_function(level: int, k: int, n_atoms: int) -> np.ndarray:
    """The L_1-normalized Haar function h_{level,k} (k starting at 0) as a
    step function on ``n_atoms`` uniform atoms."""
    if n_atoms % (1 << level) != 0:
        raise ValueError("atom count must resolve the requested level")
    width = n_atoms >> level
    if width % 2 != 0 and level > 0:
        raise ValueError("atom count must resolve the requested level")
    h = np.zeros(n_atoms)
    s = k * width
    h[s : s + width // 2] = float(1 << level)
    h[s + width // 2 : s + width] = -float(1 << level)
    return h


def haar_system(n: int) -> np.ndarray:
    """The full Haar system on 2^n atoms: the constant plus all
    L_1-normalized h_{j,k} for j < n, stacked as 2^n rows."""
    N = 1 << n
    rows = [np.ones(N)]
    for j in range(n):
        for k in range(1 << j):
            rows.append(haar_function(j, k, N))
    return np.array(rows)


def rademacher_matrix(m: int) -> np.ndarray:
    """The first m Rademacher functions as sign vectors on 2^m atoms."""
    n = 1 << m
    return np.array(
        [[1.0 - 2.0 * ((t >> k) & 1) for t in range(n)] for k in range(m)]
    )


def summing_basis_matrix(n: int) -> np.ndarray:
    """Rows s_k = e_1 + ... + e_{k+1} in R^n."""
    return np.tril(np.ones((n, n)))


def hilbert_matrix(m: int) -> np.ndarray:
    """The anti-triangular Hilbert-type matrix: entry (i, j) is
    1/(m + 1 - i - j) for i + j != m + 1 and 0 on the anti-diagonal
    (1-based indices)."""
    H = np.zeros((m, m))
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            d = m + 1 - i - j
            if d != 0:
                H[i - 1, j - 1] = 1.0 / d
    return H


def _join_all(count: int) -> LatticeExpr:
    e: LatticeExpr = Gen(0)
    for k in range(1, count):
        e = Join(e, Gen(k))
    return e


def _moduli_sum(count: int, signs=None) -> LatticeExpr:
    e: LatticeExpr = Abs(Gen(0))
    for k in range(1, count):
        t: LatticeExpr = Abs(Gen(k))
        if signs is not None and signs[k] < 0:
            t = Neg(t)
        e = e + t
    return e


def _rec(quantity, lower, upper, certified, claim, rule, passed) -> Record:
    return Record(
        quantity=quantity,
        lower=float(lower),
        upper=None if upper is None or math.isinf(upper) else float(upper),
        certified=bool(certified),
        claim=claim,
        rule=rule,
        passed=bool(passed),
    )


# --------------------------------------------------------------------------
# the catalog
# --------------------------------------------------------------------------


def _exp_unconditionality(params, seed, cfg):
    E = SpaceSpec(2.0, 2)
    b = GeneratorBinding.from_matrix(E, np.eye(2))
    plus = fbl_norm(Abs(Gen(0)) + Abs(Gen(1)), b, 1.0, cfg)
    minus = fbl_norm(Abs(Gen(0)) + Neg(Abs(Gen(1))), b, 1.0, cfg)
    recs = [
        _rec(
            "sum_of_moduli",
            plus.lower,
            plus.upper,
            plus.lower_certified,
            "norm of |d0| + |d1| over the Euclidean plane equals 2",
            "lower in [1.998, 2 + 1e-9] and upper == 2",
            1.998 <= plus.lower <= 2.0 + 1e-9 and abs(plus.upper - 2.0) <= 1e-9,
        ),
        _rec(
            "difference_of_moduli",
            minus.lower,
            minus.upper,
            minus.lower_certified,
            "norm of |d0| - |d1| over the Euclidean plane equals sqrt(2): "
            "the moduli pair is 1-suppression but not 1-unconditional",
            "lower in [1.407, 1.41422]",
            1.407 <= minus.lower <= 1.41422,
        ),
    ]
    return recs


def _exp_haar_level(params, seed, cfg):
    n = int(params.get("n", 2))
    if not 1 <= n <= 5:
        raise ValueError("haar-level requires 1 <= n <= 5")
    N = 1 << n
    if "a" in params:
        a = np.asarray(params["a"], dtype=float)
        if a.shape != (N,):
            raise ValueError(f"coefficient vector must have length {N}")
    else:
        a = np.arange(1.0, N + 1.0)
    L1 = dyadic_L1(N)
    est = moduli_norm(L1, haar_system(n), np.abs(a), 1.0, cfg)
    target = float(np.sum(np.abs(a)))
    return [
        _rec(
            f"haar_moduli({n})",
            est.lower,
            est.upper,
            est.exact,
            "the moduli of the full Haar system on 2^n atoms span an "
            "isometric copy of l1: the norm equals the coefficient sum",
            "|value - sum|a_k|| <= 1e-9",
            abs(est.lower - target) <= 1e-9 and est.exact,
        )
    ]


def _exp_haar_branch(params, seed, cfg):
    depth = int(params.get("depth", 4))
    if not 1 <= depth <= 5:
        raise ValueError("haar-branch requires 1 <= depth <= 5")
    N = 1 << depth
    rng = np.random.default_rng((seed, 11))
    a = rng.random(depth) + 0.1
    branch = np.array([haar_function(j, 0, N) for j in range(depth)])
    est = moduli_norm(dyadic_L1(N), branch, a, 1.0, cfg)
    target = float(np.sum(a))
    return [
        _rec(
            f"haar_branch({depth})",
            est.lower,
            est.upper,
            est.exact,
            "the moduli of a branch of the Haar system are isometrically "
            "l1: positive combinations have norm equal to the coefficient sum",
            "|value - sum a_j| <= 1e-9",
            abs(est.lower - target) <= 1e-9 and est.exact,
        )
    ]


def _exp_summing_basis(params, seed, cfg):
    m = int(params.get("m", 20))
    if not 2 <= m <= 24:
        raise ValueError("summing-basis requires 2 <= m <= 24")
    E = SpaceSpec(math.inf, m)
    b = GeneratorBinding.from_matrix(E, summing_basis_matrix(m))
    alt_signs = [(-1) ** k for k in range(m)]

    const_inf = fbl_infty_norm(_moduli_sum(m), b, cfg)
    alt_inf = fbl_infty_norm(_moduli_sum(m, alt_signs), b, cfg)
    recs = [
        _rec(
            f"constant_sup_norm({m})",
            const_inf.lower,
            const_inf.upper if const_inf.upper_certified else None,
            const_inf.lower_certified,
            "sum of moduli of the summing basis in the sup-norm free "
            "lattice has norm m",
            "lower in [m - 1e-6, m + 1e-9]",
            m - 1e-6 <= const_inf.lower <= m + 1e-9,
        ),
        _rec(
            f"alternating_sup_norm({m})",
            alt_inf.lower,
            alt_inf.upper if alt_inf.upper_certified else None,
            alt_inf.lower_certified,
            "the alternating combination of the same moduli has sup-norm "
            "free-lattice norm 1: the moduli sequence is conditional",
            "lower = 1 +- 1e-3",
            abs(alt_inf.lower - 1.0) <= 1e-3,
        ),
    ]
    for n in (4, 16):
        En = SpaceSpec(math.inf, n)
        bn = GeneratorBinding.from_matrix(En, summing_basis_matrix(n))
        est = fbl_norm(_moduli_sum(n, [(-1) ** k for k in range(n)]), bn, 1.0, cfg)
        ratio = est.lower / math.sqrt(n)
        recs.append(
            _rec(
                f"alternating_p1({n})",
                est.lower,
                est.upper,
                est.lower_certified,
                "in the 1-convex free lattice the alternating combination "
                "grows like sqrt(n)",
                "lower / sqrt(n) >= 0.4 - 1e-9",
                ratio >= 0.4 - 1e-9,
            )
        )
    return recs


def _exp_rademacher_join(params, seed, cfg):
    sizes = params.get("m", (3, 4, 5))
    recs = []
    for m in [int(x) for x in np.atleast_1d(sizes)]:
        if not 2 <= m <= 5:
            raise ValueError("rademacher-join requires 2 <= m <= 5")
        L1 = dyadic_L1(1 << m)
        b = GeneratorBinding.from_matrix(L1, rademacher_matrix(m))
        est = fbl_norm(_join_all(m), b, 1.0, cfg)
        recs.append(
            _rec(
                f"rademacher_join({m})",
                est.lower,
                est.upper,
                est.lower_certified,
                "the join of the evaluations at the first m Rademacher "
                "functions has norm exactly 1 over L1",
                "lower in [0.999, 1 + 1e-9]",
                0.999 <= est.lower <= 1.0 + 1e-9,
            )
        )
        E2 = SpaceSpec(2.0, m)
        b2 = GeneratorBinding.from_matrix(E2, np.eye(m))
        est2 = fbl_norm(_join_all(m), b2, 1.0, cfg)
        recs.append(
            _rec(
                f"euclidean_join({m})",
                est2.lower,
                est2.upper,
                est2.lower_certified,
                "over the Euclidean space of the same dimension the join of "
                "the coordinate evaluations has norm at least sqrt(m): the "
                "two bindings generate non-isomorphic free lattices",
                "lower >= sqrt(m) - 1e-6",
                est2.lower >= math.sqrt(m) - 1e-6,
            )
        )
    return recs


def _exp_rad_linfty(params, seed, cfg):
    sizes = [int(x) for x in np.atleast_1d(params.get("m", (2, 3, 4)))]
    p = float(params.get("p", 1.0))
    values = {}
    recs = []
    for m in sizes:
        if not 2 <= m <= 4:
            raise ValueError("rad-linfty requires 2 <= m <= 4")
        E = SpaceSpec(math.inf, 1 << m)
        b = GeneratorBinding.from_matrix(E, rademacher_matrix(m))
        est = fbl_norm(_join_all(m), b, p, cfg)
        values[m] = est.lower
        recs.append(
            _rec(
                f"sup_norm_join({m})",
                est.lower,
                est.upper,
                est.lower_certified,
                "over the sup-norm space the join of the Rademacher "
                "evaluations grows like sqrt(m), unlike the L1 binding "
                "where it stays at 1",
                "lower / sqrt(m) in [0.5, 1.8]",
                0.5 <= est.lower / math.sqrt(m) <= 1.8,
            )
        )
    if len(sizes) >= 2:
        lo, hi = min(sizes), max(sizes)
        recs.append(
            _rec(
                "growth",
                values[hi] / values[lo],
                None,
                False,
                "the values increase with m",
                "value(max m) > value(min m)",
                values[hi] > values[lo],
            )
        )
    return recs


def _exp_hilbert_bibasis(params, seed, cfg):
    sizes = [int(x) for x in np.atleast_1d(params.get("m", (4, 8, 16)))]
    ratios = []
    recs = []
    for m in sizes:
        if not 2 <= m <= 16:
            raise ValueError("hilbert-bibasis requires 2 <= m <= 16")
        H = hilbert_matrix(m)
        partials = np.cumsum(H, axis=1)  # column k: sum of the first k columns
        join_vec = np.max(np.abs(partials), axis=1)
        numer = float(np.sum(join_vec))
        T = LinearMap.from_array(H, SpaceSpec(math.inf, m), SpaceSpec(1.0, m))
        denom_est = operator_norm(T, cfg)
        ratio = numer / denom_est.upper
        ratios.append((m, ratio))
        hplus_ones = np.sum(np.maximum(H, 0.0), axis=1)
        comp_ok = bool(np.all(join_vec >= hplus_ones - 1e-12))
        recs.append(
            _rec(
                f"bibasis_ratio({m})",
                ratio,
                ratio,
                denom_est.exact,
                "ratio of the l1 norm of the componentwise join of partial "
                "column sums to the operator norm of the anti-triangular "
                "Hilbert-type matrix from sup-norm to l1",
                "componentwise join >= positive-part row sums",
                comp_ok,
            )
        )
    if len(ratios) >= 2:
        increasing = all(b > a for (_, a), (_, b) in zip(ratios, ratios[1:]))
        recs.append(
            _rec(
                "ratio_growth",
                ratios[-1][1] / ratios[0][1],
                None,
                False,
                "the ratio grows with m (logarithmically), so the system "
                "violates any uniform bibasis inequality",
                "ratios strictly increasing across sizes",
                increasing,
            )
        )
    return recs


def _exp_sublattice(params, seed, cfg):
    k_count = int(params.get("k", 4))
    trunc = int(params.get("trunc", 12))
    trials = int(params.get("trials", 5))
    if not (2 <= k_count <= 8 and k_count <= trunc <= 24 and 1 <= trials <= 50):
        raise ValueError("sublattice-isometry requires 2 <= k <= 8, k <= trunc <= 24 and 1 <= trials <= 50")
    E = SpaceSpec(2.0, k_count)
    exprs, binding, _ = sublattice_generators(E, k_count, trunc)
    rng = np.random.default_rng((seed, 13))
    worst = 0.0
    for _ in range(trials):
        a = rng.random(k_count) + 0.05
        comb = None
        for j in range(k_count):
            term = exprs[j] * float(a[j])
            comb = term if comb is None else comb + term
        est = fbl_norm(comb, binding, 1.0, cfg)
        target = float(np.linalg.norm(a))
        worst = max(worst, abs(est.lower - target) / target)
    rep = disjointness_check(exprs[0], exprs[1], binding, samples=2000, seed=seed)
    return [
        _rec(
            "isometry_error",
            worst,
            worst,
            True,
            "positive combinations of the disjoint generators recover the "
            "Euclidean norm of the coefficients",
            "relative error <= 0.02",
            worst <= 0.02,
        ),
        _rec(
            "disjointness",
            rep.max_violation,
            rep.max_violation,
            False,
            "the generators are pairwise disjoint as lattice elements",
            "min(f1, f2) <= 1e-9 on sampled functionals",
            rep.max_violation <= 1e-9,
        ),
    ]


def _exp_c0_moduli(params, seed, cfg):
    sizes = [int(x) for x in np.atleast_1d(params.get("n", (4, 16)))]
    recs = []
    for n in sizes:
        if not 2 <= n <= 16:
            raise ValueError("c0-moduli-ell2 requires 2 <= n <= 16")
        m = 2 * n
        E = SpaceSpec(math.inf, m)
        X = np.zeros((n, m))
        X[np.arange(n), np.arange(n)] = 1.0
        b = GeneratorBinding.from_matrix(E, X)
        est = fbl_norm(_moduli_sum(n), b, 1.0, cfg)
        ratio = est.lower / math.sqrt(n)
        recs.append(
            _rec(
                f"moduli_sum({n})",
                est.lower,
                est.upper,
                est.lower_certified,
                "the moduli of the coordinate evaluations over a sup-norm "
                "space behave like the l2 basis: the sum of n of them has "
                "norm of order sqrt(n)",
                "lower / sqrt(n) in [0.5, 1.8]",
                0.5 <= ratio <= 1.8,
            )
        )
    return recs


def _lower2_records(vectors: np.ndarray, space: SpaceSpec, a: np.ndarray, tag: str, claim: str, cfg):
    est = moduli_norm(space, vectors, np.abs(a), 1.0, cfg)
    target = float(np.sum(np.abs(a)))
    return [
        _rec(
            tag,
            est.lower,
            est.upper,
            est.exact,
            claim,
            "|value - sum|a_k|| <= 1e-9",
            abs(est.lower - target) <= 1e-9,
        )
    ]


def _exp_ell1_moduli(params, seed, cfg):
    m = int(params.get("m", 4))
    if not 2 <= m <= 5:
        raise ValueError("ell1-moduli requires 2 <= m <= 5")
    rng = np.random.default_rng((seed, 17))
    a = rng.standard_normal(m)
    return _lower2_records(
        rademacher_matrix(m),
        dyadic_L1(1 << m),
        a,
        f"rademacher_moduli({m})",
        "the moduli of the Rademacher functions in the free lattice over "
        "L1 are isometrically the l1 basis",
        cfg,
    )


def _exp_lower2_ell1(params, seed, cfg):
    m = int(params.get("m", 6))
    n = int(params.get("atoms", 16))
    if not (2 <= m <= 64 and 2 <= n <= 1024):
        raise ValueError("lower2-ell1 requires 2 <= m <= 64 and 2 <= atoms <= 1024")
    rng = np.random.default_rng((seed, 19))
    # random unimodular step functions: normalized and satisfying a lower
    # 2-estimate, like any system of independent signs
    V = rng.choice([-1.0, 1.0], size=(m, n))
    a = rng.standard_normal(m)
    return _lower2_records(
        V,
        dyadic_L1(n),
        a,
        f"unimodular_moduli({m})",
        "the moduli of any normalized unimodular system over L1 span l1 "
        "isometrically (a lower 2-estimate forces l1 behavior of moduli)",
        cfg,
    )


def _exp_fblinfty_equivalence(params, seed, cfg):
    n = int(params.get("n", 6))
    r = float(params.get("r", 2.0))
    E = SpaceSpec(r, n)
    b = GeneratorBinding.from_matrix(E, np.eye(n))
    rng = np.random.default_rng((seed, 23))
    a = rng.random(n) + 0.1
    e_mod = None
    e_lin = None
    for k in range(n):
        tm = Abs(Gen(k)) * float(a[k])
        tl = Gen(k) * float(a[k])
        e_mod = tm if e_mod is None else e_mod + tm
        e_lin = tl if e_lin is None else e_lin + tl
    v_mod = fbl_infty_norm(e_mod, b, cfg)
    v_lin = fbl_infty_norm(e_lin, b, cfg)
    target = norm(E, a)
    return [
        _rec(
            "moduli_combination",
            v_mod.lower,
            None,
            v_mod.lower_certified,
            "for a 1-unconditional basis and positive coefficients the "
            "sup-norm free-lattice norm of the moduli combination equals "
            "the norm of the plain combination in the space",
            "|moduli value - ||a|| | <= 1e-6 and |linear value - ||a|| | <= 1e-6",
            abs(v_mod.lower - target) <= 1e-6 and abs(v_lin.lower - target) <= 1e-6,
        ),
    ]


def _exp_upper_estimate(params, seed, cfg):
    n = int(params.get("n", 3))
    E = SpaceSpec(2.0, n)
    idmap = LinearMap.from_array(np.eye(n), SpaceSpec(2.0, n), SpaceSpec(2.0, n))
    pi = pi_q1_lower(idmap, 2.0, cfg)
    exprs, binding, _ = sublattice_generators(E, n, 10)
    comb = None
    for ex in exprs:
        comb = ex if comb is None else comb + ex
    total = fbl_norm(comb, binding, 1.0, cfg)
    parts = [fbl_norm(ex, binding, 1.0, cfg).lower for ex in exprs]
    disjoint_ratio = total.lower / math.sqrt(sum(v * v for v in parts))
    return [
        _rec(
            "pi_21_identity",
            pi.lower,
            None,
            pi.lower_certified,
            "the identity on the dual of a Euclidean space is (2,1)-summing; "
            "its (2,1)-summing norm bounds every disjoint-family ratio",
            "pi lower >= disjoint ratio - 1e-6",
            pi.lower >= disjoint_ratio - 1e-6,
        ),
        _rec(
            "disjoint_family_ratio",
            disjoint_ratio,
            None,
            True,
            "norm of a disjoint positive sum divided by the l2 combination "
            "of the individual norms: an upper 2-estimate witness",
            "ratio <= pi lower + 1e-6",
            disjoint_ratio <= pi.lower + 1e-6,
        ),
    ]


def _exp_convexity_ceiling(params, seed, cfg):
    sizes = [int(x) for x in np.atleast_1d(params.get("n", (4, 9)))]
    q = float(params.get("q", 4.0))
    recs = []
    for n in sizes:
        if not 2 <= n <= 16:
            raise ValueError("convexity-ceiling requires 2 <= n <= 16")
        E = SpaceSpec(2.0, n)
        b = GeneratorBinding.from_matrix(E, np.eye(n))
        e = PowerSum(q, tuple(Gen(k) for k in range(n)))
        est = fbl_norm(e, b, 1.0, cfg)
        recs.append(
            _rec(
                f"power_sum({n})",
                est.lower,
                est.upper,
                est.lower_certified,
                "the q-th power sum of coordinate moduli over a Euclidean "
                "space grows like sqrt(n) for q > 2: the 1-convex free "
                "lattice admits no q-convexity beyond 2",
                "lower >= 0.2 * sqrt(n)",
                est.lower >= 0.2 * math.sqrt(n),
            )
        )
    return recs


def _exp_poe_constants(params, seed, cfg):
    trials = int(params.get("trials", 5))
    if not 1 <= trials <= 50:
        raise ValueError("poe-constants requires 1 <= trials <= 50")
    rng = np.random.default_rng((seed, 29))
    recs = []

    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n))
        E = SpaceSpec(float(rng.choice([1.0, 2.0, math.inf])), n)
        full = rng.standard_normal((n, n))
        sub = SubspaceSpec.from_arrays(E, full[:k], full[k:])
        T = LinearMap.from_array(
            rng.standard_normal((2, k)), SpaceSpec(2.0, k), SpaceSpec(math.inf, 2)
        )
        est = extension_constant(sub, T, math.inf, cfg)
        worst = max(worst, abs(est.upper - 1.0))
    recs.append(
        _rec(
            "sup_norm_extension",
            1.0 + worst,
            1.0 + worst,
            True,
            "every operator into a sup-norm space extends from any subspace "
            "with no norm increase",
            "constant = 1 +- 1e-9 on random instances",
            worst <= 1e-9,
        )
    )

    # coordinate-complemented subspace: composing with the coordinate
    # projection extends with no increase for every p
    E = SpaceSpec(1.0, 4)
    sub = SubspaceSpec.from_arrays(E, np.eye(4)[:2], np.eye(4)[2:])
    T = LinearMap.from_array(
        rng.standard_normal((2, 2)), SpaceSpec(2.0, 2), SpaceSpec(2.0, 2)
    )
    est = extension_constant(sub, T, 2.0, cfg)
    recs.append(
        _rec(
            "complemented_extension",
            est.lower,
            est.upper,
            est.upper_certified,
            "a norm-one complemented subspace has extension constant 1 for "
            "every exponent",
            "upper <= 1 + 1e-3",
            est.upper <= 1.0 + 1e-3,
        )
    )

    # Rademacher span inside L1: the extension constant exceeds 1 and the
    # embedding gap stays below it
    for m in [int(x) for x in np.atleast_1d(params.get("m", (2, 3)))]:
        L1 = dyadic_L1(1 << m)
        R = rademacher_matrix(m)
        comp = _l1_complement(R, L1.dim)
        sub = SubspaceSpec.from_arrays(L1, R, comp)
        T = LinearMap.from_array(
            np.eye(m)[:2] if m > 2 else np.eye(2), SpaceSpec(2.0, m), SpaceSpec(1.0, 2)
        )
        est = extension_constant(sub, T, 1.0, cfg)
        b = GeneratorBinding.from_matrix(L1, R)
        gap = embedding_gap(sub, _join_all(m), b, 1.0, cfg)
        recs.append(
            _rec(
                f"rademacher_extension({m})",
                est.lower,
                est.upper,
                est.upper_certified,
                "the span of the Rademacher functions sits in L1 like a "
                "Euclidean space; extending its basis-to-basis map into l1 "
                "costs strictly more than 1",
                "upper >= 1 (value recorded, growth tracked across sizes)",
                est.upper >= 1.0 - 1e-9,
            )
        )
        recs.append(
            _rec(
                f"embedding_gap({m})",
                gap.ratio,
                None,
                False,
                "free-lattice norms over the subspace exceed the ambient "
                "ones; the gap lower-bounds the lattice embedding constant",
                "gap >= 1 - 1e-6",
                gap.ratio >= 1.0 - 1e-6,
            )
        )
    return recs


def _l1_complement(rows: np.ndarray, n: int) -> np.ndarray:
    """Coordinate vectors completing the given rows to a basis of R^n."""
    k = rows.shape[0]
    chosen = []
    base = rows
    for i in range(n):
        cand = np.vstack([base] + [np.eye(n)[j] for j in chosen] + [np.eye(n)[i]])
        if np.linalg.matrix_rank(cand, tol=1e-10) == cand.shape[0]:
            chosen.append(i)
        if k + len(chosen) == n:
            break
    return np.eye(n)[chosen]


_CATALOG = {
    "unconditionality-sqrt2": _exp_unconditionality,
    "haar-level": _exp_haar_level,
    "haar-branch": _exp_haar_branch,
    "summing-basis": _exp_summing_basis,
    "rademacher-join": _exp_rademacher_join,
    "rad-linfty": _exp_rad_linfty,
    "hilbert-bibasis": _exp_hilbert_bibasis,
    "sublattice-isometry": _exp_sublattice,
    "c0-moduli-ell2": _exp_c0_moduli,
    "ell1-moduli": _exp_ell1_moduli,
    "lower2-ell1": _exp_lower2_ell1,
    "fblinfty-equivalence": _exp_fblinfty_equivalence,
    "upper-estimate-duality": _exp_upper_estimate,
    "convexity-ceiling": _exp_convexity_ceiling,
    "poe-constants": _exp_poe_constants,
}


def experiment_names() -> list[str]:
    return sorted(_CATALOG)


def run_experiment(
    name: str,
    params: dict | None = None,
    seed: int = 0,
    cfg: OptimizerConfig | None = None,
) -> ExperimentReport:
    if name not in _CATALOG:
        raise KeyError(f"unknown experiment '{name}'; see experiment_names()")
    params = dict(params or {})
    cfg = replace(cfg or OptimizerConfig(restarts=24), seed=seed)
    t0 = time.perf_counter()
    records = _CATALOG[name](params, seed, cfg)
    wall = time.perf_counter() - t0
    return ExperimentReport(
        name=name,
        params=params,
        seed=seed,
        records=tuple(records),
        wall_clock=wall,
    )
