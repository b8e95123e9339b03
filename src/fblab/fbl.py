"""Norm estimation on the free p-convex Banach lattice over E.

For an expression f in the free vector lattice over bound vectors in E,
the p-convex free-lattice norm is

    ||f|| = sup { (sum_k |f(y_k)|^p)^(1/p) :
                  (y_k) in E*, sup_{x in B_E} sum_k |<y_k, x>|^p <= 1 },

with families of arbitrary finite size; in finite dimension the
constraint over B_E (rather than the bidual ball) is exact.  For
p = infinity the norm degenerates to the sup of |f| over the dual unit
sphere: exact, with a certified upper bound at any dual dimension, when
f is convex and the sup can be enumerated; otherwise a lower bound from
structured candidate functionals and a Nelder-Mead polish, with a
certified upper bound only for dual dimension <= 3.

Lower bounds come from explicit feasible witness families (see
``summing.witness_search``); upper bounds come from a structural chain:
the triangle-inequality mass bound, the p = 1 value when available
exactly (the p = 1 norm dominates every other p), and the exact
1-summing closed form for positive moduli combinations over L_1(mu).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .estimates import NormEstimate, WitnessFamily
from .exprs import (
    Abs,
    Add,
    Gen,
    GeneratorBinding,
    LatticeExpr,
    Neg,
    PosPart,
    Scale,
    _convex_shape,
    eval_rows,
    lipschitz_bound,
    mass_bound,
    recognize_moduli_combination,
)
from .operators import tuple_map
from .optimize import OptimizerConfig, nelder_mead_rows
from .spaces import (
    _SMALL_POLYTOPE_CAP,
    SpaceSpec,
    _max_signed_sum,
    _vertex_count,
    dual_space,
    extreme_points_matrix,
    norm,
    norming_functional,
    norms_rows,
)
from .summing import (
    hadamard,
    lp_combine,
    pi_1_exact_Linfty_domain,
    pi_p_lower,
    witness_search,
)

__all__ = [
    "fbl_norm",
    "fbl_infty_norm",
    "moduli_norm",
    "sublattice_generators",
    "pconcavification_witness",
]


# --------------------------------------------------------------------------
# witness seeds for the free-lattice norm
# --------------------------------------------------------------------------


def _biorthogonal_family(b: GeneratorBinding) -> np.ndarray | None:
    """Functionals phi_k with <phi_j, x_k> = delta_jk, via a pseudo-inverse
    of the weighted vector matrix (None if numerically rank deficient)."""
    M = b.matrix * b.space.weight_array
    try:
        phi = np.linalg.pinv(M.T)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(phi)):
        return None
    check = phi @ M.T
    if np.max(np.abs(check - np.eye(b.count))) > 1e-6:
        return None
    return phi


def _sign_selected_hadamard(base: np.ndarray, scores: np.ndarray, cap: int) -> list[np.ndarray]:
    """Hadamard sign mixes of the base rows that score highest.

    Selecting rows by the expression's own diagonal values steers the mix
    toward the generators that actually contribute (for an alternating
    combination this picks out the positive half).
    """
    out: list[np.ndarray] = []
    order = np.argsort(-scores)
    for m in (2, 4, 8, 16):
        if m > min(cap, base.shape[0]):
            continue
        idx = np.sort(order[:m])
        out.append(hadamard(m) @ base[idx])
    return out


def _fbl_seeds(
    e: LatticeExpr, b: GeneratorBinding, cfg: OptimizerConfig
) -> list[np.ndarray]:
    E = b.space
    dim = E.dim
    cap = cfg.family_size
    seeds: list[np.ndarray] = []

    # norming functionals of the bound vectors, individually and stacked
    phi_n = np.array([norming_functional(E, x) for x in b.matrix])
    g_norming = eval_rows(e, b, phi_n)
    for i in np.argsort(-np.abs(g_norming))[: min(8, b.count)]:
        seeds.append(phi_n[i][None, :])
    if b.count <= cap:
        seeds.append(phi_n)

    # coordinate functionals, all of them or the most relevant ones
    eye = np.eye(dim)
    g_coord = eval_rows(e, b, eye)
    if dim <= cap:
        seeds.append(eye)
    else:
        top = np.sort(np.argsort(-np.abs(g_coord))[:cap])
        seeds.append(eye[top])

    # biorthogonal functionals and sign mixes steered by diagonal values
    phi_bio = _biorthogonal_family(b)
    bases = [(phi_n, g_norming), (eye, g_coord)]
    if phi_bio is not None:
        g_bio = eval_rows(e, b, phi_bio)
        if b.count <= cap:
            seeds.append(phi_bio)
        bases.append((phi_bio, g_bio))
    for base, g in bases:
        seeds.extend(_sign_selected_hadamard(base, np.maximum(g, 0.0), cap))

    # diagonally weighted families: coefficients from the concavification
    # duality, evaluated at the expression's diagonal values
    for base, g in bases:
        gp = np.maximum(g, 0.0)
        if np.any(gp > 0):
            beta = _pconcav_coefficients(E, gp[: dim] if base is eye else gp, p=1.0)
            if beta is not None and beta.shape[0] == base.shape[0]:
                seeds.append(beta[:, None] * base)
    return seeds


def _fbl_objective(e: LatticeExpr, b: GeneratorBinding, p: float):
    def obj(Y: np.ndarray) -> float:
        return lp_combine(eval_rows(e, b, Y), p)

    return obj


# --------------------------------------------------------------------------
# the norm itself
# --------------------------------------------------------------------------


def fbl_norm(
    e: LatticeExpr,
    b: GeneratorBinding,
    p: float,
    cfg: OptimizerConfig | None = None,
) -> NormEstimate:
    """Estimate the p-convex free-lattice norm of ``e`` over ``b.space``."""
    cfg = cfg or OptimizerConfig()
    if not (p >= 1):
        raise ValueError("p must be in [1, infinity]")
    if math.isinf(p):
        return fbl_infty_norm(e, b, cfg)

    upper = mass_bound(e, b)
    method_upper = ["mass bound"]
    if upper <= 0.0:
        return NormEstimate(0.0, 0.0, True, True, method=("zero expression",))

    moduli = recognize_moduli_combination(e)
    exact_value: float | None = None
    if moduli is not None and b.space.r == 1:
        coeffs = np.zeros(b.count)
        for idx, c in moduli.items():
            coeffs[idx] = c
        T = tuple_map(coeffs[:, None] * b.matrix, b.space, SpaceSpec(1.0, b.count))
        p1_value = pi_1_exact_Linfty_domain(T)
        if p == 1:
            exact_value = p1_value
        elif p1_value < upper:
            # the p = 1 norm dominates the norm for every larger p
            upper = p1_value
            method_upper = ["exact p=1 moduli value"]

    if exact_value is not None:
        witness = WitnessFamily(np.eye(b.space.dim), p, 1.0, exact_value)
        return NormEstimate(
            exact_value,
            exact_value,
            True,
            True,
            method=("1-summing closed form over L_1(mu)",),
            witness=witness,
        )

    val, witness, tight = witness_search(
        b.space, p, _fbl_objective(e, b, p), _fbl_seeds(e, b, cfg), cfg
    )
    method = ["witness search"]
    method.append("exact weak constraint" if tight else "crude-upper weak normalization")
    return NormEstimate(
        lower=val,
        upper=upper,
        lower_certified=True,
        upper_certified=True,
        method=tuple(method + method_upper),
        witness=witness,
    )


# --------------------------------------------------------------------------
# p = infinity: sup over the dual sphere
# --------------------------------------------------------------------------


def fbl_infty_norm(
    e: LatticeExpr, b: GeneratorBinding, cfg: OptimizerConfig | None = None
) -> NormEstimate:
    """sup of |eval(e, .)| over the dual unit sphere.

    Exact for a convex e on the paths of ``_convex_sup``, at any dual
    dimension: the upper bound is the enumerated maximum, the lower bound
    |e(y)| / ||y||_* at the functional y found there, and where rounding
    (up to 1e-12 of the mass bound) puts it above, the upper is the lower.
    Any other e goes to ``_dual_multistart``.
    """
    cfg = cfg or OptimizerConfig()
    found = _convex_sup(e, b, cfg.family_size)
    if found is None:
        return _dual_multistart(e, b, cfg)
    upper, y, how = found
    n = norm(dual_space(b.space), y)
    lower = abs(float(eval_rows(e, b, y[None, :])[0])) / n
    if lower > upper and lower - upper > 1e-12 * mass_bound(e, b):  # more than rounding
        raise RuntimeError(f"witness value {lower} exceeds the enumerated maximum {upper}")
    upper = max(upper, lower)
    witness = WitnessFamily((y / n)[None, :], math.inf, 1.0, lower)
    return NormEstimate(lower, upper, True, True, ("convex expression", how), witness)


def _dual_multistart(e: LatticeExpr, b: GeneratorBinding, cfg: OptimizerConfig) -> NormEstimate:
    """sup of |eval(e, .)| over the dual unit sphere for any e, from below.

    The candidates are structured, not drawn: the coordinate functionals,
    the norming functionals of the bound vectors, and at most 32 sign rows
    of a Hadamard matrix and their negations (e need not be odd), each on
    the dual sphere.  The lower bound is certified (attained at explicit
    functionals): the best candidate, or a better point of |eval| / dual
    norm found from the six best by one lockstep Nelder-Mead
    (``nelder_mead_rows``).  A certified upper bound is produced only for
    dual dimension <= 3, by a Lipschitz-padded grid over the dual sphere;
    vertices of the dual ball give none, since a non-convex e need not
    attain its sup at one.
    """
    E = b.space
    Ed = dual_space(E)
    dim = E.dim

    m = min(1 << (dim - 1).bit_length(), 32)  # rows < m of any larger Sylvester
    H = np.tile(hadamard(m), -(-dim // m))[:, :dim]  # matrix repeat with period m
    candidates = [y / norm(Ed, y) for y in np.eye(dim)]
    candidates += [norming_functional(E, x) for x in b.matrix]
    candidates += [y / norm(Ed, y) for y in np.vstack([H, -H])]

    vals = np.abs(eval_rows(e, b, np.array(candidates)))
    order = np.argsort(-vals)
    best_val, best_y = float(vals[order[0]]), candidates[int(order[0])]
    if cfg.polish:
        def neg_ratio(Y: np.ndarray) -> np.ndarray:  # -|e(y)| / ||y||, and 0 at y ~ 0
            n = norms_rows(Ed, Y)
            return np.divide(np.abs(eval_rows(e, b, Y)), -n, out=np.zeros(len(n)), where=n > 1e-14)

        Y0 = np.array([candidates[int(i)] for i in order[:6]])
        Y, _, _ = nelder_mead_rows(neg_ratio, Y0, 200 * dim, 1e-10, 1e-12)
        Y = np.where(np.all(np.isfinite(Y), axis=1, keepdims=True), Y, Y0)
        for v, v0, y, y0 in zip(*np.split(-neg_ratio(np.vstack([Y, Y0])), 2), Y, Y0):
            # a polished witness goes back on the dual sphere (constraint 1)
            v, y = (v, y / norm(Ed, y)) if v > v0 else (v0, y0)
            if v > best_val:
                best_val, best_y = float(v), y

    grid = dim <= 3
    upper = max(_grid_upper(e, b), best_val) if grid else best_val
    how = "Lipschitz grid upper" if grid else "upper not certified (dual dim > 3)"
    witness = WitnessFamily(best_y[None, :], math.inf, 1.0, best_val)
    return NormEstimate(best_val, upper, True, grid, ("dual-sphere multistart", how), witness)


def _convex_sup(
    e: LatticeExpr, b: GeneratorBinding, cap: int
) -> tuple[float, np.ndarray, str] | None:
    """For a convex e, its sup over the dual ball (the sup of |e|, since
    e(y) + e(-y) >= 0), a functional attaining it and the path taken; None
    off these paths.  A dual ball with at most 2^12 vertices (E = ell_inf^d,
    or ell_1^d with d <= 12) attains it at a vertex.  Else a linear e = <., g>
    has sup ||g||_E, and a moduli combination sum a_k |<., x_k>| of at most
    ``cap`` terms has sup max_s ||sum_k s_k a_k x_k||_E, attained at the
    norming functional of the winning signed sum."""
    shape = _convex_shape(e, b)
    if shape is None:
        return None
    E = b.space
    if _vertex_count(E.dual) <= _SMALL_POLYTOPE_CAP:
        Y = extreme_points_matrix(E.dual)
        vals = eval_rows(e, b, Y)
        i = int(np.argmax(vals))
        return float(vals[i]), Y[i], "dual-ball vertex enumeration"
    if isinstance(shape, np.ndarray):
        M = shape[None, :]
    else:
        moduli = recognize_moduli_combination(e)
        if moduli is None or len(moduli) > cap:
            return None
        M = np.array(list(moduli.values()))[:, None] * b.matrix[list(moduli)]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed enumeration is redone scaled
        top, z = _max_signed_sum(M, E)
    return top, norming_functional(E, z), "signed-sum enumeration"


def _grid_upper(e: LatticeExpr, b: GeneratorBinding) -> float:
    """Certified upper bound for dual dimension <= 3: cover the dual sphere
    by radial projections of a cube-surface grid and pad by the Lipschitz
    certificate times the covering radius."""
    E = b.space
    Ed = dual_space(E)
    dim = E.dim
    lam = lipschitz_bound(e, b)
    steps = 121 if dim <= 2 else 61
    h = 2.0 / (steps - 1)
    axis = np.linspace(-1.0, 1.0, steps)
    # the faces x_i = +-1; at dim 1 the product is one empty row
    rest = np.array(list(itertools.product(axis, repeat=dim - 1)))
    pts = np.vstack([np.insert(rest, i, s, axis=1) for i in range(dim) for s in (-1.0, 1.0)])

    # any point of the cube surface is within ell_inf distance h/2 of the
    # grid; measure that displacement in the dual norm
    rho = norm(Ed, np.full(dim, h / 2.0))
    dual_norms = norms_rows(Ed, pts)
    floor = min(norm(Ed, row) for row in np.eye(dim))
    vals = np.abs(eval_rows(e, b, pts))
    denom = np.maximum(dual_norms - rho, max(floor - rho, 1e-9))
    return float(np.max((vals + lam * rho) / denom))


# --------------------------------------------------------------------------
# moduli combinations and sublattice generators
# --------------------------------------------------------------------------


def moduli_norm(
    E: SpaceSpec,
    vectors,
    coeffs,
    p: float,
    cfg: OptimizerConfig | None = None,
) -> NormEstimate:
    """Norm of (sum_k |a_k delta_{x_k}|^p)^(1/p) in the p-convex free
    lattice, computed through its identity with the p-summing norm of the
    tuple map f -> (<f, a_k x_k>)_k.

    Exact for p = 1 over an L_1(mu)-type space (sup-norm dual domain);
    otherwise a certified witness lower bound plus the p-convexity upper
    bound (sum (a_k ||x_k||)^p)^(1/p).
    """
    cfg = cfg or OptimizerConfig()
    X = np.atleast_2d(np.asarray(vectors, dtype=float))
    a = np.asarray(coeffs, dtype=float)
    if np.any(a < 0):
        raise ValueError("moduli coefficients must be nonnegative")
    if a.shape[0] != X.shape[0]:
        raise ValueError("one coefficient per vector required")
    scaled = a[:, None] * X
    n = X.shape[0]
    T = tuple_map(scaled, E, SpaceSpec(p, n))

    if p == 1 and E.r == 1:
        val = pi_1_exact_Linfty_domain(T)
        return NormEstimate(
            val, val, True, True, method=("1-summing closed form over L_1(mu)",)
        )

    upper = lp_combine(np.array([ai * norm(E, xi) for ai, xi in zip(a, X)]), p)
    est = pi_p_lower(T, p, cfg)
    return NormEstimate(
        lower=est.lower,
        upper=upper,
        lower_certified=est.lower_certified,
        upper_certified=True,
        method=tuple(est.method) + ("p-convexity upper bound",),
        witness=est.witness,
    )


def sublattice_generators(
    E: SpaceSpec, k_count: int, trunc_dim: int
) -> tuple[list[LatticeExpr], GeneratorBinding, list[float]]:
    """Disjoint positive expressions f_1, ..., f_k whose span recovers the
    norm of E on the coefficients:

        f_k = ( |d_k| - 2^(2k) * ( sum_{i<k} |d_i|
                                   + sum_{k<i<=trunc} 2^(-i) |d_i| ) )_+

    (1-based k).  The infinite tail is truncated at ``trunc_dim``; the
    dropped mass is at most 2^(2k) * 2^(-trunc_dim) per generator, which
    is returned as the per-expression truncation error bound.
    """
    if trunc_dim < k_count:
        raise ValueError("truncation dimension must be at least the generator count")
    weights = tuple(E.weights[i] if i < E.dim else 1.0 for i in range(trunc_dim))
    ambient = SpaceSpec(E.r, trunc_dim, weights)
    binding = GeneratorBinding.from_matrix(ambient, np.eye(trunc_dim))

    exprs: list[LatticeExpr] = []
    errors: list[float] = []
    for k in range(1, k_count + 1):
        terms = [Abs(Gen(i - 1)) for i in range(1, k)]
        terms += [Scale(2.0 ** (-i), Abs(Gen(i - 1))) for i in range(k + 1, trunc_dim + 1)]
        body = Abs(Gen(k - 1))
        if terms:  # the penalty is the left-nested sum of the terms
            body = body + Neg(Scale(2.0 ** (2 * k), functools.reduce(Add, terms)))
        exprs.append(PosPart(body))
        errors.append(2.0 ** (2 * k) * 2.0 ** (-trunc_dim))
    return exprs, binding, errors


# --------------------------------------------------------------------------
# concavification duality
# --------------------------------------------------------------------------


def _pconcav_coefficients(E: SpaceSpec, alpha: np.ndarray, p: float) -> np.ndarray | None:
    """Closed-form maximizer of (sum (alpha_i beta_i)^p)^(1/p) over the
    coefficient region { beta >= 0 : sum |beta_i gamma_i|^p <= 1 whenever
    ||gamma||_E <= 1 }, for a weighted ell_r space with r >= p.

    Substituting away the weights turns the region into an ell_t ball
    with 1/t = 1/p - 1/r, and the maximizer is the Hoelder equality case.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0) or alpha.shape[0] != E.dim:
        return None
    r = E.r
    w = E.weight_array
    if not math.isinf(r) and r < p - 1e-12:
        return None
    if np.all(alpha == 0.0):
        return np.zeros(E.dim)
    if math.isinf(r):
        # region is the ell_p ball; optimum concentrates on the largest alpha
        beta = np.zeros(E.dim)
        beta[int(np.argmax(alpha))] = 1.0
        return beta
    if abs(r - p) <= 1e-12:
        return w ** (1.0 / r)  # the all-ones vector after unweighting
    aw = alpha * w ** (1.0 / r)
    t = 1.0 / (1.0 / p - 1.0 / r)
    b = aw ** (r / t)
    nb = np.sum(b ** t) ** (1.0 / t)
    if nb <= 0:
        return None
    return w ** (1.0 / r) * b / nb


def pconcavification_witness(
    E: SpaceSpec,
    alpha,
    p: float = 1.0,
    cfg: OptimizerConfig | None = None,
) -> tuple[np.ndarray, float]:
    """Coefficients beta certifying ||alpha||_E from below through the
    p-concavification duality: beta is feasible for the region above and
    (sum (alpha_i beta_i)^p)^(1/p) equals ||alpha||_E up to rounding.

    beta is the closed-form maximizer made feasible by dividing by its
    exact membership value (the norm of the diagonal map E -> ell_p it
    induces), so the returned objective is always a true lower bound.
    ``cfg`` is accepted for a uniform signature; nothing here is random.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (E.dim,):
        raise ValueError(f"alpha must have shape ({E.dim},), got {alpha.shape}")
    if np.any(alpha < 0):
        raise ValueError("alpha must be nonnegative")
    if not math.isinf(E.r) and E.r < p - 1e-12:
        raise ValueError("requires p <= r (p-convexity with constant one)")

    beta = _pconcav_coefficients(E, alpha, p)
    if beta is None:  # the coefficients underflowed
        return np.zeros(E.dim), 0.0
    # exact norm of diag(beta): E -> ell_p^n for p <= r, by Hoelder after
    # substituting away the weights: with c_i = (beta_i w_i^{-1/r})^p the
    # p-th power of the norm is ||c||_{(r/p)'}
    r, w = E.r, E.weight_array
    if math.isinf(r):
        m = lp_combine(beta, p)
    else:
        c = (beta * w ** (-1.0 / r)) ** p
        if abs(r - p) <= 1e-12:
            m = float(np.max(c)) ** (1.0 / p)
        else:
            s = 1.0 / (1.0 - p / r)
            m = float(np.sum(c**s)) ** (1.0 / (s * p))
    if m <= 1e-14:
        return np.zeros(E.dim), 0.0
    beta = beta / m
    return beta, lp_combine(alpha * beta, p)
