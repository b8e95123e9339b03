"""p-summing and (q,1)-summing norms of finite-rank operators.

The quantities here are suprema of strong-norm sums over families that
are weakly-p bounded: a family (y_1, ..., y_N) in the domain X = E* is
feasible when  sup_{x in B_E} (sum_k |<y_k, x>|^p)^(1/p) <= 1.

Every reported lower bound is produced by an explicit feasible family:
a candidate family is divided by a *certified upper bound* on its weak-p
norm, so the normalized family is genuinely feasible and the value it
attains is a true lower bound.  The weak-p norm of a family is the norm
of the map x -> (<y_k, x>)_k from E into ell_p^N, so the exact paths are
those of the operator-norm oracle ``operators._exact_norm``: p = infinity
and an ell_1 ball by closed forms, p = 1 by sign enumeration of the
members or of the cube vertices, and a sup-norm ball within the
enumeration cap by its vertices.  On them the normalization is tight and
the estimate is flagged accordingly in its method tags.

``witness_search`` is the one search engine of the package: it takes
the best of the structured seeds its caller supplies and polishes that
family by Powell.  It runs over two kinds of constraint ball: the unit
ball of a weighted ell_r space (``_weak_E``, the weak-p dispatch of this
module) and the section B_F of a subspace (``extension._weak_F``, exact
on the paths of ``extension._exact_norm_F``).  Each kind answers one
question per candidate family: a certified upper bound on its weak-p
norm, whether that bound is exact, and whether it is cheap enough for
the polish loop.  The search draws nothing at random, so its result
depends only on its inputs, ``family_size`` and ``polish``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .estimates import NormEstimate, WitnessFamily
from .operators import LinearMap, _exact_norm, _unit_space, operator_norm
from .optimize import OptimizerConfig
from .spaces import SpaceSpec, dual_space, norms_rows

if TYPE_CHECKING:
    from .extension import SubspaceSpec

__all__ = [
    "weak_p_norm",
    "pi_p_lower",
    "pi_1_exact_Linfty_domain",
    "pi_q1_lower",
    "witness_search",
    "hadamard",
    "lp_combine",
]


def hadamard(m: int) -> np.ndarray:
    """Sylvester Hadamard matrix; m must be a power of two."""
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError("Hadamard size must be a power of two")
    H = np.array([[1.0]])
    while H.shape[0] < m:
        H = np.block([[H, H], [H, -H]])
    return H


def lp_combine(values: np.ndarray, p: float) -> float:
    """(sum |v|^p)^(1/p), with the max convention at p = infinity."""
    values = np.abs(np.asarray(values, dtype=float))
    if math.isinf(p):  # the methods, not np.max and np.sum: same reductions, less dispatch
        return float(values.max()) if values.size else 0.0
    if p == 1:
        return float(values.sum())
    return float((values ** p).sum() ** (1.0 / p))


def _weak_crude_upper(Y: np.ndarray, space: SpaceSpec, p: float) -> float:
    """Triangle-inequality bound: combine the dual norms of the members."""
    return lp_combine(norms_rows(space.dual, Y), p)


def _weak_E(
    space: SpaceSpec, Y: np.ndarray, p: float, cfg: OptimizerConfig
) -> tuple[float, bool, bool]:
    """Weak-p norm of a family over the ball of ``space`` for the witness
    search: (certified upper bound, exact?, cheap enough to polish?).  Off
    the exact paths the triangle-inequality bound stands in; an ascent
    lower bound would dominate the cost and normalization only needs the
    upper one."""
    hit = _exact_norm(Y, space, _unit_space(p, len(Y)), cfg.family_size)
    if hit is None:
        return _weak_crude_upper(Y, space, p), False, False
    return hit[0], True, hit[2]


def weak_p_norm(
    family,
    space: SpaceSpec,
    p: float,
    cfg: OptimizerConfig | None = None,
) -> NormEstimate:
    """sup over the unit ball of ``space`` of (sum_k |<y_k, x>|^p)^(1/p).

    The family rows live in the dual of ``space``.  This is the norm of the
    map x -> (<y_k, x>)_k from ``space`` into ell_p^N, and its exact paths
    are those of ``operators._exact_norm`` with that codomain:

    * p = infinity: max of the members' dual norms;
    * r = 1 ball (any p): columnwise closed form over the cross-polytope;
    * p = 1 (any space): sign enumeration on the cheaper exact side, the
      2^(N-1) member patterns (while N stays within the family-size cap)
      or, over a sup-norm ball, the 2^(dim-1) cube vertices;
    * sup-norm ball within the enumeration cap (any p): cube vertices.

    Otherwise ``operator_norm`` of that map: the lower bound of its ascent
    from structured starts plus its row-norm upper bound, which is the
    triangle inequality (both certified; the gap is reported, not hidden).
    """
    cfg = cfg or OptimizerConfig()
    Y = np.atleast_2d(np.asarray(family, dtype=float))
    if Y.shape[1] != space.dim:
        raise ValueError("family members must live in the dual of the given space")
    # weak-p is homogeneous: scaling by a power of two, which is exact, keeps
    # the powers of tiny or huge members from underflowing or overflowing
    top = float(np.max(np.abs(Y)))
    e = math.frexp(top)[1] if 0.0 < top < math.inf else 0
    Y = np.ldexp(Y, -e)
    hit = _exact_norm(Y, space, _unit_space(p, len(Y)), cfg.family_size)
    if hit is not None:
        val, how, _ = hit
        val = math.ldexp(val, e)
        return NormEstimate(val, val, True, True, method=(how,))

    # heuristic regime: certified bounds from both sides, but not tight
    S = LinearMap.from_array(Y * space.weight_array, space, _unit_space(p, Y.shape[0]))
    est = operator_norm(S, cfg)
    return NormEstimate(
        math.ldexp(est.lower, e),
        math.ldexp(est.upper, e),
        True,
        True,
        method=("multistart lower", "triangle upper"),
    )


# --------------------------------------------------------------------------
# generic witness search
# --------------------------------------------------------------------------


def witness_search(
    ball: SpaceSpec | SubspaceSpec,
    p: float,
    objective: Callable[[np.ndarray], float],
    seeds: Iterable[np.ndarray],
    cfg: OptimizerConfig,
) -> tuple[float, WitnessFamily | None, bool]:
    """Maximize objective(Y) over families with weak-p norm at most 1.

    The constraint ball is the unit ball of a ``SpaceSpec`` (family rows
    live in its dual) or the section B_F of a ``SubspaceSpec`` (rows are
    forms on F in basis coordinates).  ``objective`` must be positively
    homogeneous of degree 1 in the family matrix.  Every seed is
    normalized by a certified upper bound on its weak-p norm, and the best
    of them is polished by Powell when that bound is cheap (``cfg.polish``
    turns the polish off); so the best value is always a true lower bound
    for sup { objective : weak-p <= 1 }.

    Returns (value, witness, tight) where ``tight`` records whether the
    winning candidate was normalized by an *exact* weak-p value.
    """
    if isinstance(ball, SpaceSpec):
        weak = _weak_E
    else:
        from .extension import _weak_F as weak

    best_val = 0.0
    best_fam: np.ndarray | None = None
    best_tight = True
    best_cheap = False

    def consider(Y: np.ndarray) -> None:
        nonlocal best_val, best_fam, best_tight, best_cheap
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if Y.size == 0 or not np.all(np.isfinite(Y)):
            return
        upper, tight, cheap = weak(ball, Y, p, cfg)
        # weak-p is homogeneous, so a family is degenerate when its bound
        # is tiny next to its own entries, whatever their scale
        if upper <= 1e-14 * np.max(np.abs(Y)) or math.isinf(upper):
            return
        val = objective(Y) / upper
        if val > best_val:
            best_val = val
            best_fam = Y / upper
            best_tight = tight
            best_cheap = cheap

    for Y in seeds:
        consider(Y)

    if cfg.polish and best_cheap and best_fam.size <= 128:
        polished = _polish_family(lambda Y: weak(ball, Y, p, cfg)[0], objective, best_fam)
        if polished is not None:
            consider(polished)

    witness = None
    if best_fam is not None:
        witness = WitnessFamily(best_fam, p, 1.0, best_val)
    return best_val, witness, best_tight


_POLISH_ITER = 400  # Powell evaluations per 8 family entries (at most 3000 in all)


def _polish_family(
    weak_upper: Callable[[np.ndarray], float],
    objective: Callable[[np.ndarray], float],
    Y0: np.ndarray,
) -> np.ndarray | None:
    """Derivative-free local improvement of objective/weak ratio."""
    from scipy.optimize import minimize

    N, dim = Y0.shape

    def neg_ratio(flat: np.ndarray) -> float:
        Y = flat.reshape(N, dim)
        upper = weak_upper(Y)
        if not (upper > 1e-14) or math.isinf(upper):
            return 0.0
        return -objective(Y) / upper

    res = minimize(
        neg_ratio,
        Y0.ravel(),
        method="Powell",
        options={
            "maxfev": min(_POLISH_ITER * max(1, N * dim // 8), 3000),
            "xtol": 1e-10,
            "ftol": 1e-12,
        },
    )
    if not np.all(np.isfinite(res.x)):
        return None
    return res.x.reshape(N, dim)


# --------------------------------------------------------------------------
# summing norms
# --------------------------------------------------------------------------


def _pi_objective(T: LinearMap, p: float) -> Callable[[np.ndarray], float]:
    A = T.matrix

    def obj(Y: np.ndarray) -> float:
        return lp_combine(norms_rows(T.codomain, Y @ A.T), p)

    return obj


def _pi_seeds(T: LinearMap, cfg: OptimizerConfig) -> list[np.ndarray]:
    """Structured candidate families for summing-norm lower bounds:
    domain atoms, the raw rows of the map, and Hadamard sign mixes of
    both (the mixes are what realize sqrt(n)-type values)."""
    A = T.matrix
    dim = T.domain.dim
    seeds: list[np.ndarray] = []
    eye = np.eye(dim)
    if dim <= cfg.family_size:
        seeds.append(eye)
    else:
        scores = np.linalg.norm(A, axis=0)  # how much each atom moves under T
        top = np.argsort(-scores)[: cfg.family_size]
        seeds.append(eye[np.sort(top)])
    seeds.append(A.copy())
    seeds.append(A / T.domain.weight_array)
    for m in (2, 4, 8, 16):
        if m > cfg.family_size:
            continue
        H = hadamard(m)
        if m <= dim:
            fam = np.zeros((m, dim))
            fam[:, :m] = H
            seeds.append(fam)
        if m <= A.shape[0]:
            seeds.append(H @ A[:m])
            seeds.append(H @ (A[:m] / T.domain.weight_array))
    for row in A[: min(8, A.shape[0])]:
        seeds.append(row[None, :])
    return seeds


def _pi_lower(
    T: LinearMap, p: float, q: float, cfg: OptimizerConfig, method: tuple[str, ...]
) -> NormEstimate:
    """Strong q-sums over weakly-p bounded families, by witness search; the
    families live in the domain X = E*, and the ball of E constrains them."""
    val, witness, tight = witness_search(
        dual_space(T.domain), p, _pi_objective(T, q), _pi_seeds(T, cfg), cfg
    )
    method += ("exact weak constraint" if tight else "crude-upper weak normalization",)
    return NormEstimate(val, math.inf, True, False, method=method, witness=witness)


def pi_p_lower(T: LinearMap, p: float, cfg: OptimizerConfig | None = None) -> NormEstimate:
    """Certified lower bound on the p-summing norm of ``T``.

    ``T`` must be defined on a dual space: families live in T.domain and
    the weak-p constraint ranges over the ball of its predual.
    """
    return _pi_lower(T, p, p, cfg or OptimizerConfig(), ("witness search",))


def pi_1_exact_Linfty_domain(T: LinearMap) -> float:
    """Exact 1-summing norm for a sup-norm domain and an ell_1 codomain.

    By trace duality the value collapses to the sum of the row-functional
    norms, sum_j sup_{|x| <= 1} <row_j, x> = sum_j sum_i |A_ji|; the
    elementary bound pi_1 <= sum_j ||row_j|| matches it from above, and
    the family of domain atoms attains it from below.
    """
    if not T.domain.is_sup:
        raise ValueError("closed form requires a sup-norm (L_inf(mu)-type) domain")
    if T.codomain.r != 1 or not T.codomain.unweighted:
        raise ValueError("closed form requires an unweighted ell_1 codomain")
    return float(np.sum(np.abs(T.matrix)))


def pi_q1_lower(T: LinearMap, q: float, cfg: OptimizerConfig | None = None) -> NormEstimate:
    """Certified lower bound on the (q,1)-summing norm: strong q-sums over
    weakly-1 bounded families."""
    if not (q >= 1):
        raise ValueError("q must be >= 1 or infinity")
    method = ("witness search", "weak-1 constraint")
    return _pi_lower(T, 1.0, q, cfg or OptimizerConfig(), method)
