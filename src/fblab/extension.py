"""Minimal-norm operator extensions from a subspace and embedding gaps.

Given a subspace F of a weighted ell_r space E (described by an explicit
basis and a complement basis) and an operator T defined on F, the
extension constant is

    inf { ||T~ : E -> ell_p^n|| : T~ restricted to F equals T } / ||T||,

where ||T|| is computed over B_F = B_E intersect F.  The infimum is over
the values W of T~ on the complement basis.  The reported constant is a
certified interval [1, ratio of the extension found]: the true infimum
is at least 1 because restricting any extension gives back T, and the
upper end is the norm of one explicit extension, exact on polytopal
domains and a certified upper bound otherwise.  Over a polytopal B_E
(ambient r in {1, inf}, at most 2^12 vertices x_v) at finite p > 1 that
norm is max_v ||T~ x_v||_p, convex in W, and W comes from one epigraph
program (SLSQP, no random starts); at p = 1 and over other balls from a
seeded multistart whose polishes run in lockstep by
``optimize.powell_starts`` (scipy's unbounded Powell method bit for bit
from each start, without bounds, callback, ``direc`` or ``maxiter``), one
call of a row-stacked objective per step for all of them; it is the one
search in the package that draws random numbers.  Two cases are exact:
p = infinity (each row functional of T extends from F to E preserving
its norm, and the sup-norm of an operator into ell_inf^n is the largest
row norm) and F = E (T is its own and only extension).

The embedding gap compares the free-lattice norm of an expression over
F (functionals on F are restrictions of E* functionals; the weak-p
constraint runs over B_F) with the norm of the same expression over E.
Both sides run ``summing.witness_search``, the same engine over the one
weak-p bound ``operators._bound`` of either constraint ball: B_E on the
ambient side, B_F on the F side, where the restricted ambient witness is
one of the seeds.

This module owns no geometry and no norm oracle of its own:
``SubspaceSpec`` and the sections B_F live in ``spaces``; the norm of an
extension over B_E, the lifted witness's weak-p bound and the norm of T
over B_F (``operators._operator_norm_over_F``) come from the bounds of
``operators``, ``_bound`` and ``_ascent_lower``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import NormEstimate, WitnessFamily
from .exprs import GeneratorBinding, LatticeExpr, eval_pairings
from .fbl import _expression_data, _fbl_objective, _fbl_seeds, fbl_norm
from .operators import LinearMap, _bound, _operator_norm_over_F, _unit_space
from .optimize import OptimizerConfig, powell_starts
from .spaces import (
    _SMALL_POLYTOPE_CAP,
    SpaceSpec,
    SubspaceSpec,
    _homogeneous,
    _ldexp,
    _vertex_count,
    extreme_points_matrix,
)
from .summing import hadamard, lp_combine, witness_search

__all__ = [
    "extension_constant",
    "embedding_gap",
    "EmbeddingGap",
]


# --------------------------------------------------------------------------
# the extension constant
# --------------------------------------------------------------------------


def _half_vertices(E: SpaceSpec) -> np.ndarray | None:
    """One vertex of each +- pair of B_E (rows) for ambient r in {1, inf}
    within ``spaces._SMALL_POLYTOPE_CAP`` vertices; None otherwise.  The
    first half of ``extreme_points_matrix`` is such a choice: +e_i / w_i
    for r = 1, the sign patterns with last sign +1 for r = inf."""
    if _vertex_count(E) > _SMALL_POLYTOPE_CAP:
        return None
    V = extreme_points_matrix(E)
    return V[: len(V) // 2]


def _epigraph_complement(Z: np.ndarray, M: np.ndarray, C: SpaceSpec) -> np.ndarray:
    """Complement values W (flat; ``C.dim`` rows, one column per
    complement vector) of a near-minimal extension of c -> M c over a
    polytopal ball, for finite C.r > 1.

    Row v of Z is the vertex x_v in the coordinates (a_v, c_v) of the basis
    and complement, so the extension [M W] takes it to M a_v + W c_v and
    its norm is max_v ||M a_v + W c_v||_C, convex in W.  One SLSQP run
    (Kraft 1988) on the epigraph form: min t subject to t - ||R0_v + W c_v||
    >= 0 for every v and t >= 0, with analytic Jacobians, from W = 0.  The
    rows R0_v = M a_v are divided by max |R0| and each coordinate of the
    c_v by its largest modulus, so values and gradients are about 1.
    The power form t^p - ||.||^p is worse conditioned and is not used.
    SLSQP may stop with status 8 at the optimum; the caller certifies
    whatever W comes back by its exact vertex norm.
    """
    from scipy.optimize import minimize

    k = M.shape[1]
    R0, Cv = Z[:, :k] @ M.T, Z[:, k:]
    scale = float(np.max(np.abs(R0)))
    R0 = R0 / scale
    # the program's variables are W times the largest |c_v| of each column
    col = np.max(np.abs(Cv), axis=0)
    Cv = Cv / col
    m, nW = C.dim, C.dim * Cv.shape[1]
    w, p = C.weight_array, C.r

    def norms_and_grads(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # each residual row divided by its largest entry: no overflow,
        # and the gradient of the norm does not depend on that scale
        Y = R0 + Cv @ x[:nW].reshape(m, -1).T
        top = np.max(np.abs(Y), axis=1)
        U = Y / np.where(top > 0.0, top, 1.0)[:, None]
        P = np.abs(U) ** (p - 1.0)
        s = (P * np.abs(U)) @ w
        s = np.where(s > 0.0, s, 1.0)  # only zero rows, whose U is 0
        return top * s ** (1.0 / p), (w * P * np.sign(U)) / (s ** (1.0 - 1.0 / p))[:, None]

    def fun(x):
        return np.append(x[-1] - norms_and_grads(x)[0], x[-1])

    def jac(x):
        G = norms_and_grads(x)[1]
        J = np.zeros((len(Z) + 1, nW + 1))
        J[:-1, :nW] = -(G[:, :, None] * Cv[:, None, :]).reshape(len(Z), nW)
        J[:, -1] = 1.0
        return J

    e_t = np.zeros(nW + 1)
    e_t[-1] = 1.0
    x0 = float(np.max(norms_and_grads(e_t)[0])) * e_t  # W = 0, t feasible
    res = minimize(
        lambda x: x[-1], x0, jac=lambda x: e_t, method="SLSQP",
        constraints=[{"type": "ineq", "fun": fun, "jac": jac}],
        options={"maxiter": 200, "ftol": 1e-12},
    )
    return (scale * res.x[:nW].reshape(m, -1) / col).ravel()


def _extensions(M: np.ndarray, X: np.ndarray, St_inv: np.ndarray) -> np.ndarray:
    """The extensions [M W] St_inv, on the ambient coordinates, of a stack
    of complement values W (rows X; each is ``len(M)`` rows of values, one
    per complement vector, flattened)."""
    K = len(X)
    return np.concatenate((np.broadcast_to(M, (K, *M.shape)), X.reshape(K, len(M), -1)), axis=2) @ St_inv


def _powell_complement(objective, nvars: int, denom: float, cfg: OptimizerConfig) -> tuple[np.ndarray, float]:
    """Complement values (flat) of the best extension found by the
    multistart outer search, and their objective value: W = 0 and
    ``cfg.restarts`` (at most 31) random starts 0.5 ||T||_F N(0, 1), the
    first 8 polished by Powell; start t draws from the generator of (seed,
    89, t).  The one reader of the ``OptimizerConfig``.  ``objective``
    takes a stack of complement values (rows) to the norm upper bounds of
    their extensions.  One call evaluates every start, and the polishes
    run in lockstep by ``optimize.powell_starts``, one call per step for
    all of them, each taking its start's value; a polished point's value
    is the one Powell computed there.  The best is taken over the starts in order, each
    start's polished point right after it."""
    inits = np.zeros((1 + min(cfg.restarts, 31), nvars))
    for t in range(len(inits) - 1):
        rng = np.random.default_rng((int(cfg.seed), 89, t))
        inits[t + 1] = 0.5 * denom * rng.standard_normal(nvars)
    values = objective(inits).tolist()
    polished = powell_starts(objective, inits[:8], 40 * nvars, 1e-8, 1e-10, values[:8])

    best_upper, best_W = math.inf, inits[0]
    for i, v0 in enumerate(values):
        if v0 < best_upper:
            best_upper, best_W = v0, inits[i]
        if i < len(polished):
            W, v, _ = polished[i]
            if np.all(np.isfinite(W)) and v < best_upper:
                best_upper, best_W = v, W
    if best_upper == math.inf:  # no value below inf: W = 0 reports its own
        best_upper = values[0]
    return best_W, best_upper


@_homogeneous(
    0, lambda sub, T, p, cfg=None: (T.matrix, (sub, p), lambda e: (sub, T._ldexp(-e), p, cfg))
)
def extension_constant(
    sub: SubspaceSpec,
    T: LinearMap,
    p: float,
    cfg: OptimizerConfig | None = None,
) -> NormEstimate:
    """Certified interval for the minimal-extension ratio

        inf { ||T~ : E -> codomain|| : T~ | F = T } / ||T||_F.

    ``T.domain`` must have dimension ``sub.dim``; T acts on basis
    coordinates, and its norm is taken over B_F = B_E intersect F.  The
    lower bound 1 is structural (restricting an extension gives back T).
    The upper bound is the ratio of one explicit extension, its norm a
    certified upper bound (``operators._bound``, exact over polytopal
    B_E), so it over-estimates the infimum whenever the search for the
    complement values stops short.  That search is, for finite p > 1 and
    ambient r in {1, inf} within ``spaces._SMALL_POLYTOPE_CAP`` vertices, one
    epigraph program (``_epigraph_complement``) that reads no seed, kept
    only where it beats the zero complement; otherwise the Powell
    multistart (``_powell_complement``).  A subspace whose basis is outside
    the float window is measured on its basis scaled into it
    (``SubspaceSpec._unit``); the extension is the same map.  Two cases are
    exactly 1: p = inf (row functionals extend from F to E with no norm
    increase, and the sup-norm of a map into ell_inf is its largest row
    norm) and F = E (T is the only extension).
    """
    cfg = cfg or OptimizerConfig()
    if T.domain.dim != sub.dim:
        raise ValueError("operator domain dimension must match the subspace dimension")
    if math.isinf(p):
        if not T.codomain.is_sup:
            raise ValueError("p = inf requires a sup-norm codomain")
        return NormEstimate(
            1.0, 1.0, True, True,
            method=("norm-preserving row-by-row extension",),
        )
    if not (abs(T.codomain.r - p) <= 1e-12):
        raise ValueError("codomain exponent must equal p")

    sub, s = sub._unit  # T on the scaled basis's coordinates is 2^-s T
    M = np.ldexp(T.matrix, -s) if s else T.matrix
    cod = T.codomain
    denom = _operator_norm_over_F(sub, M, cod)
    if denom <= 1e-14 * float(np.max(np.abs(M))):  # B_F spans the coordinates
        raise ValueError("operator vanishes on the subspace")
    E = sub.ambient
    n = E.dim
    k = sub.dim
    if n == k:
        return NormEstimate(1.0, 1.0, True, True, method=("trivial subspace",))
    S = np.vstack([sub.basis_matrix, sub.complement_matrix])  # x = kappa @ S
    St_inv = np.linalg.inv(S.T)

    def objective(X: np.ndarray) -> np.ndarray:
        return _bound(E, _extensions(M, X, St_inv) / E.weight_array, cod)[0]  # rows in pairing coordinates

    nvars = cod.dim * (n - k)
    V = _half_vertices(E) if p > 1.0 else None
    if V is None:
        best_W, best_upper = _powell_complement(objective, nvars, denom, cfg)
        how = "outer minimization over complement values"
    else:
        W = _epigraph_complement(V @ St_inv.T, M, cod)
        Ws = np.array([np.zeros(nvars), W] if np.all(np.isfinite(W)) else [np.zeros(nvars)])
        uppers = objective(Ws).tolist()
        at = 1 if uppers[1:] and uppers[1] < uppers[0] else 0
        best_W, best_upper = Ws[at], uppers[at]
        how = "epigraph program over ambient vertices"

    ratio_upper = max(best_upper / denom, 1.0)
    return NormEstimate(
        1.0,
        ratio_upper,
        True,
        True,
        method=(how, "upper bound on the infimum"),
        witness=WitnessFamily(_extensions(M, best_W[None], St_inv)[0], p, denom, ratio_upper),
    )


# --------------------------------------------------------------------------
# embedding gap
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingGap:
    """F-side versus E-side free-lattice norms of one expression."""

    subspace_lower: float
    ambient: NormEstimate
    ratio: float
    subspace_witness: WitnessFamily | None = None

    def _scaled(self, e: int, degree: int) -> EmbeddingGap:
        """This gap of a binding scaled by 2^-e, for the binding itself:
        its two norms are of ``degree``, its ratio of degree 0."""
        lower, w = _ldexp(self.subspace_lower, degree * e), self.subspace_witness
        return EmbeddingGap(lower, self.ambient._scaled(e, degree), self.ratio, w and w._scaled(e, degree))

    def to_json(self) -> dict:
        return {
            "subspace_lower": self.subspace_lower,
            "ambient": self.ambient.to_json(),
            "ratio": self.ratio,
            "subspace_witness": None
            if self.subspace_witness is None
            else self.subspace_witness.to_json(),
        }


@_homogeneous(1, lambda sub, e, b, p, cfg=None: _expression_data(e, b, (p,), lambda b: (sub, e, b, p, cfg)))
def embedding_gap(
    sub: SubspaceSpec,
    e: LatticeExpr,
    b: GeneratorBinding,
    p: float,
    cfg: OptimizerConfig | None = None,
) -> EmbeddingGap:
    """Ratio of the free-lattice norm of ``e`` over F (inherited norm) to
    its norm over the ambient space.  The binding's vectors must lie in
    the subspace.  Restricting any ambient witness family to F preserves
    its evaluations and can only shrink its weak-p constraint, so the
    ratio is at least 1 up to optimization slack.
    """
    if b.space != sub.ambient:
        raise ValueError("binding must live over the subspace's ambient space")
    coords = sub.coordinates(b.matrix)

    ambient_est = fbl_norm(e, b, p)

    seeds = [sub.restrict(Y) for Y in _fbl_seeds(e, b)]
    if ambient_est.witness is not None:
        seeds.append(sub.restrict(ambient_est.witness.matrix))
    k = sub.dim
    seeds.append(np.eye(k))
    for m in (2, 4, 8, 16):
        if m <= k:
            seeds.append(np.hstack([hadamard(m), np.zeros((m, k - m))]))

    def objective(G: np.ndarray) -> float:
        return lp_combine(eval_pairings(e, G @ coords.T), p)

    f_lower, witness, _ = witness_search(sub, p, objective, seeds)

    if witness is not None:
        # any F-side witness extends to an ambient family with the same
        # evaluations (pairings with generators only see F), giving one
        # more certified lower-bound candidate for the ambient norm
        lift = np.linalg.pinv((sub.basis_matrix * sub.ambient.weight_array).T)
        Y = witness.matrix @ lift
        w_up = _bound(sub.ambient, Y, _unit_space(p, len(Y)))[0]
        if w_up > 1e-14 and math.isfinite(w_up):
            amb_val = _fbl_objective(e, b, p)(Y) / w_up
            if amb_val > ambient_est.lower:
                upper = ambient_est.upper
                if not ambient_est.upper_certified:
                    upper = max(upper, amb_val)
                ambient_est = NormEstimate(
                    lower=amb_val,
                    upper=upper,
                    lower_certified=ambient_est.lower_certified,
                    upper_certified=ambient_est.upper_certified,
                    method=ambient_est.method + ("lifted subspace witness",),
                    witness=WitnessFamily(Y / w_up, p, 1.0, amb_val),
                )

    denom = max(ambient_est.lower, 1e-300)
    return EmbeddingGap(
        subspace_lower=f_lower,
        ambient=ambient_est,
        ratio=f_lower / denom,
        subspace_witness=witness,
    )
