"""Minimal-norm operator extensions from a subspace and embedding gaps.

Given a subspace F of a weighted ell_r space E (described by an explicit
basis and a complement basis) and an operator T defined on F, the
extension constant is

    inf { ||T~ : E -> ell_p^n|| : T~ restricted to F equals T } / ||T||,

where ||T|| is computed over B_F = B_E intersect F.  The infimum is over
the values of T~ on the complement basis; the inner norm is exact on
polytopal domains and a certified upper bound otherwise, so the reported
constant is a certified interval [1, best ratio found] — the true
infimum is at least 1 because restricting any extension gives back T.
Two cases are exact: p = infinity (each row functional of T extends
from F to E preserving its norm, and the sup-norm of an operator into
ell_inf^n is the largest row norm) and F = E (T is its own and only
extension).

The embedding gap compares the free-lattice norm of an expression over
F (functionals on F are restrictions of E* functionals; the weak-p
constraint runs over B_F) with the norm of the same expression over E.
Both sides run ``summing.witness_search``, the same engine over two
kinds of constraint ball: B_E on the ambient side, B_F (through
``_weak_F``) on the F side, where the restricted ambient witness is one
of the seeds.

Every F-side norm of a map c -> M c on basis coordinates (the weak-p
norm of a family G is that of c -> G c into ell_p^N; the norm of T is
that of its matrix) has one exact dispatcher, ``_exact_norm_F``, with
two paths, each built once per subspace: an axis-aligned F is the ball
of its own weighted ell_r model space, where the shared oracle
``operators._exact_norm`` applies; for ambient r in {1, inf}, B_F is a
polytope whose vertices are enumerated up to a fixed cap, and a convex
norm peaks at one of them.  Off both paths each caller keeps its own
fallback: the weak-p norm a triangle-inequality upper bound, the norm
of T a multistart ascent lower bound (one linear program per step for
ambient r in {1, inf}).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .estimates import NormEstimate, WitnessFamily
from .exprs import GeneratorBinding, LatticeExpr, eval_pairings
from .fbl import _fbl_objective, _fbl_seeds, fbl_norm
from .operators import LinearMap, _exact_norm, _multistart_ascent, _norm_upper, _unit_space
from .optimize import OptimizerConfig, restart_rng
from .spaces import (
    SpaceSpec,
    _json_fields,
    _readonly,
    _signs,
    dual_space,
    norm,
    norms_rows,
    space_from_json,
    space_to_json,
)
from .summing import _weak_crude_upper, _weak_E, hadamard, lp_combine, witness_search

__all__ = [
    "SubspaceSpec",
    "extension_constant",
    "embedding_gap",
    "EmbeddingGap",
    "subspace_to_json",
    "subspace_from_json",
]


@dataclass(frozen=True)
class SubspaceSpec:
    """A subspace F of an ambient space, with a complement completing a
    basis of the ambient space (combined rank checked at 1e-10)."""

    ambient: SpaceSpec
    basis: tuple[tuple[float, ...], ...]
    complement_basis: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        B = self.basis_matrix
        C = self.complement_matrix
        n = self.ambient.dim
        if not (np.all(np.isfinite(B)) and np.all(np.isfinite(C))):
            raise ValueError("basis and complement entries must be finite")
        if B.shape[1] != n or (C.size and C.shape[1] != n):
            raise ValueError("basis vectors must live in the ambient space")
        if B.shape[0] + C.shape[0] != n:
            raise ValueError(
                "basis and complement basis together must have exactly "
                f"{n} vectors, got {B.shape[0]} + {C.shape[0]}"
            )
        full = np.vstack([B, C]) if C.size else B
        sv = np.linalg.svd(full, compute_uv=False)
        if sv[-1] <= 1e-10 * max(1.0, sv[0]):
            raise ValueError("combined basis is rank deficient (tolerance 1e-10)")

    @staticmethod
    def from_arrays(ambient: SpaceSpec, basis, complement_basis) -> "SubspaceSpec":
        B = np.atleast_2d(_readonly(basis))
        C = _readonly(complement_basis)
        C = C.reshape(0, ambient.dim) if C.size == 0 else np.atleast_2d(C)
        if B.ndim != 2 or C.ndim != 2:
            raise ValueError("basis and complement basis must be 2-d arrays of vectors")
        return SubspaceSpec(ambient, tuple(map(tuple, B.tolist())), tuple(map(tuple, C.tolist())))

    @cached_property
    def basis_matrix(self) -> np.ndarray:  # read-only, built once per subspace
        return _readonly(self.basis)

    @cached_property
    def complement_matrix(self) -> np.ndarray:  # read-only, (0, n) for F = E
        a = _readonly(self.complement_basis)
        return a.reshape(0, self.ambient.dim) if a.size == 0 else a

    @property
    def dim(self) -> int:
        return len(self.basis)

    def embed(self, coords: np.ndarray) -> np.ndarray:
        """The ambient point with the given basis coordinates."""
        return np.asarray(coords, dtype=float) @ self.basis_matrix

    def coordinates(self, points: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        """Basis coordinates of ambient points (rows); errors if a point
        does not lie in the subspace to within ``tol``."""
        X = np.atleast_2d(np.asarray(points, dtype=float))
        B = self.basis_matrix
        C, *_ = np.linalg.lstsq(B.T, X.T, rcond=None)
        C = C.T
        resid = np.max(np.abs(C @ B - X)) if X.size else 0.0
        if resid > tol * max(1.0, float(np.max(np.abs(X)))):
            raise ValueError("points do not lie in the subspace")
        return C

    def restrict(self, functionals: np.ndarray) -> np.ndarray:
        """Restrictions of ambient dual functionals to F, in the basis-
        coordinate representation g with <g, c> = sum_j g_j c_j."""
        Y = np.atleast_2d(np.asarray(functionals, dtype=float))
        return Y @ (self.basis_matrix * self.ambient.weight_array).T

    def ambient_norm(self, coords: np.ndarray) -> float:
        return norm(self.ambient, self.embed(coords))

    @cached_property
    def _model(self) -> tuple[SpaceSpec, np.ndarray] | None:
        """The weighted ell_r space whose ball is B_F when F is axis-aligned,
        with its divisors (see ``_axis_aligned_model``); None otherwise.
        Computed on first use, then kept."""
        return _axis_aligned_model(self.ambient, self.basis_matrix)

    @cached_property
    def _vertices(self) -> np.ndarray | None:
        """Read-only vertices of B_F (rows, basis coordinates, ambient norm
        1) for ambient r in {1, inf}; None for other exponents or above
        the candidate cap.  Computed on first use, then kept."""
        return _section_vertices(self.ambient, self.basis_matrix)


def subspace_to_json(sub: SubspaceSpec) -> dict:
    return {
        "ambient": space_to_json(sub.ambient),
        "basis": [list(row) for row in sub.basis],
        "complement_basis": [list(row) for row in sub.complement_basis],
    }


def subspace_from_json(obj: dict) -> SubspaceSpec:
    _json_fields(obj, "subspace", "ambient", "basis", "complement_basis")
    return SubspaceSpec.from_arrays(
        space_from_json(obj["ambient"]), obj["basis"], obj["complement_basis"]
    )


# --------------------------------------------------------------------------
# the inherited geometry of F: linear forms over B_F = B_E intersect F
# --------------------------------------------------------------------------

# Vertex enumeration of B_F gives up when the candidate points (k-subsets
# of constraints times sign patterns for r = inf, (k-1)-subsets of
# zonotope generators for r = 1) times n * k exceed this; that product
# bounds every array it builds (2M floats, 16 MB).  Every linear form is
# then one LP.
_VERTEX_CANDIDATE_CAP = 1 << 21


def _section_vertices(E: SpaceSpec, B: np.ndarray) -> np.ndarray | None:
    """Vertices of B_F = {c : ||c @ B||_E <= 1}, scaled to ambient norm 1,
    for ambient r in {1, inf}; None otherwise or above the candidate cap.

    r = inf: B_F = {c : |z_i . c| <= 1} over the columns z_i of B; a vertex
    solves k linearly independent tight rows z_i . c = s_i and satisfies
    the others.  r = 1: B_F is the polar of the zonotope sum_i [-z_i, z_i]
    with z_i = w_i b_i; its vertices are +-a / sum_i |z_i . a| over the
    normals a of the hyperplanes spanned by k - 1 generators.  Zero
    columns constrain nothing and are dropped first.
    """
    if not (E.is_sup or E.r == 1):
        return None
    k, n = B.shape
    Z = B.T if E.is_sup else (B * E.weight_array).T
    Z = Z[np.any(Z != 0.0, axis=1)]
    m = Z.shape[0]
    count = math.comb(m, k) << (k - 1) if E.is_sup else math.comb(m, k - 1)
    if count * n * k > _VERTEX_CANDIDATE_CAP:
        return None
    if E.is_sup:
        A = Z[np.array(list(itertools.combinations(range(m), k)))]
        sv = np.linalg.svd(A, compute_uv=False)
        A = A[sv[:, -1] > 1e-10 * sv[:, 0]]
        # sign patterns with s_0 = +1 (the even rows); those with s_0 = -1
        # give -c
        X = np.linalg.solve(A, _signs(k)[::2].T[None]).transpose(0, 2, 1).reshape(-1, k)
        # a slightly infeasible candidate is harmless: scaling below puts
        # it inside B_F
        X = X[np.max(np.abs(X @ Z.T), axis=1) <= 1.0 + 1e-6]
    elif k == 1:
        X = np.ones((1, 1))
    else:
        A = Z[np.array(list(itertools.combinations(range(m), k - 1)))]
        _, sv, vh = np.linalg.svd(A)
        X = vh[sv[:, -1] > 1e-10 * sv[:, 0], -1, :]
    if len(X) == 0:  # every candidate ill-conditioned: leave it to the LP
        return None
    X = np.vstack([X, -X])
    X = X / norms_rows(E, X @ B)[:, None]
    _, first = np.unique(np.round(X / np.max(np.abs(X)), 12), axis=0, return_index=True)
    return _readonly(X[np.sort(first)])


def _axis_aligned_model(E: SpaceSpec, B: np.ndarray) -> tuple[SpaceSpec, np.ndarray] | None:
    """If every basis vector (row of B) is a scaled coordinate vector
    s_j e_ij on distinct coordinates, B_F is itself the ball of a weighted
    ell_r space.  Returns that space and divisors d taking a plain form g
    on basis coordinates to its model functional g / d (pairing
    coordinates), or None.  For ambient r = inf the model point of c is
    c |s| and d = |s|; otherwise it is c itself, with weights
    d = w_ij |s_j|^r."""
    supports = [np.flatnonzero(np.abs(row) > 0) for row in B]
    if any(len(s) != 1 for s in supports):
        return None
    idx = np.array([s[0] for s in supports])
    if len(set(idx.tolist())) != len(idx):
        return None
    scales = np.array([B[j, idx[j]] for j in range(len(idx))])
    if E.is_sup:
        return SpaceSpec(math.inf, len(idx)), np.abs(scales)
    w = E.weight_array[idx] * np.abs(scales) ** E.r
    return SpaceSpec(E.r, len(idx), tuple(w)), w


def _max_linear_over_BF(sub: SubspaceSpec, v: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize the plain form v . c over B_F, with a maximizer of ambient
    norm 1, where B_F has no vertex set (``_exact_norm_F`` covers the
    others).  Exact by one linear program for ambient r in {1, inf} and
    in closed form for r = 2; otherwise the better of two feasible points,
    the r = 2 maximizer and v itself, each rescaled to ambient norm 1
    (still a true value, attained at the returned point)."""
    E = sub.ambient
    v = np.asarray(v, dtype=float)
    B = sub.basis_matrix
    k, n = B.shape
    if np.all(v == 0.0):
        c = np.zeros(k)
        c[0] = 1.0
        return 0.0, c / max(sub.ambient_norm(c), 1e-300)
    w = E.weight_array

    if E.is_sup or E.r == 1:
        from scipy.optimize import linprog

        # HiGHS reads a cost vector of tiny length as zero and returns an
        # arbitrary feasible point, so the LP sees v at unit length
        u = v / np.linalg.norm(v)
        Bt = B.T  # constraint rows act on c through (c @ B)_i = (Bt @ c)_i
        if E.is_sup:
            A_ub = np.vstack([Bt, -Bt])
            b_ub = np.ones(2 * n)
            res = linprog(-u, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * k, method="highs")
            if not res.success:
                raise RuntimeError(f"linear program failed: {res.message}")
            c = res.x
        else:
            # variables (c, t): t_i >= |(c @ B)_i|, sum w_i t_i <= 1
            A1 = np.hstack([Bt, -np.eye(n)])
            A2 = np.hstack([-Bt, -np.eye(n)])
            A3 = np.hstack([np.zeros((1, k)), w[None, :]])
            A_ub = np.vstack([A1, A2, A3])
            b_ub = np.concatenate([np.zeros(2 * n), [1.0]])
            cost = np.concatenate([-u, np.zeros(n)])
            bounds = [(None, None)] * k + [(0, None)] * n
            res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
            if not res.success:
                raise RuntimeError(f"linear program failed: {res.message}")
            c = res.x[:k]
        nv = sub.ambient_norm(c)
        if nv > 0:
            c = c / nv
        return float(v @ c), c

    # at r = 2 the squared norm of c @ B is c . G c with G = (B * w) @ B.T,
    # so v . c peaks along G^-1 v
    sol = np.linalg.solve((B * w) @ B.T, v)
    if E.r == 2:
        val = math.sqrt(float(v @ sol))
        return val, sol / val

    # generic r: the better of the Euclidean maximizer and v itself, rescaled
    best_val, best_c = 0.0, None
    for c0 in (sol, v):
        if not np.all(np.isfinite(c0)):
            continue
        nv = sub.ambient_norm(c0)
        if nv <= 1e-14:
            continue
        c = c0 / nv
        val = float(v @ c)
        if abs(val) > best_val:
            best_val, best_c = abs(val), math.copysign(1.0, val) * c
    if best_c is None:
        best_c = np.zeros(k)
        best_c[0] = 1.0
        best_c /= sub.ambient_norm(best_c)
        best_val = abs(float(v @ best_c))
    return best_val, best_c


def _fstar_norm_upper(sub: SubspaceSpec, g: np.ndarray) -> float:
    """Certified upper bound for the norm of the form c -> g . c on F.

    Exact for ambient exponent in {1, 2, inf}: by one linear program for
    r in {1, inf} (B_F has no vertex set where this runs), in closed form
    for r = 2.  Otherwise the norm of the minimal-Euclidean lift of g to an E*
    functional, which dominates the restriction's norm.
    """
    E = sub.ambient
    if E.is_sup or E.r in (1.0, 2.0):
        val, _ = _max_linear_over_BF(sub, g)
        return val
    B = sub.basis_matrix
    w = E.weight_array
    # lift: phi in E* with restriction g, i.e. (B * w) @ phi = g
    phi, *_ = np.linalg.lstsq(B * w, np.asarray(g, dtype=float), rcond=None)
    return norm(dual_space(E), phi)


def _exact_norm_F(
    sub: SubspaceSpec, M: np.ndarray, C: SpaceSpec, family_size: int
) -> tuple[float, str, bool] | None:
    """The exact norm of c -> M c from B_F into ``C``, for M acting on basis
    coordinates, with the contract of ``operators._exact_norm``: (value,
    path tag, cheap enough for a polish loop?), or None off the exact
    paths.  This is the one place that orders them: first the model space
    of an axis-aligned F, through ``_exact_norm`` (the rows of M / d are
    model functionals); then, for ambient r in {1, inf}, the vertices of
    B_F, where the convex norm peaks.  Where both apply they can differ in
    the last bit; the model goes first."""
    model = sub._model
    if model is not None:
        space_F, d = model
        hit = _exact_norm(M / d, space_F, C, family_size)
        if hit is not None:
            return hit
    V = sub._vertices
    if V is None:
        return None
    return float(np.max(norms_rows(C, V @ M.T))), "B_F vertex enumeration", True


def _weak_F(
    sub: SubspaceSpec, G: np.ndarray, p: float, cfg: OptimizerConfig
) -> tuple[float, bool, bool]:
    """Weak-p norm of a family of forms on F over B_F = B_E intersect F,
    for the witness search: (certified upper bound, exact?, cheap enough
    to polish?).

    The weak-p norm is the norm of c -> G c from B_F into ell_p^N, exact
    wherever ``_exact_norm_F`` is.  Off its paths the triangle inequality
    bounds it: over the model space of an axis-aligned F by the members'
    model dual norms; elsewhere by the lp-combination of upper bounds on
    the members' norms, exact at p = inf when those are (r in {1, 2,
    inf}), and not cheap for ambient r in {1, inf}, where each member
    costs a linear program.
    """
    hit = _exact_norm_F(sub, G, _unit_space(p, len(G)), cfg.family_size)
    if hit is not None:
        return hit[0], True, hit[2]
    if sub._model is not None:
        space_F, d = sub._model
        return _weak_crude_upper(G / d, space_F, p), False, False
    E = sub.ambient
    upper = lp_combine(np.array([_fstar_norm_upper(sub, g) for g in G]), p)
    exact_members = E.is_sup or E.r in (1.0, 2.0)
    return upper, math.isinf(p) and exact_members, not (E.is_sup or E.r == 1)


# --------------------------------------------------------------------------
# operator norm over B_F and the extension constant
# --------------------------------------------------------------------------


def _operator_norm_over_F(
    sub: SubspaceSpec, M: np.ndarray, codomain: SpaceSpec, cfg: OptimizerConfig
) -> float:
    """sup of the codomain norm of M c over B_F: exact wherever
    ``_exact_norm_F`` is, otherwise a certified lower bound, the best
    multistart conditional-gradient ascent value (attained at a point of
    B_F; one linear program per step for ambient r in {1, inf})."""
    hit = _exact_norm_F(sub, M, codomain, cfg.family_size)
    if hit is not None:
        return hit[0]
    return _multistart_ascent(
        M, codomain, sub.ambient_norm, lambda g: _max_linear_over_BF(sub, g)[1],
        cfg, min(cfg.restarts, 24), salt=83,
    )[0]


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
    The upper bound is the best ratio over the extensions tried, each
    extension's norm a certified upper bound (``operators._norm_upper``),
    so it over-estimates the infimum whenever the outer search stalls.
    Two cases are exactly 1: p = inf (row functionals extend from F to E
    with no norm increase, and the sup-norm of a map into ell_inf is its
    largest row norm) and F = E (T is the only extension).
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

    M = T.matrix
    cod = T.codomain
    denom = _operator_norm_over_F(sub, M, cod, cfg)
    if denom <= 1e-14:
        raise ValueError("operator vanishes on the subspace")
    E = sub.ambient
    n = E.dim
    k = sub.dim
    if n == k:
        return NormEstimate(1.0, 1.0, True, True, method=("trivial subspace",))
    S = np.vstack([sub.basis_matrix, sub.complement_matrix])  # x = kappa @ S
    St_inv = np.linalg.inv(S.T)

    def assembled(W: np.ndarray) -> np.ndarray:
        return np.hstack([M, W.reshape(cod.dim, n - k)]) @ St_inv

    def objective(flat: np.ndarray) -> float:
        return _norm_upper(assembled(flat), E, cod, cfg.family_size)[0]

    nvars = cod.dim * (n - k)
    best_upper = math.inf
    best_W = np.zeros(nvars)

    inits = [np.zeros(nvars)]
    for t in range(min(cfg.restarts, 31)):
        rng = restart_rng(cfg, t, salt=89)
        inits.append(0.5 * denom * rng.standard_normal(nvars))

    from scipy.optimize import minimize

    polish_budget = 8
    for i, W0 in enumerate(inits):
        v0 = objective(W0)
        if v0 < best_upper:
            best_upper, best_W = v0, W0
        if i < polish_budget and cfg.polish:
            res = minimize(
                objective, W0, method="Powell",
                options={"maxfev": 40 * nvars, "xtol": 1e-8, "ftol": 1e-10},
            )
            if np.all(np.isfinite(res.x)):
                v = objective(res.x)
                if v < best_upper:
                    best_upper, best_W = v, res.x

    ratio_upper = max(best_upper / denom, 1.0)
    return NormEstimate(
        1.0,
        ratio_upper,
        True,
        True,
        method=("outer minimization over complement values",
                "upper bound on the infimum"),
        witness=WitnessFamily(assembled(best_W), p, denom, ratio_upper),
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

    def to_json(self) -> dict:
        return {
            "subspace_lower": self.subspace_lower,
            "ambient": self.ambient.to_json(),
            "ratio": self.ratio,
            "subspace_witness": None
            if self.subspace_witness is None
            else self.subspace_witness.to_json(),
        }


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
    cfg = cfg or OptimizerConfig()
    if b.space != sub.ambient:
        raise ValueError("binding must live over the subspace's ambient space")
    coords = sub.coordinates(b.matrix)

    ambient_est = fbl_norm(e, b, p, cfg)

    seeds = [sub.restrict(Y) for Y in _fbl_seeds(e, b, cfg)]
    if ambient_est.witness is not None:
        seeds.append(sub.restrict(ambient_est.witness.matrix))
    k = sub.dim
    seeds.append(np.eye(k))
    for m in (2, 4, 8, 16):
        if m <= k:
            seeds.append(np.hstack([hadamard(m), np.zeros((m, k - m))]))

    def objective(G: np.ndarray) -> float:
        return lp_combine(eval_pairings(e, G @ coords.T), p)

    f_lower, witness, _ = witness_search(sub, p, objective, seeds, cfg)

    if witness is not None:
        # any F-side witness extends to an ambient family with the same
        # evaluations (pairings with generators only see F), giving one
        # more certified lower-bound candidate for the ambient norm
        lift = np.linalg.pinv((sub.basis_matrix * sub.ambient.weight_array).T)
        Y = witness.matrix @ lift
        w_up, _, _ = _weak_E(sub.ambient, Y, p, cfg)
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
