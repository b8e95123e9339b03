"""Dense linear maps between weighted ell_r spaces.

A :class:`LinearMap` acts by plain matrix multiplication, ``y = A @ x``.
Whenever a map is built out of vectors that are meant to be *paired*
against the argument (a tuple map f -> (<f, x_k>)_k on a dual space),
the constructor bakes the pairing weights into the matrix rows, so the
action stays a plain product everywhere downstream.

Norms of maps from a constraint ball (``spaces``), the unit ball B_E of
a space or a section B_F of a subspace, have one oracle here, whatever
reports them: the weak-p norm of a family is such a norm into ell_p^N,
the operator norm of a map one into its codomain.  ``_bound`` gives the
certified upper bound, exact on the paths of the one dispatcher
``_exact_plan`` and the triangle inequality off them; ``_ascent_lower``
gives the certified lower bound of a conditional-gradient ascent that
steps by the ball's own linear maximizer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimates import NormEstimate
from .optimize import OptimizerConfig
from .spaces import (
    _EXTREME_ENUM_CAP,
    _FAMILY_CAP,
    SpaceSpec,
    SubspaceSpec,
    _homogeneous,
    _json_fields,
    _max_signed_sum,
    _norm_each_row,
    _readonly,
    _roots,
    _values,
    dual_space,
    norming_vector,
    norms_rows,
    space_from_json,
    space_to_json,
)

__all__ = [
    "LinearMap",
    "adjoint",
    "operator_norm",
    "tuple_map",
    "map_to_json",
    "map_from_json",
]


@dataclass(frozen=True, eq=False)
class LinearMap:
    """The map x -> matrix @ x, its matrix copied once into a read-only
    float array.  Maps compare by identity."""

    matrix: np.ndarray
    domain: SpaceSpec
    codomain: SpaceSpec

    def __post_init__(self) -> None:
        a = _readonly(np.atleast_2d(self.matrix))
        if a.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError(
                f"matrix shape {a.shape} does not match map "
                f"{self.domain.dim} -> {self.codomain.dim}"
            )
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "matrix", a)

    @staticmethod
    def from_array(a: np.ndarray, domain: SpaceSpec, codomain: SpaceSpec) -> "LinearMap":
        return LinearMap(a, domain, codomain)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ self.domain.check_point(x)

    def _ldexp(self, k: int) -> "LinearMap":  # 2^k times the map, exact
        return LinearMap(np.ldexp(self.matrix, k), self.domain, self.codomain)

    @functools.cached_property
    def _unweighted(self) -> "LinearMap":
        """The map a / w^(1/r) from the unweighted ell_r, onto which x ->
        w^(1/r) x maps a weighted domain ell_r(w) isometrically: the same
        norm.  Its rows' dual norms take no power of a / w, which leaves
        the floats for weights beyond about 2^+-480 whatever the scale of a."""
        E = self.domain
        if E.unweighted:
            return self
        return LinearMap(self.matrix / E.weight_array ** (1.0 / E.r), SpaceSpec(E.r, E.dim), self.codomain)


def tuple_map(vectors: np.ndarray, space: SpaceSpec, codomain: SpaceSpec) -> LinearMap:
    """The map f -> (<f, x_k>)_k on the dual of ``space``.

    ``vectors`` holds the x_k as rows; the pairing weights of ``space``
    are folded into the matrix.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    if vectors.shape[1] != space.dim:
        raise ValueError("vectors do not live in the announced space")
    if codomain.dim != vectors.shape[0]:
        raise ValueError("codomain dimension must equal the number of vectors")
    rows = vectors * space.weight_array
    return LinearMap.from_array(rows, dual_space(space), codomain)


def adjoint(T: LinearMap) -> LinearMap:
    """The adjoint with respect to the weighted pairings:
    pairing(T* f, x) over the domain equals pairing(f, T x) over the codomain."""
    wd = T.domain.weight_array
    wc = T.codomain.weight_array
    a = (T.matrix * wc[:, None]).T / wd[:, None]
    return LinearMap.from_array(a, dual_space(T.codomain), dual_space(T.domain))


def _norm_gradient(space: SpaceSpec, y: np.ndarray) -> np.ndarray:
    """A (sub)gradient of the norm of ``space`` at y, in plain coordinates."""
    y = np.asarray(y, dtype=float)
    if space.is_sup:
        j = int(np.argmax(np.abs(y)))
        g = np.zeros(space.dim)
        g[j] = math.copysign(1.0, y[j]) if y[j] != 0 else 1.0
        return g
    w = space.weight_array
    if space.r == 1:
        return w * (np.sign(y) + (y == 0.0))
    n = _norm_each_row(space, y)
    if n <= 0:
        return w.copy()
    return w * np.sign(y) * (np.abs(y) / n) ** (space.r - 1.0)


_ASCENT_MAX_ITER, _ASCENT_TOL = 200, 1e-13  # steps and relative stopping tolerance of one ascent


def _ascend(
    a: np.ndarray,
    codomain: SpaceSpec,
    x: np.ndarray,
    linear_max: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Conditional-gradient ascent for the convex objective ||a x|| on a
    convex body: linearize at x, move to the body point ``linear_max(g)``
    maximizing the linearization g . x.  Monotone; returns the value."""
    val = _norm_each_row(codomain, a @ x)
    for _ in range(_ASCENT_MAX_ITER):
        x = linear_max(a.T @ _norm_gradient(codomain, a @ x))
        new_val = _norm_each_row(codomain, a @ x)
        if new_val <= val + _ASCENT_TOL * val:
            return max(val, new_val)
        val = new_val
    return val


def _structured_ascent(
    a: np.ndarray,
    codomain: SpaceSpec,
    body_norm: Callable[[np.ndarray], float],
    linear_max: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Best ``_ascend`` value over structured starts: the body's coordinate
    vectors, the body points ``linear_max(row)`` that norm the rows of
    ``a``, and the top right singular vector of ``a``, each scaled to the
    boundary of the body; of the first two kinds only the 32 of largest
    ||a e_i|| / |e_i| and Euclidean row norm, so the work stays bounded in
    the size of ``a``.  For ell_r -> ell_s this is Boyd's power method
    (Boyd 1974; Higham 1992)."""
    dim = a.shape[1]
    top = lambda s: np.sort(np.argsort(-np.asarray(s), kind="stable")[:32])  # in index order
    cols = [_norm_each_row(codomain, a[:, i]) / body_norm(np.eye(1, dim, i)[0]) for i in range(dim)]
    starts = [np.eye(1, dim, i)[0] for i in top(cols)]
    starts += [linear_max(a[i]) for i in top(np.linalg.norm(a, axis=1))]
    starts.append(np.linalg.svd(a, full_matrices=False)[2][0])
    best = 0.0
    for x0 in starts:
        n0 = body_norm(x0)
        if n0 > 1e-14:
            best = max(best, _ascend(a, codomain, x0 / n0, linear_max))
    return best


def _ascent_lower(ball: SpaceSpec | SubspaceSpec, a: np.ndarray, C: SpaceSpec) -> float:
    """The one lower-bound oracle: a certified lower bound on the norm of
    x -> a x from a constraint ball into ``C``, for a plain matrix a on the
    coordinates of E or on the basis coordinates of F.  It is the
    ``_structured_ascent`` value, attained at a point of the ball, and the
    ascent steps by the ball's own linear maximizer: ``norming_vector``
    over B_E, ``_max_linear_over_BF`` over B_F."""
    if isinstance(ball, SpaceSpec):
        return _structured_ascent(a, C, lambda x: _norm_each_row(ball, x), lambda g: norming_vector(ball, g))
    return _structured_ascent(a, C, ball.ambient_norm, lambda g: _max_linear_over_BF(ball, g)[1])


@functools.cache
def _unit_space(p: float, n: int) -> SpaceSpec:
    """Unweighted ell_p^n, built once per (p, n): the codomain in which
    ``_exact_plan`` measures a family's values for its weak-p norm."""
    return SpaceSpec(p, n)


def _exact_plan(
    ball: SpaceSpec | SubspaceSpec, C: SpaceSpec
) -> tuple[Callable[[np.ndarray], float | np.ndarray], str, bool] | None:
    """The exact norm of x -> (<y_c, x>)_c from a constraint ball into
    ``C`` for the rows y_c of Y: the weak-p norm of a family into
    unweighted ell_p^N, an operator norm for the map's rows.  This is the
    one place that chooses an exact path for either kind of ball.  Returns
    (the value as a function of Y, path tag, cheap enough for a polish
    loop?), or None when no exact path applies.  The value function also
    takes a stack (K, N, dim) of Y and returns their K values, each with
    the bits it has alone.

    Over the unit ball of a ``SpaceSpec`` E the rows are in pairing
    coordinates of the dual of E, and the plan is ``_space_plan(E, C)``,
    resolved once per (E, C).

    Over the section B_F = B_E intersect F of a ``SubspaceSpec`` the rows
    are forms on F in basis coordinates, and there are two paths, each
    built once per subspace.  An axis-aligned F is the ball of its own
    weighted ell_r model space (``spaces._axis_aligned_model``), where the
    space's plan applies to the model functionals Y / d.  For ambient r in
    {1, inf}, B_F is a polytope whose vertices are enumerated up to a
    fixed cap (``spaces._section_vertices``), and the convex norm peaks at
    one of them.  Where both apply they can differ in the last bit; the
    model goes first.  Section plans are not cached by value: equal
    sections built under different vertex caps have different vertex
    sets, and each vertex set can hold 16 MB."""
    if isinstance(ball, SpaceSpec):
        return _space_plan(ball, C)
    if ball._model is not None:
        space_F, d = ball._model
        plan = _space_plan(space_F, C)
        if plan is not None:
            value, tag, cheap = plan
            return (lambda M: value(M / d)), tag, cheap
    V = ball._vertices
    if V is None:
        return None
    top = lambda M: _values(np.maximum.reduce(norms_rows(C, V @ np.swapaxes(M, -1, -2)), axis=-1))
    return top, "B_F vertex enumeration", True


@functools.lru_cache(maxsize=256)
def _space_plan(
    E: SpaceSpec, C: SpaceSpec
) -> tuple[Callable[[np.ndarray], float | np.ndarray], str, bool] | None:
    """``_exact_plan`` over the unit ball of ``E``, for Y in pairing
    coordinates of the dual of E.  The tags name the weak-p paths (C =
    ell_p^N).  In order: a sup-norm codomain by the rows' dual norms and
    an ell_1 domain by the best column (closed forms); an ell_1 codomain of
    at most ``spaces._FAMILY_CAP`` rows by its 2^(N-1) row signs or, over a
    sup-norm ball, the 2^(dim-1) cube vertices, whichever enumerates fewer
    signed-sum entries; a sup-norm domain within the enumeration cap by its
    cube vertices.  The enumerating paths are maxima of
    ``spaces._max_signed_sum``, which reads a stack whose signed sums
    share their |entries| (disjoint members on the member side, members of
    one nonzero on the cube side) off its all-plus sum, with the same
    bits."""
    N, dim, dual = C.dim, E.dim, E.dual
    if C.is_sup:
        sup = lambda Y: _values(np.maximum.reduce(norms_rows(dual, Y), axis=-1))
        return sup, "weak-inf closed form", True
    if E.r == 1:  # the vertices +-e_i / w_i pair to +-Y[:, i]
        r, wc = C.r, None if C.unweighted else C.weight_array[:, None]

        def cross_polytope(Y: np.ndarray) -> np.ndarray:  # the largest column sum of powers
            V = np.abs(Y) if r == 1 else np.abs(Y) ** r  # a power of 1 is a slow copy
            if wc is not None:
                V = V * wc
            return np.maximum.reduce(np.add.reduce(V, axis=-2), axis=-1)

        return (lambda Y: _roots(cross_polytope(Y), 1.0 / r)), "cross-polytope enumeration", True
    if C.r == 1 and N <= _FAMILY_CAP:
        tag = "sign enumeration"
        cheap = (1 << (N - 1)) * min(dim, N) <= (1 << 17)
        on_cube = E.is_sup and (1 << (dim - 1)) * N < (1 << (N - 1)) * dim
    elif E.is_sup and dim <= _EXTREME_ENUM_CAP:
        tag = "cube-vertex enumeration"
        cheap = (1 << dim) * N <= (1 << 21)
        on_cube = True
    else:
        return None
    if on_cube:  # the cube vertex s maps to s @ (Y * w).T
        w = None if E.unweighted else E.weight_array
        return (lambda Y: _max_signed_sum(np.swapaxes(Y if w is None else Y * w, -1, -2), C)[0]), tag, cheap
    # sum_c w_c |<y_c, x>| is the largest <sum_c s_c w_c y_c, x>
    w = None if C.unweighted else C.weight_array[:, None]
    return (lambda Y: _max_signed_sum(Y if w is None else Y * w, dual)[0]), tag, cheap


def _weak_crude_upper(Y: np.ndarray, E: SpaceSpec, C: SpaceSpec) -> float:
    """Triangle-inequality bound on the norm of x -> (<y_c, x>)_c from the
    ball of ``E`` into ``C``: the C-norm of the rows' dual norms."""
    return _norm_each_row(C, norms_rows(E.dual, Y))


def _bound(
    ball: SpaceSpec | SubspaceSpec, Y: np.ndarray, C: SpaceSpec
) -> tuple[float | np.ndarray, bool, Callable[[np.ndarray], np.ndarray] | None, str]:
    """The one upper-bound oracle: a certified upper bound on the norm of
    x -> (<y_c, x>)_c from a constraint ball into ``C``, for the rows y_c
    of Y in the coordinates of ``_exact_plan``, or the bound of each map
    of a stack (K, N, dim), each with the bits it has alone.  The weak-p
    norm of a family is this norm into unweighted ell_p^N.  Returns (the
    bound, whether it is exact, the bound as a function of a stack for the
    polish or None where it is too dear to polish, the path tag).

    On a path of ``_exact_plan`` the bound is its value, handed to the
    polish where the plan is cheap.  Off them it is the triangle
    inequality, tagged "row-norm upper bound".  Over the unit ball of a
    ``SpaceSpec`` (and over the model space of an axis-aligned F) that is
    ``_weak_crude_upper``, map by map and not polished.  Over other
    sections B_F it is the C-norm of upper bounds on the rows' norms on F
    (``_fstar_norm_upper``): exact into a sup-norm C where those are
    (ambient r in {1, 2, inf}), and not polished for ambient r in {1, inf},
    where each row costs a linear program."""
    plan = _exact_plan(ball, C)
    if plan is not None:
        value, tag, cheap = plan
        return value(Y), True, value if cheap else None, tag
    tag = "row-norm upper bound"
    if isinstance(ball, SubspaceSpec) and ball._model is None:
        E = ball.ambient

        def upper(G: np.ndarray) -> float | np.ndarray:  # of a map or a stack of them
            return _norm_each_row(C, np.apply_along_axis(lambda g: _fstar_norm_upper(ball, g), -1, G))

        exact = C.is_sup and (E.is_sup or E.r in (1.0, 2.0))
        return upper(Y), exact, None if E.is_sup or E.r == 1 else upper, tag
    E, Z = (ball, Y) if isinstance(ball, SpaceSpec) else (ball._model[0], Y / ball._model[1])
    if Z.ndim == 2:
        return _weak_crude_upper(Z, E, C), False, None, tag
    return np.array([_weak_crude_upper(z, E, C) for z in Z]), False, None, tag


@_homogeneous(
    1, lambda T, cfg=None: (T._unweighted.matrix, (T._unweighted.domain, T.codomain), lambda e: (T._ldexp(-e), cfg))
)
def operator_norm(T: LinearMap, cfg: OptimizerConfig | None = None) -> NormEstimate:
    """sup of ||Tx|| over the unit ball of the domain.

    Exact (certified on both sides) on every path of ``_exact_plan``, the
    oracle the weak-p norms share: a sup-norm codomain, an ell_1 domain, an
    ell_1 codomain of at most ``spaces._FAMILY_CAP`` rows, and a sup-norm
    domain within the enumeration cap.  Otherwise the lower bound is
    ``_ascent_lower`` (certified, it is attained at a feasible point) and
    the upper bound the row-norm bound of ``_bound``.  A map from a
    weighted domain is measured as ``LinearMap._unweighted``.
    """
    T = T._unweighted
    a, E, cod = T.matrix, T.domain, T.codomain
    upper, exact, _, tag = _bound(E, a, cod)  # <a[c], x> = (a @ x)[c] over the unweighted domain
    if exact:
        return NormEstimate(upper, upper, True, True, method=("extreme-point enumeration",))
    return NormEstimate(_ascent_lower(E, a, cod), upper, True, True, method=("multistart ascent", tag))


def _max_linear_over_BF(sub: SubspaceSpec, v: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize the plain form v . c over B_F, with a maximizer of ambient
    norm 1, where B_F has no vertex set (``_exact_plan`` covers the
    others).  Exact by one linear program for ambient r in {1, inf} and
    in closed form for r = 2; otherwise by one SLSQP program (Kraft 1988)
    started from the r = 2 maximizer, kept only where it beats that start
    (a true value either way, attained at the returned point)."""
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
    G = (B * w) @ B.T
    sol = np.linalg.solve(G, v)
    if E.r == 2:
        val = math.sqrt(float(v @ sol))
        return val, sol / val

    # generic r: one SLSQP program, max u . c subject to ||c @ B||_E <= 1,
    # from the Euclidean maximizer; the better of its point and the start,
    # rescaled to ambient norm 1, so the value is attained
    from scipy.optimize import minimize

    u = v / np.linalg.norm(v)
    c0 = sol / sub.ambient_norm(sol)
    res = minimize(
        lambda c: -(u @ c), c0, jac=lambda c: -u, method="SLSQP",
        constraints=[{
            "type": "ineq",
            "fun": lambda c: 1.0 - sub.ambient_norm(c),
            "jac": lambda c: -(B @ _norm_gradient(E, c @ B)),
        }],
        options={"maxiter": 200, "ftol": 1e-12},
    )
    best_val, best_c = float(v @ c0), c0
    if np.all(np.isfinite(res.x)) and sub.ambient_norm(res.x) > 0.0:
        c = res.x / sub.ambient_norm(res.x)
        if float(v @ c) > best_val:
            best_val, best_c = float(v @ c), c
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
    return _norm_each_row(dual_space(E), phi)


def _operator_norm_over_F(sub: SubspaceSpec, M: np.ndarray, codomain: SpaceSpec) -> float:
    """sup of the codomain norm of M c over B_F: the bound of ``_bound``
    where it is exact, otherwise the certified lower bound of
    ``_ascent_lower``."""
    upper, exact, _, _ = _bound(sub, M, codomain)
    return upper if exact else _ascent_lower(sub, M, codomain)


def map_to_json(T: LinearMap) -> dict:
    return {
        "matrix": T.matrix.tolist(),
        "domain": space_to_json(T.domain),
        "codomain": space_to_json(T.codomain),
    }


def map_from_json(obj: dict) -> LinearMap:
    _json_fields(obj, "linear map", "matrix", "domain", "codomain")
    return LinearMap(
        obj["matrix"],
        space_from_json(obj["domain"]),
        space_from_json(obj["codomain"]),
    )
