"""Dense linear maps between weighted ell_r spaces.

A :class:`LinearMap` acts by plain matrix multiplication, ``y = A @ x``.
Whenever a map is built out of vectors that are meant to be *paired*
against the argument (a tuple map f -> (<f, x_k>)_k on a dual space),
the constructor bakes the pairing weights into the matrix rows, so the
action stays a plain product everywhere downstream.
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
    SpaceSpec,
    _json_fields,
    _max_signed_sum,
    _readonly,
    dual_space,
    norm,
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
    n = norm(space, y)
    if n <= 0:
        return w.copy()
    return w * np.sign(y) * (np.abs(y) / n) ** (space.r - 1.0)


_ASCENT_MAX_ITER, _ASCENT_TOL = 200, 1e-13  # steps and relative stopping tolerance of one ascent


def _ascend(
    a: np.ndarray,
    codomain: SpaceSpec,
    x: np.ndarray,
    linear_max: Callable[[np.ndarray], np.ndarray],
) -> tuple[float, np.ndarray]:
    """Conditional-gradient ascent for the convex objective ||a x|| on a
    convex body: linearize at x, move to the body point ``linear_max(g)``
    maximizing the linearization g . x.  Monotone."""
    val = norm(codomain, a @ x)
    for _ in range(_ASCENT_MAX_ITER):
        x_new = linear_max(a.T @ _norm_gradient(codomain, a @ x))
        new_val = norm(codomain, a @ x_new)
        if new_val <= val + _ASCENT_TOL * max(1.0, val):
            if new_val > val:
                val, x = new_val, x_new
            break
        val, x = new_val, x_new
    return val, x


def _structured_ascent(
    a: np.ndarray,
    codomain: SpaceSpec,
    body_norm: Callable[[np.ndarray], float],
    linear_max: Callable[[np.ndarray], np.ndarray],
) -> tuple[float, np.ndarray]:
    """Best ``_ascend`` value over structured starts, with its point: the
    body's coordinate vectors, the body points ``linear_max(row)`` that
    norm the rows of ``a``, and the top right singular vector of ``a``,
    each scaled to the boundary of the body; of the first two kinds only
    the 32 of largest ||a e_i|| / |e_i| and Euclidean row norm, so the work
    stays bounded in the size of ``a``.  For ell_r -> ell_s this is Boyd's
    power method (Boyd 1974; Higham 1992).  The first strict improvement
    wins, so ties go to the earliest start."""
    dim = a.shape[1]
    top = lambda s: np.sort(np.argsort(-np.asarray(s), kind="stable")[:32])  # in index order
    cols = [norm(codomain, a[:, i]) / body_norm(np.eye(1, dim, i)[0]) for i in range(dim)]
    starts = [np.eye(1, dim, i)[0] for i in top(cols)]
    starts += [linear_max(a[i]) for i in top(np.linalg.norm(a, axis=1))]
    starts.append(np.linalg.svd(a, full_matrices=False)[2][0])
    best_val, best_x = 0.0, np.zeros(dim)
    for x0 in starts:
        n0 = body_norm(x0)
        if n0 <= 1e-14:
            continue
        val, x = _ascend(a, codomain, x0 / n0, linear_max)
        if val > best_val:
            best_val, best_x = val, x
    return best_val, best_x


@functools.cache
def _unit_space(p: float, n: int) -> SpaceSpec:
    """Unweighted ell_p^n, built once per (p, n): the codomain in which
    ``_exact_norm`` measures a family's values for its weak-p norm."""
    return SpaceSpec(p, n)


def _exact_norm(
    Y: np.ndarray, E: SpaceSpec, C: SpaceSpec, family_size: int
) -> tuple[float, str, bool] | None:
    """The exact norm of x -> (<y_c, x>)_c from the ball of ``E`` into
    ``C`` for the rows y_c of Y (pairing coordinates in the dual of E): the
    weak-p norm of a family into unweighted ell_p^N, an operator norm for
    the map's rows.  Returns (value, path tag, cheap enough for a polish
    loop?), or None when no exact path applies; the path is resolved once
    per (E, C, family_size) by ``_exact_plan``."""
    plan = _exact_plan(E, C, family_size)
    if plan is None:
        return None
    value, tag, cheap = plan
    return value(Y), tag, cheap


@functools.lru_cache(maxsize=256)
def _exact_plan(
    E: SpaceSpec, C: SpaceSpec, family_size: int
) -> tuple[Callable[[np.ndarray], float], str, bool] | None:
    """The path of ``_exact_norm``: (the value as a function of Y, path
    tag, cheap?), or None.  The tags name the weak-p paths (C = ell_p^N).
    In order: a sup-norm codomain by the rows' dual norms and an ell_1
    domain by the best column (closed forms); an ell_1 codomain of at most
    ``family_size`` rows by its 2^(N-1) row signs or, over a sup-norm ball,
    the 2^(dim-1) cube vertices, whichever enumerates fewer signed-sum
    entries; a sup-norm domain within the enumeration cap by its cube
    vertices."""
    N, dim, dual = C.dim, E.dim, E.dual
    if C.is_sup:
        return (lambda Y: float(np.max(norms_rows(dual, Y)))), "weak-inf closed form", True
    if E.r == 1:  # the vertices +-e_i / w_i pair to +-Y[:, i]
        r, wc = C.r, None if C.unweighted else C.weight_array[:, None]

        def cross_polytope(Y: np.ndarray) -> float:
            V = np.abs(Y) if r == 1 else np.abs(Y) ** r  # a power of 1 is a slow copy
            if wc is not None:
                V = V * wc
            return float(np.max(np.sum(V, axis=0))) ** (1.0 / r)

        return cross_polytope, "cross-polytope enumeration", True
    if C.r == 1 and N <= family_size:
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
        return (lambda Y: _max_signed_sum((Y if w is None else Y * w).T, C)[0]), tag, cheap
    # sum_c w_c |<y_c, x>| is the largest <sum_c s_c w_c y_c, x>
    w = None if C.unweighted else C.weight_array[:, None]
    return (lambda Y: _max_signed_sum(Y if w is None else Y * w, dual)[0]), tag, cheap


def _norm_upper(
    a: np.ndarray, E: SpaceSpec, C: SpaceSpec, family_size: int
) -> tuple[float, bool]:
    """Certified upper bound on the norm of x -> a @ x from the ball of
    ``E`` into ``C``, and whether it is exact: the value on the paths of
    ``_exact_norm``, otherwise the crude row-norm bound (each row
    functional replaced by its norm)."""
    Y = a if E.unweighted else a / E.weight_array  # <Y[c], x> = (a @ x)[c]
    hit = _exact_norm(Y, E, C, family_size)
    if hit is not None:
        return hit[0], True
    return norm(C, norms_rows(E.dual, Y)), False


def operator_norm(T: LinearMap, cfg: OptimizerConfig | None = None) -> NormEstimate:
    """sup of ||Tx|| over the unit ball of the domain.

    Exact (certified on both sides) on every path of ``_exact_norm``, the
    oracle the weak-p norms share: a sup-norm codomain, an ell_1 domain, an
    ell_1 codomain of at most ``cfg.family_size`` rows, and a sup-norm
    domain within the enumeration cap.  Otherwise the lower bound is the
    best ``_structured_ascent`` value (certified, it is attained at a
    feasible point) and the upper bound is the crude row-norm bound; both
    upper bounds come from ``_norm_upper``.
    """
    cfg = cfg or OptimizerConfig()
    a, E, cod = T.matrix, T.domain, T.codomain
    upper, exact = _norm_upper(a, E, cod, cfg.family_size)
    if exact:
        return NormEstimate(upper, upper, True, True, method=("extreme-point enumeration",))
    lower, _ = _structured_ascent(
        a, cod, lambda x: norm(E, x), lambda g: norming_vector(E, g)
    )
    return NormEstimate(
        lower=lower,
        upper=upper,
        lower_certified=True,
        upper_certified=True,
        method=("multistart ascent", "row-norm upper bound"),
    )


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
