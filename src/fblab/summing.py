"""p-summing and (q,1)-summing norms of finite-rank operators.

The quantities here are suprema of strong-norm sums over families that
are weakly-p bounded: a family (y_1, ..., y_N) in the domain X = E* is
feasible when  sup_{x in B_E} (sum_k |<y_k, x>|^p)^(1/p) <= 1.

Every reported lower bound is produced by an explicit feasible family:
a candidate family is divided by a *certified upper bound* on its weak-p
norm, so the normalized family is genuinely feasible and the value it
attains is a true lower bound.  The weak-p norm of a family is the norm
of the map x -> (<y_k, x>)_k from E into ell_p^N, so this module keeps no
norm oracle of its own: both bounds come from ``operators._bound`` and
``operators._ascent_lower``.  On the exact paths (p = infinity and an
ell_1 ball by closed forms, p = 1 by sign enumeration of the members or
of the cube vertices, a sup-norm ball within the enumeration cap by its
vertices) the normalization is tight and the estimate is flagged
accordingly in its method tags.  The seeds follow the paper's disjoint
sequences: a coordinate family's p = 1 value is read off the sum of its
members in closed form, not enumerated.

``witness_search`` is the one search engine of the package, over both
kinds of constraint ball of ``spaces``: the unit ball of a weighted ell_r
space and the section B_F of a subspace.  It takes the best of the
distinct structured seeds its caller supplies and polishes that family
by Powell's method.  ``_bound`` answers one question per candidate
family: a certified upper bound on its weak-p norm, whether that bound
is exact, and the same bound as a function of a stack (K, N, dim) of
families, each with the bits it has alone, or None where it is too dear
to polish.  The search keeps that function with its best family, and the
polish runs ``optimize.powell_rows`` on it over both kinds of ball: the
line searches of a Powell sweep step in lockstep, and each step
evaluates the bound and the objective of all their families at once.
Every objective therefore takes stacks, as the free-lattice,
summing-norm and embedding-gap objectives do.  The search draws nothing
at random, so its result depends only on its inputs.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable

import numpy as np

from .estimates import NormEstimate, WitnessFamily
from .operators import LinearMap, _ascent_lower, _bound, _unit_space
# the triangle-inequality fallback of ``_bound``, bound here too: the
# benchmark's trace (bench/layers.py) counts its calls under this name
from .operators import _weak_crude_upper  # noqa: F401
from .optimize import OptimizerConfig, powell_rows
from .spaces import (
    _FAMILY_CAP,
    SpaceSpec,
    SubspaceSpec,
    _homogeneous,
    _ldexp,
    _norm_each_row,
    _readonly,
    _values,
    _window_exponent,
    dual_space,
    norms_rows,
)

__all__ = [
    "weak_p_norm",
    "pi_p_lower",
    "pi_1_exact_Linfty_domain",
    "pi_q1_lower",
    "witness_search",
    "hadamard",
    "lp_combine",
]


@functools.cache
def hadamard(m: int) -> np.ndarray:
    """Sylvester Hadamard matrix, read-only and built once per m; m must be
    a power of two."""
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError("Hadamard size must be a power of two")
    H = np.array([[1.0]])
    while H.shape[0] < m:
        H = np.block([[H, H], [H, -H]])
    return _readonly(H)


def lp_combine(values: np.ndarray, p: float) -> float | np.ndarray:
    """(sum |v|^p)^(1/p), with the max convention at p = infinity, along
    the last axis: a float for one vector, an array for a stack of them.
    At finite p > 1 it is the norm of ell_p^N by ``spaces._norm_each_row``.
    An empty vector combines to 0.0."""
    values = np.asarray(values, dtype=float)
    if math.isinf(p):  # the ufunc reductions of np.max and np.sum, with less dispatch
        return _values(np.maximum.reduce(np.abs(values), axis=-1, initial=0.0))
    if p == 1 or not values.shape[-1]:
        return _values(np.add.reduce(np.abs(values), axis=-1))
    return _norm_each_row(_unit_space(p, values.shape[-1]), values)


@_homogeneous(
    1, lambda family, space, p, cfg=None: (family, (space, p), lambda e: (np.ldexp(family, -e), space, p, cfg))
)
def weak_p_norm(
    family,
    space: SpaceSpec,
    p: float,
    cfg: OptimizerConfig | None = None,
) -> NormEstimate:
    """sup over the unit ball of ``space`` of (sum_k |<y_k, x>|^p)^(1/p).

    The family rows live in the dual of ``space``.  This is the norm of the
    map x -> (<y_k, x>)_k from ``space`` into ell_p^N, bounded by
    ``operators._bound``, and its exact paths are those of that oracle:

    * p = infinity: max of the members' dual norms;
    * r = 1 ball (any p): columnwise closed form over the cross-polytope;
    * p = 1 (any space): sign enumeration on the cheaper exact side, the
      2^(N-1) member patterns (while N stays within ``spaces._FAMILY_CAP``)
      or, over a sup-norm ball, the 2^(dim-1) cube vertices;
    * sup-norm ball within the enumeration cap (any p): cube vertices.

    Otherwise the upper bound is the triangle inequality and the lower
    bound ``operators._ascent_lower`` of the map (both certified; the gap
    is reported, not hidden).
    """
    Y = np.atleast_2d(np.asarray(family, dtype=float))
    if Y.shape[1] != space.dim:
        raise ValueError("family members must live in the dual of the given space")
    C = _unit_space(p, len(Y))
    upper, exact, _, tag = _bound(space, Y, C)
    if exact:
        return NormEstimate(upper, upper, True, True, method=(tag,))
    lower = _ascent_lower(space, Y * space.weight_array, C)  # the plain matrix of the map
    return NormEstimate(lower, upper, True, True, method=("multistart lower", "triangle upper"))


# --------------------------------------------------------------------------
# generic witness search
# --------------------------------------------------------------------------


def witness_search(
    ball: SpaceSpec | SubspaceSpec,
    p: float,
    objective: Callable[[np.ndarray], float],
    seeds: Iterable[np.ndarray],
    cfg: OptimizerConfig | None = None,
) -> tuple[float, WitnessFamily | None, bool]:
    """Maximize objective(Y) over families with weak-p norm at most 1.

    The constraint ball is the unit ball of a ``SpaceSpec`` (family rows
    live in its dual) or the section B_F of a ``SubspaceSpec`` (rows are
    forms on F in basis coordinates).  ``objective`` must be positively
    homogeneous of degree 1 in the family matrix, and it also maps a stack
    (K, N, dim) of families to their K values, each with the bits it has
    alone.  Every distinct seed (by shape and float bytes; a repeat cannot
    beat its first value) is normalized by a certified upper bound on its
    weak-p norm; since the ratio of the two is of degree 0, a seed outside
    the float window of ``spaces._window_exponent`` is first scaled into
    it, and a section on a basis outside it is taken by
    ``SubspaceSpec._unit``.  The best of them, at most 128 entries, is
    polished by Powell when ``operators._bound`` hands over that bound as
    a function of a stack; the polish evaluates its line searches in
    lockstep.  So the best value is always a true lower bound for
    sup { objective : weak-p <= 1 }.
    ``cfg`` is accepted for a uniform signature; nothing here is random.

    Returns (value, witness, tight) where ``tight`` records whether the
    winning candidate was normalized by an *exact* weak-p value.
    """
    best_val = 0.0
    best_fam: np.ndarray | None = None
    best_tight = True
    best_bound = None
    seen: set[tuple[tuple[int, ...], bytes]] = set()
    ball, s = ball._unit

    def consider(Y: np.ndarray) -> None:
        nonlocal best_val, best_fam, best_tight, best_bound
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        key = (Y.shape, Y.tobytes())
        if Y.size == 0 or key in seen or not np.all(np.isfinite(Y)):
            return
        seen.add(key)
        Y = np.ldexp(Y, -_window_exponent(Y, ball, p))  # the same bytes inside the window
        upper, tight, bound, _ = _bound(ball, Y, _unit_space(p, len(Y)))
        # weak-p is homogeneous, so a family is degenerate when its bound
        # is tiny next to its own entries, whatever their scale
        if upper <= 1e-14 * np.max(np.abs(Y)) or math.isinf(upper):
            return
        val = objective(Y) / upper
        if val > best_val:
            best_val = val
            best_fam = Y / upper
            best_tight = tight
            best_bound = bound

    for Y in seeds:
        consider(np.ldexp(Y, -s) if s else Y)

    if best_bound is not None and best_fam.size <= 128:
        polished = _polish_family(best_bound, objective, best_fam, best_val)
        if polished is not None:
            consider(polished)

    witness = None
    if best_fam is not None:
        witness = WitnessFamily(np.ldexp(best_fam, s), p, 1.0, _ldexp(best_val, s))
    return _ldexp(best_val, s), witness, best_tight


_POLISH_ITER = 400  # Powell evaluations per 8 family entries (at most 3000 in all)


def _polish_family(
    bound: Callable[[np.ndarray], np.ndarray],
    objective: Callable[[np.ndarray], float],
    Y0: np.ndarray,
    value: float,
) -> np.ndarray | None:
    """Derivative-free local improvement of the ratio objective / bound by
    ``powell_rows`` from Y0, on the stack (K, N, dim) of each lockstep
    step's families; ``bound`` is the weak-p bound the oracle handed over
    with Y0, which takes such stacks.  The ratio is taken at the power of
    two of its value at Y0 (exact), so Powell's absolute floors on value
    differences (1e-20, 1e-21) do not depend on the scale of the
    objective's data."""
    N, dim = Y0.shape
    maxfev = min(_POLISH_ITER * max(1, N * dim // 8), 3000)
    s = math.ldexp(-1.0, -math.frexp(value)[1])

    def neg_ratios(X: np.ndarray) -> np.ndarray:
        Ys = X.reshape(len(X), N, dim)
        upper = bound(Ys)
        ok = (upper > 1e-14) & (upper < math.inf)
        if ok.all():
            return objective(Ys) / upper * s
        out = np.zeros(len(X))
        if ok.any():
            out[ok] = objective(Ys[ok]) / upper[ok] * s
        return out

    with np.errstate(over="ignore"):  # entered once: a float quotient above the range is inf
        x = powell_rows(neg_ratios, Y0.ravel(), maxfev, 1e-10, 1e-12)[0]
    if not np.all(np.isfinite(x)):
        return None
    return x.reshape(N, dim)


# --------------------------------------------------------------------------
# summing norms
# --------------------------------------------------------------------------


def _pi_objective(T: LinearMap, p: float) -> Callable[[np.ndarray], float]:
    """Y -> the strong p-sum of T's images of the members, for a family
    or, along the last axis, a stack of families."""
    A = T.matrix

    def obj(Y: np.ndarray) -> float:
        return lp_combine(norms_rows(T.codomain, Y @ A.T), p)

    return obj


def _pi_seeds(T: LinearMap) -> list[np.ndarray]:
    """Structured candidate families for summing-norm lower bounds:
    domain atoms, the raw rows of the map, and Hadamard sign mixes of
    both (the mixes are what realize sqrt(n)-type values)."""
    A = T.matrix
    dim = T.domain.dim
    eye = np.eye(dim)
    if dim > _FAMILY_CAP:  # the atoms T moves most
        eye = eye[np.sort(np.argsort(-np.linalg.norm(A, axis=0))[:_FAMILY_CAP])]
    seeds = [eye, A.copy(), A / T.domain.weight_array]
    for m in (2, 4, 8, 16):
        H = hadamard(m)
        if m <= dim:
            seeds.append(np.hstack([H, np.zeros((m, dim - m))]))
        if m <= A.shape[0]:
            seeds += [H @ A[:m], H @ (A[:m] / T.domain.weight_array)]
    return seeds + [row[None, :] for row in A[:8]]


def _pi_lower(T: LinearMap, p: float, q: float, method: tuple[str, ...]) -> NormEstimate:
    """Strong q-sums over weakly-p bounded families, by witness search; the
    families live in the domain X = E*, and the ball of E constrains them."""
    val, witness, tight = witness_search(dual_space(T.domain), p, _pi_objective(T, q), _pi_seeds(T))
    method += ("exact weak constraint" if tight else "crude-upper weak normalization",)
    return NormEstimate(val, math.inf, True, False, method=method, witness=witness)


def _summing_data(T: LinearMap, exponent: float, cfg: OptimizerConfig | None):
    """The data of a summing norm of T at exponent p or q for
    ``spaces._homogeneous``: T's matrix, its domain and codomain, and
    twice the r of its codomain and the exponent, since seeds built from T
    (``_pi_seeds``) make the strong sums of degree 2 in it."""
    exponents = (T.domain, T.codomain, 2.0 * T.codomain.r, 2.0 * exponent)
    return T.matrix, exponents, lambda e: (T._ldexp(-e), exponent, cfg)


@_homogeneous(1, lambda T, p, cfg=None: _summing_data(T, p, cfg))
def pi_p_lower(T: LinearMap, p: float, cfg: OptimizerConfig | None = None) -> NormEstimate:
    """Certified lower bound on the p-summing norm of ``T``.

    ``T`` must be defined on a dual space: families live in T.domain and
    the weak-p constraint ranges over the ball of its predual.
    """
    return _pi_lower(T, p, p, ("witness search",))


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


@_homogeneous(1, lambda T, q, cfg=None: _summing_data(T, q, cfg))
def pi_q1_lower(T: LinearMap, q: float, cfg: OptimizerConfig | None = None) -> NormEstimate:
    """Certified lower bound on the (q,1)-summing norm: strong q-sums over
    weakly-1 bounded families."""
    if not (q >= 1):
        raise ValueError("q must be >= 1 or infinity")
    method = ("witness search", "weak-1 constraint")
    return _pi_lower(T, 1.0, q, method)
