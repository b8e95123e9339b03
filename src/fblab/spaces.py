"""Finite-dimensional weighted ell_r spaces, their duals and pairings.

Every space handled by this package is R^n equipped with a weighted
ell_r norm:

    ||x|| = (sum_i w_i |x_i|^r)^(1/r)      for 1 <= r < infinity,
    ||x|| = max_i |x_i|                    for r = infinity.

The weights model the atoms of a finite measure mu, so the same spec
describes ell_r^n (weights 1) and L_r(mu) (weights mu_i).  The pairing
carries the weights, <f, x> = sum_i w_i f_i x_i, which makes the dual of
L_r(mu) equal to L_{r'}(mu) *with the same weights*.  In particular the
dual of L_1(mu) is the sup-norm space L_inf(mu); the sup norm does not
see the weights (the essential supremum of a function on atoms does not
depend on the atom masses), which is exactly what makes Hoelder
saturation and the involution dual(dual(E)) = E hold simultaneously.

r = infinity is represented by ``math.inf``, never by a large float.

This module owns the two kinds of constraint ball: the unit ball B_E of a
``SpaceSpec`` and the section B_F = B_E intersect F of a ``SubspaceSpec``,
with the geometry of B_F (the model space of an axis-aligned F, the
vertices of a polytopal section).  The norm of a map from either ball,
and so the weak-p norm of a family, is bounded from above by
``operators._bound`` and from below by ``operators._ascent_lower``, and
``summing.witness_search`` runs over both kinds of ball.

One kernel, ``_norm_each_row``, computes the finite-r norms of ``norm``,
of the row norms and of ``summing.lp_combine``; the hot matrix-product form
is ``norms_rows``.  No kernel handles the float range.  Every public
estimator is positively homogeneous in its data under power-of-two
scaling, and ``_homogeneous`` makes it an entry point that applies one
rule: data whose largest |entry| lies outside the window of
``_window_exponent`` (where every power the call takes stays a normal
float) is scaled once into it, and the result is scaled back.  Data inside
the window runs as it is, so its bytes stay.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "SpaceSpec",
    "norm",
    "dual_space",
    "pairing",
    "sample_sphere",
    "norming_functional",
    "norming_vector",
    "space_to_json",
    "space_from_json",
    "SubspaceSpec",
    "subspace_to_json",
    "subspace_from_json",
]


def _readonly(a) -> np.ndarray:
    """A read-only float copy of an array-like; one holding anything but
    numbers (a dict, say) is a ValueError."""
    try:
        a = np.array(a, dtype=float)
    except TypeError as ex:
        raise ValueError(f"expected an array of numbers: {ex}") from None
    a.flags.writeable = False
    return a


def _json_fields(obj, what: str, *keys: str) -> None:
    """Check that ``obj`` is a JSON object holding every key, else ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} JSON requires field '{key}'")


@dataclass(frozen=True)
class SpaceSpec:
    """A finite-dimensional weighted ell_r space."""

    r: float
    dim: int
    weights: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not (self.r >= 1):
            raise ValueError(f"exponent must satisfy r >= 1, got {self.r}")
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        w = self.weights if self.weights else tuple(1.0 for _ in range(self.dim))
        if len(w) != self.dim:
            raise ValueError(
                f"got {len(w)} weights for dimension {self.dim}"
            )
        if any(not (0 < wi < math.inf) for wi in w):
            raise ValueError("all weights must be finite and strictly positive")
        object.__setattr__(self, "weights", tuple(float(wi) for wi in w))
        object.__setattr__(self, "r", float(self.r))

    def __hash__(self) -> int:  # the dataclass's hash, computed once: plans are looked up by spec per call
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.r, self.dim, self.weights))

    @functools.cached_property
    def weight_array(self) -> np.ndarray:  # read-only, built once per spec
        return _readonly(self.weights)

    @functools.cached_property
    def dual(self) -> SpaceSpec:  # built once per spec; see dual_space
        r = math.inf if self.r == 1 else 1.0 if self.is_sup else self.r / (self.r - 1.0)
        return SpaceSpec(r, self.dim, self.weights)

    @functools.cached_property
    def unweighted(self) -> bool:  # every weight 1; decided once per spec
        return all(w == 1.0 for w in self.weights)

    @functools.cached_property
    def _weight_exponent(self) -> float:  # the largest |log2 w_i|, for the float window
        return max(abs(math.log2(w)) for w in self.weights)

    _unit = property(lambda self: (self, 0))  # the ball its plans take; see SubspaceSpec._unit

    @functools.cached_property
    def is_sup(self) -> bool:  # decided once per spec: read on every oracle call
        return math.isinf(self.r)

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"point of shape {x.shape} does not live in a space of dimension {self.dim}"
            )
        return x


# every weighted power w x^q (q up to m) that a call takes of data whose
# largest |entry| x lies in the window of ``_window`` is a normal float
# at least 2^62 inside either end of the float range: room for the capped
# sums of the kernels (at most 2^22 cube vertices, 20 members)
_WINDOW = 960


def _window(*exponents: float | SpaceSpec | SubspaceSpec) -> tuple[int, float]:
    """The log2 centre and half-width (_WINDOW - W) / m of the float window:
    m is the largest finite exponent (a space stands for its r and r*, a
    section for its ambient's), at least 2, since a call may take Euclidean
    lengths of its data; W is the largest |log2| of the weights, m |s| more
    for a section's model weights w |basis|^r.  The centre is a section's
    ``SubspaceSpec._scale`` s (forms in its basis coordinates are about 2^s
    times the functionals they restrict), else 0."""
    balls = (SpaceSpec, SubspaceSpec)
    spaces = [getattr(s, "ambient", s) for s in exponents if isinstance(s, balls)]
    qs = [q for s in spaces for q in (s.r, s.dual.r)] + [q for q in exponents if not isinstance(q, balls)]
    m = max([2.0, *(q for q in qs if q < math.inf)])
    s = next((b._scale for b in exponents if isinstance(b, SubspaceSpec)), 0)
    return s, (_WINDOW - max([0.0, *(e._weight_exponent for e in spaces)])) / m - abs(s)


def _window_exponent(y, *exponents: float | SpaceSpec | SubspaceSpec) -> int:
    """0 where the largest |entry| of y is 0, not finite (left to the
    caller) or inside the float window (``_window``), else the e that puts
    y 2^-e at its centre.  Parts of y more than the window below its
    largest entry count as rounding."""
    s, width = _window(*exponents)
    top = float(np.max(np.abs(np.asarray(y, dtype=float)), initial=0.0))
    if not 0.0 < top < math.inf or abs(math.log2(top) - s) <= width:
        return 0
    return math.frexp(top)[1] - s


def _homogeneous(degree: int, data: Callable) -> Callable:
    """Make ``body``, positively homogeneous of ``degree`` in its data, a
    public entry point with the package's float-range rule.  data(*args,
    **kwargs) gives the data's entries, the exponents the call raises them
    to, and the arguments with the data scaled by 2^-e as a function of e.
    Data inside the window goes to the body as it is, data outside it once
    scaled, with the result taken back: a float times 2^(degree e), a
    norming functional (degree 0) as it is, an estimate by its ``_scaled``."""

    def entry_point(body: Callable) -> Callable:
        @functools.wraps(body)
        def entry(*args, **kwargs):
            y, exponents, scaled = data(*args, **kwargs)
            e = _window_exponent(y, *exponents)
            if not e:
                return body(*args, **kwargs)
            r = body(*scaled(e))
            if isinstance(r, float):
                return _ldexp(r, degree * e)
            return r if isinstance(r, np.ndarray) else r._scaled(e, degree)

        return entry

    return entry_point


def _ldexp(x: float, k: int) -> float:
    """x 2^k, exact, or +-inf above the float range."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


@_homogeneous(1, lambda space, x: (x, (space,), lambda e: (space, np.ldexp(x, -e))))
def norm(space: SpaceSpec, x) -> float:
    """Weighted ell_r norm of ``x`` in ``space``, by ``_norm_each_row``."""
    return _norm_each_row(space, space.check_point(x))


def norms_rows(space: SpaceSpec, rows: np.ndarray) -> np.ndarray:
    """Vectorized ``norm`` over the rows of a 2-d array."""
    rows = np.asarray(rows, dtype=float)
    if space.is_sup:
        return np.max(np.abs(rows), axis=-1)
    w = space.weight_array
    if space.r == 1:
        return np.abs(rows) @ w
    return (np.abs(rows) ** space.r @ w) ** (1.0 / space.r)


def _norm_each_row(space: SpaceSpec, rows: np.ndarray) -> float | np.ndarray:
    """The norm of one row (a float) or of each row of a 2-d array: the
    weighted powers summed along the last axis as ``np.sum`` sums one row
    (unlike ``norms_rows``' products), and their roots by ``_roots``; 1.0 x
    is x, so an unweighted space skips the weights."""
    a = np.abs(rows)
    if space.is_sup:
        return _values(np.maximum.reduce(a, axis=-1))
    v = a if space.r == 1 else a**space.r
    return _roots(np.add.reduce(v if space.unweighted else space.weight_array * v, axis=-1), 1.0 / space.r)


def _values(v: np.ndarray) -> float | np.ndarray:
    """A float for one value (a 0-d array or a numpy scalar), the array of
    a stack's values as it is."""
    return float(v) if v.ndim == 0 else v


def _pow2_scaled(y: np.ndarray) -> tuple[np.ndarray, int]:
    """y times 2^-e (exact), e the exponent of its largest |entry|, and e."""
    e = math.frexp(float(np.max(np.abs(y))))[1]
    return np.ldexp(y, -e), e


def _roots(t: np.ndarray, q: float) -> float | np.ndarray:
    """t ** q for one sum (a float) or for each sum of a stack, by C's pow
    value by value: numpy's array power can differ in the last bit."""
    if t.ndim == 0:
        return float(t) ** q
    return np.array([s**q for s in t.tolist()])


def dual_space(space: SpaceSpec) -> SpaceSpec:
    """The dual space: conjugate exponent, same weights, weighted pairing.
    Built once per spec and cached on it."""
    return space.dual


def pairing(space: SpaceSpec, f, x) -> float:
    """The weighted duality pairing <f, x> = sum_i w_i f_i x_i.

    ``f`` lives in ``dual_space(space)``, ``x`` in ``space``.
    """
    fv = dual_space(space).check_point(f)
    xv = space.check_point(x)
    return float(np.sum(space.weight_array * fv * xv))


class BallNotPolytopal(Exception):
    """The unit ball of the space is not a polytope."""


class EnumerationTooLarge(Exception):
    """A requested exact enumeration exceeds the enumeration cap."""


_EXTREME_ENUM_CAP = 22  # sup-norm balls are enumerated exactly up to 2^22 vertices

# the sign-enumeration budget: seed families of coordinate and norming
# functionals, the moduli combinations whose p = infinity norm is a largest
# signed sum, and the row-sign side (2^(N-1) patterns) of exact norms into
# ell_1^N have at most this many members
_FAMILY_CAP = 20

# a ball with at most this many vertices is small enough for a caller to
# take all of its vertex rows at once (``_vertex_count``)
_SMALL_POLYTOPE_CAP = 1 << 12


def _vertex_count(space: SpaceSpec) -> float:
    """Vertices of the unit ball: 2 dim for r = 1, 2^dim for r = inf,
    inf for a ball that is not a polytope."""
    return 2 * space.dim if space.r == 1 else 2**space.dim if space.is_sup else math.inf


def extreme_points_matrix(space: SpaceSpec) -> np.ndarray:
    """Extreme points of the unit ball as rows, for polytopal balls only.

    r = 1: the 2*dim points +-e_i / w_i.  r = infinity: the 2^dim sign
    patterns (the sup norm does not involve the weights).  Any other
    exponent raises :class:`BallNotPolytopal`; a sup-norm ball above the
    enumeration cap raises :class:`EnumerationTooLarge`.
    """
    if space.r == 1:
        w = space.weight_array
        eye = np.diag(1.0 / w)
        return np.vstack([eye, -eye])
    if space.is_sup:
        if space.dim > _EXTREME_ENUM_CAP:
            raise EnumerationTooLarge(
                f"2^{space.dim} sign patterns exceed the 2^{_EXTREME_ENUM_CAP} enumeration cap"
            )
        return _sign_table(space.dim)
    raise BallNotPolytopal(f"unit ball of ell_{space.r} is not a polytope")


def _sign_table(k: int) -> np.ndarray:
    """The 2^k patterns in {+-1}^k as rows; bit i of the row sets sign i."""
    return 1.0 - 2.0 * ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1)


@functools.cache
def _signs(k: int) -> np.ndarray:
    """``_sign_table(k)``, read-only and cached: for the small k of half tables."""
    return _readonly(_sign_table(k))


# entries in one block of candidates (or broadcast sums) of _max_signed_sum, and
# in the largest table of all its sign patterns that a plan keeps.  Looking the
# winning patterns up in the table, not joining them from the half tables, made
# run_s 11% lower on the subspace-extension bench and 6% on fbl-witness (10
# alternating pairs each, 2-core x86 host); past the bound the join saves memory.
_SIGNED_SUM_BLOCK, _PATTERN_TABLE = 1 << 18, 1 << 15


@functools.lru_cache(maxsize=256)
def _signed_sum_plan(n: int, space: SpaceSpec) -> tuple[int, np.ndarray, np.ndarray, Callable, int, str]:
    """The set-up of ``_max_signed_sum`` for n rows measured in ``space``,
    built once: the split b, the half sign tables, the map from indices
    i len(H) + j of L_i + H_j to their patterns (1, sb[i], sh[j]), the rows
    of L per block and the norm's branch."""
    b = n // 2
    sb, sh = _signs(b), _signs(n - 1 - b)
    first = np.hstack((np.ones((len(sb), 1)), sb))
    if n << (n - 1) <= _PATTERN_TABLE:
        table = _readonly(np.hstack((np.repeat(first, len(sh), axis=0), np.tile(sh, (len(sb), 1)))))
        pattern = functools.partial(table.take, axis=0)
    else:
        h = n - 1 - b
        pattern = lambda at: np.concatenate((first[at >> h], sh[at & (len(sh) - 1)]), axis=1)
    euclid = space.r == 2
    rows = max(1, _SIGNED_SUM_BLOCK // (len(sh) * (1 if euclid else space.dim)))
    branch = "euclid" if euclid else "sup" if space.is_sup else "l1" if space.r == 1 else "r"
    return b, sb, sh, pattern, rows, branch


# the signed-sum entries (2^(n-1) dim) of one matrix from which
# _max_signed_sum checks for disjoint rows.  Below it the polish's many small
# stacks would pay the check for nothing: checking every stack made the median
# run_s 4.8% higher on fbl-witness and on subspace-extension (6 and 3
# alternating pairs, 2-core x86 host)
_DISJOINT_CHECK = 1 << 12


def _max_signed_sum(M: np.ndarray, space: SpaceSpec):
    """max over s in {+-1}^n with s_0 = +1 (the norm is even) of
    norm(space, s @ M), for the n rows of M, and the winning signed sum s @ M;
    for a stack of K matrices, their K maxima and (K, dim) winning sums.

    Every pattern is one L_i + H_j of the half tables of signed sums
    L = M[0] + _signs(b) @ M[1:1+b] and H = _signs(h) @ M[1+b:].  A Euclidean
    norm takes ||L_i||^2 + ||H_j||^2 + 2 L_i . H_j from one matrix product,
    any other norm broadcast adds; both run over blocks of rows of L, so
    memory stays bounded.  The winning signed sum's norm is recomputed.  A
    2-d M is a stack of one, and each matrix of a stack gets the products
    and blocks it would get alone, so its bits: every product runs matrix
    by matrix (``np.matmul`` over the stack).

    When every matrix of the stack has at most one nonzero per column
    (rows of disjoint supports, as in coordinate families), each entry of
    a signed sum is one product with an exact +-1, so every pattern ties
    and the enumeration's winner is pattern 0, the all-plus sum.  That sum
    is then taken directly, and measured on a (K, 1, dim) stack by the
    same ``norms_rows`` call as the enumeration's winners (a 2-d call can
    differ from it in the last bit, by row position).  Rows are checked
    only where a matrix's enumeration reaches ``_DISJOINT_CHECK`` entries.
    """
    stack = M if M.ndim == 3 else M[None]
    n, dim = stack.shape[1:]
    run = _enumerate_signed_sums
    if dim << (n - 1) >= _DISJOINT_CHECK and np.count_nonzero(stack, axis=1).max() <= 1:
        run = _all_plus_sums
    top, z = run(stack, space)
    return (top, z) if M.ndim == 3 else (float(top[0]), z[0])


def _all_plus_sums(M: np.ndarray, space: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """The norms and (K, dim) all-plus sums of a stack M of matrices."""
    z = np.add.reduce(M, axis=1, keepdims=True)
    return norms_rows(space, z)[:, 0], z[:, 0]


def _enumerate_signed_sums(M: np.ndarray, space: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """The maxima and winning signed sums of ``_max_signed_sum`` for a stack
    M of matrices.  A Euclidean stack that fits one block, as the polish's
    small stacks do, is measured inline; L * w is L on an unweighted space,
    since 1.0 x is x."""
    K, n, dim = M.shape
    b, sb, sh, pattern, rows, branch = _signed_sum_plan(n, space)
    L = M[:, :1] + sb @ M[:, 1 : 1 + b]
    H = sh @ M[:, 1 + b :]
    w = space.weight_array
    rows = min(rows, L.shape[1])
    kb = max(1, _SIGNED_SUM_BLOCK // (rows * H.shape[1] * (1 if branch == "euclid" else dim)))
    if branch == "euclid" and K <= kb and rows == L.shape[1]:
        vals = 2.0 * (L if space.unweighted else L * w) @ H.transpose(0, 2, 1)
        vals = (vals + ((L * L) @ w)[:, :, None] + ((H * H) @ w)[:, None]).reshape(K, -1)
        at = vals.argmax(axis=1)
    else:
        at = _block_maxima(L, H, space, branch, rows, kb)
    z = pattern(at)[:, None] @ M
    return norms_rows(space, z)[:, 0], z[:, 0]


def _block_maxima(
    L: np.ndarray, H: np.ndarray, space: SpaceSpec, branch: str, rows: int, kb: int
) -> np.ndarray:
    """The places of the largest norms (squared norms on the Euclidean
    branch) of L_i + H_j for each matrix of the stacks L and H of
    ``_enumerate_signed_sums``; the first of equal maxima wins.  A block
    holds the same ``rows`` rows of L of ``kb`` matrices."""
    K, nL, dim = L.shape
    nH = H.shape[1]
    w = space.weight_array
    if branch == "euclid":
        HH, Ht = (H * H) @ w, H.transpose(0, 2, 1)
    else:
        # one buffer for the broadcast sums of every block
        buf = np.empty((min(kb, K), rows, nH, dim))

    def values(Lb: np.ndarray, ks: slice) -> np.ndarray:
        """The norms (or squared norms) of L_i + H_j for the rows Lb of L
        of the matrices ks, a row of i-major values per matrix."""
        if branch == "euclid":
            vals = 2.0 * (Lb * w) @ Ht[ks] + ((Lb * Lb) @ w)[:, :, None] + HH[ks, None]
        else:
            block = buf[: len(Lb), : Lb.shape[1]]
            np.abs(np.add(Lb[:, :, None], H[ks, None], out=block), out=block)
            if branch == "sup":
                vals = np.maximum.reduce(block, axis=3)
            else:
                vals = (block if branch == "l1" else np.power(block, space.r, out=block)) @ w
        return vals.reshape(len(vals), -1)

    if K <= kb and nL == rows:  # one block
        return values(L, slice(None)).argmax(axis=1)
    best, at = np.empty(K), np.empty(K, dtype=np.int64)
    for k0 in range(0, K, kb):
        ks = slice(k0, k0 + kb)
        for start in range(0, nL, rows):
            vals = values(L[ks, start : start + rows], ks)
            k, top = vals.argmax(axis=1) + start * nH, np.maximum.reduce(vals, axis=1)
            if start:  # a later block wins only by a larger maximum
                later = top > best[ks]
                top, k = np.where(later, top, best[ks]), np.where(later, k, at[ks])
            best[ks], at[ks] = top, k
    return at


def sample_sphere(space: SpaceSpec, count: int, seed: int) -> list[np.ndarray]:
    """Deterministic points of norm exactly 1 (Gaussian directions renormalized)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    out: list[np.ndarray] = []
    while len(out) < count:  # a block of draws is the stream of single draws
        g = rng.standard_normal((count - len(out), space.dim))
        n = _norm_each_row(space, g)
        keep = n > 1e-12
        out += list(g[keep] / n[keep, None])
    return out


@_homogeneous(0, lambda space, x: (x, (space,), lambda e: (space, np.ldexp(x, -e))))
def norming_functional(space: SpaceSpec, x) -> np.ndarray:
    """A functional f in the dual unit sphere with <f, x> = ||x||.

    Closed form for every weighted ell_r space.  For x = 0 returns an
    arbitrary unit functional.  f does not depend on the scale of x.
    """
    v = space.check_point(x)
    n = _norm_each_row(space, v)
    if n <= 0.0:
        f = np.zeros(space.dim)
        f[0] = 1.0
        return f / _norm_each_row(space.dual, f)
    if space.r == 1:
        # subgradient of the weighted ell_1 norm; sup-norm 1 in the dual
        return np.sign(v) + (v == 0.0)
    if space.is_sup:
        i = int(np.argmax(np.abs(v)))
        f = np.zeros(space.dim)
        f[i] = math.copysign(1.0, v[i]) / space.weights[i]
        return f
    q = space.r - 1.0
    return np.sign(v) * np.abs(v) ** q / np.float64(n) ** q


def norming_vector(space: SpaceSpec, g) -> np.ndarray:
    """A vector x in the unit sphere of ``space`` maximizing the plain
    linear form sum_i g_i x_i (no weights on g; use this to maximize a raw
    row functional over the ball): the norming functional of g / w, the
    form in pairing coordinates, on the dual space."""
    return norming_functional(space.dual, np.asarray(g, dtype=float) / space.weight_array)


def space_to_json(space: SpaceSpec) -> dict:
    return {
        "r": "inf" if space.is_sup else space.r,
        "dim": space.dim,
        "weights": list(space.weights),
    }


def space_from_json(obj: dict) -> SpaceSpec:
    _json_fields(obj, "space", "r", "dim")
    r, dim, weights = obj["r"], obj["dim"], obj.get("weights", [])
    if isinstance(r, str) and r.lower() in ("inf", "infinity", "+inf"):
        r = math.inf
    numbers = isinstance(weights, list) and all(isinstance(w, (int, float)) for w in weights)
    if not (isinstance(r, (int, float, str)) and type(dim) is int and numbers):
        raise ValueError("space JSON needs a number r, an integer dim and a list of numbers as weights")
    return SpaceSpec(float(r), dim, tuple(weights))


# --------------------------------------------------------------------------
# subspaces F and their sections B_F = B_E intersect F
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SubspaceSpec:
    """A subspace F of an ambient space, with a complement completing a
    basis of the ambient space (combined rank checked at 1e-10 of the
    largest singular value, so at any scale)."""

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
        if sv[-1] <= 1e-10 * sv[0]:
            raise ValueError("combined basis is rank deficient (tolerance 1e-10)")

    @functools.cached_property
    def _scale(self) -> int:  # the exponent of the largest |entry| of basis and complement
        return math.frexp(float(np.max(np.abs(np.vstack([self.basis_matrix, self.complement_matrix])))))[1]

    @functools.cached_property
    def _unit(self) -> tuple[SubspaceSpec, int]:
        """(this subspace, 0) where its ``_scale`` s is in the float window of
        its ambient, else (the one spanned by its basis and complement times
        2^-s, s), whose forms are 2^-s times those on this one."""
        s = self._scale
        if abs(s) <= _window(self.ambient)[1]:
            return self, 0
        B, C = np.ldexp(self.basis_matrix, -s), np.ldexp(self.complement_matrix, -s)
        return SubspaceSpec.from_arrays(self.ambient, B, C), s

    @staticmethod
    def from_arrays(ambient: SpaceSpec, basis, complement_basis) -> "SubspaceSpec":
        B = np.atleast_2d(_readonly(basis))
        C = _readonly(complement_basis)
        C = C.reshape(0, ambient.dim) if C.size == 0 else np.atleast_2d(C)
        if B.ndim != 2 or C.ndim != 2:
            raise ValueError("basis and complement basis must be 2-d arrays of vectors")
        return SubspaceSpec(ambient, tuple(map(tuple, B.tolist())), tuple(map(tuple, C.tolist())))

    @functools.cached_property
    def basis_matrix(self) -> np.ndarray:  # read-only, built once per subspace
        return _readonly(self.basis)

    @functools.cached_property
    def complement_matrix(self) -> np.ndarray:  # read-only, (0, n) for F = E
        a = _readonly(self.complement_basis)
        return a.reshape(0, self.ambient.dim) if a.size == 0 else a

    @property
    def dim(self) -> int:
        return len(self.basis)

    def embed(self, coords: np.ndarray) -> np.ndarray:
        """The ambient point with the given basis coordinates."""
        return np.asarray(coords, dtype=float) @ self.basis_matrix

    def coordinates(self, points: np.ndarray) -> np.ndarray:
        """Basis coordinates of ambient points (rows); errors if a point
        is off the subspace by more than 1e-8 times its largest |entry|."""
        X = np.atleast_2d(np.asarray(points, dtype=float))
        B = self.basis_matrix
        C, *_ = np.linalg.lstsq(B.T, X.T, rcond=None)
        C = C.T
        resid = np.max(np.abs(C @ B - X), axis=1, initial=0.0)
        if (resid > 1e-8 * np.max(np.abs(X), axis=1, initial=0.0)).any():
            raise ValueError("points do not lie in the subspace")
        return C

    def restrict(self, functionals: np.ndarray) -> np.ndarray:
        """Restrictions of ambient dual functionals to F, in the basis-
        coordinate representation g with <g, c> = sum_j g_j c_j."""
        Y = np.atleast_2d(np.asarray(functionals, dtype=float))
        return Y @ (self.basis_matrix * self.ambient.weight_array).T

    def ambient_norm(self, coords: np.ndarray) -> float:
        return _norm_each_row(self.ambient, self.embed(coords))

    @functools.cached_property
    def _model(self) -> tuple[SpaceSpec, np.ndarray] | None:
        """The weighted ell_r space whose ball is B_F when F is axis-aligned,
        with its divisors (see ``_axis_aligned_model``); None otherwise.
        Computed on first use, then kept."""
        return _axis_aligned_model(self.ambient, self.basis_matrix)

    @functools.cached_property
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
