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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpaceSpec",
    "norm",
    "dual_space",
    "pairing",
    "sample_sphere",
    "norming_functional",
    "norming_vector",
    "functional_norm",
    "space_to_json",
    "space_from_json",
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


def _conjugate_exponent(r: float) -> float:
    if r == 1:
        return math.inf
    if math.isinf(r):
        return 1.0
    return r / (r - 1.0)


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
        return SpaceSpec(_conjugate_exponent(self.r), self.dim, self.weights)

    @functools.cached_property
    def unweighted(self) -> bool:  # every weight 1; decided once per spec
        return all(w == 1.0 for w in self.weights)

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


def norm(space: SpaceSpec, x) -> float:
    """Weighted ell_r norm of ``x`` in ``space``."""
    v = space.check_point(x)
    if space.is_sup:
        return float(np.max(np.abs(v)))
    n = _lr_norm(space, v)
    if (n == 0.0 and np.any(v)) or (n == math.inf and np.all(np.isfinite(v))):
        # the powers under- or overflowed: measure v scaled by an exact power of two
        e = math.frexp(np.max(np.abs(v)))[1]
        with np.errstate(over="ignore"):  # a norm above the float range is inf
            n = float(np.ldexp(_lr_norm(space, np.ldexp(v, -e)), e))
    return n


def _lr_norm(space: SpaceSpec, v: np.ndarray) -> float:
    w = space.weight_array
    with np.errstate(over="ignore"):  # an overflow is caught by norm
        if space.r == 1:
            return float(np.sum(w * np.abs(v)))
        return float(np.sum(w * np.abs(v) ** space.r) ** (1.0 / space.r))


def norms_rows(space: SpaceSpec, rows: np.ndarray) -> np.ndarray:
    """Vectorized ``norm`` over the rows of a 2-d array."""
    rows = np.asarray(rows, dtype=float)
    if space.is_sup:
        return np.max(np.abs(rows), axis=-1)
    w = space.weight_array
    if space.r == 1:
        return np.abs(rows) @ w
    return (np.abs(rows) ** space.r @ w) ** (1.0 / space.r)


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


# entries in one block of candidates (or broadcast sums) of _max_signed_sum
_SIGNED_SUM_BLOCK = 1 << 18
_ONE = _readonly([1.0])  # the fixed sign s_0 of every pattern


@functools.lru_cache(maxsize=256)
def _signed_sum_plan(n: int, space: SpaceSpec) -> tuple[int, np.ndarray, np.ndarray, int, str]:
    """The set-up of ``_max_signed_sum`` for n rows measured in ``space``,
    built once: the split b, the half sign tables, the rows of L per block
    and the norm's branch."""
    b = n // 2
    sb, sh = _signs(b), _signs(n - 1 - b)
    euclid = space.r == 2
    rows = max(1, _SIGNED_SUM_BLOCK // (len(sh) * (1 if euclid else space.dim)))
    branch = "euclid" if euclid else "sup" if space.is_sup else "l1" if space.r == 1 else "r"
    return b, sb, sh, rows, branch


def _max_signed_sum(M: np.ndarray, space: SpaceSpec) -> tuple[float, np.ndarray]:
    """max over s in {+-1}^n with s_0 = +1 (the norm is even) of
    norm(space, s @ M), for the n rows of M, and the winning signed sum s @ M.

    Every pattern is one L_i + H_j of the half tables of signed sums
    L = M[0] + _signs(b) @ M[1:1+b] and H = _signs(h) @ M[1+b:].  A Euclidean
    norm takes ||L_i||^2 + ||H_j||^2 + 2 L_i . H_j from one matrix product,
    any other norm broadcast adds; both run over blocks of rows of L, so
    memory stays bounded.  The winning signed sum's norm is recomputed.  A
    maximum that under- or overflowed is enumerated again on M scaled by an
    exact power of two, as ``norm`` measures again.
    """
    top, z = _enumerate_signed_sums(M, space)
    if top == math.inf or (top == 0.0 and M.any()):
        e = math.frexp(float(np.max(np.abs(M))))[1]
        top, z = _enumerate_signed_sums(np.ldexp(M, -e), space)
        with np.errstate(over="ignore"):  # a maximum above the float range is inf
            top, z = float(np.ldexp(top, e)), np.ldexp(z, e)
    return top, z


def _enumerate_signed_sums(M: np.ndarray, space: SpaceSpec) -> tuple[float, np.ndarray]:
    b, sb, sh, rows, branch = _signed_sum_plan(len(M), space)
    L = M[0] + sb @ M[1 : 1 + b]
    H = sh @ M[1 + b :]
    w = space.weight_array
    if branch == "euclid":
        HH = (H * H) @ w
    best, i, j = -math.inf, 0, 0
    for start in range(0, len(L), rows):
        Lb = L[start : start + rows]
        if branch == "euclid":
            vals = 2.0 * (Lb * w) @ H.T + ((Lb * Lb) @ w)[:, None] + HH
        else:
            # held until the next block is built: freeing each block before
            # the next one is allocated costs fresh pages every block
            block = np.abs(Lb[:, None, :] + H)
            if branch == "sup":
                vals = np.max(block, axis=2)
            else:
                vals = (block if branch == "l1" else block ** space.r) @ w
        k = int(vals.argmax())
        if vals.flat[k] > best:
            best = vals.flat[k]
            i, j = divmod(k + start * len(H), len(H))
    z = np.concatenate((_ONE, sb[i], sh[j])) @ M
    return float(norms_rows(space, z[None, :])[0]), z


def sample_sphere(space: SpaceSpec, count: int, seed: int) -> list[np.ndarray]:
    """Deterministic points of norm exactly 1 (Gaussian directions renormalized)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    out: list[np.ndarray] = []
    while len(out) < count:
        g = rng.standard_normal(space.dim)
        n = norm(space, g)
        if n > 1e-12:
            out.append(g / n)
    return out


def norming_functional(space: SpaceSpec, x) -> np.ndarray:
    """A functional f in the dual unit sphere with <f, x> = ||x||.

    Closed form for every weighted ell_r space.  For x = 0 returns an
    arbitrary unit functional.
    """
    v = space.check_point(x)
    n = norm(space, v)
    if n <= 0.0:
        f = np.zeros(space.dim)
        f[0] = 1.0
        return f / norm(dual_space(space), f)
    if space.r == 1:
        # subgradient of the weighted ell_1 norm; sup-norm 1 in the dual
        return np.sign(v) + (v == 0.0)
    if space.is_sup:
        i = int(np.argmax(np.abs(v)))
        f = np.zeros(space.dim)
        f[i] = math.copysign(1.0, v[i]) / space.weights[i]
        return f
    return np.sign(v) * np.abs(v) ** (space.r - 1.0) / n ** (space.r - 1.0)


def norming_vector(space: SpaceSpec, g) -> np.ndarray:
    """A vector x in the unit sphere of ``space`` maximizing the plain
    linear form sum_i g_i x_i (no weights on g; use this to maximize a raw
    row functional over the ball)."""
    g = np.asarray(g, dtype=float)
    w = space.weight_array
    if np.all(g == 0.0):
        x = np.zeros(space.dim)
        x[0] = 1.0
        return x / norm(space, x)
    if space.is_sup:
        return np.sign(g) + (g == 0.0)
    if space.r == 1:
        # mass goes on the best cost/weight ratio
        i = int(np.argmax(np.abs(g) / w))
        x = np.zeros(space.dim)
        x[i] = math.copysign(1.0, g[i]) / w[i]
        return x
    rp = 1.0 / (space.r - 1.0)
    a = np.abs(g) / w
    with np.errstate(over="ignore"):  # an overflow is caught below
        x = np.sign(g) * a ** rp
        n = norm(space, x)
    if not 0.0 < n < math.inf:  # the powers under- or overflowed; x is scale-free
        x = np.sign(g) * (a / np.max(a)) ** rp
        n = norm(space, x)
    return x / n


def functional_norm(space: SpaceSpec, row) -> float:
    """Norm of the *plain* linear form x -> sum_i row_i x_i on ``space``.

    The raw coefficients are converted to pairing coordinates (divide by
    the weights) and measured in the dual space.
    """
    row = np.asarray(row, dtype=float)
    return norm(dual_space(space), row / space.weight_array)


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
