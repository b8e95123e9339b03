"""Independent checks of fblab's outputs.

Nothing here calls into fblab.  Norms, pairings, expression evaluation,
weak-p norms and operator norms are recomputed from their definitions:

    ||x||_E    = (sum_i w_i |x_i|^r)^(1/r),  max_i |x_i| for r = inf
    <f, x>     = sum_i w_i f_i x_i            (the dual has the same weights)
    weak_p(Y)  = sup_{x in B_E} (sum_k |<y_k, x>|^p)^(1/p)

Expression trees are read through their node class names and fields only,
so a change to fblab's own evaluator cannot hide a wrong result here.

Every ``check_*`` function returns a list of failure messages, each naming
the check; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9
# ±1 rows materialized per block in the brute-force enumerations
_BLOCK_ROWS = 1 << 13


def conjugate(r: float) -> float:
    if r == 1:
        return math.inf
    if math.isinf(r):
        return 1.0
    return r / (r - 1.0)


def lr_norm(rows, r: float, w) -> np.ndarray:
    """Weighted ell_r norm of each row (the sup norm ignores the weights)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    w = np.asarray(w, dtype=float)
    a = np.abs(rows)
    if math.isinf(r):
        return a.max(axis=1)
    if r == 1:
        return a @ w
    return ((a ** r) @ w) ** (1.0 / r)


def dual_norm(rows, r: float, w) -> np.ndarray:
    """Norm of functionals given in pairing coordinates, on the weighted ell_r space."""
    return lr_norm(rows, conjugate(r), w)


def lp_sum(values, p: float, axis: int = -1) -> np.ndarray:
    a = np.abs(np.asarray(values, dtype=float))
    if math.isinf(p):
        return a.max(axis=axis)
    return (a ** p).sum(axis=axis) ** (1.0 / p)


def sign_rows(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows start..stop-1 of the 2^n sign patterns, bit i of the row index
    giving the sign of column i."""
    stop = (1 << n) if stop is None else stop
    idx = np.arange(start, stop, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
    return 1.0 - 2.0 * bits


# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------

_UNARY = ("Scale", "Neg", "Abs", "PosPart")
_BINARY = ("Add", "Join", "Meet")


def _children(node) -> tuple:
    kind = type(node).__name__
    if kind == "Gen":
        return ()
    if kind in _UNARY:
        return (node.e,)
    if kind in _BINARY:
        return (node.left, node.right)
    if kind == "PowerSum":
        return tuple(node.parts)
    raise TypeError(f"unknown expression node {kind}")


def _fold(expr, leaf, combine):
    """Post-order fold without recursion (expressions may be deep)."""
    done: dict[int, object] = {}
    stack = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        kids = _children(node)
        if not kids:
            done[id(node)] = leaf(node)
        elif expanded:
            done[id(node)] = combine(node, [done[id(k)] for k in kids])
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in done)
    return done[id(expr)]


def evaluate(expr, X, w, Y) -> np.ndarray:
    """Value of the expression at each functional row of Y, the generators
    being the rows of X in a space with weights w."""
    P = (np.atleast_2d(np.asarray(Y, dtype=float)) * np.asarray(w, dtype=float)) @ np.asarray(
        X, dtype=float
    ).T

    def combine(node, vals):
        kind = type(node).__name__
        if kind == "Scale":
            return node.c * vals[0]
        if kind == "Neg":
            return -vals[0]
        if kind == "Abs":
            return np.abs(vals[0])
        if kind == "PosPart":
            return np.maximum(vals[0], 0.0)
        if kind == "Add":
            return vals[0] + vals[1]
        if kind == "Join":
            return np.maximum(vals[0], vals[1])
        if kind == "Meet":
            return np.minimum(vals[0], vals[1])
        return (sum(np.abs(v) ** node.q for v in vals)) ** (1.0 / node.q)

    return _fold(expr, lambda g: P[:, g.index], combine)


def mass_scale(expr, X, r: float, w) -> float:
    """sum |c| ||x||: each generator weighted by the product of the scales
    above it, lattice operations adding their sides.  It bounds the
    expression's norm in every free lattice over the space."""
    norms = lr_norm(X, r, w)

    def combine(node, vals):
        kind = type(node).__name__
        if kind == "Scale":
            return abs(node.c) * vals[0]
        return float(sum(vals))

    return float(_fold(expr, lambda g: float(norms[g.index]), combine))


# --------------------------------------------------------------------------
# weak-p norms and operator norms by brute force
# --------------------------------------------------------------------------


class NotComputable(ValueError):
    """No exact brute-force route exists for this space and exponent."""


def _max_signed_sum_norm(Y: np.ndarray, r: float, w: np.ndarray) -> float:
    """max over signs of the dual norm of sum_k eps_k y_k (first sign fixed),
    by a split table: signed sums of the low members are formed once and
    each block of high patterns is added to all of them."""
    N = Y.shape[0]
    low = min(N, 10)
    L = sign_rows(low - 1) @ Y[1:low] + Y[0] if low > 1 else Y[:1].copy()
    high = Y[low:]
    n_high = high.shape[0]
    best = 0.0
    step = max(1, _BLOCK_ROWS // L.shape[0])
    for start in range(0, 1 << n_high, step):
        H = sign_rows(n_high, start, min(start + step, 1 << n_high)) @ high
        S = (H[:, None, :] + L[None, :, :]).reshape(-1, Y.shape[1])
        best = max(best, float(dual_norm(S, r, w).max()))
    return best


def weak_p(Y, r: float, w, p: float) -> float:
    """Exact weak-p norm of the family Y (rows in pairing coordinates) over
    the unit ball of the weighted ell_r space."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    w = np.asarray(w, dtype=float)
    N, dim = Y.shape
    if math.isinf(p):
        return float(dual_norm(Y, r, w).max())
    if r == 1:
        # extreme points +-e_i / w_i pair with y to y_i
        return float(lp_sum(Y, p, axis=0).max())
    if math.isinf(r) and dim <= 20 and (p != 1 or dim <= N - 1):
        Yw = (Y * w).T
        best = 0.0
        for start in range(0, 1 << (dim - 1), _BLOCK_ROWS):
            V = sign_rows(dim - 1, start, min(start + _BLOCK_ROWS, 1 << (dim - 1)))
            V = np.hstack([np.ones((V.shape[0], 1)), V])
            best = max(best, float(lp_sum(V @ Yw, p, axis=1).max()))
        return best
    if p == 1:
        if N > 24:
            raise NotComputable(f"sign enumeration of {N} members")
        return _max_signed_sum_norm(Y, r, w)
    if r == 2 and p == 2:
        return float(np.linalg.norm(Y * np.sqrt(w), 2))
    raise NotComputable(f"weak-{p} over ell_{r}")


def operator_norm(A, r: float, w, p: float, w_cod) -> float:
    """sup ||A x||_{ell_p(w_cod)} over the unit ball of ell_r(w), A acting by
    the plain product, for polytopal balls (r = 1 or r = inf)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    w = np.asarray(w, dtype=float)
    if r == 1:
        pts = np.diag(1.0 / w)
    elif math.isinf(r) and A.shape[1] <= 20:
        n = A.shape[1]
        pts = np.hstack([np.ones(((1 << (n - 1)), 1)), sign_rows(n - 1)])
    else:
        raise NotComputable(f"operator norm on ell_{r}")
    return float(lr_norm(pts @ A.T, p, w_cod).max())


# --------------------------------------------------------------------------
# checks of single outputs
# --------------------------------------------------------------------------


def _close(a: float, b: float, rel: float = TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _space(spec) -> tuple[float, np.ndarray]:
    return float(spec.r), np.asarray(spec.weights, dtype=float)


def _interval(est, what: str) -> list[str]:
    if not (est.lower <= est.upper + TOL * max(1.0, abs(est.upper))):
        return [f"{what}: interval: lower {est.lower!r} above upper {est.upper!r}"]
    return []


def check_witness(expr, binding, p: float, est, what: str = "fbl_norm") -> list[str]:
    """Replay a free-lattice witness: feasible (weak-p <= 1) and attaining a
    value between the reported lower and upper bounds."""
    errors = _interval(est, what)
    if est.witness is None:
        return errors + [f"{what}: witness: missing"]
    r, w = _space(binding.space)
    X = np.asarray(binding.vectors, dtype=float)
    Y = np.asarray(est.witness.functionals, dtype=float)
    try:
        weak = weak_p(Y, r, w, p)
    except NotComputable as exc:
        return errors + [f"{what}: witness weak-p: not checkable ({exc})"]
    value = float(lp_sum(evaluate(expr, X, w, Y), p))
    if weak > 1.0 + TOL:
        errors.append(f"{what}: witness weak-p: {weak!r} > 1")
    if value < est.lower - TOL * max(1.0, est.lower):
        errors.append(f"{what}: witness objective: {value!r} below lower {est.lower!r}")
    if est.upper_certified and value > est.upper + TOL * max(1.0, est.upper):
        errors.append(f"{what}: witness objective: {value!r} above upper {est.upper!r}")
    return errors


def check_dual_sphere(expr, binding, est, seed: int, samples: int = 20000) -> list[str]:
    """p = inf: the witness functional reproduces the lower bound, and for
    dual dimension <= 3 no sampled point of the dual sphere exceeds a
    certified upper bound."""
    what = "fbl_infty_norm"
    errors = _interval(est, what)
    r, w = _space(binding.space)
    X = np.asarray(binding.vectors, dtype=float)
    y = np.asarray(est.witness.functionals, dtype=float)
    ratio = float(abs(evaluate(expr, X, w, y)[0]) / dual_norm(y, r, w)[0])
    if not _close(ratio, est.lower):
        errors.append(f"{what}: witness ratio: {ratio!r} != lower {est.lower!r}")
    if est.upper_certified and len(w) <= 3:
        G = np.random.default_rng((seed, 7919)).standard_normal((samples, len(w)))
        G /= dual_norm(G, r, w)[:, None]
        top = float(np.abs(evaluate(expr, X, w, G)).max())
        if top > est.upper + TOL * max(1.0, est.upper):
            errors.append(f"{what}: dual-sphere sample: {top!r} above upper {est.upper!r}")
    return errors


def check_moduli_l1(vectors, coeffs, space, value_lower, value_upper, what: str) -> list[str]:
    """sum_k a_k |delta_{x_k}| over L_1(mu) at p = 1 has norm sum a_k ||x_k||."""
    r, w = _space(space)
    target = float(np.asarray(coeffs, dtype=float) @ lr_norm(vectors, r, w))
    errors = []
    for name, v in (("lower", value_lower), ("upper", value_upper)):
        if not _close(v, target):
            errors.append(f"{what}: closed form: {name} {v!r} != sum a_k||x_k|| {target!r}")
    return errors


def check_pi_q1(T, q: float, est) -> list[str]:
    """(q,1)-summing witness: weak-1 <= 1 over the predual ball of the
    domain, and its strong q-sum reaches the reported lower bound."""
    what = "pi_q1_lower"
    if est.witness is None:
        return [f"{what}: witness: missing"]
    rd, wd = _space(T.domain)
    Y = np.asarray(est.witness.functionals, dtype=float)
    A = np.asarray(T.matrix, dtype=float)
    errors = []
    weak = weak_p(Y, conjugate(rd), wd, 1.0)
    if weak > 1.0 + TOL:
        errors.append(f"{what}: witness weak-1: {weak!r} > 1")
    rc, wc = _space(T.codomain)
    value = float(lp_sum(lr_norm(Y @ A.T, rc, wc), q))
    if value < est.lower - TOL * max(1.0, est.lower):
        errors.append(f"{what}: witness objective: {value!r} below lower {est.lower!r}")
    return errors


def check_extension(sub, T, p: float, est) -> list[str]:
    """The extension witness restricts to T on F, and its operator norm over
    the ambient ball, divided by the reported norm of T on F, is the
    reported upper bound.  At p = inf the constant is exactly 1."""
    what = "extension_constant"
    errors = _interval(est, what)
    if math.isinf(p):
        if est.lower != 1.0 or est.upper != 1.0:
            errors.append(f"{what}: p=inf closed form: [{est.lower!r}, {est.upper!r}] != 1")
        return errors
    if est.upper < 1.0 - TOL:
        errors.append(f"{what}: structural lower: upper {est.upper!r} < 1")
    if not sub.complement_basis:
        return errors  # F = E: T itself is the only extension
    if est.witness is None:
        return errors + [f"{what}: witness: missing"]
    A = np.asarray(est.witness.functionals, dtype=float)
    B = np.asarray(sub.basis, dtype=float)
    M = np.asarray(T.matrix, dtype=float)
    scale = max(1.0, float(np.abs(A).max()) * float(np.abs(B).max()))
    gap = float(np.abs(A @ B.T - M).max())
    if gap > 1e-7 * scale:
        errors.append(f"{what}: restriction: |T~ B - T| = {gap!r}")
    r, w = _space(sub.ambient)
    rc, wc = _space(T.codomain)
    norm_ext = operator_norm(A, r, w, rc, wc)
    ratio = max(norm_ext / est.witness.constraint, 1.0)
    if not _close(ratio, est.upper, 1e-7):
        errors.append(f"{what}: witness norm: ||T~||/||T|| = {ratio!r} != upper {est.upper!r}")
    return errors


def check_embedding_gap(sub, expr, binding, p: float, gap) -> list[str]:
    """The ambient witness replays and the gap is at least 1."""
    errors = check_witness(expr, binding, p, gap.ambient, "embedding_gap ambient")
    if gap.ratio < 1.0 - 1e-6:
        errors.append(f"embedding_gap: ratio: {gap.ratio!r} < 1 - 1e-6")
    return errors


def check_report(report) -> list[str]:
    """Every record of a catalog experiment passes its own rule."""
    return [
        f"{report.name}: rule of {rec.quantity}: {rec.rule} (lower {rec.lower!r})"
        for rec in report.records
        if not rec.passed
    ]
