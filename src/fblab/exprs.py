"""Lattice-linear expressions over point evaluations.

An expression denotes a positively homogeneous function of a dual
functional f: the generator ``Gen(i)`` evaluates to <f, x_i> for the
i-th bound vector, and the remaining nodes apply scalar/lattice
operations pointwise.  The free vector lattice over the bound vectors is
exactly the set of such expressions.

There are no constant nodes, so homogeneity holds by construction.

A text DSL is provided: generators ``d0, d1, ...``; operators ``+ - *``
(scalar multiplication), ``abs(e)``, ``max(e,f)``, ``min(e,f)``,
``pos(e)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import LinearMap, adjoint
from .spaces import SpaceSpec, dual_space, norm, sample_sphere, space_from_json, space_to_json

__all__ = [
    "LatticeExpr",
    "Gen",
    "Scale",
    "Add",
    "Neg",
    "Abs",
    "Join",
    "Meet",
    "PosPart",
    "PowerSum",
    "GeneratorBinding",
    "eval_expr",
    "eval_rows",
    "eval_pairings",
    "pushforward",
    "hom_image",
    "homogeneity_check",
    "disjointness_check",
    "DisjointnessReport",
    "lipschitz_bound",
    "mass_bound",
    "max_generator_index",
    "recognize_moduli_combination",
    "parse_expr",
    "expr_to_text",
]


class LatticeExpr:
    """Base class for expression nodes; supports +, -, scalar *."""

    __slots__ = ()

    def __add__(self, other: "LatticeExpr") -> "LatticeExpr":
        return Add(self, other)

    def __sub__(self, other: "LatticeExpr") -> "LatticeExpr":
        return Add(self, Neg(other))

    def __neg__(self) -> "LatticeExpr":
        return Neg(self)

    def __mul__(self, c: float) -> "LatticeExpr":
        return Scale(float(c), self)

    __rmul__ = __mul__


@dataclass(frozen=True)
class Gen(LatticeExpr):
    index: int


@dataclass(frozen=True)
class Scale(LatticeExpr):
    c: float
    e: LatticeExpr


@dataclass(frozen=True)
class Add(LatticeExpr):
    left: LatticeExpr
    right: LatticeExpr


@dataclass(frozen=True)
class Neg(LatticeExpr):
    e: LatticeExpr


@dataclass(frozen=True)
class Abs(LatticeExpr):
    e: LatticeExpr


@dataclass(frozen=True)
class Join(LatticeExpr):
    left: LatticeExpr
    right: LatticeExpr


@dataclass(frozen=True)
class Meet(LatticeExpr):
    left: LatticeExpr
    right: LatticeExpr


@dataclass(frozen=True)
class PosPart(LatticeExpr):
    e: LatticeExpr


@dataclass(frozen=True)
class PowerSum(LatticeExpr):
    """(sum_k |e_k|^q)^(1/q), q >= 1.

    Not part of the text DSL; used programmatically where a q-th power
    mean of moduli is needed.  Positively homogeneous like all nodes.
    """

    q: float
    parts: tuple[LatticeExpr, ...]

    def __post_init__(self) -> None:
        if not (self.q >= 1):
            raise ValueError("power-sum exponent must be >= 1")
        if not self.parts:
            raise ValueError("power-sum needs at least one part")


@dataclass(frozen=True)
class GeneratorBinding:
    """The vectors x_0, ..., x_{n-1} in a common space E."""

    space: SpaceSpec
    vectors: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[1] != self.space.dim:
            raise ValueError("binding vectors must live in the binding space")
        if not np.all(np.isfinite(m)):
            raise ValueError("binding vectors must have finite entries")
        object.__setattr__(
            self, "vectors", tuple(tuple(float(v) for v in row) for row in m)
        )

    @staticmethod
    def from_matrix(space: SpaceSpec, vectors: np.ndarray) -> "GeneratorBinding":
        v = np.atleast_2d(np.asarray(vectors, dtype=float))
        return GeneratorBinding(space, tuple(tuple(float(x) for x in row) for row in v))

    @property
    def matrix(self) -> np.ndarray:
        return np.atleast_2d(np.asarray(self.vectors, dtype=float))

    @property
    def count(self) -> int:
        return self.matrix.shape[0]

    def pairings(self, functionals: np.ndarray) -> np.ndarray:
        """<f_row, x_i> for each functional row and each bound vector:
        shape (rows, count)."""
        f = np.atleast_2d(np.asarray(functionals, dtype=float))
        return f @ (self.matrix * self.space.weight_array).T

    def to_json(self) -> dict:
        return {"space": space_to_json(self.space), "vectors": [list(r) for r in self.vectors]}

    @staticmethod
    def from_json(obj: dict) -> "GeneratorBinding":
        if "space" not in obj or "vectors" not in obj:
            raise ValueError("binding JSON requires fields 'space' and 'vectors'")
        return GeneratorBinding.from_matrix(
            space_from_json(obj["space"]), np.asarray(obj["vectors"], dtype=float)
        )


def max_generator_index(e: LatticeExpr) -> int:
    if isinstance(e, Gen):
        return e.index
    if isinstance(e, (Scale, Neg, Abs, PosPart)):
        return max_generator_index(e.e)
    if isinstance(e, (Add, Join, Meet)):
        return max(max_generator_index(e.left), max_generator_index(e.right))
    if isinstance(e, PowerSum):
        return max(max_generator_index(p) for p in e.parts)
    raise TypeError(f"not a lattice expression node: {e!r}")


def eval_pairings(e: LatticeExpr, P: np.ndarray) -> np.ndarray:
    """Evaluate on precomputed pairings P[row, i] = <f_row, x_i>."""
    if isinstance(e, Gen):
        try:
            return P[:, e.index]
        except IndexError:
            raise IndexError(
                f"generator d{e.index} is not bound ({P.shape[1]} vectors available)"
            ) from None
    if isinstance(e, Scale):
        return e.c * eval_pairings(e.e, P)
    if isinstance(e, Add):
        return eval_pairings(e.left, P) + eval_pairings(e.right, P)
    if isinstance(e, Neg):
        return -eval_pairings(e.e, P)
    if isinstance(e, Abs):
        return np.abs(eval_pairings(e.e, P))
    if isinstance(e, Join):
        return np.maximum(eval_pairings(e.left, P), eval_pairings(e.right, P))
    if isinstance(e, Meet):
        return np.minimum(eval_pairings(e.left, P), eval_pairings(e.right, P))
    if isinstance(e, PosPart):
        return np.maximum(eval_pairings(e.e, P), 0.0)
    if isinstance(e, PowerSum):
        acc = np.zeros(P.shape[0])
        for part in e.parts:
            acc = acc + np.abs(eval_pairings(part, P)) ** e.q
        return acc ** (1.0 / e.q)
    raise TypeError(f"not a lattice expression node: {e!r}")


def eval_rows(e: LatticeExpr, b: GeneratorBinding, functionals: np.ndarray) -> np.ndarray:
    """Evaluate at each functional given as a row; returns one value per row."""
    return eval_pairings(e, b.pairings(functionals))


def eval_expr(e: LatticeExpr, b: GeneratorBinding, f: np.ndarray) -> float:
    """Evaluate at a single dual functional."""
    f = dual_space(b.space).check_point(np.asarray(f, dtype=float))
    return float(eval_rows(e, b, f[None, :])[0])


def pushforward(
    e: LatticeExpr, b: GeneratorBinding, T: LinearMap
) -> tuple[LatticeExpr, GeneratorBinding]:
    """Replace each bound vector x_i by T x_i.

    Contract: eval of the pushed expression at y* equals eval of the
    original at T* y* (adjoint with respect to the weighted pairings).
    """
    if T.domain != b.space:
        raise ValueError("map domain does not match the binding space")
    new_vectors = b.matrix @ T.array.T
    return e, GeneratorBinding.from_matrix(T.codomain, new_vectors)


def hom_image(e: LatticeExpr, b: GeneratorBinding, T: LinearMap) -> np.ndarray:
    """The function-calculus image: the same lattice-linear combination of
    the vectors T x_i, computed coordinatewise in the codomain.

    Requires an unweighted ell_p codomain, where the coordinate
    functionals make 'coordinatewise' and 'evaluate at T* e_j' agree.
    """
    if T.domain != b.space:
        raise ValueError("map domain does not match the binding space")
    if any(w != 1.0 for w in T.codomain.weights):
        raise ValueError("hom_image requires an unweighted ell_p codomain")
    images = b.matrix @ T.array.T          # row i = T x_i
    return eval_pairings(e, images.T)       # P[j, i] = (T x_i)_j


def homogeneity_check(
    e: LatticeExpr, b: GeneratorBinding, samples: int, seed: int
) -> float:
    """Max relative violation of eval(lam*f) = lam*eval(f) over samples."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    fs = np.array(sample_sphere(dual_space(b.space), samples, seed))
    lams = 10.0 ** rng.uniform(-3, 6, size=samples)
    base = eval_rows(e, b, fs)
    scaled = eval_rows(e, b, fs * lams[:, None])
    viol = np.abs(scaled - lams * base) / np.maximum(1.0, np.abs(lams * base))
    zero = abs(eval_expr(e, b, np.zeros(b.space.dim)))
    return float(max(np.max(viol), zero))


@dataclass(frozen=True)
class DisjointnessReport:
    max_violation: float
    worst_functional: tuple[float, ...]
    negative_sample: tuple[float, ...] | None

    @property
    def ok(self) -> bool:
        return self.negative_sample is None


def disjointness_check(
    e1: LatticeExpr,
    e2: LatticeExpr,
    b: GeneratorBinding,
    samples: int,
    seed: int,
) -> DisjointnessReport:
    """Sampled check that min(e1, e2) vanishes, for nonnegative-valued
    expressions.  A negative sample of either expression is reported
    explicitly instead of being folded into the violation value."""
    fs = np.array(sample_sphere(dual_space(b.space), samples, seed))
    v1 = eval_rows(e1, b, fs)
    v2 = eval_rows(e2, b, fs)
    negative = None
    neg_mask = (v1 < -1e-12) | (v2 < -1e-12)
    if np.any(neg_mask):
        negative = tuple(float(x) for x in fs[int(np.argmax(neg_mask))])
    meet = np.abs(np.minimum(v1, v2))
    k = int(np.argmax(meet))
    return DisjointnessReport(
        max_violation=float(meet[k]),
        worst_functional=tuple(float(x) for x in fs[k]),
        negative_sample=negative,
    )


def lipschitz_bound(e: LatticeExpr, b: GeneratorBinding) -> float:
    """A constant L with |eval(e,f) - eval(e,g)| <= L * dual-norm(f - g)."""
    if isinstance(e, Gen):
        return norm(b.space, b.matrix[e.index])
    if isinstance(e, Scale):
        return abs(e.c) * lipschitz_bound(e.e, b)
    if isinstance(e, Add):
        return lipschitz_bound(e.left, b) + lipschitz_bound(e.right, b)
    if isinstance(e, (Neg, Abs, PosPart)):
        return lipschitz_bound(e.e, b)
    if isinstance(e, (Join, Meet)):
        return max(lipschitz_bound(e.left, b), lipschitz_bound(e.right, b))
    if isinstance(e, PowerSum):
        return sum(lipschitz_bound(p, b) for p in e.parts)
    raise TypeError(f"not a lattice expression node: {e!r}")


def mass_bound(e: LatticeExpr, b: GeneratorBinding) -> float:
    """Triangle-inequality upper bound on any free-lattice norm of e.

    Dominates |e| pointwise by a sum of scaled generator moduli and sums
    the generator norms: valid for every lattice norm under which each
    delta_x has norm ||x||.  Joins and meets are bounded by the sum of
    the two sides, since |a v b| and |a ^ b| are at most |a| + |b|.
    """
    if isinstance(e, Gen):
        return norm(b.space, b.matrix[e.index])
    if isinstance(e, Scale):
        return abs(e.c) * mass_bound(e.e, b)
    if isinstance(e, Add):
        return mass_bound(e.left, b) + mass_bound(e.right, b)
    if isinstance(e, (Neg, Abs, PosPart)):
        return mass_bound(e.e, b)
    if isinstance(e, (Join, Meet)):
        return mass_bound(e.left, b) + mass_bound(e.right, b)
    if isinstance(e, PowerSum):
        return sum(mass_bound(p, b) for p in e.parts)
    raise TypeError(f"not a lattice expression node: {e!r}")


def recognize_moduli_combination(e: LatticeExpr) -> dict[int, float] | None:
    """Match e against sum_k a_k * |d_k| with a_k >= 0 and distinct k.

    Returns {generator index: coefficient} on success, None otherwise.
    Purely syntactic: Add/Scale over Abs(Gen(...)) terms only.
    """

    def term(t: LatticeExpr, scale: float) -> dict[int, float] | None:
        if isinstance(t, Add):
            left = term(t.left, scale)
            right = term(t.right, scale)
            if left is None or right is None:
                return None
            if set(left) & set(right):
                return None
            left.update(right)
            return left
        if isinstance(t, Scale):
            return term(t.e, scale * t.c)
        if isinstance(t, Abs) and isinstance(t.e, Gen):
            if scale < 0:
                return None
            return {t.e.index: scale}
        return None

    return term(e, 1.0)


# --------------------------------------------------------------------------
# text DSL
# --------------------------------------------------------------------------

_FUNCS = {"abs": 1, "pos": 1, "max": 2, "min": 2}


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*(),":
            tokens.append(ch)
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected character {ch!r} in expression")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    @staticmethod
    def _is_number(tok: str) -> bool:
        try:
            float(tok)
            return True
        except ValueError:
            return False

    def parse(self) -> LatticeExpr:
        e = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self.peek()!r}")
        return e

    def expr(self) -> LatticeExpr:
        negate = False
        if self.peek() == "-":
            self.take()
            negate = True
        elif self.peek() == "+":
            self.take()
        node = self.term()
        if negate:
            node = Neg(node)
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = Add(node, Neg(rhs) if op == "-" else rhs)
        return node

    def term(self) -> LatticeExpr:
        # collect '*'-separated factors; fold numeric ones into a scale
        factors: list[tuple[bool, object]] = [self.factor()]
        while self.peek() == "*":
            self.take()
            factors.append(self.factor())
        scale = 1.0
        node: LatticeExpr | None = None
        for is_num, val in factors:
            if is_num:
                scale *= float(val)  # type: ignore[arg-type]
            elif node is None:
                node = val  # type: ignore[assignment]
            else:
                raise ValueError("products of two expressions are not lattice-linear")
        if node is None:
            raise ValueError("a bare number is not an expression (no constant nodes)")
        return node if scale == 1.0 else Scale(scale, node)

    def factor(self) -> tuple[bool, object]:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return (False, node)
        if self._is_number(tok):
            self.take()
            return (True, float(tok))
        if tok in _FUNCS:
            name = self.take()
            self.take("(")
            args = [self.expr()]
            while self.peek() == ",":
                self.take()
                args.append(self.expr())
            self.take(")")
            if len(args) != _FUNCS[name]:
                raise ValueError(f"{name} takes {_FUNCS[name]} argument(s)")
            if name == "abs":
                return (False, Abs(args[0]))
            if name == "pos":
                return (False, PosPart(args[0]))
            if name == "max":
                return (False, Join(args[0], args[1]))
            return (False, Meet(args[0], args[1]))
        if tok.startswith("d") and tok[1:].isdigit():
            self.take()
            return (False, Gen(int(tok[1:])))
        raise ValueError(f"unrecognized token {tok!r}")


def parse_expr(text: str) -> LatticeExpr:
    """Parse the text DSL into an expression tree."""
    return _Parser(_tokenize(text)).parse()


def expr_to_text(e: LatticeExpr) -> str:
    if isinstance(e, Gen):
        return f"d{e.index}"
    if isinstance(e, Scale):
        return f"{e.c:g}*({expr_to_text(e.e)})"
    if isinstance(e, Add):
        return f"({expr_to_text(e.left)}) + ({expr_to_text(e.right)})"
    if isinstance(e, Neg):
        return f"-({expr_to_text(e.e)})"
    if isinstance(e, Abs):
        return f"abs({expr_to_text(e.e)})"
    if isinstance(e, Join):
        return f"max({expr_to_text(e.left)}, {expr_to_text(e.right)})"
    if isinstance(e, Meet):
        return f"min({expr_to_text(e.left)}, {expr_to_text(e.right)})"
    if isinstance(e, PosPart):
        return f"pos({expr_to_text(e.e)})"
    if isinstance(e, PowerSum):
        inner = ", ".join(expr_to_text(p) for p in e.parts)
        return f"powersum[{e.q:g}]({inner})"
    raise TypeError(f"not a lattice expression node: {e!r}")
