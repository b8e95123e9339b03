"""Lattice-linear expressions over point evaluations.

An expression denotes a positively homogeneous function of a dual
functional f: the generator ``Gen(i)`` evaluates to <f, x_i> for the
i-th bound vector, and the remaining nodes apply scalar/lattice
operations pointwise.  The free vector lattice over the bound vectors is
exactly the set of such expressions.

There are no constant nodes, so homogeneity holds by construction.

Every walk over an expression is a loop over its program: the distinct
nodes in post-order with the slots of their children, built once without
recursion and kept on the root, so expressions of any depth work.
Evaluation runs a kernel compiled from the program once per expression
and kept on it: one straight-line function of the pairings, with
structurally equal subexpressions computed once and each left-deep sum
of generator columns (scaled, negated or taken modulus of) gathered and
added up in a few numpy calls, bit for bit as one add per term
(``_compile``).  The analyses
(``_convex_shape``, ``mass_bound``, ``lipschitz_bound``, the DC split
``_dc_split``, the text output) stay folds over the program (``_fold``).

A text DSL is provided: generators ``d0, d1, ...``; operators ``+ - *``
(scalar multiplication), ``abs(e)``, ``max(e,f)``, ``min(e,f)``,
``pos(e)``.  Parentheses and calls nest at most ``_MAX_NESTING`` deep.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .operators import LinearMap
from .spaces import (
    SpaceSpec,
    _json_fields,
    _readonly,
    dual_space,
    norm,
    sample_sphere,
    space_from_json,
    space_to_json,
)

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

    @cached_property
    def _program(self) -> tuple[tuple["LatticeExpr", tuple[int, ...], tuple[int, ...]], ...]:
        """The distinct nodes of this expression in post-order, root last,
        as steps (node, slots of its children, slots read for the last
        time here).  Built once without recursion; nodes are told apart by
        identity, since the dataclass hash and equality recurse."""
        slot: dict[int, int] = {}
        steps: list[tuple[LatticeExpr, tuple[int, ...]]] = []
        stack = [(self, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in slot:
                continue
            try:
                kids = _CHILDREN[type(node)](node)
            except KeyError:
                raise TypeError(f"not a lattice expression node: {type(node).__name__}") from None
            if ready or not kids:
                slot[id(node)] = len(steps)
                steps.append((node, tuple(slot[id(k)] for k in kids)))
            else:
                stack += [(node, True)] + [(k, False) for k in reversed(kids)]
        last = {k: i for i, (_, kids) in enumerate(steps) for k in kids}
        return tuple(
            (node, kids, tuple({k for k in kids if last[k] == i}))
            for i, (node, kids) in enumerate(steps)
        )

    @cached_property
    def _kernel(self) -> Callable[[np.ndarray], np.ndarray]:
        """The compiled evaluation of this expression (``_compile``)."""
        return _compile(self)

    @cached_property
    def _range(self) -> tuple[float, tuple[float, ...]]:
        """(g, qs), computed once for the float window of the estimators:
        |e(y)| <= g max_k ||x_k|| at every functional y of dual norm at
        most 1 (the mass bound with generators of norm 1), and the
        exponents q of the ``PowerSum`` nodes."""
        qs = tuple(node.q for node, _, _ in self._program if isinstance(node, PowerSum))
        return _fold(self, {**_MASS, Gen: lambda n, v, k, b: 1.0}, None), qs

    def __getstate__(self) -> dict:
        # a generated function does not pickle; a copy compiles its own
        return {k: v for k, v in self.__dict__.items() if k != "_kernel"}


@dataclass(frozen=True)
class Gen(LatticeExpr):
    index: int

    def __post_init__(self) -> None:
        i = self.index
        if isinstance(i, bool) or not isinstance(i, numbers.Integral) or i < 0:
            raise ValueError(f"generator index must be a nonnegative integer, got {i!r}")
        object.__setattr__(self, "index", int(i))


@dataclass(frozen=True)
class Scale(LatticeExpr):
    c: float
    e: LatticeExpr

    def __post_init__(self) -> None:
        if not math.isfinite(self.c):
            raise ValueError(f"scale factor must be finite, got {self.c!r}")


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


@dataclass(frozen=True, eq=False)
class GeneratorBinding:
    """The vectors x_0, ..., x_{n-1} in a common space E, copied once into
    the rows of a read-only float array.  Bindings compare by identity."""

    space: SpaceSpec
    vectors: np.ndarray

    def __post_init__(self) -> None:
        m = _readonly(np.atleast_2d(self.vectors))
        if m.ndim != 2 or m.shape[1] != self.space.dim:
            raise ValueError("binding vectors must live in the binding space")
        if not np.all(np.isfinite(m)):
            raise ValueError("binding vectors must have finite entries")
        object.__setattr__(self, "vectors", m)

    @staticmethod
    def from_matrix(space: SpaceSpec, vectors: np.ndarray) -> "GeneratorBinding":
        return GeneratorBinding(space, vectors)

    @property
    def matrix(self) -> np.ndarray:
        return self.vectors

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def _weighted_t(self) -> np.ndarray:
        # a transposed view, not a contiguous copy: pairings keeps its BLAS call
        return (self.matrix * self.space.weight_array).T

    @cached_property
    def _norms(self) -> list[float]:
        # norm(space, x_i) of every bound vector, for the mass and Lipschitz
        # folds: one by one, so each is taken at its own scale
        return [norm(self.space, x) for x in self.matrix]

    def pairings(self, functionals: np.ndarray) -> np.ndarray:
        """<f_row, x_i> for each functional row and each bound vector:
        shape (rows, count), or (K, rows, count) for a stack of K families
        of rows, each product run family by family."""
        f = functionals  # the float64 rows of the polish objectives go in unconverted
        if type(f) is not np.ndarray or f.ndim < 2 or f.dtype != np.float64:
            f = np.atleast_2d(np.asarray(f, dtype=float))
        return f @ self._weighted_t

    def to_json(self) -> dict:
        return {"space": space_to_json(self.space), "vectors": self.vectors.tolist()}

    @staticmethod
    def from_json(obj: dict) -> "GeneratorBinding":
        _json_fields(obj, "binding", "space", "vectors")
        return GeneratorBinding(space_from_json(obj["space"]), obj["vectors"])


# each node kind's children, in order: the one place that knows them
_CHILDREN = {
    Gen: lambda n: (),
    **dict.fromkeys((Scale, Neg, Abs, PosPart), lambda n: (n.e,)),
    **dict.fromkeys((Add, Join, Meet), lambda n: (n.left, n.right)),
    PowerSum: lambda n: n.parts,
}


def _fold(e: LatticeExpr, rules: dict, ctx: object) -> object:
    """Run the program of e: rules[type(node)](node, v, k, ctx) gives each
    node's value, v[j] being the value of its child slot j for j in k; a
    value is dropped after its last reader."""
    program = e._program
    vals: list = [None] * len(program)
    for i, (node, kids, dead) in enumerate(program):
        vals[i] = rules[type(node)](node, vals, kids, ctx)
        for k in dead:
            vals[k] = None
    return vals[-1]


def max_generator_index(e: LatticeExpr) -> int:
    return max(node.index for node, _, _ in e._program if isinstance(node, Gen))


def _column(n: Gen, v: list, k: tuple, P: np.ndarray) -> np.ndarray:
    try:
        return P[:, n.index]
    except IndexError:
        raise IndexError(
            f"generator d{n.index} is not bound ({P.shape[1]} vectors available)"
        ) from None


def _power_sum(n: PowerSum, v: list, k: tuple, P: np.ndarray) -> np.ndarray:
    acc = np.zeros(P.shape[0])
    for j in k:
        acc = acc + np.abs(v[j]) ** n.q
    return acc ** (1.0 / n.q)


# the values of each node kind on the pairings P
_VALUES = {
    Gen: _column,
    Scale: lambda n, v, k, P: n.c * v[k[0]],
    Add: lambda n, v, k, P: v[k[0]] + v[k[1]],
    Neg: lambda n, v, k, P: -v[k[0]],
    Abs: lambda n, v, k, P: np.abs(v[k[0]]),
    Join: lambda n, v, k, P: np.maximum(v[k[0]], v[k[1]]),
    Meet: lambda n, v, k, P: np.minimum(v[k[0]], v[k[1]]),
    PosPart: lambda n, v, k, P: np.maximum(v[k[0]], 0.0),
    PowerSum: _power_sum,
}


def _param_key(x: object) -> tuple:
    """A node parameter as a dictionary key: floats by their exact bits,
    so 0.0 and -0.0 stay apart."""
    return type(x), float(x).hex()


# the parameter that tells apart nodes of one kind over the same children
_PARAM = {Gen: lambda n: n.index, Scale: lambda n: _param_key(n.c), PowerSum: lambda n: _param_key(n.q)}

# each node kind's value as source text over its children's values a and b
# and its constant c (a name bound in the kernel's namespace); PowerSum is
# written out by _compile
_SOURCE = {
    Scale: "{c} * {a}",
    Add: "{a} + {b}",
    Neg: "-{a}",
    Abs: "abs_({a})",
    Join: "maximum({a}, {b})",
    Meet: "minimum({a}, {b})",
    PosPart: "maximum({a}, 0.0)",
}


def _unbound(indices: list[int], P: np.ndarray) -> None:
    """Raise the fold's error for the first of ``indices`` that P lacks."""
    k = next(i for i in indices if i >= P.shape[-1])
    raise IndexError(f"generator d{k} is not bound ({P.shape[-1]} vectors available)")


# a run of at least this many column terms in a sum chain, or parts of a
# power sum, is evaluated in one gather and one accumulate; shorter runs,
# and every other term, keep one add per term.  Stacking the other terms
# too (np.stack) made the p = inf tasks of dual-closed-form 8-15% slower
# on a 2-core x86 host.
_FUSE = 3


def _columns(steps: list[tuple[LatticeExpr, tuple[int, ...]]]) -> list[tuple | None]:
    """For each step of the form (Neg | Scale)* [Abs] Gen g with at most one
    Scale, (g, whether the Abs is there, the scale or None, whether it is
    negated an odd number of times); None for every other step.  Such a
    step is a column of P, or its modulus, times one signed constant:
    c x, -(c x), (-c) x and c (-x) have the same bits, and 1.0 x is x (a
    NaN's sign aside)."""
    col: list[tuple | None] = []
    for node, ks in steps:
        kind, below = type(node), col[ks[0]] if ks else None
        if kind is Gen:
            col.append((node.index, False, None, False))
        elif kind is Abs and type(steps[ks[0]][0]) is Gen:
            col.append((below[0], True, None, False))
        elif kind is Neg and below:
            col.append(below[:3] + (not below[3],))
        elif kind is Scale and below and below[2] is None:
            col.append((below[0], below[1], node.c, below[3]))
        else:
            col.append(None)
    return col


def _compile(e: LatticeExpr) -> Callable[[np.ndarray], np.ndarray]:
    """The function P -> the value of e on the pairings P, with the bytes
    of ``_fold(e, _VALUES, P)`` on float64 (or integer) pairings, as one
    straight-line function; it indexes P from its last axis, so a stack
    of pairings goes through whole.  Nodes of the same structure (kind,
    parameter, children) become one step, a value is deleted after its
    last reader, and a single check up front reports the first unbound
    generator.

    A left-deep sum chain ((t0 + t1) + t2) + ... is gathered from its top
    as the program is walked once, and held open until a node other than
    the next add of the chain reads one of its sums.  A run of at least
    ``_FUSE`` column terms (``_columns``) is then one gather P[..., idx],
    one abs_ of the flagged columns, one product by the signed scales and
    one ``np.add.accumulate`` along a new last axis, which adds one term at
    a time from the left and so gives every partial sum the bits of the
    chain of adds (a pairwise ``np.add.reduce`` would not); a sum that
    another node reads is the slice at its place.  A power sum over at
    least ``_FUSE`` unscaled columns is accumulated the same way; its first
    add, 0.0 + |x|^q, is |x|^q.  A step whose value no kept statement
    reads (a column inside a run) is dropped.  Constants and index arrays
    enter through the namespace; only step numbers and generator indices,
    which are nonnegative ints, are written into the source, so equal
    sources share one code object (``_code``)."""
    slot: list[int] = []  # program slot -> step
    known: dict[tuple, int] = {}
    steps: list[tuple[LatticeExpr, tuple[int, ...]]] = []
    for node, kids, _ in e._program:
        ks = tuple(slot[k] for k in kids)
        key = (type(node), _PARAM[type(node)](node) if type(node) in _PARAM else None, ks)
        slot.append(known.setdefault(key, len(steps)))
        if slot[-1] == len(steps):
            steps.append((node, ks))
    col = _columns(steps)
    gens = [node.index for node, _ in steps if type(node) is Gen]
    ns = {"abs_": np.abs, "maximum": np.maximum, "minimum": np.minimum, "zeros": np.zeros,
          "acc_": np.add.accumulate, "concat": np.concatenate, "unbound": lambda P: _unbound(gens, P)}
    # statements in order as (name written, names read, source lines)
    ops: list[tuple[str, tuple[str, ...], list[str]]] = []
    # each add of an open chain -> the chain's terms and its adds, the
    # sum through terms[k] being the value of adds[k - 1]
    chains: dict[int, tuple[list[int], list[int]]] = {}

    def gather(name: str, terms: list[int]) -> list[str]:
        """Source of the column terms, signed and scaled, as the last axis of g."""
        cs = [col[t] for t in terms]
        ns[f"i{name}"] = np.array([c[0] for c in cs], dtype=np.intp)
        lines = [f"    g = P[..., i{name}]"]
        flags = [c[1] for c in cs]
        if all(flags):
            lines.append("    abs_(g, out=g)")
        elif any(flags):
            ns[f"m{name}"] = np.array(flags)
            lines.append(f"    abs_(g, out=g, where=m{name})")
        if any(c[2] is not None or c[3] for c in cs):
            ns[f"k{name}"] = np.array([(-1.0 if c[3] else 1.0) * (1.0 if c[2] is None else c[2]) for c in cs])
            lines.append(f"    g = g * k{name}")  # not in place: integer pairings become floats, as c * x does
        return lines

    def flush(terms: list[int], adds: list[int]) -> None:
        """Emit an open chain: fused runs of columns, one add per other term."""
        for i in adds:
            del chains[i]
        sums = [f"v{terms[0]}"] + [f"v{i}" for i in adds]
        j = 0
        while j < len(terms):
            end = j
            while end < len(terms) and col[terms[end]] is not None:
                end += 1
            if end - j < _FUSE:
                if j:
                    ops.append((sums[j], (sums[j - 1], f"v{terms[j]}"),
                                [f"    {sums[j]} = {sums[j - 1]} + v{terms[j]}"]))
                j += 1
                continue
            name = f"s{adds[end - 2]}"
            lines = gather(name, terms[j:end])
            if j:  # the run continues the sum before it
                lines.append(f"    g = concat(({sums[j - 1]}[..., None], g), axis=-1)")
            lines += [f"    {name} = acc_(g, axis=-1)", "    del g"]
            ops.append((name, (sums[j - 1],) if j else (), lines))
            for m in range(max(j, 1), end):
                ops.append((sums[m], (name,), [f"    {sums[m]} = {name}[..., {m - j + (j > 0)}]"]))
            j = end

    def use(i: int) -> str:
        """The name of step i's value, emitting the open chain that holds it."""
        if i in chains:
            flush(*chains[i])
        return f"v{i}"

    for i, (node, ks) in enumerate(steps):
        kind = type(node)
        if kind is Add:
            left, right = ks
            use(right)
            chain = chains.get(left)
            if chain is not None and chain[1][-1] == left:
                chain[0].append(right)
                chain[1].append(i)
            else:
                chain = ([left, right], [i])
                use(left)
            chains[i] = chain
            continue
        args = [use(k) for k in ks]
        if kind is Gen:
            ops.append((f"v{i}", (), [f"    v{i} = P[..., {node.index}]"]))
        elif kind is PowerSum:
            ns[f"c{i}"] = node.q
            if len(ks) >= _FUSE and all(col[k] is not None and col[k][2] is None for k in ks):
                ns[f"i{i}"] = np.array([col[k][0] for k in ks], dtype=np.intp)
                lines = [f"    acc = acc_(abs_(P[..., i{i}]) ** c{i}, axis=-1)[..., -1]"]
                args = []
            else:
                lines = ["    acc = zeros(P.shape[:-1])"] + [f"    acc = acc + abs_({a}) ** c{i}" for a in args]
            ops.append((f"v{i}", tuple(args), lines + [f"    v{i} = acc ** (1.0 / c{i})", "    del acc"]))
        else:
            if kind is Scale:
                ns[f"c{i}"] = node.c
            source = _SOURCE[kind].format(c=f"c{i}", a=args[0], b=args[-1])
            ops.append((f"v{i}", tuple(args), [f"    v{i} = {source}"]))
    root = use(len(steps) - 1)

    # keep the statements the root depends on; delete each value after its last reader
    needed, kept = {root}, []
    for op in reversed(ops):
        if op[0] in needed:
            kept.append(op)
            needed.update(op[1])
    kept.reverse()
    last = {name: n for n, (_, reads, _) in enumerate(kept) for name in reads}
    lines = ["def kernel(P):", f"    if P.shape[-1] <= {max(gens)}: unbound(P)"]
    for n, (_, reads, source) in enumerate(kept):
        lines += source
        dead = sorted({name for name in reads if last[name] == n})
        if dead:
            lines.append("    del " + ", ".join(dead))
    lines.append(f"    return {root}")
    exec(_code("\n".join(lines)), ns)
    return ns["kernel"]


@lru_cache(maxsize=256)
def _code(src: str):
    """The compiled kernel source; expressions of one structure share it,
    each with its own constants namespace."""
    return compile(src, "<expression kernel>", "exec")


# whether a node is convex, from whether its children are all linear and all convex
_CONVEX_IF = {
    **dict.fromkeys((Add, Join, PosPart), lambda n, linear, convex: convex),
    Scale: lambda n, linear, convex: convex and n.c >= 0,
    **dict.fromkeys((Abs, PowerSum), lambda n, linear, convex: linear),
    **dict.fromkeys((Neg, Meet), lambda n, linear, convex: False),
}


def _shape(n: LatticeExpr, v: list, k: tuple, P: np.ndarray) -> np.ndarray | bool | None:
    linear = all(isinstance(v[j], np.ndarray) for j in k)
    if linear and isinstance(n, (Gen, Scale, Add, Neg)):
        return _VALUES[type(n)](n, v, k, P)
    return _CONVEX_IF[type(n)](n, linear, all(v[j] is not None for j in k)) or None


def _convex_shape(e: LatticeExpr, b: GeneratorBinding) -> np.ndarray | bool | None:
    """The vector g in b.space with e(y) = <y, g> if e is linear (generators,
    and sums, scales and negations of linear nodes); True if e is otherwise
    convex by its form (moduli and power sums of linear nodes; sums, joins,
    positive parts and nonnegative scales of convex nodes); None if neither."""
    return _fold(e, dict.fromkeys(_CHILDREN, _shape), b.matrix.T)


def eval_pairings(e: LatticeExpr, P: np.ndarray) -> np.ndarray:
    """Evaluate on precomputed pairings P[row, i] = <f_row, x_i>, or on a
    stack P[k, row, i] of them; values are elementwise, so each family's
    values have the bits they have alone."""
    return e._kernel(P)


def eval_rows(e: LatticeExpr, b: GeneratorBinding, functionals: np.ndarray) -> np.ndarray:
    """Evaluate at each functional given as a row; returns one value per
    row, or (K, rows) values for a stack of K families of rows."""
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
    new_vectors = b.matrix @ T.matrix.T
    return e, GeneratorBinding.from_matrix(T.codomain, new_vectors)


def hom_image(e: LatticeExpr, b: GeneratorBinding, T: LinearMap) -> np.ndarray:
    """The function-calculus image: the same lattice-linear combination of
    the vectors T x_i, computed coordinatewise in the codomain.

    Requires an unweighted ell_p codomain, where the coordinate
    functionals make 'coordinatewise' and 'evaluate at T* e_j' agree.
    """
    if any(w != 1.0 for w in T.codomain.weights):
        raise ValueError("hom_image requires an unweighted ell_p codomain")
    _, images = pushforward(e, b, T)        # row i = T x_i
    return eval_pairings(e, images.matrix.T)  # P[j, i] = (T x_i)_j


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


# the mass bound of each node kind over a binding b: generator norms,
# scaled by |c|, every other node summing its children
_MASS = {
    **dict.fromkeys(
        (Add, Neg, Abs, Join, Meet, PosPart, PowerSum), lambda n, v, k, b: sum(v[j] for j in k)
    ),
    Gen: lambda n, v, k, b: b._norms[n.index],
    Scale: lambda n, v, k, b: abs(n.c) * v[k[0]],
}
# the Lipschitz bound differs in taking the larger side of a join or meet
_LIPSCHITZ = {**_MASS, **dict.fromkeys((Join, Meet), lambda n, v, k, b: max(v[k[0]], v[k[1]]))}


# a difference of convex functions e = g - h of the functional y: each side
# is a tuple of vertex arrays (rows in b.space) whose support functions
# y -> max_v <y, v> add up to it, the first array being one row, the side's
# linear part.  A maximum of two sides is one term, the hull of the points
# of both Minkowski sums; _DC_PIECES caps its rows and those of each side.
_DC_PIECES = 64


def _side_sum(X: tuple, Y: tuple) -> tuple:
    return (X[0] + Y[0],) + X[1:] + Y[1:]


def _dc_add(n: Add, a: tuple, c: tuple) -> tuple | None:
    # a side never loses points further up, so one above the cap ends the split here
    g, h = _side_sum(a[0], c[0]), _side_sum(a[1], c[1])
    return None if max(math.prod(map(len, g)), math.prod(map(len, h))) > _DC_PIECES else (g, h)


def _side_points(X: tuple) -> np.ndarray | None:
    """The Minkowski sum of X's terms as rows, or None above ``_DC_PIECES``."""
    if math.prod(map(len, X)) > _DC_PIECES:
        return None
    V = X[0]
    for T in X[1:]:
        V = (V[:, None, :] + T[None, :, :]).reshape(-1, V.shape[1])
    return V


def _dc_max(a: tuple, b: tuple) -> tuple | None:
    """max(g_a - h_a, g_b - h_b) = max(g_a + h_b, g_b + h_a) - (h_a + h_b)."""
    V, W = _side_points(_side_sum(a[0], b[1])), _side_points(_side_sum(b[0], a[1]))
    if V is None or W is None or len(V) + len(W) > _DC_PIECES:
        return None
    return (np.zeros_like(V[:1]), np.vstack([V, W])), _side_sum(a[1], b[1])


def _dc_rule(rule: Callable) -> Callable:
    """A rule over the children's (g, h) pairs; a child without one has none."""
    return lambda n, v, k, b: None if any(v[j] is None for j in k) else rule(n, *(v[j] for j in k))


def _dc_scale(n: Scale, a: tuple) -> tuple:
    g, h = a if n.c >= 0 else a[::-1]
    return tuple(abs(n.c) * T for T in g), tuple(abs(n.c) * T for T in h)


def _dc_meet(a: tuple, b: tuple) -> tuple | None:
    m = _dc_max(a[::-1], b[::-1])  # a ^ b = -((-a) v (-b))
    return None if m is None else m[::-1]


_DC = {
    Gen: lambda n, v, k, b: ((b.matrix[n.index][None, :],), (np.zeros((1, b.space.dim)),)),
    Scale: _dc_rule(_dc_scale),
    Add: _dc_rule(_dc_add),
    Neg: _dc_rule(lambda n, a: a[::-1]),
    Abs: _dc_rule(lambda n, a: _dc_max(a, a[::-1])),
    Join: _dc_rule(lambda n, a, c: _dc_max(a, c)),
    Meet: _dc_rule(lambda n, a, c: _dc_meet(a, c)),
    PosPart: _dc_rule(lambda n, a: _dc_max(a, ((np.zeros_like(a[0][0]),),) * 2)),
    PowerSum: lambda n, v, k, b: None,
}


def _dc_split(e: LatticeExpr, b: GeneratorBinding) -> tuple[tuple, tuple] | None:
    """e = g - h with g and h sums of support functions of vertex sets in
    b.space: (g, h) as tuples of vertex arrays, the first of each one row
    (its linear part).  None for an expression with a ``PowerSum`` node or
    whose sides have more than ``_DC_PIECES`` points."""
    split = _fold(e, _DC, b)
    if split is None or any(_side_points(X) is None for X in split):
        return None
    return split


def lipschitz_bound(e: LatticeExpr, b: GeneratorBinding) -> float:
    """A constant L with |eval(e,f) - eval(e,g)| <= L * dual-norm(f - g)."""
    return _fold(e, _LIPSCHITZ, b)


def mass_bound(e: LatticeExpr, b: GeneratorBinding) -> float:
    """Triangle-inequality upper bound on any free-lattice norm of e.

    Dominates |e| pointwise by a sum of scaled generator moduli and sums
    the generator norms: valid for every lattice norm under which each
    delta_x has norm ||x||.  Joins and meets are bounded by the sum of
    the two sides, since |a v b| and |a ^ b| are at most |a| + |b|.
    """
    return _fold(e, _MASS, b)


def recognize_moduli_combination(e: LatticeExpr) -> dict[int, float] | None:
    """Match e against sum_k a_k * |d_k| with a_k >= 0 and distinct k.

    Returns {generator index: coefficient} on success, None otherwise.
    Purely syntactic: Add/Scale over Abs(Gen(...)) terms only.  The
    program is read root first, each node handing its scale to its
    children.
    """
    program = e._program
    scale = {len(program) - 1: 1.0}
    terms: list[tuple[int, float]] = []
    for i in range(len(program) - 1, -1, -1):
        if i not in scale:
            continue  # the generator of a term
        node, kids, _ = program[i]
        if isinstance(node, Abs) and isinstance(node.e, Gen):
            if scale[i] < 0:
                return None
            terms.append((node.e.index, scale[i]))
        elif isinstance(node, (Add, Scale)):
            for k in kids:
                if k in scale:
                    return None  # a node reached twice repeats its generators
                scale[k] = scale[i] * node.c if isinstance(node, Scale) else scale[i]
        else:
            return None
    coeffs = dict(reversed(terms))
    return coeffs if len(coeffs) == len(terms) else None


# --------------------------------------------------------------------------
# text DSL
# --------------------------------------------------------------------------

# DSL function name -> (node kind, argument count)
_FUNCS = {"abs": (Abs, 1), "pos": (PosPart, 1), "max": (Join, 2), "min": (Meet, 2)}

# the parser recurses once per level of parentheses (a call opens one too)
_MAX_NESTING = 100


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
        factors = [self.factor()]
        while self.peek() == "*":
            self.take()
            factors.append(self.factor())
        nodes = [f for f in factors if isinstance(f, LatticeExpr)]
        if len(nodes) > 1:
            raise ValueError("products of two expressions are not lattice-linear")
        if not nodes:
            raise ValueError("a bare number is not an expression (no constant nodes)")
        scale = math.prod(f for f in factors if isinstance(f, float))
        return nodes[0] if scale == 1.0 else Scale(scale, nodes[0])

    def factor(self) -> float | LatticeExpr:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if self._is_number(tok):
            self.take()
            return float(tok)
        if tok in _FUNCS:
            name = self.take()
            self.take("(")
            args = [self.expr()]
            while self.peek() == ",":
                self.take()
                args.append(self.expr())
            self.take(")")
            kind, arity = _FUNCS[name]
            if len(args) != arity:
                raise ValueError(f"{name} takes {arity} argument(s)")
            return kind(*args)
        if tok.startswith("d") and tok[1:].isdigit():
            self.take()
            return Gen(int(tok[1:]))
        raise ValueError(f"unrecognized token {tok!r}")


def parse_expr(text: str) -> LatticeExpr:
    """Parse the text DSL into an expression tree."""
    tokens = _tokenize(text)
    depth = itertools.accumulate((t == "(") - (t == ")") for t in tokens)
    if max(depth, default=0) > _MAX_NESTING:
        raise ValueError(f"expression nests deeper than {_MAX_NESTING} levels")
    return _Parser(tokens).parse()


# each node kind's text as a rope, a string or a tuple of ropes; powersum is not parsed back
_TEXT = {
    Gen: lambda n, v, k, _: f"d{n.index}",
    Scale: lambda n, v, k, _: (f"{n.c:g}*(", v[k[0]], ")"),
    Add: lambda n, v, k, _: ("(", v[k[0]], ") + (", v[k[1]], ")"),
    Neg: lambda n, v, k, _: ("-(", v[k[0]], ")"),
    Abs: lambda n, v, k, _: ("abs(", v[k[0]], ")"),
    Join: lambda n, v, k, _: ("max(", v[k[0]], ", ", v[k[1]], ")"),
    Meet: lambda n, v, k, _: ("min(", v[k[0]], ", ", v[k[1]], ")"),
    PosPart: lambda n, v, k, _: ("pos(", v[k[0]], ")"),
    PowerSum: lambda n, v, k, _: (f"powersum[{n.q:g}](", v[k[0]], *((", ", v[j]) for j in k[1:]), ")"),
}


def expr_to_text(e: LatticeExpr) -> str:
    """The DSL text of e, in time linear in its length."""
    pieces, todo = [], [_fold(e, _TEXT, None)]
    while todo:
        rope = todo.pop()
        if isinstance(rope, str):
            pieces.append(rope)
        else:
            todo += reversed(rope)
    return "".join(pieces)
