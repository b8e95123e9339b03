"""One oracle for the norm of a map over a constraint ball.

The weak-p norm of a family and every operator norm the package reports
are norms of a map x -> (<y_c, x>)_c from the unit ball B_E of a space or
a section B_F of a subspace into a weighted ell_s.  ``operators._bound``
bounds that norm from above and ``operators._ascent_lower`` from below;
nothing else chooses a path.  These tests pin that design in the source
(only ``operators`` names the exact paths, the generic-section bound and
the ascent) and pin ``_bound`` bit for bit against the two oracles it
replaced, kept here as reference copies: the witness search's weak-p
oracle and the operator-norm upper bound.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import fblab
from fblab import SpaceSpec, SubspaceSpec, weak_p_norm
from fblab.operators import _bound, _exact_plan, _fstar_norm_upper, _unit_space
from fblab.spaces import _norm_each_row, norms_rows
from fblab.summing import lp_combine

EXPONENTS = [1.0, 1.5, 2.0, 3.0, math.inf]


# --------------------------------------------------------------------------
# one home in the source
# --------------------------------------------------------------------------


def test_only_operators_names_the_paths_of_the_oracle():
    """No module but ``operators`` refers to the exact-path dispatcher, the
    bound of a form on a generic section or the structured ascent; the
    other modules reach them through ``_bound`` and ``_ascent_lower``."""
    package = Path(fblab.__file__).parent
    private = {"_exact_plan", "_fstar_norm_upper", "_structured_ascent"}
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Name):
                name = node.id
            else:
                name = getattr(node, "attr", None)
            if name in private:
                found.add((path.stem, name))
    assert {module for module, _ in found} == {"operators"}
    assert {name for _, name in found} == private


# --------------------------------------------------------------------------
# _bound against the oracles it replaced
# --------------------------------------------------------------------------


def _reference_weak(ball, Y, p):
    """The witness search's weak-p oracle as it was before ``_bound``:
    (upper bound, exact?, the bound of a stack for the polish or None)."""
    plan = _exact_plan(ball, _unit_space(p, len(Y)))
    if plan is not None:
        value, _, cheap = plan
        return value(Y), True, value if cheap else None
    crude = lambda Y, space: lp_combine(norms_rows(space.dual, Y), p)
    if isinstance(ball, SpaceSpec):
        return crude(Y, ball), False, None
    if ball._model is not None:
        space_F, d = ball._model
        return crude(Y / d, space_F), False, None
    E = ball.ambient

    def upper(G):
        return lp_combine(np.apply_along_axis(lambda g: _fstar_norm_upper(ball, g), -1, G), p)

    exact = math.isinf(p) and (E.is_sup or E.r in (1.0, 2.0))
    return upper(Y), exact, None if E.is_sup or E.r == 1 else upper


def _reference_norm_upper(A, E, C):
    """The operator-norm upper bound as it was before ``_bound``, for a
    plain matrix or a stack of them: (bound, exact?)."""
    Y = A if E.unweighted else A / E.weight_array
    plan = _exact_plan(E, C)
    if plan is not None:
        return plan[0](Y), True
    crude = lambda y: _norm_each_row(C, norms_rows(E.dual, y))
    return (crude(Y) if Y.ndim == 2 else np.array([crude(y) for y in Y])), False


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _space(r, n, weighted, rng):
    return SpaceSpec(r, n, tuple(rng.uniform(0.5, 2.0, n)) if weighted else ())


def _balls(rng):
    """Unit balls of weighted and unweighted spaces, and sections of every
    kind: axis-aligned (a model space), generic over ell_1 and ell_inf
    (a vertex set), generic over ell_1 and ell_inf above the vertex cap,
    and generic over other exponents (neither)."""
    for r in EXPONENTS:
        for weighted in (False, True):
            yield _space(r, 4, weighted, rng)
        E = _space(r, 5, True, rng)
        perm = rng.permutation(5)
        s = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        yield SubspaceSpec.from_arrays(E, np.eye(5)[perm[:3]] * s[:, None], np.eye(5)[perm[3:]])
        n, k = (40, 6) if r in (1.0, math.inf) else (5, 3)
        full = rng.standard_normal((n, n))
        yield SubspaceSpec.from_arrays(_space(r, n, True, rng), full[:k], full[k:])
        if r in (1.0, math.inf):
            full = rng.standard_normal((5, 5))
            yield SubspaceSpec.from_arrays(_space(r, 5, True, rng), full[:3], full[3:])


def test_balls_cover_every_kind_of_section():
    kinds = set()
    for ball in _balls(np.random.default_rng(0)):
        if isinstance(ball, SubspaceSpec):
            kind = "model" if ball._model is not None else "vertices" if ball._vertices is not None else "none"
            kinds.add((kind, ball.ambient.r))
    assert kinds == {("model", r) for r in EXPONENTS} | {
        ("vertices", 1.0), ("vertices", math.inf), ("none", 1.0), ("none", math.inf),
        ("none", 1.5), ("none", 2.0), ("none", 3.0),
    }


@pytest.mark.parametrize("N", [1, 3, 21])
def test_weak_p_bound_is_the_witness_search_oracle(N):
    """Into unweighted ell_p^N, over every kind of ball, ``_bound`` gives the
    former weak-p oracle's bound, exactness and polish bound bit for bit,
    for one family and for a stack; 21 members are past the family cap,
    where no row signs are enumerated."""
    rng = np.random.default_rng(N)
    for ball in _balls(rng):
        dim = ball.dim
        for p in EXPONENTS:
            Y = rng.standard_normal((N, dim))
            upper, exact, bound, tag = _bound(ball, Y, _unit_space(p, N))
            ref_upper, ref_exact, ref_bound = _reference_weak(ball, Y, p)
            assert _bits(upper) == _bits(ref_upper) and exact == ref_exact
            assert (bound is None) == (ref_bound is None)
            plan = _exact_plan(ball, _unit_space(p, N))
            assert tag == (plan[1] if plan is not None else "row-norm upper bound")
            if bound is not None:
                G = rng.standard_normal((3, N, dim))
                assert _bits(bound(G)) == _bits(ref_bound(G))


@pytest.mark.parametrize("weighted", [False, True])
def test_operator_bound_is_the_former_upper_bound(weighted):
    """Over the unit ball of a weighted or unweighted ell_r, into unweighted
    ell_p^m and weighted ell_s^m, ``_bound`` of the rows in pairing
    coordinates gives the former operator-norm upper bound and exactness
    bit for bit, for one map and map by map for a stack."""
    rng = np.random.default_rng(7 + weighted)
    for r in EXPONENTS:
        E = _space(r, 4, weighted, rng)
        for m in (1, 3, 22):
            for C in [SpaceSpec(s, m) for s in EXPONENTS] + [_space(s, m, True, rng) for s in EXPONENTS]:
                for A in (rng.standard_normal((m, 4)), rng.standard_normal((5, m, 4))):
                    upper, exact, _, _ = _bound(E, A / E.weight_array, C)
                    ref_upper, ref_exact = _reference_norm_upper(A, E, C)
                    assert _bits(upper) == _bits(ref_upper) and exact == ref_exact


# --------------------------------------------------------------------------
# the weak-p norm with no round trip through the weights
# --------------------------------------------------------------------------


def test_weak_p_norm_under_tiny_weights_is_finite():
    """The weak-2 norm of the one-member family 1e-100 over the line with
    weight 1e-300 is sqrt(1e-300) 1e-100 = 1e-250.  It once read [1e-250,
    inf] with an overflow warning: the family was multiplied by the weights,
    handed to ``operator_norm`` and divided by them again."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = weak_p_norm([[1e-100]], SpaceSpec(2.0, 1, (1e-300,)), 2.0)
    assert est.lower_certified and est.upper_certified
    assert math.isfinite(est.upper)
    assert est.lower == pytest.approx(1e-250, rel=1e-12)
    assert est.upper == pytest.approx(1e-250, rel=1e-12)


@pytest.mark.parametrize("r, s", [(2.0, 2.0), (3.0, 2.0), (1.5, 3.0), (2.0, 1.0), (1.0, 2.0), (math.inf, 2.0)])
@pytest.mark.parametrize("w", [1e-300, 1e300])
def test_operator_norm_under_extreme_weights_is_finite(r, s, w):
    """The map 1 from the line with weight w in ell_r into ell_s has norm
    w^(-1/r) (1 over a sup-norm line).  Under w = 1e-300 in ell_2 it once
    read [1e150, inf] with an overflow warning: the crude row-norm upper
    measured the row 1 / w = 1e300 in the weighted dual, and squared it."""
    E = SpaceSpec(r, 1, (w,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = fblab.operator_norm(fblab.LinearMap([[1.0]], E, SpaceSpec(s, 1)))
    assert est.lower_certified and est.upper_certified
    true = w ** (-1.0 / r)
    assert est.lower == pytest.approx(true, rel=1e-12) and est.upper == pytest.approx(true, rel=1e-12)
