"""Subspaces, minimal-extension constants, and embedding gaps."""

import hashlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from fblab import (
    Abs,
    Gen,
    GeneratorBinding,
    Join,
    LinearMap,
    OptimizerConfig,
    Scale,
    SpaceSpec,
    SubspaceSpec,
    embedding_gap,
    extension,
    extension_constant,
    fbl_infty_norm,
    fbl_norm,
    moduli_norm,
    norm,
    norming_functional,
    operator_norm,
    pairing,
    pi_p_lower,
    pi_q1_lower,
    run_experiment,
    spaces,
    subspace_from_json,
    subspace_to_json,
    weak_p_norm,
    witness_search,
)
from fblab.experiments import _l1_complement, dyadic_L1, rademacher_matrix
from fblab.exprs import max_generator_index
from fblab.operators import (
    _bound, _exact_plan, _fstar_norm_upper, _max_linear_over_BF, _operator_norm_over_F, _unit_space,
)
from fblab import summing
from fblab.summing import lp_combine

CFG = OptimizerConfig(restarts=8)


@pytest.mark.parametrize("k", [-40, -300])
def test_subspace_rank_check_is_relative(k):
    """The orthonormal basis of ell_2^3 scaled by 2^-40 was once "rank
    deficient", while the same basis at 2^-20 passed: the tolerance was
    absolute below 1.  A nearly dependent basis is refused at any scale."""
    E, eye = SpaceSpec(2.0, 3), np.eye(3)
    assert SubspaceSpec.from_arrays(E, np.ldexp(eye[:2], k), np.ldexp(eye[2:], k)).dim == 2
    with pytest.raises(ValueError, match="rank deficient"):
        SubspaceSpec.from_arrays(E, np.ldexp([[1.0, 0.0, 0.0], [1.0, 1e-12, 0.0]], k), np.ldexp(eye[2:], k))


def _coordinate_sub(ambient, k):
    eye = np.eye(ambient.dim)
    return SubspaceSpec.from_arrays(ambient, eye[:k], eye[k:])


def test_subspace_validation():
    E = SpaceSpec(1.0, 3)
    with pytest.raises(ValueError):
        SubspaceSpec.from_arrays(E, np.eye(3)[:2], np.zeros((0, 3)))  # 2 + 0 != 3
    with pytest.raises(ValueError):
        SubspaceSpec.from_arrays(E, [[1.0, 0, 0], [1.0, 0, 0]], [np.eye(3)[2]])
    with pytest.raises(ValueError):
        SubspaceSpec.from_arrays(E, [[1.0, 0.0]], [[0.0, 1.0]])  # wrong width
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SubspaceSpec.from_arrays(E, [[1.0, bad, 0.0]], np.eye(3)[1:])
        with pytest.raises(ValueError):
            SubspaceSpec.from_arrays(E, np.eye(3)[:2], [[0.0, 0.0, bad]])
    sub = _coordinate_sub(E, 2)
    assert sub.dim == 2
    full = SubspaceSpec.from_arrays(E, np.eye(3), np.zeros((0, 3)))
    assert full.complement_matrix.shape == (0, 3)


def test_subspace_matrices_are_cached_and_read_only():
    E = SpaceSpec(1.0, 3)
    sub = _coordinate_sub(E, 2)
    full = SubspaceSpec.from_arrays(E, np.eye(3), np.zeros((0, 3)))
    for s in (sub, full):
        for name in ("basis_matrix", "complement_matrix"):
            m = getattr(s, name)
            assert m is getattr(s, name) and m.dtype == float and not m.flags.writeable
    assert sub.basis_matrix.tolist() == [list(row) for row in sub.basis]
    assert full.complement_matrix.shape == (0, 3)
    assert (not full.complement_basis) is True and (not sub.complement_basis) is False
    assert sub == _coordinate_sub(E, 2) and hash(sub) == hash(_coordinate_sub(E, 2))


def test_embed_coordinates_roundtrip():
    rng = np.random.default_rng(0)
    E = SpaceSpec(2.0, 4)
    B = rng.standard_normal((2, 4))
    C = rng.standard_normal((2, 4))
    sub = SubspaceSpec.from_arrays(E, B, C)
    coords = rng.standard_normal((5, 2))
    back = sub.coordinates(coords @ B)
    assert np.max(np.abs(back - coords)) <= 1e-8
    with pytest.raises(ValueError):
        sub.coordinates(C[0][None, :])  # complement vector is not in F


@pytest.mark.parametrize("s", [1.0, 1e-9, 2.0**-830, 2.0**830])
def test_coordinates_tolerance_scales_with_the_points(s):
    """Points off F are rejected at every scale (below magnitude 1 the
    tolerance was once absolute, and s (1, .5, .7) passed at s = 1e-9),
    also beside a unit point of F (the tolerance is each point's own),
    points of F accepted with their coordinates, and a zero point passes."""
    sub = _coordinate_sub(SpaceSpec(2.0, 3), 2)
    with pytest.raises(ValueError):
        sub.coordinates(np.array([[1.0, 0.5, 0.7]]) * s)
    with pytest.raises(ValueError):
        sub.coordinates(np.array([[1.0, 0.0, 0.0], [s, s / 2, 0.7 * s]]))
    assert sub.coordinates(np.array([[1.0, 0.5, 0.0]]) * s).tolist() == [[s, s / 2]]
    assert sub.coordinates(np.zeros((1, 3))).tolist() == [[0.0, 0.0]]


def test_restrict_preserves_pairings():
    rng = np.random.default_rng(1)
    E = SpaceSpec(1.0, 4, (0.5, 1.0, 1.5, 2.0))
    B = rng.standard_normal((2, 4))
    sub = SubspaceSpec.from_arrays(E, B, rng.standard_normal((2, 4)))
    Y = rng.standard_normal((3, 4))
    G = sub.restrict(Y)
    coords = rng.standard_normal((6, 2))
    for g, y in zip(G, Y):
        for c in coords:
            assert float(g @ c) == pytest.approx(
                pairing(E, y, sub.embed(c)), abs=1e-10
            )


def test_subspace_json_roundtrip():
    E = SpaceSpec(math.inf, 3)
    sub = _coordinate_sub(E, 2)
    again = subspace_from_json(subspace_to_json(sub))
    assert again == sub
    odd = SubspaceSpec.from_arrays(E, [[1.0, -0.0, 1 / 3]], [[0, 1, 0], [0, 0, 1]])
    text = json.dumps(subspace_to_json(odd))
    assert json.dumps(subspace_to_json(subspace_from_json(json.loads(text)))) == text
    with pytest.raises(ValueError):
        subspace_from_json({"ambient": {"r": 2, "dim": 2}})


def test_extension_constant_sup_codomain_exact():
    E = SpaceSpec(1.0, 4, (0.25,) * 4)
    sub = _coordinate_sub(E, 2)
    T = LinearMap.from_array(np.eye(2), SpaceSpec(math.inf, 2), SpaceSpec(math.inf, 2))
    est = extension_constant(sub, T, math.inf, CFG)
    assert est.exact
    assert est.lower == est.upper == 1.0
    with pytest.raises(ValueError):
        extension_constant(
            sub,
            LinearMap.from_array(np.eye(2), SpaceSpec(2.0, 2), SpaceSpec(2.0, 2)),
            math.inf,
            CFG,
        )


def test_extension_constant_validation():
    E = SpaceSpec(1.0, 3)
    sub = _coordinate_sub(E, 2)
    T3 = LinearMap.from_array(np.eye(3), SpaceSpec(1.0, 3), SpaceSpec(1.0, 3))
    with pytest.raises(ValueError):
        extension_constant(sub, T3, 1.0, CFG)  # domain dim mismatch
    T_bad_cod = LinearMap.from_array(np.eye(2), SpaceSpec(1.0, 2), SpaceSpec(2.0, 2))
    with pytest.raises(ValueError):
        extension_constant(sub, T_bad_cod, 1.0, CFG)  # codomain exponent != p
    T_zero = LinearMap.from_array(np.zeros((2, 2)), SpaceSpec(1.0, 2), SpaceSpec(1.0, 2))
    with pytest.raises(ValueError):
        extension_constant(sub, T_zero, 1.0, CFG)


def test_extension_constant_coordinate_subspace_is_one():
    """A coordinate subspace extends by zero-padding with no norm
    increase, so the interval collapses onto 1."""
    E = SpaceSpec(1.0, 3, (1.0, 1.0, 1.0))
    sub = _coordinate_sub(E, 2)
    T = LinearMap.from_array(np.eye(2), SpaceSpec(1.0, 2), SpaceSpec(1.0, 2))
    est = extension_constant(sub, T, 1.0, CFG)
    assert est.lower == 1.0
    assert est.upper <= 1.0 + 1e-3


def test_extension_constant_general_interval():
    rng = np.random.default_rng(2)
    E = SpaceSpec(math.inf, 3)
    sub = SubspaceSpec.from_arrays(
        E, [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [[1.0, 0.0, 0.0]]
    )
    M = rng.standard_normal((2, 2))
    T = LinearMap.from_array(M, SpaceSpec(math.inf, 2), SpaceSpec(1.0, 2))
    est = extension_constant(sub, T, 1.0, CFG)
    assert est.lower == 1.0
    assert est.upper >= 1.0 - 1e-12
    assert math.isfinite(est.upper)
    assert est.witness is not None


def test_extension_constant_generic_exponent():
    """Over a subspace of ell_3 that is neither axis-aligned nor a
    polytope section, forms on F are maximized at explicit points of B_F.
    On F = span (1, 1, 0) the form c -> 2c peaks at c = 2^(-1/3), and a
    map into a line extends with constant 1 (Hahn-Banach)."""
    E = SpaceSpec(3.0, 3)
    sub = SubspaceSpec.from_arrays(E, [[1.0, 1.0, 0.0]], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    val, c = _max_linear_over_BF(sub, np.array([2.0]))
    assert sub.ambient_norm(c) == pytest.approx(1.0, rel=1e-12)
    assert val == pytest.approx(2.0 * c[0], rel=1e-12)
    assert val == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)
    T = LinearMap.from_array(np.eye(1), SpaceSpec(2.0, 1), SpaceSpec(2.0, 1))
    est = extension_constant(sub, T, 2.0, CFG)
    assert est.lower == 1.0
    assert est.upper == pytest.approx(1.0, abs=1e-6)

    sub2 = SubspaceSpec.from_arrays(
        SpaceSpec(3.0, 4, (0.5, 1.0, 2.0, 1.5)),
        [[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 1.0]],
        [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    )
    for v in (np.array([1.0, -2.0]), np.array([0.3, 0.0])):
        val, c = _max_linear_over_BF(sub2, v)
        assert sub2.ambient_norm(c) == pytest.approx(1.0, rel=1e-12)
        assert val == pytest.approx(float(v @ c), rel=1e-12) and val > 0.0


@pytest.mark.parametrize("r", [3.0, math.inf])
def test_extension_constant_trivial_subspace_is_exactly_one(r):
    """F = E: T is its own and only extension, so the constant is exactly
    1 for any basis of E.  A generic basis of ell_3^3 read [1, 1.0247...]
    when the ratio was two separately computed norms, and ell_inf^3 read
    an upper bound one ulp above 1."""
    rng = np.random.default_rng(0)
    sub = SubspaceSpec.from_arrays(SpaceSpec(r, 3), rng.standard_normal((3, 3)), np.zeros((0, 3)))
    for p in (1.0, 2.0):
        T = LinearMap.from_array(rng.standard_normal((2, 3)), SpaceSpec(2.0, 3), SpaceSpec(p, 2))
        est = extension_constant(sub, T, p, CFG)
        assert (est.lower, est.upper) == (1.0, 1.0)
        assert est.lower_certified and est.upper_certified
        assert est.method == ("trivial subspace",)
    T_zero = LinearMap.from_array(np.zeros((2, 3)), SpaceSpec(2.0, 3), SpaceSpec(1.0, 2))
    with pytest.raises(ValueError):
        extension_constant(sub, T_zero, 1.0, CFG)


def test_embedding_gap_trivial_subspace():
    """F = E: the inherited and ambient norms coincide."""
    E = SpaceSpec(math.inf, 3)
    sub = SubspaceSpec.from_arrays(E, np.eye(3), np.zeros((0, 3)))
    b = GeneratorBinding.from_matrix(E, np.eye(3))
    e = Join(Abs(Gen(0)), Abs(Gen(1)) + Abs(Gen(2)))
    gap = embedding_gap(sub, e, b, 1.0, CFG)
    assert gap.ratio == pytest.approx(1.0, abs=1e-6)


def test_embedding_gap_at_least_one():
    """Restricting witnesses can only help the F side."""
    rng = np.random.default_rng(3)
    E = SpaceSpec(1.0, 3)
    B = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]])
    sub = SubspaceSpec.from_arrays(E, B, [[1.0, 0.0, 0.0]])
    b = GeneratorBinding.from_matrix(E, rng.standard_normal((2, 2)) @ B)
    e = Join(Abs(Gen(0)), Abs(Gen(1)))
    gap = embedding_gap(sub, e, b, 1.0, CFG)
    assert gap.ratio >= 1.0 - 1e-6
    assert gap.subspace_lower >= gap.ambient.lower - 1e-6
    js = gap.to_json()
    assert set(js) == {"subspace_lower", "ambient", "ratio", "subspace_witness"}


def test_embedding_gap_validation():
    E = SpaceSpec(1.0, 3)
    sub = _coordinate_sub(E, 2)
    wrong_space = GeneratorBinding.from_matrix(SpaceSpec(2.0, 3), np.eye(3)[:1])
    with pytest.raises(ValueError):
        embedding_gap(sub, Abs(Gen(0)), wrong_space, 1.0, CFG)
    off_subspace = GeneratorBinding.from_matrix(E, np.array([[0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        embedding_gap(sub, Abs(Gen(0)), off_subspace, 1.0, CFG)


# --------------------------------------------------------------------------
# B_F by vertex enumeration (ambient r in {1, inf})
# --------------------------------------------------------------------------


def _rademacher_sub(m):
    """The span of the first m Rademacher functions in dyadic L_1, as the
    poe-constants experiment builds it."""
    L1 = dyadic_L1(1 << m)
    R = rademacher_matrix(m)
    return SubspaceSpec.from_arrays(L1, R, _l1_complement(R, L1.dim))


def _linprog_max(sub, v):
    """max of v . c over B_F by one direct linear program."""
    from scipy.optimize import linprog

    B = sub.basis_matrix
    k, n = B.shape
    if sub.ambient.is_sup:
        res = linprog(-v, A_ub=np.vstack([B.T, -B.T]), b_ub=np.ones(2 * n),
                      bounds=[(None, None)] * k, method="highs")
    else:
        w = sub.ambient.weight_array
        A = np.vstack([
            np.hstack([B.T, -np.eye(n)]),
            np.hstack([-B.T, -np.eye(n)]),
            np.hstack([np.zeros((1, k)), w[None, :]]),
        ])
        b = np.concatenate([np.zeros(2 * n), [1.0]])
        res = linprog(np.concatenate([-v, np.zeros(n)]), A_ub=A, b_ub=b,
                      bounds=[(None, None)] * k + [(0, None)] * n, method="highs")
    assert res.success
    return -res.fun


def test_vertex_max_matches_linear_program():
    rng = np.random.default_rng(10)
    for n in range(2, 9):
        weights = tuple(rng.uniform(0.2, 2.0, n))
        for E in (SpaceSpec(math.inf, n), SpaceSpec(1.0, n, weights)):
            for k in range(1, n):
                full = rng.standard_normal((n, n))
                sub = SubspaceSpec.from_arrays(E, full[:k], full[k:])
                V = sub._vertices
                assert V is not None and not V.flags.writeable
                assert np.allclose([sub.ambient_norm(c) for c in V], 1.0, rtol=1e-12)
                for _ in range(4):
                    v = rng.standard_normal(k)
                    # the norm of c -> v . c into a line is the largest v . c
                    value, tag, cheap = _exact_plan(sub, SpaceSpec(1.0, 1))
                    val = value(v[None, :])
                    assert tag == "B_F vertex enumeration" and cheap
                    assert abs(val - _linprog_max(sub, v)) <= 1e-9 * abs(val)


def test_vertices_of_coordinate_and_rademacher_sections():
    # a scaled coordinate section of a cube is a box: 2^3 vertices
    sub = SubspaceSpec.from_arrays(
        SpaceSpec(math.inf, 5), np.eye(5)[:3] * 2.0, np.eye(5)[3:]
    )
    assert np.array_equal(np.abs(sub._vertices), np.full((8, 3), 0.5))
    # the Rademacher span of L_1^4 meets the unit ball in a square
    assert _rademacher_sub(2)._vertices.shape == (4, 2)
    assert SubspaceSpec.from_arrays(SpaceSpec(2.0, 2), np.eye(2), np.zeros((0, 2)))._vertices is None


def test_linear_program_above_the_vertex_cap(monkeypatch):
    import scipy.optimize

    calls = []
    real = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    rng = np.random.default_rng(12)
    big = []
    for E, k in ((SpaceSpec(math.inf, 24), 12), (SpaceSpec(1.0, 40), 6)):
        full = rng.standard_normal((E.dim, E.dim))
        big.append(SubspaceSpec.from_arrays(E, full[:k], full[k:]))
    cached = [_rademacher_sub(2), _rademacher_sub(3)]
    for sub in cached:
        assert sub._vertices is not None
    # the same sections built again, with the cap below their candidate counts
    monkeypatch.setattr(spaces, "_VERTEX_CANDIDATE_CAP", 0)
    fresh = [_rademacher_sub(2), _rademacher_sub(3)]
    for sub in big + fresh:
        assert sub._vertices is None
        for _ in range(3):
            v = rng.standard_normal(sub.dim)
            before = len(calls)
            val, c = _max_linear_over_BF(sub, v)
            assert len(calls) == before + 1
            assert sub.ambient_norm(c) == pytest.approx(1.0, rel=1e-12)
            assert float(v @ c) == pytest.approx(val, rel=1e-12)
            assert abs(val - _linprog_max(sub, v)) <= 1e-9 * abs(val)
    # a form of tiny length is solved at unit length: HiGHS would read it
    # as zero and return an arbitrary feasible point
    line = SpaceSpec(1.0, 1)
    for old, new in zip(cached, fresh):
        assert _exact_plan(new, line) is None
        for _ in range(20):
            v = rng.standard_normal(old.dim)
            exact = _exact_plan(old, line)[0](v[None, :])
            tiny, _ = _max_linear_over_BF(new, 1e-9 * v)
            assert tiny == pytest.approx(1e-9 * exact, rel=1e-9)


def _sum_objective(G):
    """A degree-1 objective of a family of forms (or of each of a stack):
    the largest absolute row sum."""
    return lp_combine(lp_combine(G, 1.0), math.inf)


def test_ell2_closed_form_at_extreme_scales():
    """Over an ell_2 ambient, the weak-inf bound of forms on a generic F is
    the closed form sqrt(v . G^-1 v), which would overflow or underflow at
    1e200 and 1e-200; the witness search scales such a seed into the float
    window first, and reads the unit value and witness bit for bit."""
    rng = np.random.default_rng(13)
    for n, k in ((3, 2), (5, 3)):
        full = rng.standard_normal((n, n))
        sub = SubspaceSpec.from_arrays(SpaceSpec(2.0, n, tuple(rng.uniform(0.5, 2.0, n))), full[:k], full[k:])
        v = rng.standard_normal(k)
        val, c = _max_linear_over_BF(sub, v)
        unit, witness, tight = witness_search(sub, math.inf, _sum_objective, [v])
        assert tight and unit > 0.0
        for e in (664, -664):
            big, big_witness, big_tight = witness_search(sub, math.inf, _sum_objective, [np.ldexp(v, e)])
            assert (big, big_tight) == (unit, tight)
            assert big_witness.matrix.tobytes() == witness.matrix.tobytes()


@pytest.mark.parametrize("r", [math.inf, 1.0])
def test_linear_program_at_extreme_scales(r):
    """Over ell_inf^40 and ell_1^40, where B_F of a generic 6-dimensional F
    has no vertex set, the weak-inf bound of a form is one linear program,
    which sees the form at unit length.  The witness search scales a seed
    outside the float window into it first: at 2^600 and 2^-600 times the
    form it reads the unit value and witness bit for bit, and at 1e200,
    1e160 and 1e-200 the unit value.  The length of such a form overflows
    or underflows."""
    rng = np.random.default_rng(0)
    full = rng.standard_normal((40, 40))
    sub = SubspaceSpec.from_arrays(SpaceSpec(r, 40), full[:6], full[6:])
    assert sub._vertices is None and sub._model is None
    v = rng.standard_normal(6)
    val, c = _max_linear_over_BF(sub, v)
    assert val > 0.0 and val == pytest.approx(_linprog_max(sub, v), rel=1e-9)
    unit, witness, tight = witness_search(sub, math.inf, _sum_objective, [v])
    assert tight and unit == _sum_objective(v[None]) / val
    for e in (600, -600):
        big, big_witness, _ = witness_search(sub, math.inf, _sum_objective, [np.ldexp(v, e)])
        assert big == unit and big_witness.matrix.tobytes() == witness.matrix.tobytes()
    for scale in (1e200, 1e160, 1e-200):
        assert witness_search(sub, math.inf, _sum_objective, [scale * v])[0] == pytest.approx(unit, rel=1e-9)


@pytest.mark.parametrize("r", [math.inf, 1.0])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_weak_p_over_a_section_above_the_vertex_cap(r, p):
    """Over a generic 6-dimensional F of ell_inf^40 or ell_1^40, B_F has no
    vertex set and no model space, so the weak-p bound of a family is the
    lp-combination of its members' norms on F, one linear program each,
    with the bits of that combination; exact only at p = inf, and handed
    over with no stacked bound, so the witness search does not polish it."""
    rng = np.random.default_rng(0)
    full = rng.standard_normal((40, 40))
    sub = SubspaceSpec.from_arrays(SpaceSpec(r, 40), full[:6], full[6:])
    assert sub._vertices is None and sub._model is None
    G = rng.standard_normal((2, 6))
    upper, exact, bound, _ = _bound(sub, G, _unit_space(p, len(G)))
    members = np.array([_fstar_norm_upper(sub, g) for g in G])
    assert np.float64(upper).tobytes() == np.float64(lp_combine(members, p)).tobytes()
    assert exact == math.isinf(p) and bound is None


def _zonotope_polar_vertices(sub):
    """Vertices of B_F over an L_1 ambient from the facets of the zonotope
    sum_i [-w_i b_i, w_i b_i] (qhull), apart from fblab's enumeration:
    a facet a . x <= h gives the vertex a / h."""
    Z = (sub.basis_matrix * sub.ambient.weight_array).T
    n = Z.shape[0]
    signs = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    eq = ConvexHull(signs @ Z).equations
    return eq[:, :-1] / -eq[:, -1:]


def _lp_rows(P, p):
    """lp-combination of the entries of each row of P (max at p = inf)."""
    P = np.abs(P)
    return P.max(axis=1) if math.isinf(p) else (P ** p).sum(axis=1) ** (1.0 / p)


@pytest.mark.parametrize("m", [2, 3])
def test_embedding_gap_subspace_witness_replays(m):
    """Both witnesses of the Rademacher embedding gap replay at p = 1, 2
    and inf without fblab's evaluators: the F-side one over B_F from the
    zonotope's facets, the ambient one over the cross-polytope of dyadic
    L_1; each certifies the value it reports."""
    sub = _rademacher_sub(m)
    R = rademacher_matrix(m)
    b = GeneratorBinding.from_matrix(sub.ambient, R)
    e = Gen(0)
    for k in range(1, m):
        e = Join(e, Gen(k))
    w = sub.ambient.weight_array
    for p in (1.0, 2.0, math.inf):
        gap = embedding_gap(sub, e, b, p, OptimizerConfig(restarts=24))
        # the basis is R itself, so F-side pairings with the generators
        # are the basis coordinates; e is the join of the pairings
        G = gap.subspace_witness.matrix
        assert np.max(_lp_rows(_zonotope_polar_vertices(sub) @ G.T, p)) <= 1.0 + 1e-9
        assert _lp_rows(G.max(axis=1)[None, :], p)[0] >= gap.subspace_lower - 1e-9
        # the extreme points +-e_i / w_i of B_E pair to the columns of Y
        Y = gap.ambient.witness.matrix
        assert np.max(_lp_rows(Y.T, p)) <= 1.0 + 1e-9
        values = (Y @ (R * w).T).max(axis=1)
        assert _lp_rows(values[None, :], p)[0] >= gap.ambient.lower - 1e-9
        assert gap.ratio >= 1.0 - 1e-6


_JOIN2 = Abs(Gen(0)) + Join(Gen(0), Gen(1))
_JOIN3 = Abs(Gen(0)) + Join(Gen(1), Gen(2)) - Scale(0.5, Abs(Gen(2)))
_GENERIC_GAPS = [
    # (ambient, n, k, seed, p, expression); the ell_inf cases at p = 1 read
    # 0.93 and 0.88 when F-side families were normalized by the sum of
    # member norms; the first two p = inf cases read 0.848 and 0.9992
    # before the restricted ambient witness seeded the F-side search; in
    # the third the lifted F-side witness beats the ambient lower bound of
    # the DC certificate by an ulp, within the rounding of its upper bound
    pytest.param(math.inf, 4, 2, 1, 1.0, _JOIN2, id="4-2-1"),
    pytest.param(math.inf, 6, 3, 5, 1.0, _JOIN2, id="6-3-5"),
    pytest.param(2.0, 5, 3, 4, math.inf, _JOIN3, id="l2-5-3-4-inf"),
    pytest.param(math.inf, 4, 2, 3, math.inf, _JOIN3, id="linf-4-2-3-inf"),
    pytest.param(2.0, 5, 3, 23, math.inf, _JOIN3, id="l2-5-3-23-inf"),
]


@pytest.mark.parametrize("r,n,k,seed,p,e", _GENERIC_GAPS)
def test_embedding_gap_generic_sup_subspace_at_least_one(r, n, k, seed, p, e):
    """On generic (not axis-aligned) subspaces the gap keeps its
    structural bound: restricting an ambient witness to F keeps its
    evaluations and cannot enlarge its weak-p norm."""
    rng = np.random.default_rng(seed)
    E = SpaceSpec(r, n)
    full = rng.standard_normal((n, n))
    sub = SubspaceSpec.from_arrays(E, full[:k], full[k:])
    b = GeneratorBinding.from_matrix(E, rng.standard_normal((max_generator_index(e) + 1, k)) @ full[:k])
    gap = embedding_gap(sub, e, b, p, CFG)
    assert gap.ratio >= 1.0 - 1e-6


def test_poe_constants_needs_no_linear_program(monkeypatch):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("linear program called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    assert run_experiment("poe-constants", seed=0).passed


@pytest.mark.parametrize("k", [15, 16])
def test_coordinate_section_above_the_vertex_cap_is_exact(monkeypatch, k):
    """A coordinate section of ell_inf^(k+1) has too many vertices to
    enumerate, but B_F is the cube of its model space: the norm over it of
    c -> M c into ell_1^2 is the operator norm over ell_inf^k, exact and
    without a linear program; scaled basis vectors divide the columns."""
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("linear program called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    rng = np.random.default_rng(k)
    M = rng.standard_normal((2, k))
    cod = SpaceSpec(1.0, 2)
    s = rng.uniform(0.5, 2.0, k)
    for basis, cube_map in ((np.eye(k + 1)[:k], M), (np.eye(k + 1)[:k] * s[:, None], M / s)):
        sub = SubspaceSpec.from_arrays(SpaceSpec(math.inf, k + 1), basis, np.eye(k + 1)[k:])
        assert sub._vertices is None
        val = _operator_norm_over_F(sub, M, cod)
        est = operator_norm(LinearMap.from_array(cube_map, SpaceSpec(math.inf, k), cod), CFG)
        assert est.exact and val == est.upper


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0, math.inf])
def test_axis_aligned_section_norms_match_closed_forms(r):
    """Over a scaled, weighted coordinate section, B_F = {c : ||(w^(1/r)
    s_j c_j)_j||_r <= 1}, so a form g on F has norm ||g / (w^(1/r) |s|)||_r'.
    The weak-1 and weak-inf norms of a family over B_F and the norm of a
    map into a sup-norm codomain follow by sign enumeration and maximum."""
    rng = np.random.default_rng(30)
    w = (0.5, 2.0, 0.7, 1.5, 0.8)
    E = SpaceSpec(r, 5, w)
    coords, s = [0, 2, 3], np.array([2.0, -0.5, 3.0])
    sub = SubspaceSpec.from_arrays(E, np.eye(5)[coords] * s[:, None], np.eye(5)[[1, 4]])
    scale = np.abs(s) * (1.0 if math.isinf(r) else np.array(w)[coords] ** (1.0 / r))
    ell_dual = SpaceSpec(1.0 if math.isinf(r) else (math.inf if r == 1 else r / (r - 1)), 3)

    def form_norm(g):
        return norm(ell_dual, g / scale)

    G = rng.standard_normal((3, 3))
    weak_1 = max(form_norm(np.array(t) @ G) for t in itertools.product((-1.0, 1.0), repeat=3))
    assert _bound(sub, G, _unit_space(1.0, 3))[0] == pytest.approx(weak_1, rel=1e-12)
    assert _bound(sub, G, _unit_space(math.inf, 3))[0] == pytest.approx(max(map(form_norm, G)), rel=1e-12)
    val = _operator_norm_over_F(sub, G, SpaceSpec(math.inf, 3))
    assert val == pytest.approx(max(map(form_norm, G)), rel=1e-12)


def _polar_vertices(sub):
    """Vertices of B_F (basis coordinates) from qhull, apart from fblab's
    enumeration: B_F is the polar of conv(+-b^i) (the columns of the basis)
    over ell_inf, and of the zonotope over ell_1."""
    if not sub.ambient.is_sup:
        return _zonotope_polar_vertices(sub)
    Z = sub.basis_matrix.T
    eq = ConvexHull(np.vstack([Z, -Z])).equations
    return eq[:, :-1] / -eq[:, -1:]


@pytest.mark.parametrize("r", [1.0, math.inf])
@pytest.mark.parametrize("aligned", [True, False], ids=["axis-aligned", "generic"])
def test_exact_norm_F_matches_qhull_vertices(r, aligned):
    """Over sections of weighted ell_1^n and ell_inf^n, n <= 6, every norm
    of c -> M c over B_F is exact and peaks at a vertex: the weak-p norms
    of ``operators._bound`` into ell_p^N (p in {1, 2, inf}) and the operator norms of
    ``_operator_norm_over_F`` (weighted ell_s codomains) equal the largest
    value over the vertices qhull finds, whichever path the dispatcher
    takes (the model space when aligned, the vertices of B_F otherwise)."""
    rng = np.random.default_rng(40 if aligned else 41)
    for n in range(3, 7):
        E = SpaceSpec(r, n, tuple(rng.uniform(0.3, 2.0, n)))
        for k in range(2, n):
            if aligned:
                perm = rng.permutation(n)
                s = rng.uniform(0.5, 2.0, k) * rng.choice([-1.0, 1.0], k)
                B = np.eye(n)[perm[:k]] * s[:, None]
                C = np.eye(n)[perm[k:]]
            else:
                full = rng.standard_normal((n, n))
                B, C = full[:k], full[k:]
            sub = SubspaceSpec.from_arrays(E, B, C)
            assert (sub._model is not None) == aligned
            V = _polar_vertices(sub)
            for _ in range(2):
                G = rng.standard_normal((int(rng.integers(1, 5)), k))
                for p in (1.0, 2.0, math.inf):
                    upper, tight, _, _ = _bound(sub, G, _unit_space(p, len(G)))
                    assert tight
                    assert upper == pytest.approx(np.max(_lp_rows(V @ G.T, p)), rel=1e-12)
                for r_cod in (1.0, 1.5, 3.0, math.inf):
                    cod = SpaceSpec(r_cod, len(G), tuple(rng.uniform(0.3, 2.0, len(G))))
                    brute = max(norm(cod, G @ c) for c in V)
                    assert _operator_norm_over_F(sub, G, cod) == pytest.approx(brute, rel=1e-12)


def _polytopal_extension_instances(count, seed):
    """Random maps on random subspaces of ell_1^n (weighted or not) and
    ell_inf^n, n <= 7, into weighted and unweighted ell_p^m with finite
    p > 1."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n))
        if i % 3 == 0:
            E = SpaceSpec(math.inf, n)
        else:
            E = SpaceSpec(1.0, n, tuple(rng.uniform(0.5, 2.0, n)) if i % 3 == 2 else None)
        full = rng.standard_normal((n, n))
        sub = SubspaceSpec.from_arrays(E, full[:k], full[k:])
        p = (1.25, 1.5, 2.0, 3.0, 4.0)[i % 5]
        m = int(rng.integers(1, 4))
        cod = SpaceSpec(p, m, tuple(rng.uniform(0.5, 2.0, m)) if i % 2 else None)
        yield sub, LinearMap.from_array(rng.standard_normal((m, k)), SpaceSpec(2.0, k), cod), p


def test_epigraph_program_beats_the_multistart(monkeypatch):
    """Over polytopal ambient balls at finite p > 1 the extension comes
    from one epigraph program.  On random instances its upper bound is
    never above the Powell multistart's (which runs when the vertex set is
    withheld), its witness restricts to T on F, and the witness's exact
    norm over B_E divided by ||T||_F replays the upper bound."""
    cases = list(_polytopal_extension_instances(100, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        programs = [extension_constant(sub, T, p, CFG) for sub, T, p in cases]
    monkeypatch.setattr(extension, "_half_vertices", lambda E: None)
    for (sub, T, p), est in zip(cases, programs):
        assert est.method[0] == "epigraph program over ambient vertices"
        powell = extension_constant(sub, T, p, CFG)
        assert powell.method[0] == "outer minimization over complement values"
        assert est.lower == 1.0 and est.upper <= powell.upper * (1.0 + 1e-9)
        A = est.witness.matrix
        assert np.allclose(A @ sub.basis_matrix.T, T.matrix, atol=1e-9 * max(1.0, np.abs(A).max()))
        ext = operator_norm(LinearMap.from_array(A, sub.ambient, T.codomain), CFG)
        assert ext.exact
        assert max(ext.upper / est.witness.constraint, 1.0) == pytest.approx(est.upper, rel=1e-12)


def test_epigraph_program_reads_no_seed():
    """The epigraph program starts from W = 0 and draws nothing, so its
    result bytes do not depend on the seed or on the number of restarts
    (the multistart's starts are scaled by ||T||_F, so its upper bound
    moves with the last digits of that norm)."""
    for sub, T, p in _polytopal_extension_instances(10, 404):
        reports = {
            json.dumps(extension_constant(sub, T, p, OptimizerConfig(seed=seed, restarts=restarts)).to_json())
            for seed in (0, 404)
            for restarts in (1, 24)
        }
        assert len(reports) == 1
        assert json.loads(reports.pop())["method"][0] == "epigraph program over ambient vertices"


def test_extension_multistart_takes_powell_values(monkeypatch):
    """The Powell multistart of a p = 1 extension constant evaluates every
    start in one call of its row-stacked objective, hands each polish its
    start's value, and takes each polished point's value from Powell, which
    computed it at that point: no point is evaluated twice, and the
    estimate keeps its bytes."""
    rng = np.random.default_rng(2)
    E = SpaceSpec(math.inf, 4)
    sub = SubspaceSpec.from_arrays(E, rng.standard_normal((2, 4)), rng.standard_normal((2, 4)))
    T = LinearMap.from_array(rng.standard_normal((2, 2)), SpaceSpec(math.inf, 2), SpaceSpec(1.0, 2))
    rows = []
    powell_complement = extension._powell_complement

    def counted(objective, *args):
        def recorded(X):
            rows.extend(x.tobytes() for x in X)
            return objective(X)

        return powell_complement(recorded, *args)

    monkeypatch.setattr(extension, "_powell_complement", counted)
    est = extension_constant(sub, T, 1.0, OptimizerConfig(restarts=4))
    assert est.method[0] == "outer minimization over complement values"
    # recorded as one-point calls when every start was evaluated again as
    # its polish's first point: 781 calls for 5 starts, each polished
    assert len(rows) == len(set(rows)) == 781 - 5
    assert est.upper.hex() == "0x1.33fefb9bbd88ap+0"
    assert hashlib.sha256(est.witness.matrix.tobytes()).hexdigest()[:16] == "2979ba2bfeafabe8"


@pytest.mark.parametrize("r", [math.inf, 1.0, 2.0])
def test_stacked_extension_objective_keeps_each_rows_bits(r):
    """Row k of the multistart's row-stacked objective is the one-point
    objective on the k-th complement values, bit for bit: the extension
    [M W] St_inv built alone, and ``operators._bound`` of its rows in
    pairing coordinates.  ``np.matmul`` over the stack takes each product
    as the single product does, and ``operators._bound`` of the stack keeps
    each map's bits.
    Random stacks over weighted ambients and ell_1, ell_2 and ell_inf
    codomains; the ell_2 codomain over a Euclidean ambient has no exact
    path and goes map by map."""
    rng = np.random.default_rng(7)
    stacked = 0
    for n, k, m, q in itertools.product((3, 5), (1, 2), (1, 3), (1.0, 2.0, math.inf)):
        E = SpaceSpec(r, n, tuple(rng.uniform(0.5, 2.0, n)))
        St_inv = np.linalg.inv(rng.standard_normal((n, n)).T)
        C = SpaceSpec(q, m, tuple(rng.uniform(0.5, 2.0, m)))
        M = rng.standard_normal((m, k))
        stacked += _exact_plan(E, C) is not None
        for K in (1, 4, 9):
            X = rng.standard_normal((K, m * (n - k))) * 10.0 ** rng.integers(-3, 4, (K, 1))
            A = extension._extensions(M, X, St_inv)
            values, exact, _, _ = _bound(E, A / E.weight_array, C)
            assert A.shape == (K, m, n) and values.shape == (K,)
            for W, a, v in zip(X, A, values.tolist()):
                alone = np.concatenate((M, W.reshape(m, n - k)), axis=1) @ St_inv
                assert a.tobytes() == alone.tobytes()
                upper, exact_alone, _, _ = _bound(E, alone / E.weight_array, C)
                assert np.float64(v).tobytes() == np.float64(upper).tobytes()
                assert exact == exact_alone
    assert stacked == (16 if r == 2.0 else 24)  # all but ell_2 into ell_2 take the stacked path


# the report digests of a multistart over weighted ell_3 at p = 2, where no
# exact path applies and the stacked objective goes map by map; recorded
# when each start was polished by its own call of optimize.powell
ELL3_MULTISTART = {
    0: ("d27774c5dbe0c452", "0x1.224b07a352bfep+0"),
    404: ("2aae89c245c01353", "0x1.1bc7a93e93aabp+0"),
}


@pytest.mark.parametrize("seed", sorted(ELL3_MULTISTART))
def test_ell3_multistart_keeps_its_bytes(seed):
    rng = np.random.default_rng(31)
    E = SpaceSpec(3.0, 4, (0.8, 1.25, 1.5, 0.6))
    full = rng.standard_normal((4, 4))
    sub = SubspaceSpec.from_arrays(E, full[:2], full[2:])
    T = LinearMap.from_array(rng.standard_normal((2, 2)), SpaceSpec(2.0, 2), SpaceSpec(2.0, 2))
    est = extension_constant(sub, T, 2.0, OptimizerConfig(seed=seed, restarts=12))
    assert est.method[0] == "outer minimization over complement values"
    digest = hashlib.sha256(json.dumps(est.to_json()).encode()).hexdigest()[:16]
    assert (digest, est.upper.hex()) == ELL3_MULTISTART[seed]


# --------------------------------------------------------------------------
# homogeneity of the norm oracles under powers of two
# --------------------------------------------------------------------------

# a generic section of weighted ell_1^4 and one of ell_inf^4 (both on the
# B_F vertex path), and an axis-aligned section of weighted ell_3^3 (the
# model space's plan; its p = 2 weak norm is the crude bound)
_SCALE_SECTIONS = {
    "ell_1^4": SubspaceSpec.from_arrays(
        SpaceSpec(1.0, 4, (0.5, 1.0, 1.5, 2.0)),
        [[1.0, 0.5, -0.2, 0.3], [0.3, 1.0, 0.4, -0.1], [0.2, -0.3, 1.0, 0.5]],
        [[0.1, 0.2, 0.3, 1.0]],
    ),
    "ell_inf^4": SubspaceSpec.from_arrays(SpaceSpec(math.inf, 4), *np.random.default_rng(5).standard_normal((2, 2, 4))),
    "axis ell_3^3": SubspaceSpec.from_arrays(
        SpaceSpec(3.0, 3, (0.5, 1.0, 2.0)), [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], [[0.0, 0.0, 1.0]]
    ),
}


def _scaled_section(sub, t):
    """The same section spanned by its basis and complement times 2^t."""
    return SubspaceSpec.from_arrays(sub.ambient, np.ldexp(sub.basis_matrix, t), np.ldexp(sub.complement_matrix, t))


# two of them on bases at 2^-300, still inside the float window of their
# ambients: forms on them are about 2^-300 times the functionals they
# restrict, and the model weights of the axis-aligned one about 2^-900; its
# weak-p bound once read unit forms as 2^600 and overflowed
_SCALE_SECTIONS.update(
    {f"{name} at 2^-300": _scaled_section(_SCALE_SECTIONS[name], -300) for name in ("ell_1^4", "axis ell_3^3")}
)
_SCALE_Y = np.array([[1.0, 0.5, -0.2], [0.3, 1.0, 0.4], [-0.3, 0.4, 0.8]])


def _witness_over_F_reading(sub, p, k):
    # the value of a seed is of degree 0 in its scale
    value, _, tight = witness_search(sub, p, _sum_objective, [np.ldexp(_SCALE_Y[:, : sub.dim], k)])
    return 0, [value], tight


def _weak_p_reading(E, p, k):
    est = weak_p_norm(np.ldexp(_SCALE_Y[:, : E.dim], k), E, p)
    return 1, [est.lower, est.upper], est.method


def _operator_reading(E, C, k):
    est = operator_norm(LinearMap(np.ldexp(_SCALE_Y[: C.dim, : E.dim], k), E, C))
    return 1, [est.lower, est.upper], est.method


# the map of the summing-norm cases, from ell_2^3 into ell_2^2
_SUMMING_MAP = np.array([[1.0, -2.0, 0.5], [0.5, 1.0, 0.3]])


def _summing_reading(pi, k):
    est = pi(LinearMap(np.ldexp(_SUMMING_MAP, k), SpaceSpec(2.0, 3), SpaceSpec(2.0, 2)), 2.0)
    assert est.witness.objective == est.lower
    return 1, [est.lower], est.method


def _extension_reading(sub, p, k):
    A = np.ldexp(_SCALE_Y[:2, : sub.dim], k)
    est = extension_constant(sub, LinearMap(A, SpaceSpec(2.0, sub.dim), SpaceSpec(p, 2)), p, CFG)
    w = est.witness
    if w is None:  # p = inf: exactly 1, no extension built
        return 0, [est.lower, est.upper], est.method
    # the extension and the norm of T on F it is divided by are of degree 1
    values = [est.lower, est.upper, w.objective, w.constraint, *np.abs(w.matrix.ravel())]
    return [0, 0, 0, *[1] * (len(values) - 3)], values, est.method


def _fbl_reading(E, X, e, k):
    est = fbl_norm(e, GeneratorBinding(E, np.ldexp(X, k)), 1.0, CFG)
    return 1, [est.lower, est.upper], est.method


def _fbl_infty_reading(E, X, e, k):
    est = fbl_infty_norm(e, GeneratorBinding(E, np.ldexp(X, k)), CFG)
    assert est.witness.objective == est.lower
    return 1, [est.lower, est.upper], est.method


def _moduli_reading(E, X, p, k):
    est = moduli_norm(E, np.ldexp(X, k), [1.0, 0.5], p, CFG)
    return 1, [est.lower, est.upper], est.method


def _gap_reading(name, k):
    sub = _SCALE_SECTIONS[name]
    b = GeneratorBinding(sub.ambient, np.ldexp(_SCALE_Y[:2, : sub.dim] @ sub.basis_matrix, k))
    gap = embedding_gap(sub, Abs(Gen(0)) + Join(Gen(0), Gen(1)), b, 1.0, CFG)
    values = [gap.subspace_lower, gap.ambient.lower, gap.ambient.upper, gap.ratio]
    return [1, 1, 1, 0], values, gap.ambient.method


def _norming_reading(E, k):
    return 0, np.abs(norming_functional(E, np.ldexp(_SCALE_Y[0, : E.dim], k))).tolist(), None


# (id, reading, its arguments, relative tolerance of the scaled reading):
# the free-lattice norm's seeds and search work at a power-of-two scale
# throughout, so its bounds scale bit for bit.  The weak_F cases read the
# weak-p bound over B_F as the witness search's value of one seed.
_SCALE_CASES = (
    [
        (f"weak_F {name} p={p}", _witness_over_F_reading, (sub, p), 1e-12)
        for name, sub in _SCALE_SECTIONS.items()
        for p in (1.0, 2.0, math.inf)
    ]
    + [
        (f"weak_p_norm ell_{E.r}^{E.dim} p={p}", _weak_p_reading, (E, p), 1e-12)
        for E, p in [
            (SpaceSpec(3.0, 2), math.inf),  # weak-inf closed form
            (SpaceSpec(1.0, 3, (0.5, 1.0, 2.0)), 2.0),  # cross-polytope
            (SpaceSpec(3.0, 3), 1.0),  # member signs
            (SpaceSpec(2.0, 3), 1.0),  # member signs, Euclidean enumeration
            (SpaceSpec(math.inf, 2), 1.0),  # cube signs
            (SpaceSpec(math.inf, 3), 3.0),  # cube vertices
            (SpaceSpec(3.0, 3), 2.0),  # heuristic
            (SpaceSpec(1.5, 2, (0.5, 2.0)), 2.0),  # heuristic
        ]
    ]
    + [
        (f"operator_norm ell_{E.r}^{E.dim} -> ell_{C.r}^{C.dim}", _operator_reading, (E, C), 1e-12)
        for E, C in [
            (SpaceSpec(3.0, 3), SpaceSpec(math.inf, 2)),  # sup-norm codomain
            (SpaceSpec(1.0, 3, (0.5, 1.0, 2.0)), SpaceSpec(1.5, 2, (1.0, 3.0))),  # ell_1 domain
            (SpaceSpec(3.0, 3), SpaceSpec(1.0, 2)),  # ell_1 codomain
            (SpaceSpec(2.0, 3), SpaceSpec(1.0, 3)),  # ell_1 codomain, Euclidean enumeration
            (SpaceSpec(math.inf, 2), SpaceSpec(3.0, 2)),  # cube vertices
            (SpaceSpec(3.0, 3), SpaceSpec(2.0, 2)),  # heuristic
            (SpaceSpec(1.5, 2, (0.5, 2.0)), SpaceSpec(3.0, 2)),  # heuristic
        ]
    ]
    + [(f"{pi.__name__} ell_2^3 -> ell_2^2", _summing_reading, (pi,), 1e-12) for pi in (pi_p_lower, pi_q1_lower)]
    + [
        (f"extension_constant {name} p={p}", _extension_reading, (_SCALE_SECTIONS[name], p), 1e-12)
        for name in ("ell_1^4", "ell_inf^4")
        for p in (2.0, math.inf)
    ]
    + [
        (f"fbl_norm {name} p=1", _fbl_reading, (E, np.array(X), e), 0.0)
        for name, E, X, e in [
            # its concavification seed was lost at 2^+-600, where beta's powers left the floats
            ("ell_2^3", SpaceSpec(2.0, 3), [[1.0, 0.5, -0.2], [0.3, 1.0, 0.4]], Abs(Gen(0)) + Join(Gen(0), Gen(1))),
            (
                "ell_inf^4",
                SpaceSpec(math.inf, 4),
                [[1.0, -0.5, 0.25, 0.7], [0.3, 1.0, -0.6, 0.2], [-0.4, 0.1, 0.9, -1.0]],
                Abs(Gen(0)) + Join(Gen(1), Gen(2)),
            ),
        ]
    ]
    + [
        (f"fbl_infty_norm {name}", _fbl_infty_reading, (E, np.array(X), e), 1e-12)
        for name, E, X, e in [
            # a moduli combination: the signed-sum enumeration and its norming functional
            ("ell_1.5^3 moduli", SpaceSpec(1.5, 3), [[1.0, 0.5, -0.2], [0.3, 1.0, 0.4]], Abs(Gen(0)) + Abs(Gen(1))),
            # not convex: the dual-sphere multistart and the Lipschitz grid
            ("ell_3^2 join", SpaceSpec(3.0, 2), [[1.0, 0.5], [0.3, -1.0]], Join(Gen(0), Abs(Gen(1)) * -0.5)),
        ]
    ]
    + [
        (f"moduli_norm ell_3^3 p={p}", _moduli_reading, (SpaceSpec(3.0, 3), _SCALE_Y[:2], p), 1e-12)
        for p in (1.0, 2.0)
    ]
    + [(f"embedding_gap {name}", _gap_reading, (name,), 1e-12) for name in ("ell_1^4", "ell_inf^4")]
    + [
        (f"norming_functional ell_{E.r}^{E.dim}", _norming_reading, (E,), 1e-12)
        for E in (SpaceSpec(3.0, 3), SpaceSpec(1.5, 3, (0.5, 1.0, 2.0)))
    ]
)
_SCALE_IDS = [c[0] for c in _SCALE_CASES]
_SCALE_ARGS = [c[1:] for c in _SCALE_CASES]


def _check_reading(reading, args, rel, k):
    """The reading at 2^k times the data against the unit reading."""
    degree, unit, how = reading(*args, 0)
    _, scaled, scaled_how = reading(*args, k)
    assert scaled_how == how
    assert all(0.0 < v < math.inf for v in scaled)
    assert np.ldexp(scaled, -np.multiply(degree, k)).tolist() == pytest.approx(unit, rel=rel, abs=0.0)


# 2^-350, 2^-537 and 2^-700 put the power sums of ell_3, ell_2 and ell_1.5
# norms among the subnormals, where they keep a few bits but are not zero
@pytest.mark.parametrize("k", [-830, -700, -600, -537, -350, 600, 830])
@pytest.mark.parametrize("reading, args, rel", _SCALE_ARGS, ids=_SCALE_IDS)
def test_norm_oracles_are_homogeneous_under_powers_of_two(reading, args, rel, k):
    """Every public estimator reads 2^(degree k) times its unit value (a
    norm 2^k times, an extension constant, a ratio, a seed's value or a
    norming functional the same, a free-lattice norm exactly 2^k times
    its bounds) with the same exact flag or method, finite and nonzero,
    and none warns of an overflow.  The B_F vertex path once certified
    (0.0, exact) at 2^-830 and (inf, exact) at 2^830, extension_constant
    raised "operator vanishes" at 2^-830, the cross-polytope weak-2 norm
    over ell_1 read 2^-537 (an 11% low value, certified exact) at 2^-537,
    the ell_2^3 free-lattice lower bound read 2.56828 2^-600 and 2.57079
    2^600 for 2.57099, and the summing norms read 0.0 at 2^-600 and
    raised ValueError at 2^600."""
    _check_reading(reading, args, rel, k)


def _window_checks(reading, args, k):
    """(largest |entry|, exponents, exponent returned) of every float-window
    check the reading makes at 2^k times its data, in order."""
    checks = []
    check = spaces._window_exponent

    def recorded(y, *exponents):
        e = check(y, *exponents)
        checks.append((float(np.max(np.abs(y))), exponents, e))
        return e

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_window_exponent", recorded)
        mp.setattr(summing, "_window_exponent", recorded)
        reading(*args, k)
    return checks


@pytest.mark.parametrize("end", ["top", "bottom"])
@pytest.mark.parametrize("reading, args, rel", _SCALE_ARGS, ids=_SCALE_IDS)
def test_norm_oracles_just_inside_the_float_window(reading, args, rel, end):
    """At the scale 2^k just inside either end of the float window of its
    data (its largest |entry| within 2^(+-(960 - W)/m), m the largest
    exponent, at least 2, W the weights' largest |log2|; forms on a section
    about 2^s, s its basis's scale, with W counting s m), an estimator takes
    the data as it is, and the kernels below it, which take no float range
    of their own, still read 2^k times the unit value."""
    top, exponents, _ = _window_checks(reading, args, 0)[0]
    s, width = spaces._window(*exponents)
    k = math.floor(s + width - math.log2(top)) if end == "top" else math.ceil(s - width - math.log2(top))
    assert _window_checks(reading, args, k)[0][2] == 0
    assert _window_checks(reading, args, k + (1 if end == "top" else -1))[0][2] != 0
    _check_reading(reading, args, rel, k)


@pytest.mark.parametrize("t", [-900, -600, 600, 900])
@pytest.mark.parametrize("name", ["ell_1^4", "ell_inf^4", "axis ell_3^3"])
def test_section_on_a_basis_outside_the_float_window(name, t):
    """A section on a basis 2^t times one of the float window's is measured
    on that basis scaled to a largest |entry| in [1/2, 1): the witness
    search reads forms 2^t times as large at 2^t times the value and
    witness, the extension constant of the same map (T 2^t on its
    coordinates) reads the same, and so does the embedding gap of the same
    binding, its F-side witness 2^t times as large.  The relative rank test
    accepts such bases, whose model weights (w |basis|^r, 2^-1800 at
    2^-600 over ell_3) and vertex sections once left the floats."""
    sub = _SCALE_SECTIONS[name]
    big = _scaled_section(sub, t)
    s = math.frexp(float(np.max(np.abs(big.complement_matrix), initial=np.max(np.abs(big.basis_matrix)))))[1]
    unit = _scaled_section(big, -s)  # the same floats as the basis the search takes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Y = _SCALE_Y[:, : sub.dim]
        for p in (1.0, 2.0, math.inf):
            value, witness, tight = witness_search(big, p, _sum_objective, [np.ldexp(Y, t)])
            ref, ref_witness, ref_tight = witness_search(unit, p, _sum_objective, [np.ldexp(Y, t - s)])
            assert (value, tight) == (math.ldexp(ref, s), ref_tight) and 0.0 < ref < math.inf
            assert np.array_equal(witness.matrix, np.ldexp(ref_witness.matrix, s))
        A = _SCALE_Y[:2, : sub.dim]
        for p in (2.0, math.inf):
            T = lambda k: LinearMap(np.ldexp(A, k), SpaceSpec(2.0, sub.dim), SpaceSpec(p, 2))
            est, ref = extension_constant(big, T(t), p, CFG), extension_constant(unit, T(t - s), p, CFG)
            assert est.to_json() == ref.to_json()
        b = GeneratorBinding(sub.ambient, A @ sub.basis_matrix)
        gap = embedding_gap(big, Abs(Gen(0)) + Join(Gen(0), Gen(1)), b, 1.0, CFG)
        ref = embedding_gap(unit, Abs(Gen(0)) + Join(Gen(0), Gen(1)), b, 1.0, CFG)
        assert (gap.subspace_lower, gap.ratio) == (ref.subspace_lower, ref.ratio)
        assert gap.ambient.to_json() == ref.ambient.to_json()
        assert np.array_equal(gap.subspace_witness.matrix, np.ldexp(ref.subspace_witness.matrix, s))
