"""Subspaces, minimal-extension constants, and embedding gaps."""

import itertools
import json
import math

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
    norm,
    operator_norm,
    pairing,
    run_experiment,
    subspace_from_json,
    subspace_to_json,
)
from fblab.experiments import _l1_complement, dyadic_L1, rademacher_matrix
from fblab.extension import _exact_norm_F, _max_linear_over_BF
from fblab.exprs import max_generator_index

CFG = OptimizerConfig(restarts=8)


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
                    val, tag, cheap = _exact_norm_F(sub, v[None, :], SpaceSpec(1.0, 1), 20)
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
    monkeypatch.setattr(extension, "_VERTEX_CANDIDATE_CAP", 0)
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
        assert _exact_norm_F(new, np.ones((1, new.dim)), line, 20) is None
        for _ in range(20):
            v = rng.standard_normal(old.dim)
            exact = _exact_norm_F(old, v[None, :], line, 20)[0]
            tiny, _ = _max_linear_over_BF(new, 1e-9 * v)
            assert tiny == pytest.approx(1e-9 * exact, rel=1e-9)


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
    # the third the lifted F-side witness beats the ambient search, whose
    # upper bound (dual dim > 3) is not certified
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
        val = extension._operator_norm_over_F(sub, M, cod, CFG)
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
    assert extension._weak_F(sub, G, 1.0, CFG)[0] == pytest.approx(weak_1, rel=1e-12)
    assert extension._weak_F(sub, G, math.inf, CFG)[0] == pytest.approx(max(map(form_norm, G)), rel=1e-12)
    val = extension._operator_norm_over_F(sub, G, SpaceSpec(math.inf, 3), CFG)
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
    of ``_weak_F`` (p in {1, 2, inf}) and the operator norms of
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
                    upper, tight, _ = extension._weak_F(sub, G, p, CFG)
                    assert tight
                    assert upper == pytest.approx(np.max(_lp_rows(V @ G.T, p)), rel=1e-12)
                for r_cod in (1.0, 1.5, 3.0, math.inf):
                    cod = SpaceSpec(r_cod, len(G), tuple(rng.uniform(0.3, 2.0, len(G))))
                    brute = max(norm(cod, G @ c) for c in V)
                    assert extension._operator_norm_over_F(sub, G, cod, CFG) == pytest.approx(brute, rel=1e-12)
