import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank2cluster import quiver
from rank2cluster.quiver import (
    ModuleSpec,
    NotIntegral,
    NotPolynomial,
    NotRigid,
    Quiver,
    Representation,
    _coxeter_matrices,
    _dual,
    _grassmannian_counts,
    _one_sided_counts,
    chi_table,
    coxeter_translate,
    direct_sum,
    euler_characteristic,
    euler_form,
    euler_matrix,
    gaussian_binomial,
    generic_module,
    hom_dimension,
    injective_dimension_vector,
    injective_module,
    kronecker_quiver,
    projective_dimension_vector,
    projective_module,
    simple_module,
)

K11 = kronecker_quiver(1, 1)
K12 = kronecker_quiver(1, 2)
K23 = kronecker_quiver(2, 3)
# the smallest quiver with a path of length 2
TRIANGLE = Quiver(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))


# ---------------------------------------------------------------------------
# quiver construction

def test_kronecker_shapes():
    assert K23.vertices == ("v1", "v2", "w1", "w2", "w3")
    assert len(K23.arrows) == 6
    assert K11.n == 2 and len(K11.arrows) == 1
    assert K12.n == 3 and len(K12.arrows) == 2
    assert set(K23.arrows) == {
        (v, w) for v in ("v1", "v2") for w in ("w1", "w2", "w3")
    }
    assert K23.arrow_indices() == ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))
    # one shared quiver per (b, c)
    assert kronecker_quiver(2, 3) is K23


def test_kronecker_validation():
    with pytest.raises(ValueError):
        kronecker_quiver(0, 3)
    with pytest.raises(ValueError):
        kronecker_quiver(2, -1)
    # a float equal to a cached (b, c) is still rejected
    with pytest.raises(ValueError):
        kronecker_quiver(2.0, 3)


def test_quiver_rejects_cycles_and_bad_arrows():
    with pytest.raises(ValueError):
        Quiver(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(ValueError):
        Quiver(("a",), (("a", "a"),))
    with pytest.raises(ValueError):
        Quiver(("a", "b"), (("a", "zz"),))
    with pytest.raises(ValueError):
        Quiver(("a", "a"), ())


def test_vertex_index():
    assert K23.index("w2") == 3
    with pytest.raises(KeyError):
        K23.index("w9")


# ---------------------------------------------------------------------------
# Euler form

def test_euler_form_examples():
    assert euler_form(K23, (1, 0, 0, 0, 0), (0, 0, 1, 0, 0)) == -1
    for i in range(5):
        e = tuple(int(j == i) for j in range(5))
        assert euler_form(K23, e, e) == 1
    d = projective_dimension_vector(K23, "v1")
    assert d == (1, 0, 1, 1, 1)
    assert euler_form(K23, d, d) == 1


def test_euler_form_size_mismatch():
    with pytest.raises(ValueError):
        euler_form(K23, (1, 0, 0), (0, 0, 1, 0, 0))


vecs5 = st.tuples(*[st.integers(-4, 4)] * 5)


@given(vecs5, vecs5, vecs5)
def test_euler_form_closed_formula_and_bilinearity(d, e, f):
    # on K_{b,c} the form collapses to sum d_i e_i - (sum over v)(sum over w)
    expected = sum(x * y for x, y in zip(d, e)) - (d[0] + d[1]) * sum(e[2:])
    assert euler_form(K23, d, e) == expected
    de = tuple(x + y for x, y in zip(d, e))
    assert euler_form(K23, de, f) == euler_form(K23, d, f) + euler_form(K23, e, f)
    assert euler_form(K23, f, de) == euler_form(K23, f, d) + euler_form(K23, f, e)


# ---------------------------------------------------------------------------
# Coxeter translation

def test_coxeter_a2_orbit():
    # arrow v -> w: the translate walks I_v back to P_w and forward again
    assert coxeter_translate(K11, (1, 0), "forward") == (0, 1)
    assert coxeter_translate(K11, (0, 1), "backward") == (1, 0)


def test_coxeter_a2_obstructions():
    # (1,1) is P_v and I_w at once, so both directions are blocked
    with pytest.raises(ValueError, match="projective"):
        coxeter_translate(K11, (1, 1), "forward")
    with pytest.raises(ValueError, match="injective"):
        coxeter_translate(K11, (1, 1), "backward")


def test_coxeter_k23_from_projective():
    # by hand: Phi_b = [[-I, J], [-J^T, 2*ones - I]] in (v, w) blocks
    assert coxeter_translate(K23, (0, 0, 1, 0, 0), "backward") == (1, 1, 1, 2, 2)


def test_coxeter_roundtrip():
    d = coxeter_translate(K23, (0, 0, 1, 0, 0), "backward")
    assert coxeter_translate(K23, d, "forward") == (0, 0, 1, 0, 0)


def test_coxeter_direction_validation():
    with pytest.raises(ValueError):
        coxeter_translate(K23, (1, 1, 1, 1, 1), "sideways")


@pytest.mark.parametrize("Q,start", [(kronecker_quiver(2, 2), (0, 0, 1, 0)), (K23, (0, 0, 0, 1, 0))])
def test_coxeter_orbit_stays_on_real_schur_roots(Q, start):
    d = start
    for _ in range(4):
        d = coxeter_translate(Q, d, "backward")
        assert euler_form(Q, d, d) == 1
        assert all(x >= 0 for x in d)
    for _ in range(4):
        d = coxeter_translate(Q, d, "forward")
    assert d == start


# ---------------------------------------------------------------------------
# explicit modules

def test_standard_dimension_vectors():
    assert projective_dimension_vector(K23, "w1") == (0, 0, 1, 0, 0)
    assert injective_dimension_vector(K23, "v1") == (1, 0, 0, 0, 0)
    assert injective_dimension_vector(K23, "w1") == (1, 1, 1, 0, 0)
    assert projective_dimension_vector(K11, "v1") == (1, 1)
    assert injective_dimension_vector(K11, "w1") == (1, 1)
    # a reaches c twice, directly and through b
    assert projective_dimension_vector(TRIANGLE, "a") == (1, 1, 2)
    assert injective_dimension_vector(TRIANGLE, "c") == (2, 1, 1)


def _path_count(Q):
    rows = np.array([projective_dimension_vector(Q, q) for q in Q.vertices])
    # dim I_q is dim P_q over the opposite quiver, counted there
    cols = np.array([projective_dimension_vector(Q.opposite, q) for q in Q.vertices]).T
    assert (rows == cols).all()
    for i, q in enumerate(Q.vertices):
        assert injective_dimension_vector(Q, q) == tuple(cols[:, i])
    return rows


@pytest.mark.parametrize(
    "Q", [TRIANGLE] + [kronecker_quiver(b, c) for b in range(1, 5) for c in range(1, 5)]
)
def test_path_count_inverts_euler_matrix(Q):
    # rows of C^{-1} are projective dimension vectors, columns injective ones
    assert (np.array(euler_matrix(Q)) @ _path_count(Q) == np.eye(Q.n, dtype=np.int64)).all()
    phi_b, phi_f = _coxeter_matrices(Q)
    assert (np.array(phi_b) @ np.array(phi_f) == np.eye(Q.n, dtype=np.int64)).all()


def test_projective_module_maps():
    P = projective_module(K23, "v1", 5)
    assert P.dims == (1, 0, 1, 1, 1)
    for a, (s, t) in enumerate(K23.arrow_indices()):
        if K23.vertices[s] == "v1":
            assert P.maps[a] == ((1,),)
        else:
            # out of the zero space at v2: one empty row for the w-line
            assert P.maps[a] == ((),)


def test_simple_module():
    S = simple_module(K23, "w2", 3)
    assert S.dims == (0, 0, 0, 1, 0)
    # only the maps into w2 have a row, and it is empty
    assert S.maps == tuple(((),) if t == 3 else () for _, t in K23.arrow_indices())


def test_representation_validation():
    with pytest.raises(ValueError):
        Representation(K11, 4, (1, 1), (np.array([[1]]),))
    with pytest.raises(ValueError):
        Representation(K11, 2, (1, 1, 1), (np.array([[1]]),))
    with pytest.raises(ValueError):
        Representation(K11, 2, (1, 2), (np.array([[1]]),))
    with pytest.raises(ValueError):
        Representation(K11, 2, (1, 1), ())
    # a 1 x 0 map is one empty row, not no rows
    with pytest.raises(ValueError):
        Representation(K11, 2, (0, 1), ((),))
    # entries are integers: a float is rejected, not truncated
    with pytest.raises((TypeError, ValueError)):
        Representation(K11, 3, (1, 1), ([[1.5]],))
    # and any integer is reduced mod p, however large
    assert Representation(K11, 3, (1, 1), ([[2**70]],)).maps[0] == ((2**70 % 3,),)


def test_representation_maps_reduced_and_frozen():
    M = Representation(K11, 3, (1, 1), (np.array([[5]]),))
    assert M.maps[0] == ((2,),)
    with pytest.raises(TypeError):
        M.maps[0][0] = (1,)
    with pytest.raises(TypeError):
        M.maps[0][0][0] = 1


def test_direct_sum_dims():
    M = direct_sum(projective_module(K23, "v1", 5), simple_module(K23, "w1", 5))
    assert M.dims == (1, 0, 2, 1, 1)
    with pytest.raises(ValueError):
        direct_sum(projective_module(K23, "v1", 5), projective_module(K23, "v1", 7))


# ---------------------------------------------------------------------------
# homomorphisms

def test_hom_examples():
    p = 5
    assert hom_dimension(simple_module(K23, "v1", p), simple_module(K23, "v1", p)) == 1
    assert hom_dimension(simple_module(K23, "v1", p), simple_module(K23, "w1", p)) == 0
    Pv = projective_module(K23, "v1", p)
    assert hom_dimension(Pv, Pv) == 1


def _random_representation(Q, p, max_dim, rng):
    dims = tuple(int(rng.integers(0, max_dim + 1)) for _ in range(Q.n))
    maps = tuple(
        rng.integers(0, p, size=(dims[t], dims[s]))
        for s, t in Q.arrow_indices()
    )
    return Representation(Q, p, dims, maps)


@pytest.mark.parametrize("seed", range(6))
def test_hom_from_projective_is_evaluation(seed):
    # Hom(P_i, M) = M(i) and Hom(M, I_i) = M(i), a Yoneda-style oracle that
    # does not share code with the solver's constraint assembly
    rng = np.random.default_rng(seed)
    p = 3
    for Q in (K12, TRIANGLE):
        M = _random_representation(Q, p, 2, rng)
        for vertex in Q.vertices:
            i = Q.index(vertex)
            assert hom_dimension(projective_module(Q, vertex, p), M) == M.dims[i]
            assert hom_dimension(M, injective_module(Q, vertex, p)) == M.dims[i]


@pytest.mark.parametrize("seed", range(4))
def test_hom_additive_in_direct_sums(seed):
    rng = np.random.default_rng(seed)
    p = 3
    M = _random_representation(K11, p, 2, rng)
    N = _random_representation(K11, p, 2, rng)
    L = _random_representation(K11, p, 2, rng)
    assert hom_dimension(direct_sum(M, N), L) == hom_dimension(M, L) + hom_dimension(N, L)
    assert hom_dimension(L, direct_sum(M, N)) == hom_dimension(L, M) + hom_dimension(L, N)


def test_hom_requires_matching_field():
    with pytest.raises(ValueError):
        hom_dimension(simple_module(K11, "v1", 3), simple_module(K11, "v1", 5))


# ---------------------------------------------------------------------------
# generic modules

def test_generic_module_at_projective_root():
    M = generic_module(K23, (1, 0, 1, 1, 1), 5)
    assert hom_dimension(M, M) == 1
    assert M.dims == (1, 0, 1, 1, 1)


def test_generic_module_requires_real_schur_root():
    with pytest.raises(ValueError, match="Schur root"):
        generic_module(K23, (2, 0, 0, 0, 0), 5)


def test_generic_module_smallest_field():
    M = generic_module(K11, (1, 1), 2)
    assert M.maps[0] == ((1,),)


def test_generic_module_deterministic_per_seed():
    # any int seeds the sampler, negative or wider than 64 bits too
    for seed in (3, -1, 2**70):
        A = generic_module(K23, (1, 1, 1, 2, 2), 7, seed=seed)
        B = generic_module(K23, (1, 1, 1, 2, 2), 7, seed=seed)
        assert A.maps == B.maps


def test_generic_module_not_rigid_exhausts_trials():
    # over F_2 at (1,1) roughly half of all single samples are the zero map
    failures = [
        s for s in range(12)
        if _raises_not_rigid(lambda: generic_module(K11, (1, 1), 2, trials=1, seed=s))
    ]
    assert failures
    for s in failures:
        assert generic_module(K11, (1, 1), 2, trials=20, seed=s).maps[0] == ((1,),)


def _raises_not_rigid(thunk):
    try:
        thunk()
    except NotRigid:
        return True
    return False


def test_generic_module_rejects_bad_prime():
    with pytest.raises(ValueError):
        generic_module(K11, (1, 1), 6)


# ---------------------------------------------------------------------------
# orbit modules built by reflection functors

ORBIT_TYPES = [(1, 4), (2, 2), (2, 3), (3, 2), (4, 1), (2, 4), (3, 3), (1, 5)]
# sampled twins are point-counted only below this many subspace tuples
COUNTED_TUPLES = 3000


def _orbit_dims(Q, start, direction, steps=3, max_total=16):
    """start and up to `steps` Coxeter translates of it, of total dimension <= max_total."""
    out = [start]
    for _ in range(steps):
        try:
            d = coxeter_translate(Q, out[-1], direction)
        except ValueError:  # the orbit ended
            break
        if sum(d) > max_total:
            break
        out.append(d)
    return out


def _built(Q, d, p):
    with mock.patch.object(quiver, "generic_module", side_effect=AssertionError("sampled")):
        return ModuleSpec(Q, "generic", dims=d).realize(p)


def _check_built(Q, d, p):
    M = _built(Q, d, p)
    assert M.quiver is Q and M.p == p and M.dims == d
    assert hom_dimension(M, M) == 1
    tuples = min(quiver._non_sink_tuples(Q, d, p), quiver._non_sink_tuples(Q.opposite, d, p))
    if tuples > COUNTED_TUPLES:
        return 0
    try:
        sampled = generic_module(Q, d, p)
    except NotRigid:
        return 0
    assert _grassmannian_counts(M) == _grassmannian_counts(sampled), (d, p)
    return 1


@pytest.mark.parametrize("b,c", ORBIT_TYPES)
def test_orbit_modules_are_built_rigid_at_their_dims(b, c):
    # tau^-t P_v and tau^t I_v for t <= 3: dims from coxeter_translate, End = F_p,
    # and the same Grassmannian counts as the sampler's module where it succeeds
    Q = kronecker_quiver(b, c)
    compared = 0
    for p in (2, 3, 5, 7):
        for v in Q.vertices:
            for start, direction, end in (
                (projective_dimension_vector(Q, v), "backward", "projective"),
                (injective_dimension_vector(Q, v), "forward", "injective"),
            ):
                for t, d in enumerate(_orbit_dims(Q, start, direction)):
                    assert quiver._orbit_position(Q, d) == (end, Q.index(v), t)
                    compared += _check_built(Q, d, p)
    assert compared


@pytest.mark.parametrize("b,c,roots", [(1, 2, 6), (1, 3, 12), (3, 1, 12)])
def test_every_indecomposable_of_a_finite_type_is_built(b, c, roots):
    # a Dynkin quiver's preprojective orbits end at the injectives and hold
    # every positive root; walked from the other end, an orbit wraps
    Q = kronecker_quiver(b, c)
    dims = set()
    for v in Q.vertices:
        dims.update(_orbit_dims(Q, projective_dimension_vector(Q, v), "backward", steps=Q.n))
    assert len(dims) == roots
    assert {quiver._orbit_position(Q, d)[0] for d in dims} == {"projective"}
    assert any(sum(d) == 1 and quiver._orbit_position(Q, d)[2] > 0 for d in dims)
    for p in (2, 3):
        for d in dims:
            _check_built(Q, d, p)


def test_a_regular_root_falls_back_to_the_sampler():
    K22 = kronecker_quiver(2, 2)
    d = (1, 0, 1, 0)  # a real root on a tube of the affine K_{2,2}
    assert quiver._orbit_position(K22, d) is None
    with mock.patch.object(quiver, "generic_module", wraps=generic_module) as spy:
        ModuleSpec(K22, "generic", dims=d).realize(3, seed=5)
    spy.assert_called_once_with(K22, d, 3, seed=5)
    assert chi_table(ModuleSpec(K22, "generic", dims=d)) == {
        (0, 0, 0, 0): 1, (0, 0, 1, 0): 1, (1, 0, 0, 0): 0, (1, 0, 1, 0): 1,
    }


def test_a_built_module_that_fails_the_rigidity_test_raises_not_rigid(monkeypatch):
    monkeypatch.setattr(quiver, "hom_dimension", lambda M, N: 2)
    with pytest.raises(NotRigid, match="not rigid"):
        ModuleSpec(K23, "generic", dims=(2, 3, 1, 1, 1)).realize(5)


# ---------------------------------------------------------------------------
# submodule counting

def test_count_trivial_submodules():
    S = simple_module(K23, "w1", 3)
    counts = _grassmannian_counts(S)
    assert counts[(0, 0, 0, 0, 0)] == 1
    assert counts[S.dims] == 1


def test_count_examples_on_projective():
    P = projective_module(K23, "v1", 5)
    counts = _grassmannian_counts(P)
    assert counts[(0, 0, 1, 0, 0)] == 1
    # a full v-line forces every w-line, so dropping one is impossible
    assert counts[(1, 0, 1, 0, 1)] == 0


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(3, 0, 5) == 1
    assert gaussian_binomial(3, 5, 5) == 0
    for n in range(5):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 7) == gaussian_binomial(n, n - k, 7)


def test_gaussian_binomial_q_pascal():
    # [n, k]_q = [n-1, k-1]_q + q^k [n-1, k]_q, out-of-range k giving 0
    for q in (2, 3, 5):
        for n in range(1, 7):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == (
                    gaussian_binomial(n - 1, k - 1, q) + q**k * gaussian_binomial(n - 1, k, q)
                )


@pytest.mark.parametrize("seed", range(3))
def test_counts_bounded_and_isomorphism_invariant(seed):
    # different rigid samples at the same root count the same subspaces
    d = (1, 1, 1)  # dim P_v1 over K_{1,2}
    p = 3
    A = _grassmannian_counts(generic_module(K12, d, p, seed=seed))
    B = _grassmannian_counts(generic_module(K12, d, p, seed=seed + 100))
    for e in itertools.product(*[range(x + 1) for x in d]):
        ca = A[e]
        assert ca == B[e]
        bound = 1
        for n, k in zip(d, e):
            bound *= gaussian_binomial(n, k, p)
        assert 0 <= ca <= bound


def test_count_over_larger_field_matches_polynomial():
    # Gr_e of the A_2 projective at the regular-line e is a point each prime
    for p in (2, 3, 5):
        counts = _grassmannian_counts(projective_module(K11, "v1", p))
        assert counts[(0, 1)] == 1
        assert counts[(1, 0)] == 0


# ---------------------------------------------------------------------------
# the one-sided count against a brute-force reference: subspaces enumerated
# at every vertex, one e at a time, every arrow checked by containment

def _reference_subspaces(p, d, k):
    """All k-dimensional subspaces of F_p^d as (RREF basis, pivot columns)."""
    if k == 0:
        return [(np.zeros((0, d), dtype=np.int64), ())]
    out = []
    for pivots in itertools.combinations(range(d), k):
        free = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, d)
            if c not in pivots
        ]
        for values in itertools.product(range(p), repeat=len(free)):
            basis = np.zeros((k, d), dtype=np.int64)
            for r, c in zip(range(k), pivots):
                basis[r, c] = 1
            for (r, c), val in zip(free, values):
                basis[r, c] = val
            out.append((basis, pivots))
    return out


def _matrix(M, a):
    s, t = M.quiver.arrow_indices()[a]
    return np.array(M.maps[a], dtype=np.int64).reshape(M.dims[t], M.dims[s])


def _contained(vectors, basis, pivots, p):
    if vectors.shape[0] == 0:
        return True
    red = vectors % p
    for r, c in enumerate(pivots):
        red = (red - np.outer(red[:, c], basis[r])) % p
    return not red.any()


def _reference_count(M, e):
    p = M.p
    subs = [_reference_subspaces(p, M.dims[i], e[i]) for i in range(M.quiver.n)]
    idx = M.quiver.arrow_indices()
    tables = []
    for a, (s, t) in enumerate(idx):
        table = np.ones((len(subs[s]), len(subs[t])), dtype=bool)
        for i_s, (bs, _) in enumerate(subs[s]):
            image = (_matrix(M, a) @ bs.T).T % p
            for i_t, (bt, pt) in enumerate(subs[t]):
                table[i_s, i_t] = _contained(image, bt, pt, p)
        tables.append(table)
    return sum(
        all(tables[a][choice[s], choice[t]] for a, (s, t) in enumerate(idx))
        for choice in itertools.product(*[range(len(s)) for s in subs])
    )


def _all_e(M):
    return list(itertools.product(*[range(x + 1) for x in M.dims]))


def _reference_modules():
    out = []
    for p in (2, 3, 5):
        for v in TRIANGLE.vertices:
            out.append((f"TRIANGLE P_{v} p={p}", projective_module(TRIANGLE, v, p)))
            out.append((f"TRIANGLE I_{v} p={p}", injective_module(TRIANGLE, v, p)))
        out.append((
            f"TRIANGLE P_a+I_c p={p}",
            direct_sum(projective_module(TRIANGLE, "a", p), injective_module(TRIANGLE, "c", p)),
        ))
    for p in (3, 5):
        out.append((
            f"K23 P_v1+I_w1 p={p}",
            direct_sum(projective_module(K23, "v1", p), injective_module(K23, "w1", p)),
        ))
        out.append((
            f"K23 I_v2+S_w3+P_w1 p={p}",
            direct_sum(
                direct_sum(injective_module(K23, "v2", p), simple_module(K23, "w3", p)),
                projective_module(K23, "w1", p),
            ),
        ))
        out.append((f"K23 generic (1,1,1,2,2) p={p}", generic_module(K23, (1, 1, 1, 2, 2), p)))
        out.append((f"K23 generic (2,3,1,1,1) p={p}", generic_module(K23, (2, 3, 1, 1, 1), p)))
        out.append((
            f"K23 generic (1,0,1,1,1)+(0,1,1,1,1) p={p}",
            direct_sum(
                generic_module(K23, (1, 0, 1, 1, 1), p),
                generic_module(K23, (0, 1, 1, 1, 1), p, seed=1),
            ),
        ))
    return out


REFERENCE_MODULES = _reference_modules()


def test_reference_inputs_reach_both_sides():
    # the count runs on M for some inputs and on DM for others, so the
    # e -> d - e map back from DM is under test below
    on_m = set()
    with mock.patch.object(quiver, "_one_sided_counts", wraps=_one_sided_counts) as spy:
        for _, M in REFERENCE_MODULES:
            _grassmannian_counts(M)
            on_m.add(spy.call_args.args[0] is M)
    assert on_m == {True, False}


def _check_against_reference(M):
    counts = _grassmannian_counts(M)
    all_e = _all_e(M)
    assert sorted(counts) == all_e
    for e in all_e:
        assert counts[e] == _reference_count(M, e), e


def _check_duality(M):
    # #Gr_e(M) over Q equals #Gr_{d-e}(DM) over Q^op, each counted from
    # its own non-sinks, and both equal the brute-force count
    DM = _dual(M)
    assert DM.quiver == M.quiver.opposite
    assert M.quiver.opposite.opposite == M.quiver
    assert all((_matrix(M, a).T == _matrix(DM, a)).all() for a in range(len(M.maps)))
    here, there = _one_sided_counts(M), _one_sided_counts(DM)
    for e in _all_e(M):
        complement = tuple(x - y for x, y in zip(M.dims, e))
        assert here[e] == there[complement], e
        assert here[e] == _reference_count(M, e), e


@pytest.mark.parametrize("name,M", REFERENCE_MODULES, ids=[n for n, _ in REFERENCE_MODULES])
def test_counts_match_reference_for_every_e(name, M):
    _check_against_reference(M)


@pytest.mark.parametrize("name,M", REFERENCE_MODULES, ids=[n for n, _ in REFERENCE_MODULES])
def test_one_sided_counts_agree_across_duality(name, M):
    _check_duality(M)


@st.composite
def small_representations(draw):
    Q = draw(st.sampled_from([K11, K12, kronecker_quiver(2, 1), kronecker_quiver(2, 2), TRIANGLE]))
    p = draw(st.sampled_from([2, 3]))
    dims = tuple(draw(st.integers(0, 2)) for _ in range(Q.n))
    maps = tuple(
        np.array(
            draw(st.lists(st.integers(0, p - 1), min_size=dims[t] * dims[s], max_size=dims[t] * dims[s])),
            dtype=np.int64,
        ).reshape(dims[t], dims[s])
        for s, t in Q.arrow_indices()
    )
    return Representation(Q, p, dims, maps)


@given(small_representations())
@settings(max_examples=60, deadline=None)
def test_random_representations_match_reference(M):
    _check_against_reference(M)
    _check_duality(M)


# ---------------------------------------------------------------------------
# module specs and Euler characteristics

def test_module_spec_validation():
    with pytest.raises(ValueError):
        ModuleSpec(K23, "projective")
    with pytest.raises(ValueError):
        ModuleSpec(K23, "projective", vertex="v1", dims=(1, 0, 1, 1, 1))
    with pytest.raises(ValueError):
        ModuleSpec(K23, "generic")
    with pytest.raises(ValueError):
        ModuleSpec(K23, "sum", parts=())
    with pytest.raises(ValueError):
        ModuleSpec(K23, "free", vertex="v1")
    with pytest.raises(KeyError):
        ModuleSpec(K23, "simple", vertex="zz")


def test_module_spec_dimension_vectors():
    assert ModuleSpec(K23, "projective", vertex="v1").dimension_vector == (1, 0, 1, 1, 1)
    assert ModuleSpec(K23, "generic", dims=(1, 1, 1, 2, 2)).dimension_vector == (1, 1, 1, 2, 2)
    pair = ModuleSpec(
        K23,
        "sum",
        parts=(
            ModuleSpec(K23, "simple", vertex="v1"),
            ModuleSpec(K23, "injective", vertex="w1"),
        ),
    )
    assert pair.dimension_vector == (2, 1, 1, 0, 0)
    assert pair.realize(5).dims == (2, 1, 1, 0, 0)


def test_chi_gr0_is_one():
    for spec in (
        ModuleSpec(K23, "projective", vertex="v1"),
        ModuleSpec(K23, "injective", vertex="w1"),
        ModuleSpec(K23, "generic", dims=(1, 1, 1, 2, 2)),
    ):
        assert euler_characteristic(spec, (0,) * 5) == 1
        assert euler_characteristic(spec, spec.dimension_vector) == 1


def test_chi_one_w_line_strata_of_projective():
    spec = ModuleSpec(K23, "projective", vertex="v1")
    lines = [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]
    assert sum(euler_characteristic(spec, e) for e in lines) == 3


def test_chi_table_of_injective_by_hand():
    # submodules of I_{w1}: a v-line maps isomorphically onto w1, so any
    # admissible e with a v contribution needs e_{w1} = 1
    spec = ModuleSpec(K23, "injective", vertex="w1")
    table = chi_table(spec)
    expected = {}
    for e in itertools.product((0, 1), (0, 1), (0, 1)):
        full = (*e, 0, 0)
        expected[full] = int(e[2] == 1 or e == (0, 0, 0))
    assert table == expected
    assert sum(table.values()) == 5


def test_chi_table_cached_per_spec():
    spec = ModuleSpec(K23, "injective", vertex="w1")
    assert chi_table(spec) is chi_table(spec)
    assert chi_table(spec) is not chi_table(spec, seed=1)


def test_chi_nonnegative_on_generic_orbit():
    spec = ModuleSpec(K23, "generic", dims=(1, 1, 1, 2, 2))
    assert all(v >= 0 for v in chi_table(spec).values())


# S_v1^4 over K_{1,1}: Gr_(2,0) is Gr(2, 4), whose counting polynomial has
# degree 4, interpolated through 2, 3, 5, 7, 11 and held out at 13
FOUR_SIMPLES = ModuleSpec(K11, "sum", parts=(ModuleSpec(K11, "simple", vertex="v1"),) * 4)


def _bump_counts(monkeypatch, e, bumps):
    """Add bumps[p] to the count of Gr_e at the prime p."""
    monkeypatch.setattr(quiver, "_CHI_CACHE", {})
    counts = quiver._grassmannian_counts

    def bumped(M):
        out = dict(counts(M))
        out[e] += bumps.get(M.p, 0)
        return out

    monkeypatch.setattr(quiver, "_grassmannian_counts", bumped)


@pytest.mark.parametrize("bumps,predicted,count", [
    ({13: 1}, "31110", 31111),  # #Gr(2, 4)(F_13) = [4, 2]_13 = 31110
    ({2: 1}, "280054/9", 31110),  # a node off by one moves the prediction by 64/9
])
def test_a_wrong_count_raises_not_polynomial(monkeypatch, bumps, predicted, count):
    _bump_counts(monkeypatch, (2, 0), bumps)
    with pytest.raises(NotPolynomial) as excinfo:
        chi_table(FOUR_SIMPLES)
    assert str(excinfo.value) == (
        f"holdout prime 13 check failed for e=(2, 0): interpolation predicts {predicted}, "
        f"count is {count}"
    )


def test_counts_of_a_non_integral_polynomial_raise_not_integral(monkeypatch):
    # counts moved by the integer-valued-at-primes polynomial that is 1 at 7,
    # 0 at 2, 3, 5, 11 and -11 at 13; it is -1/2 at q = 1
    _bump_counts(monkeypatch, (2, 0), {7: 1, 13: -11})
    with pytest.raises(NotIntegral) as excinfo:
        chi_table(FOUR_SIMPLES)
    assert str(excinfo.value) == "counting polynomial at q=1 is 11/2 for e=(2, 0)"


def test_euler_characteristic_validates_e():
    spec = ModuleSpec(K23, "projective", vertex="v1")
    with pytest.raises(ValueError):
        euler_characteristic(spec, (0, 1, 0, 0, 0))
    with pytest.raises(ValueError):
        euler_characteristic(spec, (0, 0, 0, 0))
