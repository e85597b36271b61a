from unittest import mock

import pytest

from rank2cluster import ccmap
from rank2cluster.ccmap import (
    GENERIC_DIM_BUDGET,
    CCObject,
    cc_from_spec,
    cc_polynomial,
    fold,
    g_equivariance_check,
    object_for_index,
    u_context,
    verify_exchange_relation,
    verify_folding,
)
from rank2cluster.laurent import LaurentPolynomial
from rank2cluster.quiver import ModuleSpec, kronecker_quiver
from rank2cluster.report import BudgetExceeded
from rank2cluster.rank2 import ExchangeType, _tropical_denominator, cluster_variable
from rank2cluster.report import INCONCLUSIVE, PASS

K23 = kronecker_quiver(2, 3)
U23 = u_context(2, 3)
T23 = ExchangeType(2, 3)


def U(terms):
    return LaurentPolynomial(U23, terms)


def obj_P(vertex):
    return CCObject("projective", vertex=vertex)


def obj_I(vertex):
    return CCObject("injective", vertex=vertex)


# ---------------------------------------------------------------------------
# object model

def test_u_context_names():
    assert U23.names == ("u_v1", "u_v2", "u_w1", "u_w2", "u_w3")
    assert u_context(1, 1).names == ("u_v1", "u_w1")


def test_ccobject_validation():
    with pytest.raises(ValueError):
        CCObject("module", vertex="v1")
    with pytest.raises(ValueError):
        CCObject("shifted", vertex="v1", translate=1)
    with pytest.raises(ValueError):
        CCObject("shifted")
    with pytest.raises(ValueError):
        CCObject("generic")
    with pytest.raises(ValueError):
        CCObject("injective")
    # the vertex alone fixes the orbit class, so none can contradict it
    with pytest.raises(TypeError):
        CCObject("projective", "w", vertex="v1")


def test_describe():
    assert CCObject("shifted", vertex="v1").describe() == "P_v1[1]"
    assert obj_P("w1").describe() == "P_w1"
    assert obj_I("v2").describe() == "I_v2"
    assert CCObject("simple", vertex="w1").describe() == "S_w1"
    pre = CCObject("generic", vertex="v1", dims=(1, 2, 2, 2), translate=1)
    assert pre.describe() == "tau^-1 P_v1 at dims (1, 2, 2, 2)"
    post = CCObject("generic", vertex="w1", dims=(1, 2, 2, 2), translate=3)
    assert post.describe() == "tau^1 I_w1 at dims (1, 2, 2, 2)"
    bare = CCObject("generic", dims=(1, 1, 1, 2, 2))
    assert bare.describe() == "generic module at dims (1, 1, 1, 2, 2)"


# ---------------------------------------------------------------------------
# the index dictionary

def test_index_dictionary_around_the_seed():
    assert object_for_index(2, 3, 1) == CCObject("shifted", vertex="v1")
    assert object_for_index(2, 3, 2) == CCObject("shifted", vertex="w1")


def test_index_dictionary_first_steps():
    lo = object_for_index(2, 3, -1)
    assert (lo.kind, lo.vertex, lo.translate) == ("projective", "v1", 0)
    assert object_for_index(2, 3, 0).kind == "projective"
    hi = object_for_index(2, 3, 4)
    assert (hi.kind, hi.vertex, hi.translate) == ("injective", "w1", 2)
    assert object_for_index(2, 3, 3).vertex == "v1"
    assert object_for_index(2, 3, 3).kind == "injective"


def test_index_dictionary_translates():
    far = object_for_index(2, 3, -3)
    assert far.kind == "generic"
    # one inverse Coxeter step from dim P_{v1} = (1,0,1,1,1)
    assert far.dims == (2, 3, 4, 4, 4)
    assert far.translate == 1


@pytest.mark.parametrize("b,c", [(2, 3), (3, 2), (1, 5), (3, 3), (4, 4)])
def test_module_dims_follow_the_tropical_denominators(b, c):
    # the folded character of a module M has denominator
    # x1^(sum of v-dims) x2^(sum of w-dims), so the Coxeter walk must agree
    # with the d-vector recurrence; far out the dims outgrow int64
    t = ExchangeType(b, c)
    for k in range(-200, 201):
        obj = object_for_index(b, c, k)
        if obj.kind != "shifted":
            law = (sum(obj.dims[:b]), sum(obj.dims[b:]))
            assert law == _tropical_denominator(t, k), k


def test_index_dictionary_wraps_in_finite_type():
    # type (1,1) has period 5: below the projectives sit shifted copies again
    assert object_for_index(1, 1, -3) == CCObject("shifted", vertex="w1")
    # type (1,2): the forward translate of S_{v1} = I_{v1} is P_{v1}
    top = object_for_index(1, 2, 5)
    assert (top.kind, top.vertex, top.translate) == ("projective", "v1", 3)


def test_index_dictionary_never_resolves_a_simple():
    # a sink has no arrow out and a source no arrow in, so S_w = P_w and
    # S_v = I_v: every unit dimension vector is a row or a column of
    # path_counts, and the walk names each one projective or injective
    for b in range(1, 9):
        for c in range(1, 9):
            counts = kronecker_quiver(b, c).path_counts
            rows_and_columns = set(counts) | set(zip(*counts))
            n = b + c
            assert all(tuple(int(i == j) for j in range(n)) in rows_and_columns for i in range(n))
    for b in range(1, 7):
        for c in range(1, 7):
            for k in range(-25, 26):
                assert object_for_index(b, c, k).kind != "simple", (b, c, k)


# ---------------------------------------------------------------------------
# characters of the four explicit modules

def test_character_of_projective_sink():
    assert cc_polynomial(K23, obj_P("w1")) == U(
        {(0, 0, -1, 0, 0): 1, (1, 1, -1, 0, 0): 1}
    )


def test_character_of_injective_source():
    assert cc_polynomial(K23, obj_I("v1")) == U(
        {(-1, 0, 0, 0, 0): 1, (-1, 0, 1, 1, 1): 1}
    )


def test_character_of_projective_source():
    assert cc_polynomial(K23, obj_P("v1")) == U(
        {
            (-1, 0, -1, -1, -1): 1,
            (0, 1, -1, -1, -1): 3,
            (1, 2, -1, -1, -1): 3,
            (2, 3, -1, -1, -1): 1,
            (-1, 0, 0, 0, 0): 1,
        }
    )


def test_character_of_injective_sink():
    assert cc_polynomial(K23, obj_I("w1")) == U(
        {
            (-1, -1, -1, 0, 0): 1,
            (0, 0, -1, 0, 0): 1,
            (-1, -1, 0, 1, 1): 2,
            (-1, -1, 1, 2, 2): 1,
        }
    )


def test_character_of_shifted_projective():
    got = cc_polynomial(K23, CCObject("shifted", vertex="v1"))
    assert got == LaurentPolynomial.variable(U23, "u_v1")


def test_character_multiplicative_on_sums():
    a = ModuleSpec(K23, "projective", vertex="w1")
    b = ModuleSpec(K23, "injective", vertex="v1")
    both = ModuleSpec(K23, "sum", parts=(a, b))
    assert cc_from_spec(K23, both) == cc_from_spec(K23, a) * cc_from_spec(K23, b)


def test_character_budget():
    far = object_for_index(2, 3, -3)
    assert sum(far.dims) > GENERIC_DIM_BUDGET
    with pytest.raises(BudgetExceeded, match="17"):
        cc_polynomial(K23, far)


# ---------------------------------------------------------------------------
# folding

def test_fold_context_check():
    poly = cc_polynomial(K23, obj_P("w1"))
    with pytest.raises(ValueError):
        fold(poly, 3, 2)
    with pytest.raises(ValueError):
        fold(fold(poly, 2, 3), 2, 3)


def test_fold_shifted_gives_seed_variables():
    assert str(fold(cc_polynomial(K23, CCObject("shifted", vertex="v1")), 2, 3)) == "x1"
    assert str(fold(cc_polynomial(K23, CCObject("shifted", vertex="w1")), 2, 3)) == "x2"


def test_fold_matches_recurrence_on_explicit_modules():
    cases = {
        -1: obj_P("v1"),
        0: obj_P("w1"),
        3: obj_I("v1"),
        4: obj_I("w1"),
    }
    for k, obj in cases.items():
        assert fold(cc_polynomial(K23, obj), 2, 3) == cluster_variable(T23, k)


def test_fold_golden_values():
    x_ctx_terms = fold(cc_polynomial(K23, obj_I("w1")), 2, 3)
    assert dict(x_ctx_terms.terms) == {
        (-2, -1): 1,
        (0, -1): 1,
        (-2, 2): 2,
        (-2, 5): 1,
    }
    assert str(fold(cc_polynomial(K23, obj_P("v1")), 2, 3)) == (
        "(1 + 3*x1^2 + 3*x1^4 + x1^6 + x2^3) / (x1*x2^3)"
    )


def test_fold_independent_of_orbit_representative():
    # every vertex of one class folds to the same rank-2 variable
    want = cluster_variable(T23, -1)
    assert fold(cc_polynomial(K23, obj_P("v2")), 2, 3) == want
    want = cluster_variable(T23, 0)
    for w in ("w1", "w2", "w3"):
        assert fold(cc_polynomial(K23, obj_P(w)), 2, 3) == want


# ---------------------------------------------------------------------------
# verification drivers

def test_verify_folding_paper_range():
    for k in range(-1, 5):
        report = verify_folding(2, 3, k)
        assert [it.status for it in report.items] == [PASS]
        assert f"x_{k}" in report.items[0].detail


def test_verify_folding_finite_type_wrap():
    report = verify_folding(1, 1, -3)
    assert report.items[0].status == PASS
    assert "P_w1[1]" in report.items[0].detail


def test_verify_folding_generic_translate():
    report = verify_folding(2, 2, -3)
    assert report.items[0].status == PASS
    assert "tau^-1 P_v1" in report.items[0].detail


def test_verify_folding_budget_is_inconclusive():
    report = verify_folding(2, 3, -3)
    assert report.items[0].status == INCONCLUSIVE
    assert "BudgetExceeded" in report.items[0].detail
    assert report.exit_code() == 3


def test_verify_folding_resolves_the_object_before_the_recurrence():
    # (2,3) x_11's object has dims total 433: the cell is inconclusive
    # without paying for the recurrence value
    with mock.patch.object(ccmap, "cluster_variable") as spy:
        report = verify_folding(2, 3, 11)
    assert report.items[0].status == INCONCLUSIVE
    assert "BudgetExceeded" in report.items[0].detail
    spy.assert_not_called()


def test_exchange_triangles_from_worked_example():
    for orbit_class, s in (("w", 0), ("v", 0), ("w", 1)):
        report = verify_exchange_relation(2, 3, orbit_class, s)
        assert report.items[0].status == PASS, report.summary()


def test_exchange_triangles_small_types():
    for b, c in ((1, 1), (2, 2)):
        for orbit_class in ("v", "w"):
            for s in (-1, 0, 1):
                report = verify_exchange_relation(b, c, orbit_class, s)
                assert report.items[0].status == PASS, report.summary()


def test_exchange_relation_validates_class():
    with pytest.raises(ValueError):
        verify_exchange_relation(2, 3, "u", 0)


def test_exchange_triangle_by_hand():
    # X_{P_{w1}} * u_{w1} = u_{v1} u_{v2} + 1
    lhs = cc_polynomial(K23, obj_P("w1")) * LaurentPolynomial.variable(U23, "u_w1")
    assert lhs == U({(1, 1, 0, 0, 0): 1, (0, 0, 0, 0, 0): 1})


# ---------------------------------------------------------------------------
# equivariance

def test_equivariance_source_swap():
    report = g_equivariance_check(K23, obj_P("v1"), {"v1": "v2", "v2": "v1"})
    assert report.items[0].status == PASS
    swapped = cc_polynomial(K23, obj_P("v1")).permute_variables(
        {"u_v1": "u_v2", "u_v2": "u_v1"}
    )
    assert swapped == cc_polynomial(K23, obj_P("v2"))


def test_equivariance_sink_cycle():
    cycle = {"w1": "w2", "w2": "w3", "w3": "w1"}
    report = g_equivariance_check(K23, obj_I("w1"), cycle)
    assert report.items[0].status == PASS
    rotated = cc_polynomial(K23, obj_I("w1")).permute_variables(
        {f"u_{a}": f"u_{b}" for a, b in cycle.items()}
    )
    assert rotated == cc_polynomial(K23, obj_I("w2"))


def test_equivariance_identity_and_shifted():
    assert g_equivariance_check(K23, obj_P("v1"), {}).items[0].status == PASS
    report = g_equivariance_check(K23, CCObject("shifted", vertex="v1"), {"v1": "v2", "v2": "v1"})
    assert report.items[0].status == PASS


def test_equivariance_rejects_class_mixing():
    with pytest.raises(ValueError):
        g_equivariance_check(K23, obj_P("v1"), {"v1": "w1", "w1": "v1"})
    with pytest.raises(ValueError):
        g_equivariance_check(K23, obj_P("v1"), {"v1": "v2"})
    with pytest.raises(ValueError):
        g_equivariance_check(K23, obj_P("v1"), {"v1": "zz"})
    with pytest.raises(ValueError, match="not in the quiver"):
        g_equivariance_check(K23, object_for_index(2, 3, -1), {"w7": "w8"})


def test_fold_absorbs_vertex_symmetries():
    # pi is constant on G-orbits, so folding kills the relabeling
    g = {"v1": "v2", "v2": "v1", "w1": "w3", "w3": "w1"}
    for obj in (obj_P("v1"), obj_I("w1")):
        base = cc_polynomial(K23, obj)
        permuted = base.permute_variables({f"u_{a}": f"u_{b}" for a, b in g.items()})
        assert fold(permuted, 2, 3) == fold(base, 2, 3)
