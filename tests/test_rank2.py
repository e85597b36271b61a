from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank2cluster.laurent import LaurentPolynomial
from rank2cluster.rank2 import (
    _CACHE,
    X_CONTEXT,
    Y_CONTEXT,
    ExchangeType,
    check_positivity_range,
    clear_cache,
    cluster_variable,
    d_vector,
    detect_period,
    expand_in_cluster,
    predicted_numerator_terms,
)
from rank2cluster.report import FAIL, INCONCLUSIVE, PASS, CheckItem, CheckReport

T11 = ExchangeType(1, 1)
T23 = ExchangeType(2, 3)


def X(terms):
    return LaurentPolynomial(X_CONTEXT, terms)


def Y(terms):
    return LaurentPolynomial(Y_CONTEXT, terms)


def test_exchange_type_validation():
    with pytest.raises(ValueError):
        ExchangeType(0, 1)
    with pytest.raises(ValueError):
        ExchangeType(2, -3)
    with pytest.raises(ValueError):
        ExchangeType(2, "3")
    assert ExchangeType(2, 3).swapped == ExchangeType(3, 2)


# ---------------------------------------------------------------------------
# golden cluster variables

def test_seed_variables():
    assert cluster_variable(T23, 1) == X({(1, 0): 1})
    assert cluster_variable(T23, 2) == X({(0, 1): 1})


def test_type_1_1_orbit():
    assert cluster_variable(T11, 3) == X({(-1, 0): 1, (-1, 1): 1})
    assert cluster_variable(T11, 4) == X({(-1, -1): 1, (0, -1): 1, (-1, 0): 1})
    assert cluster_variable(T11, 5) == X({(0, -1): 1, (1, -1): 1})
    assert cluster_variable(T11, 6) == X({(1, 0): 1})
    assert cluster_variable(T11, 0) == cluster_variable(T11, 5)


def test_type_2_3_down():
    assert cluster_variable(T23, 0) == X({(0, -1): 1, (2, -1): 1})
    assert cluster_variable(T23, -1) == X(
        {(-1, -3): 1, (1, -3): 3, (3, -3): 3, (5, -3): 1, (-1, 0): 1}
    )


def test_type_2_3_up():
    assert cluster_variable(T23, 3) == X({(-1, 0): 1, (-1, 3): 1})
    assert cluster_variable(T23, 4) == X(
        {(-2, -1): 1, (0, -1): 1, (-2, 2): 2, (-2, 5): 1}
    )


def test_cache_is_shared_and_clearable():
    clear_cache()
    a = cluster_variable(T23, 4)
    b = cluster_variable(T23, 4)
    assert a is b
    clear_cache()
    c = cluster_variable(T23, 4)
    assert c is not a and c == a


# ---------------------------------------------------------------------------
# expand_in_cluster

def test_expand_at_own_cluster():
    y1 = Y({(1, 0): 1})
    y2 = Y({(0, 1): 1})
    for m in (-2, 0, 1, 3):
        assert expand_in_cluster(T23, m, m) == y1
        assert expand_in_cluster(T23, m + 1, m) == y2


def test_expand_even_offset_swaps_exponent_pattern():
    # one step up from the cluster at m = 2 uses the c-exponent first
    assert expand_in_cluster(T23, 4, 2) == Y({(-1, 0): 1, (-1, 2): 1})
    # while from an odd offset it uses the b-exponent
    assert expand_in_cluster(T23, 3, 1) == Y({(-1, 0): 1, (-1, 3): 1})


def test_expand_agrees_with_seed_expansion():
    assert expand_in_cluster(T23, 4, 1)._terms == cluster_variable(T23, 4)._terms


@given(st.integers(1, 3), st.integers(1, 3), st.integers(-3, 6), st.integers(-2, 3))
@settings(max_examples=60, deadline=None)
def test_expand_consistent_under_evaluation(b, c, k, m):
    # the same element written in two clusters agrees numerically
    t = ExchangeType(b, c)
    pt = (Fraction(2), Fraction(3, 2))
    direct = cluster_variable(t, k).evaluate(pt)
    ym = (cluster_variable(t, m).evaluate(pt), cluster_variable(t, m + 1).evaluate(pt))
    assert expand_in_cluster(t, k, m).evaluate(ym) == direct


# ---------------------------------------------------------------------------
# denominator vectors

def test_d_vector_examples():
    assert d_vector(T23, -1) == (1, 3)
    assert d_vector(T23, 4) == (2, 1)
    assert d_vector(T23, 1) == (0, 0)
    assert d_vector(T23, 2) == (0, 0)


def test_predicted_terms_bounds_actual_support():
    for k in range(-4, 8):
        p = cluster_variable(T23, k)
        assert len(p) <= predicted_numerator_terms(T23, k)


def test_predicted_terms_exact_on_examples():
    assert predicted_numerator_terms(T23, -1) == 8
    assert len(cluster_variable(T23, -1)) == 5


# ---------------------------------------------------------------------------
# recurrence properties

@given(st.integers(1, 3), st.integers(1, 3), st.integers(-3, 6))
@settings(max_examples=80, deadline=None)
def test_exchange_relation_everywhere(b, c, k):
    t = ExchangeType(b, c)
    e = t.b if k % 2 else t.c
    left = cluster_variable(t, k - 1) * cluster_variable(t, k + 1)
    assert left == cluster_variable(t, k) ** e + 1


@given(st.integers(1, 3), st.integers(1, 3), st.integers(-3, 6))
@settings(max_examples=80, deadline=None)
def test_positivity_everywhere(b, c, k):
    assert cluster_variable(ExchangeType(b, c), k).is_positive()


def _backward_reference(t, k):
    # x_{j-1} = (x_j^e + 1) / x_{j+1}, walked down from the seed pair
    above = X({(0, 1): 1})
    cur = X({(1, 0): 1})
    for j in range(1, k, -1):
        e = t.b if j % 2 else t.c
        above, cur = cur, (cur ** e + 1).exact_div(above)
    return cur


def test_reflection_matches_backward_recurrence():
    for b in (1, 2, 3):
        for c in (1, 2, 3):
            t = ExchangeType(b, c)
            for k in range(-4, 1):
                assert cluster_variable(t, k) == _backward_reference(t, k), (b, c, k)


def test_memo_holds_forward_steps_only():
    clear_cache()
    cluster_variable(T23, -4)
    assert all(k >= 3 for _, _, k in _CACHE)
    assert (3, 2, 7) in _CACHE


# ---------------------------------------------------------------------------
# periodicity

def test_periods_of_finite_types():
    assert detect_period(ExchangeType(1, 1), 20) == 5
    assert detect_period(ExchangeType(1, 2), 20) == 6
    assert detect_period(ExchangeType(2, 1), 20) == 6
    assert detect_period(ExchangeType(1, 3), 20) == 8
    assert detect_period(ExchangeType(3, 1), 20) == 8


def test_no_period_at_affine_point():
    assert detect_period(ExchangeType(2, 2), 50) is None


def test_no_period_for_wild_types():
    # bc >= 4 is never periodic, and the answer needs no division
    assert detect_period(T23, 10) is None
    assert detect_period(ExchangeType(3, 3), 200) is None


def test_detect_period_validation():
    with pytest.raises(ValueError):
        detect_period(T11, 0)


# ---------------------------------------------------------------------------
# sweep driver

def test_sweep_small_grid_all_pass():
    report = check_positivity_range(ExchangeType(1, 2), -2, 4, -1, 2)
    assert report.failed == 0 and report.inconclusive == 0
    # 7 k-values x 4 m-values, two checks each
    assert report.passed == 56
    assert report.exit_code() == 0


def test_sweep_denominator_check():
    report = check_positivity_range(T23, -4, 6, 0, 0, checks=("denominator",))
    assert report.all_passed


def test_sweep_budget_reports_inconclusive():
    report = check_positivity_range(T23, -3, 5, -2, 2, budget_seconds=0.0)
    assert report.inconclusive == len(report.items)
    assert report.exit_code() == 3
    assert "budget" in report.items[0].detail


def test_sweep_term_cap_skips_heavy_cells():
    report = check_positivity_range(
        ExchangeType(2, 2), 1, 4, 1, 1, max_predicted_terms=1
    )
    skipped = [it for it in report.items if it.status == INCONCLUSIVE]
    assert skipped and all("support bound" in it.detail for it in skipped)
    assert report.failed == 0
    # the seed cells cost nothing and still run
    assert any(it.status == PASS for it in report.items)


def test_sweep_validation():
    with pytest.raises(ValueError):
        check_positivity_range(T23, 0, 1, 0, 0, checks=("laurent", "unitary"))
    with pytest.raises(ValueError):
        check_positivity_range(T23, 2, 1, 0, 0)


# ---------------------------------------------------------------------------
# report plumbing

def test_report_exit_codes():
    r = CheckReport("demo")
    assert r.exit_code() == 0
    r.add("a", PASS)
    assert r.exit_code() == 0 and r.all_passed
    r.add("b", INCONCLUSIVE, "budget")
    assert r.exit_code() == 3 and not r.all_passed
    r.add("c", FAIL, "witness")
    assert r.exit_code() == 1


def test_report_serialization_and_summary():
    r = CheckReport("demo")
    r.add("a", PASS, "ok")
    d = r.to_dict()
    assert d["passed"] == 1 and d["items"][0]["label"] == "a"
    assert "a: PASS (ok)" in r.summary()
    with pytest.raises(ValueError):
        CheckItem("x", "maybe")
