import itertools
import re
import time
from fractions import Fraction
from math import comb, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank2cluster import _packed, rank2
from rank2cluster.cli import main
from rank2cluster.laurent import LaurentPolynomial
from rank2cluster.quiver import NotIntegral, NotPolynomial, NotRigid
from rank2cluster.rank2 import (
    _CACHE,
    SWEEP_CHECKS,
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
from rank2cluster.report import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    BudgetExceeded,
    CheckItem,
    CheckReport,
    Inconclusive,
)

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


def test_expand_returns_a_view_of_the_memoized_terms():
    clear_cache()
    # x_6 in (x_1, x_2) and in (x_3, x_4) is x_6 and x_4 of type (2,3)
    for k, m in ((6, 1), (6, 3)):
        view = expand_in_cluster(T23, k, m)
        assert view.context == Y_CONTEXT
        assert view._terms is cluster_variable(T23, k - m + 1)._terms
        assert expand_in_cluster(T23, k, m)._terms is view._terms
    # a mirrored value (k - m + 1 <= 0) is a view of the mirror's terms
    view = expand_in_cluster(T23, 0, 2)
    assert view == Y(cluster_variable(T23.swapped, -1).terms)
    assert all(k >= 3 for _, _, k in _CACHE)


def test_mirrored_values_permute_the_memoized_source():
    clear_cache()
    # x_-4 of (2,3) mirrors x_7 of (3,2); x_-4 in (x_2, x_3) is x_-5 of
    # (3,2), which mirrors x_8 of (2,3)
    swap = {"x1": "x2", "x2": "x1"}
    p = cluster_variable(T23, -4)
    view = expand_in_cluster(T23, -4, 2)
    # a mirror is not a computed step: the memo holds only the walks
    assert set(_CACHE) == {(3, 2, k) for k in range(3, 8)} | {(2, 3, k) for k in range(3, 9)}
    assert p == _CACHE[3, 2, 7].permute_variables(swap)
    assert view == Y(_CACHE[2, 3, 8].permute_variables(swap).terms)
    assert cluster_variable(T23, -4) == p and expand_in_cluster(T23, -4, 2) == view
    clear_cache()
    assert not _CACHE
    assert cluster_variable(T23, -4) == p


def test_mirror_of_a_value_over_the_term_limit_is_not_kept():
    clear_cache()
    # x_-4 of (2,3) mirrors x_7 of (3,2), which has 91 terms
    with mock.patch.object(rank2, "_CACHE_TERM_LIMIT", 90):
        p = cluster_variable(T23, -4)
        q = cluster_variable(T23, -4)
        view = expand_in_cluster(T23, -4, 1)
    assert p == q and p is not q
    assert view._terms == p._terms and view.context == Y_CONTEXT
    assert (3, 2, 7) not in _CACHE
    clear_cache()


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
    assert left == prod([cluster_variable(t, k)] * e) + 1


@given(st.integers(1, 3), st.integers(1, 3), st.integers(-3, 6))
@settings(max_examples=80, deadline=None)
def test_positivity_everywhere(b, c, k):
    assert cluster_variable(ExchangeType(b, c), k).is_positive()


def _backward_reference(t, k):
    # x_{j-1} = (x_j^e + 1) / x_{j+1}, walked down from the seed pair; each
    # quotient q is proven by q * x_{j+1} == x_j^e + 1 in an integral domain
    above = X({(0, 1): 1})
    cur = X({(1, 0): 1})
    for j in range(1, k, -1):
        e = t.b if j % 2 else t.c
        below = X(_packed.positive_exact_div(dict(cur.terms), dict(above.terms), e))
        assert below * above == prod([cur] * e) + 1, (t, j - 1)
        above, cur = cur, below
    return cur


def test_reflection_matches_backward_recurrence():
    for b in (1, 2, 3):
        for c in (1, 2, 3):
            t = ExchangeType(b, c)
            for k in range(-4, 1):
                assert cluster_variable(t, k) == _backward_reference(t, k), (b, c, k)


def _binomial(n, k):
    # n (n-1) ... (n-k+1) / k! for any integer n
    return comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)


def _greedy_element(t, a1, a2):
    # Lee, Li and Zelevinsky, "Greedy elements in rank 2 cluster algebras"
    # (arXiv:1208.2391): x[a1,a2] = x1^-a1 x2^-a2 sum c(p,q) x1^(bp) x2^(cq)
    # with c(0,0) = 1 and each other c(p,q) the larger of two alternating
    # sums over the coefficients below it; the support lies in p <= a2,
    # q <= a1.  Cluster variables are the greedy elements at their d-vectors.
    coeff = {}
    for p in range(a2 + 1):
        for q in range(a1 + 1):
            coeff[p, q] = 1 if p == q == 0 else max(
                sum((-1) ** (i - 1) * coeff[p - i, q] * _binomial(a2 - t.c * q + i - 1, i)
                    for i in range(1, p + 1)),
                sum((-1) ** (i - 1) * coeff[p, q - i] * _binomial(a1 - t.b * p + i - 1, i)
                    for i in range(1, q + 1)),
            )
    return X({(t.b * p - a1, t.c * q - a2): v for (p, q), v in coeff.items() if v})


def test_greedy_elements_match_the_recurrence():
    # an oracle that shares neither the recurrence nor its kernel: every
    # coefficient of every non-initial x_k with b, c <= 4, k in [-4, 6]
    # and at most 2,000 terms
    checked = 0
    for b, c in itertools.product(range(1, 5), repeat=2):
        t = ExchangeType(b, c)
        for k in range(-4, 7):
            a1, a2 = rank2._tropical_denominator(t, k)
            p = cluster_variable(t, k)
            if min(a1, a2) < 0 or len(p) > 2000:
                continue
            assert p == _greedy_element(t, a1, a2), (b, c, k)
            checked += 1
    assert checked == 137


def test_large_wild_step_matches_modular_recurrence():
    # (3,2) x_10 ends in a packed step whose 9740-term numerator has
    # 86-digit slots (several libmpdec words each), divided by a divisor
    # long enough for Newton division, in several blocks; the kernel must
    # answer every step, or cluster_variable raises Inconclusive
    p = 2**61 - 1
    point = (123456789, 987654321)
    t = ExchangeType(3, 2)
    clear_cache()
    x10 = cluster_variable(t, 10)
    assert len(x10) == 6085
    assert x10.is_positive()
    value = sum(
        c * pow(point[0], e1, p) * pow(point[1], e2, p) for (e1, e2), c in x10.terms.items()
    ) % p
    prev, cur = point
    for j in range(2, 10):
        e = t.b if j % 2 else t.c
        prev, cur = cur, (pow(cur, e, p) + 1) * pow(prev, -1, p) % p
    assert value == cur


@pytest.fixture
def declining_kernel():
    # a kernel that certifies nothing; cold memo before and after
    clear_cache()
    with mock.patch.object(_packed, "positive_exact_div", lambda base, den, e, deadline: None):
        yield
    clear_cache()


def test_declined_step_raises_inconclusive(declining_kernel):
    # nothing proves or refutes an uncertified quotient: the step gives up,
    # names itself, and leaves no trace in the memo
    with pytest.raises(Inconclusive) as raised:
        cluster_variable(T23, 5)
    assert type(raised.value) is Inconclusive
    assert str(raised.value) == "x_3 of type (2,3): the packed kernel could not certify the quotient"
    assert not _CACHE


def test_sweep_reports_declined_steps_inconclusive(declining_kernel):
    # every cell of the grid needs at least one step (j = k - m + 1 >= 3)
    report = check_positivity_range(T23, 3, 6, 0, 1, checks=SWEEP_CHECKS)
    assert report.passed == 0 and report.failed == 0
    assert report.inconclusive == len(report.items) == 8
    assert all(it.detail.startswith("Inconclusive: x_3 of type (") for it in report.items)
    assert report.exit_code() == 3


def test_cli_exits_3_on_a_declined_step(declining_kernel, capsys):
    assert main(["var", "--b", "2", "--c", "3", "--k", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("inconclusive: Inconclusive: ")


@pytest.fixture
def small_memory_cap():
    # a 10,000-digit cap stops (2,3) at its x_8 step (975 slots of 17
    # digits) and (3,2) at x_8
    clear_cache()
    with mock.patch.object(_packed, "MEMORY_CAP", 10_000):
        yield
    clear_cache()


def test_every_way_to_give_up_is_inconclusive():
    for cls in (BudgetExceeded, NotRigid, NotPolynomial, NotIntegral):
        assert issubclass(cls, Inconclusive)


def test_step_past_memory_cap_raises(small_memory_cap):
    assert len(cluster_variable(T23, 7)) > 0
    with pytest.raises(BudgetExceeded, match="975 slots of 17 digits"):
        cluster_variable(T23, 8)


def test_sweep_reports_steps_past_memory_cap_inconclusive(small_memory_cap):
    # m = 0 runs type (3,2) at j = k + 1, so k = 7, 8, 9 need its x_8 step
    report = check_positivity_range(T23, 3, 9, 0, 0)
    assert (report.passed, report.failed, report.inconclusive) == (8, 0, 3)
    given_up = [it for it in report.items if it.status == INCONCLUSIVE]
    assert [it.label for it in given_up] == ["k=7 m=0", "k=8 m=0", "k=9 m=0"]
    assert all(it.detail.startswith("BudgetExceeded: ") for it in given_up)
    assert report.exit_code() == 3


def test_cli_exits_3_on_a_step_past_memory_cap(small_memory_cap, capsys):
    assert main(["var", "--b", "2", "--c", "3", "--k", "9"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("inconclusive: BudgetExceeded: ")


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


@pytest.mark.parametrize("b, c", [(1, 1), (1, 2), (1, 3)])
def test_sweep_denominator_check_on_finite_types(b, c):
    # periods 5, 6 and 8: y1 and y2 come back at indices off the seed pair,
    # on both sides of it, and in clusters of both parities
    report = check_positivity_range(
        ExchangeType(b, c), -9, 10, 0, 1, checks=("denominator",)
    )
    assert report.all_passed and report.passed == 40


@pytest.mark.parametrize("b, c", [(1, 4), (4, 1), (1, 5), (5, 1)])
def test_sweep_denominator_check_on_b_or_c_one(b, c):
    # on these types the max-norm of the d-vector does not grow at every
    # single step (x_6 of (1,4) has (2, 3), x_5 has (3, 4)), only over each
    # Coxeter step of two
    report = check_positivity_range(
        ExchangeType(b, c), -6, 8, -2, 2, checks=("denominator",)
    )
    assert report.all_passed and report.passed == 75


@pytest.mark.parametrize("b, c", [(3, 3), (2, 4), (4, 2)])
def test_sweep_denominator_check_on_wild_types(b, c):
    # the largest cell, x_9 of (3,3) at k=7 m=-1, bounds 54,810 terms
    report = check_positivity_range(
        ExchangeType(b, c), -4, 7, -1, 1, checks=("denominator",), max_predicted_terms=60_000
    )
    assert report.all_passed and report.passed == 36


def test_tropical_d_vector_laws():
    # checked on integers far past what the polynomials reach: a d-vector
    # is an initial variable's or nonnegative; for bc >= 4 the max-norm of
    # the clamped one grows over each Coxeter step of two, away from the
    # seed pair; for bc <= 3 the sequence has period 5, 6 or 8
    for b, c in itertools.product(range(1, 6), repeat=2):
        t = ExchangeType(b, c)
        delta = {k: rank2._tropical_denominator(t, k) for k in range(-42, 49)}
        norm = {k: max(*d, 0) for k, d in delta.items()}
        for k in range(-40, 41):
            assert delta[k] in rank2._SEED_DELTAS or min(delta[k]) >= 0, (b, c, k)
            if b * c >= 4 and k not in (1, 2):
                assert norm[k] > norm[k - 2 if k >= 3 else k + 2], (b, c, k)
            if b * c <= 3:
                assert delta[k + {1: 5, 2: 6, 3: 8}[b * c]] == delta[k], (b, c, k)


def test_denominator_check_compares_with_the_tropical_prediction():
    # x_5 of (2,3) has the predicted d-vector (5, 3); a value with any other
    # one fails, whatever its max-norm
    assert rank2._tropical_denominator(T23, 5) == (5, 3)
    x5 = expand_in_cluster(T23, 5, 1)
    assert rank2._denominator_item(T23, 5, "k=5 m=1", x5) == (
        "k=5 m=1 denominator", PASS, "d-vector (5, 3)"
    )
    grown = Y({(-2, 0): 1, (0, 0): 1})
    assert rank2._denominator_item(T23, 5, "k=5 m=1", grown) == (
        "k=5 m=1 denominator", FAIL, "d-vector (2, 0) differs from the predicted (5, 3)"
    )
    flat = Y({(-1, 0): 1, (-1, 3): 1})
    assert rank2._denominator_item(T23, 5, "k=5 m=1", flat) == (
        "k=5 m=1 denominator", FAIL, "d-vector (1, 0) differs from the predicted (5, 3)"
    )
    constant = Y({(0, 0): 2})
    assert rank2._denominator_item(T23, -1, "k=-1 m=1", constant) == (
        "k=-1 m=1 denominator", FAIL, "d-vector (0, 0) differs from the predicted (1, 3)"
    )


def test_denominator_check_fails_a_positive_minimal_exponent():
    # y1 * (1 + y2^2) / y2 has d-vector (-1, 1): an entry below 0 that the
    # clamped denominator exponents (0, 1) would hide
    p = Y({(1, -1): 1, (1, 1): 1})
    assert p.denominator_exponents() == (0, 1)
    cell, status, detail = rank2._denominator_item(T11, 4, "k=4 m=1", p)
    assert (cell, status) == ("k=4 m=1 denominator", FAIL)
    assert detail == "d-vector (-1, 1) differs from the predicted (1, 1)"
    # an initial variable has d-vector (-1, 0) or (0, -1) by definition,
    # at whatever index it comes back; any other monomial fails
    y2 = Y({(0, 1): 1})
    assert rank2._denominator_item(T11, 2, "k=2 m=1", y2)[1] == PASS
    assert rank2._denominator_item(T11, 7, "k=7 m=1", y2)[1] == PASS
    for q in (Y({(2, 0): 1}), Y({(0, 1): 2})):
        assert rank2._denominator_item(T11, 7, "k=7 m=1", q)[1] == FAIL
    assert rank2._denominator_item(T11, 7, "k=7 m=1", Y({(0, 1): 2}))[2] == (
        "d-vector (0, -1) is y2's, but the value is not y2"
    )


def test_sweep_budget_reports_inconclusive():
    report = check_positivity_range(T23, -3, 5, -2, 2, budget_seconds=0.0)
    assert report.inconclusive == len(report.items)
    assert report.exit_code() == 3
    assert "budget" in report.items[0].detail


@pytest.fixture
def short_blocks():
    # blocks as short as the divisor, so small steps divide in several
    # blocks; cold memo before and after
    clear_cache()
    with mock.patch.object(_packed, "_MIN_BLOCK_DIGITS", 1):
        yield
    clear_cache()


def _clock_started_by(key):
    """A clock that reads 0 until `key` is memoized, then 1, 2, 3, ..."""
    ticks = itertools.count(1)
    return lambda: next(ticks) if key in _CACHE else 0.0


def test_sweep_deadline_cuts_a_step_between_blocks(short_blocks):
    # m = 1 runs type (2,3) at j = k; the clock starts once x_8 is
    # memoized, so the cell k=9 starts at 1 <= 2, its step x_9 divides
    # block 1 at 2 and is cut before block 2 at 3
    with mock.patch.object(time, "monotonic", _clock_started_by((2, 3, 8))):
        report = check_positivity_range(T23, 7, 10, 1, 1, budget_seconds=2.0)
    assert [(it.label, it.status) for it in report.items] == [
        ("k=7 m=1 laurent", PASS),
        ("k=7 m=1 positivity", PASS),
        ("k=8 m=1 laurent", PASS),
        ("k=8 m=1 positivity", PASS),
        ("k=9 m=1", INCONCLUSIVE),
        ("k=10 m=1", INCONCLUSIVE),
    ]
    assert re.fullmatch(
        r"BudgetExceeded: x_9 of type \(2,3\): time budget exhausted before block 2 "
        r"of \d+ of the division",
        report.items[4].detail,
    )
    assert report.items[5].detail == "time budget exhausted before this cell"
    # nothing of the cut step is memoized
    assert (2, 3, 8) in _CACHE and (2, 3, 9) not in _CACHE
    assert report.exit_code() == 3


def test_step_past_deadline_raises(short_blocks):
    cluster_variable(T23, 8)
    with mock.patch.object(time, "monotonic", lambda: 10.0):
        with pytest.raises(BudgetExceeded, match=r"x_9 .* before block 1 of"):
            cluster_variable(T23, 9, deadline=5.0)
        # x_-1 of (2,3) mirrors x_4 of (3,2), whose first step is cut
        with pytest.raises(BudgetExceeded, match=r"x_3 of type \(3,2\)"):
            expand_in_cluster(T23, -1, 1, deadline=5.0)
    assert (2, 3, 9) not in _CACHE
    assert cluster_variable(T23, 9, deadline=time.monotonic() + 600) == cluster_variable(T23, 9)


def _no_clock():
    raise AssertionError("the clock was read without a deadline")


def test_no_budget_never_reads_the_clock(short_blocks):
    with mock.patch.object(time, "monotonic", _no_clock):
        assert len(cluster_variable(T23, 9)) > 0
        report = check_positivity_range(T23, -3, 10, 0, 1)
    assert report.all_passed


def test_denominator_check_steps_under_the_deadline():
    # with the memo's term limit at 100, (2,3) x_7 (131 terms) and later
    # variables are walked again on every request; the denominator check
    # reads the cell's d-vector off the cell and compares it with the
    # tropical prediction, integers only, so it walks no step, and every
    # step of the cell's walk runs under the sweep's deadline
    deadlines = []

    def packed_div(base, den, e, deadline=None, kernel=_packed.positive_exact_div):
        deadlines.append(deadline)
        return kernel(base, den, e, deadline)

    def sweep(limit, checks, k=9):
        clear_cache()
        deadlines.clear()
        with mock.patch.object(rank2, "_CACHE_TERM_LIMIT", limit), mock.patch.object(
            _packed, "positive_exact_div", packed_div
        ):
            report = check_positivity_range(T23, k, k, 1, 1, checks, budget_seconds=600)
        clear_cache()
        assert report.all_passed
        assert deadlines and None not in deadlines
        return len(deadlines)

    # a cell over the limit costs no step more with the check than without
    assert sweep(100, ("laurent", "denominator")) == sweep(100, ("laurent",))
    # nor does the cell x_-6, mirrored from x_9 of (3,2), whose x_7 (91
    # terms) is over the limit too
    assert sweep(50, ("laurent", "denominator"), -6) == sweep(50, ("laurent",), -6)
    # nor a cell over the limit whose earlier steps the memo keeps
    assert sweep(1000, ("laurent", "denominator")) == sweep(1000, ("laurent",))


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
    with pytest.raises(ValueError):
        check_positivity_range(T23, 0, 1, 0, 0, checks=())
    # a NaN budget never expires and a negative guard skips every cell
    for guards in ({"budget_seconds": float("nan")}, {"budget_seconds": -1.0},
                   {"max_predicted_terms": -1}):
        with pytest.raises(ValueError):
            check_positivity_range(T23, 0, 1, 0, 0, **guards)
    # inf is no budget at all
    report = check_positivity_range(T23, 0, 1, 0, 0, budget_seconds=float("inf"))
    assert report.all_passed


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
