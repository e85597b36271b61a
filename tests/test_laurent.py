import decimal
import itertools
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rank2cluster import _packed
from rank2cluster.laurent import LaurentPolynomial, VariableContext
from rank2cluster.rank2 import ExchangeType, cluster_variable
from rank2cluster.report import BudgetExceeded

X = VariableContext(("x1", "x2"))
U = VariableContext(("u_v1", "u_v2", "u_w1", "u_w2", "u_w3"))


def P(terms, ctx=X):
    return LaurentPolynomial(ctx, terms)


def x1():
    return LaurentPolynomial.variable(X, "x1")


def x2():
    return LaurentPolynomial.variable(X, "x2")


# ---------------------------------------------------------------------------
# construction and canonical form

def test_context_validation():
    with pytest.raises(ValueError):
        VariableContext([])
    with pytest.raises(ValueError):
        VariableContext(["a", "a"])
    assert X.arity == 2
    assert X.index("x2") == 1
    with pytest.raises(KeyError):
        X.index("zz")


def test_zero_coefficients_stripped():
    p = P({(1, 0): 1, (0, 1): 0})
    assert p == x1()
    assert len(p) == 1


def test_bad_terms_rejected():
    with pytest.raises(ValueError):
        P({(1,): 1})
    with pytest.raises(TypeError):
        P({(1, 0): 1.5})
    with pytest.raises(ValueError):
        P({(1.0, 0): 1})


def test_immutable():
    p = x1()
    with pytest.raises(AttributeError):
        p.context = U
    with pytest.raises(TypeError):
        p.terms[(5, 5)] = 1


def test_equality_is_structural():
    assert P({(1, 0): 1}) == x1()
    assert P({(1, 0): 1}) != P({(1, 0): 2})
    # same shape over a different context is a different value
    other = LaurentPolynomial(VariableContext(("y1", "y2")), {(1, 0): 1})
    assert x1() != other


def test_constant_and_one():
    assert LaurentPolynomial.constant(X, 0).is_zero
    assert LaurentPolynomial.one(X) == P({(0, 0): 1})
    assert bool(LaurentPolynomial.zero(X)) is False


# ---------------------------------------------------------------------------
# arithmetic

def test_add_cancellation():
    assert (x1() + x2()) + (x1() - x2()) == P({(1, 0): 2})


def test_add_identity():
    p = P({(2, -1): 3, (0, 0): 1})
    assert p + 0 == p
    assert 0 + p == p


def test_add_paper_numerator():
    lhs = P({(0, 0): 1, (2, 0): 1}) + P({(0, 3): 2, (0, 6): 1})
    assert lhs == P({(0, 0): 1, (2, 0): 1, (0, 3): 2, (0, 6): 1})


def test_context_mismatch_raises():
    q = LaurentPolynomial(VariableContext(("y1", "y2")), {(1, 0): 1})
    with pytest.raises(ValueError):
        x1() + q
    with pytest.raises(ValueError):
        x1() * q


def test_mul_against_golden_cube():
    base = LaurentPolynomial(U, {(0, 0, 0, 0, 0): 1, (1, 1, 0, 0, 0): 1})
    cube = base * base * base
    assert cube == LaurentPolynomial(
        U,
        {
            (0, 0, 0, 0, 0): 1,
            (1, 1, 0, 0, 0): 3,
            (2, 2, 0, 0, 0): 3,
            (3, 3, 0, 0, 0): 1,
        },
    )


def test_mul_monomial_shift():
    p = LaurentPolynomial(U, {(0, 0, 0, 0, 0): 1, (1, 1, 0, 0, 0): 1})
    shifted = p * LaurentPolynomial.monomial(U, (0, 0, -1, 0, 0))
    assert shifted == LaurentPolynomial(U, {(0, 0, -1, 0, 0): 1, (1, 1, -1, 0, 0): 1})


# ---------------------------------------------------------------------------
# specialize / permute / evaluate

def _fold_images():
    xx1, xx2 = x1(), x2()
    return {name: (xx1 if name.startswith("u_v") else xx2) for name in U.names}


def test_specialize_folding_golden():
    # character of the third projective class, folded
    p = LaurentPolynomial(
        U,
        {
            (-1, 0, -1, -1, -1): 1,
            (0, 1, -1, -1, -1): 3,
            (1, 2, -1, -1, -1): 3,
            (2, 3, -1, -1, -1): 1,
            (-1, 0, 0, 0, 0): 1,
        },
    )
    folded = p.specialize(X, _fold_images())
    assert folded == P({(-1, -3): 1, (1, -3): 3, (3, -3): 3, (5, -3): 1, (-1, 0): 1})


def test_specialize_identity():
    p = P({(1, -2): 7, (0, 0): -1})
    images = {"x1": x1(), "x2": x2()}
    assert p.specialize(X, images) == p


def test_specialize_collision_merges():
    p = LaurentPolynomial(U, {(0, 0, -1, 0, 0): 1, (0, 0, 0, -1, 0): 1})
    assert p.specialize(X, _fold_images()) == P({(0, -1): 2})


def test_specialize_requires_images_for_used_only():
    p = LaurentPolynomial(U, {(0, 0, 1, 0, 0): 1})
    assert p.specialize(X, {"u_w1": x2()}) == x2()
    with pytest.raises(KeyError):
        p.specialize(X, {"u_v1": x1()})


def test_specialize_sign_images():
    p = P({(1, 0): 1, (0, 1): 1})
    y = VariableContext(("y",))
    neg = LaurentPolynomial(y, {(1,): -1})
    pos = LaurentPolynomial(y, {(2,): 1})
    out = p.specialize(y, {"x1": neg, "x2": pos})
    assert out == LaurentPolynomial(y, {(1,): -1, (2,): 1})
    # odd power of a -1 image flips the sign, even power does not
    q = P({(2, 0): 1, (3, 0): 1})
    assert q.specialize(y, {"x1": neg}) == LaurentPolynomial(y, {(2,): 1, (3,): -1})


def test_specialize_rejects_nonmonomial_image():
    with pytest.raises(ValueError):
        x1().specialize(X, {"x1": 1 + x2(), "x2": x2()})
    with pytest.raises(ValueError):
        x1().specialize(X, {"x1": P({(1, 0): 2}), "x2": x2()})


def test_permute_swap():
    p = LaurentPolynomial(U, {(0, 0, -1, 0, 0): 1, (1, 1, -1, 0, 0): 1})
    swapped = p.permute_variables({"u_w1": "u_w2", "u_w2": "u_w1"})
    assert swapped == LaurentPolynomial(U, {(0, 0, 0, -1, 0): 1, (1, 1, 0, -1, 0): 1})
    # a 3-cycle is not its own inverse, so it tells source from destination:
    # u_v1 -> u_v2 -> u_w1 -> u_v1 moves the u_v1 exponent to u_v2's slot
    q = LaurentPolynomial(U, {(1, 2, 3, 4, 5): 7, (0, 0, -1, 0, 0): 1})
    cycled = q.permute_variables({"u_v1": "u_v2", "u_v2": "u_w1", "u_w1": "u_v1"})
    assert cycled == LaurentPolynomial(U, {(3, 1, 2, 4, 5): 7, (-1, 0, 0, 0, 0): 1})


def test_permute_identity_and_composition():
    p = P({(2, -1): 3, (-1, 4): 2})
    assert p.permute_variables({}) == p
    swap = {"x1": "x2", "x2": "x1"}
    assert p.permute_variables(swap).permute_variables(swap) == p
    y = VariableContext(("y",))
    q = LaurentPolynomial(y, {(2,): 3, (-1,): 1})
    assert q.permute_variables({}) == q == q.permute_variables({"y": "y"})


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError):
        x1().permute_variables({"x1": "x2"})
    with pytest.raises(ValueError):
        x1().permute_variables({"zz": "x1"})


def test_evaluate():
    p = P({(0, -1): 1, (2, -1): 1})  # (1+x1^2)/x2
    assert p.evaluate((1, 1)) == 2
    assert (x1() * x2()).evaluate({"x1": 2, "x2": 3}) == 6
    assert p.evaluate((Fraction(1, 2), 3)) == Fraction(5, 12)
    with pytest.raises(ZeroDivisionError):
        p.evaluate((0, 1))
    with pytest.raises(KeyError):
        p.evaluate({"x1": 1})


def test_evaluate_paper_point():
    xm1 = P({(-1, -3): 1, (1, -3): 3, (3, -3): 3, (5, -3): 1, (-1, 0): 1})
    assert xm1.evaluate((1, 1)) == 9


# ---------------------------------------------------------------------------
# predicates and extraction

def test_is_positive():
    assert P({(0, -1): 1, (2, -1): 1}).is_positive()
    assert not (x1() - x2()).is_positive()
    assert LaurentPolynomial.zero(X).is_positive()  # vacuous by convention


def test_denominator_exponents():
    xm1 = P({(-1, -3): 1, (1, -3): 3, (3, -3): 3, (5, -3): 1, (-1, 0): 1})
    assert xm1.denominator_exponents() == (1, 3)
    assert x1().denominator_exponents() == (0, 0)
    assert P({(-1, 0): 1, (-1, 3): 1}).denominator_exponents() == (1, 0)
    assert P({(-1, 0): 1, (-1, 3): 1}).min_exponents() == (-1, 0)
    assert x1().min_exponents() == (1, 0)
    with pytest.raises(ValueError):
        LaurentPolynomial.zero(X).denominator_exponents()


# ---------------------------------------------------------------------------
# printing

def test_str_fraction_form():
    xm1 = P({(-1, -3): 1, (1, -3): 3, (3, -3): 3, (5, -3): 1, (-1, 0): 1})
    assert str(xm1) == "(1 + 3*x1^2 + 3*x1^4 + x1^6 + x2^3) / (x1*x2^3)"


def test_str_single_variable_denominator():
    assert str(P({(-1, 0): 1, (-1, 3): 1})) == "(1 + x2^3) / x1"


def test_str_plain_polynomial_and_monomials():
    assert str(LaurentPolynomial.zero(X)) == "0"
    assert str(x1()) == "x1"
    assert str(P({(1, 0): 2})) == "2*x1"
    assert str(P({(0, -1): 2})) == "2 / x2"
    assert str(x1() - x2()) == "x1 - x2"
    assert str(P({(0, 0): -1, (1, 0): 1})) == "-1 + x1"


# ---------------------------------------------------------------------------
# serialization

def test_json_schema_and_order():
    p = P({(0, 3): 2, (-1, 0): 1, (0, -2): 5})
    d = p.to_json_dict()
    assert d["variables"] == ["x1", "x2"]
    assert d["terms"] == [
        {"exponents": [-1, 0], "coefficient": "1"},
        {"exponents": [0, -2], "coefficient": "5"},
        {"exponents": [0, 3], "coefficient": "2"},
    ]
    assert LaurentPolynomial.from_json_dict(json.loads(json.dumps(d))) == p


def test_json_big_coefficient_survives():
    p = P({(0, 0): 10 ** 80})
    assert LaurentPolynomial.from_json_dict(p.to_json_dict()) == p


def test_from_json_rejects_duplicates():
    with pytest.raises(ValueError):
        LaurentPolynomial.from_json_dict(
            {
                "variables": ["x1", "x2"],
                "terms": [
                    {"exponents": [0, 0], "coefficient": "1"},
                    {"exponents": [0, 0], "coefficient": "2"},
                ],
            }
        )


# ---------------------------------------------------------------------------
# property-based checks

coeffs = st.integers(-9, 9).filter(lambda n: n != 0)
exps = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def polys(draw, max_terms=6, positive=False):
    n = draw(st.integers(0, max_terms))
    c = st.integers(1, 9) if positive else coeffs
    return LaurentPolynomial(X, {draw(exps): draw(c) for _ in range(n)})


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# a bool is an int: it is stored as 1 and written as the number
@given(polys())
@example(LaurentPolynomial(X, {(True, 0): True}))
@example(LaurentPolynomial.constant(X, True))
def test_json_roundtrip(p):
    d = json.loads(json.dumps(p.to_json_dict()))
    assert LaurentPolynomial.from_json_dict(d) == p


# names with a quote, a backslash or non-ASCII text need JSON escapes
json_names = st.sampled_from(['"', "\\", "é", "x\u2603", "a\"b\\c"]) | st.text(
    min_size=1, max_size=3
)
json_coeffs = st.integers(-9, 9) | st.integers(-(10 ** 60), 10 ** 60)


@st.composite
def json_polys(draw):
    arity = draw(st.integers(1, 3))
    names = draw(st.lists(json_names, min_size=arity, max_size=arity, unique=True))
    exponents = st.tuples(*[st.integers(-5, 5)] * arity)
    terms = draw(st.dictionaries(exponents, json_coeffs, max_size=8))
    return LaurentPolynomial(VariableContext(names), terms)


@given(json_polys())
@example(LaurentPolynomial.zero(VariableContext(['"', "\\", "é"])))
@example(LaurentPolynomial(X, {(True, 0): True}))
def test_to_json_matches_the_reference(p):
    text = p.to_json()
    assert text == json.dumps(p.to_json_dict(), sort_keys=True)
    assert LaurentPolynomial.from_json_dict(json.loads(text)) == p


@given(polys(), polys(), st.integers(1, 5), st.integers(1, 5))
def test_evaluate_is_homomorphic(a, b, v1, v2):
    pt = (Fraction(v1), Fraction(v2, 3))
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


@given(polys(), polys())
def test_specialize_is_homomorphic(a, b):
    y = VariableContext(("y1", "y2", "y3"))
    images = {
        "x1": LaurentPolynomial.monomial(y, (1, -1, 0)),
        "x2": LaurentPolynomial.monomial(y, (0, 2, 1)),
    }
    f = lambda p: p.specialize(y, images)
    assert f(a * b) == f(a) * f(b)
    assert f(a + b) == f(a) + f(b)


@given(polys())
def test_permute_is_involutive_automorphism(p):
    swap = {"x1": "x2", "x2": "x1"}
    assert p.permute_variables(swap).permute_variables(swap) == p


# The exchange-step kernel _packed.positive_exact_div(base, den, e) returns
# (base**e + 1) / den or None; rank2 calls it on every computed step, and
# here it runs directly on small inputs.

@st.composite
def positive_term_dicts(draw, max_terms=5):
    n = draw(st.integers(1, max_terms))
    return {draw(exps): draw(st.integers(1, 50)) for _ in range(n)}


def _convolve(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = (ea[0] + eb[0], ea[1] + eb[1])
            out[key] = out.get(key, 0) + ca * cb
    return out


def _step_numerator(base, e):
    """base**e + 1 by repeated sparse convolution."""
    out = {(0, 0): 1}
    for _ in range(e):
        out = _convolve(out, base)
    out[0, 0] = out.get((0, 0), 0) + 1
    return out


def _monomial_quotient(num, mono):
    (m, c), = mono.items()
    return {(x[0] - m[0], x[1] - m[1]): v // c for x, v in num.items()}


# coefficients of 18-20 and 37-39 digits put slot edges on both sides of
# libmpdec's 19-digit words
wide_coefficients = (st.integers(18, 20) | st.integers(37, 39)).flatmap(
    lambda d: st.integers(10 ** (d - 1), 10**d - 1)
)


@st.composite
def wide_term_dicts(draw, max_terms=5):
    n = draw(st.integers(1, max_terms))
    return {draw(exps): draw(wide_coefficients) for _ in range(n)}


@given(positive_term_dicts(), positive_term_dicts(), st.integers(2, 50))
@settings(max_examples=200)
def test_packed_div_recovers_factor(a, b, lift):
    # base = a*b - 1 is positive once a*b has a constant term of at least
    # 2, so (base + 1) / b == a is an exact step with e = 1
    a, b = {**a, (0, 0): 1}, {**b, (0, 0): lift}
    base = _convolve(a, b)
    base[0, 0] -= 1
    assert _packed.positive_exact_div(base, b, 1) == a


@given(positive_term_dicts(), positive_term_dicts(), st.integers(1, 3))
@settings(max_examples=200)
def test_packed_div_never_lies(base, den, e):
    got = _packed.positive_exact_div(base, den, e)
    if got is not None:
        assert _convolve(got, den) == _step_numerator(base, e)


# every dict of 1-2 coefficient-1 terms in [-1, 1]^2: on these, wrapped
# quotients that only the support condition rejects turn up, which random
# draws over wider boxes and larger coefficients almost never hit
_UNIT_DICTS = [
    dict.fromkeys(points, 1)
    for n in (1, 2)
    for points in itertools.combinations(itertools.product((-1, 0, 1), repeat=2), n)
]


def test_packed_div_never_lies_on_small_unit_grid():
    for base, den, e in itertools.product(_UNIT_DICTS, _UNIT_DICTS, (1, 2)):
        got = _packed.positive_exact_div(base, den, e)
        if got is not None:
            assert _convolve(got, den) == _step_numerator(base, e), (base, den, e)


def _value_mod(terms, point, p):
    """The Laurent polynomial `terms` at a point of (F_p^*)^2."""
    return sum(c * pow(point[0], a, p) * pow(point[1], b, p) for (a, b), c in terms.items()) % p


@pytest.mark.parametrize(
    "base,den,e",
    [
        # (x1^2/x2 + 1) / ((x2 + 1)/x1) is no Laurent polynomial, but
        # the packed integers divide exactly: a quotient slot times the
        # divisor wraps past the box into the numerator's slots
        ({(2, -1): 1}, {(-1, 1): 1, (-1, 0): 1}, 1),
        ({(-2, 0): 3, (-2, 2): 2}, {(-1, -2): 1, (-1, 0): 1}, 2),
        # the wrapped quotient x2**2 passes the no-carry check, 1 * 2 == 1 + 1
        ({(-1, 1): 1}, {(-1, -1): 1, (-1, 0): 1}, 1),
    ],
)
def test_packed_div_certifies_the_quotient_support(base, den, e):
    assert _packed.positive_exact_div(base, den, e) is None
    # no quotient exists: a multiple of the divisor vanishes wherever the
    # divisor does, and at some point of (F_5^*)^2 the numerator does not
    # (the first at (2, -1), where the divisor is 0 and the numerator -3,
    # the second at (1, 2), where they are 0 and 2 mod 5, the third at
    # (2, -1), where they are 0 and 3 mod 5)
    num = _step_numerator(base, e)
    assert any(
        _value_mod(den, point, 5) == 0 and _value_mod(num, point, 5) != 0
        for point in itertools.product(range(1, 5), repeat=2)
    )


# each packed quotient q of a recurrence step is checked against the
# sparse ring: q * x_{k-1} == x_k^e + 1 in an integral domain proves q
@pytest.mark.parametrize("b,c", [(b, c) for b in range(1, 5) for c in range(1, 5)])
def test_packed_step_matches_sparse_step(b, c):
    last = 8 if b * c <= 6 else 7 if b * c <= 9 else 6
    prev, cur = x1(), x2()
    for j in range(2, last):
        e = b if j % 2 else c
        got = _packed.positive_exact_div(dict(cur.terms), dict(prev.terms), e)
        assert got is not None, (b, c, j + 1)
        nxt = LaurentPolynomial(X, got)
        assert nxt * prev == LaurentPolynomial(X, _step_numerator(cur.terms, e)), (b, c, j + 1)
        prev, cur = cur, nxt


@pytest.mark.parametrize("kernel", [_packed.positive_exact_div])
@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("bad", [0, -1])
def test_packed_kernels_decline_non_positive_coefficients(kernel, side, bad):
    # the no-carry check only holds for positive terms: with a -1 the digits
    # of a packed power or quotient no longer read back as coefficients
    operands = [{(0, 0): 1, (1, 0): 2}, {(0, 0): 1, (1, 0): 1}]
    operands[side] = {**operands[side], (0, 0): bad}
    for e in (1, 2):
        assert kernel(*operands, e) is None


# (_MIN_BLOCK_DIGITS, _NEWTON_DIGITS): the real ones; blocks as short as
# the divisor, so small inputs take the multi-block path too, with the
# reciprocal from one division; and both small, so that path builds the
# reciprocal by Newton's iteration on Decimal
_THRESHOLDS = [
    (_packed._MIN_BLOCK_DIGITS, _packed._NEWTON_DIGITS),
    (1, _packed._NEWTON_DIGITS),
    (1, 4),
]


def _thresholds(min_block, newton_digits):
    return mock.patch.multiple(
        _packed, _MIN_BLOCK_DIGITS=min_block, _NEWTON_DIGITS=newton_digits
    )


@given(
    wide_term_dicts(),
    exps,
    st.integers(1, 3),
    st.booleans(),
    st.sampled_from(_THRESHOLDS),
)
@settings(max_examples=200)
def test_packed_kernels_across_word_boundaries(base, corner, e, by_monomial, thresholds):
    num = _step_numerator(base, e)
    if by_monomial:
        den, quot = {corner: 1}, _monomial_quotient(num, {corner: 1})
    else:
        den, quot = num, {(0, 0): 1}
    with _thresholds(*thresholds):
        assert _packed.positive_exact_div(base, den, e) == quot


# int parses and prints the same digit strings as gmpy2's mpz, so with
# _NUM patched to int the kernel runs the gmpy2 arm's code path.  Unlike
# mpz, int applies sys.get_int_max_str_digits() to a whole packed string.
# A 3x3 exponent box for the base, e <= 2, and coefficients of at most 39
# digits keep every string under 4000 digits (at most 25 numerator slots of
# at most 159 digits), below the default limit of 4300.
@st.composite
def int_arm_term_dicts(draw, max_terms=5):
    n = draw(st.integers(1, max_terms))
    exponent = st.tuples(st.integers(0, 2), st.integers(0, 2))
    coefficient = st.integers(1, 50) | wide_coefficients
    return {draw(exponent): draw(coefficient) for _ in range(n)}


@given(
    int_arm_term_dicts(),
    positive_term_dicts(max_terms=1),
    st.integers(1, 2),
    st.sampled_from([(1024, _packed._NEWTON_DIGITS), *_THRESHOLDS]),
)
@settings(max_examples=200)
def test_packed_kernels_on_the_gmpy2_arm(base, mono, e, thresholds):
    num = _step_numerator(base, e)
    mono = {corner: 1 for corner in mono}
    with mock.patch.object(_packed, "_NUM", int), _thresholds(*thresholds):
        assert _packed.positive_exact_div(base, mono, e) == _monomial_quotient(num, mono)
        assert _packed.positive_exact_div(base, num, e) == {(0, 0): 1}


def test_packed_kernels_ignore_caller_decimal_context():
    base = {(i, j): 10**30 + 7 * i + j for i in range(6) for j in range(5)}
    num = _step_numerator(base, 2)
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        ctx.traps[decimal.Inexact] = True
        ctx.clear_flags()
        before = repr(ctx)
        assert _packed.positive_exact_div(base, num, 2) == {(0, 0): 1}
        assert _packed.positive_exact_div(base, {(1, 1): 1}, 2) == _monomial_quotient(
            num, {(1, 1): 1}
        )
        assert decimal.getcontext() is ctx
        assert repr(ctx) == before


def test_coefficients_past_int_str_limit():
    # a 5001-digit coefficient is past the default int/str conversion
    # limit (4300 digits), so its slot cannot be written as digits: the
    # kernel must give up on size.
    # terms[0, 0] = 2 leaves base[0, 0] = 1, so every base coefficient is
    # positive and the kernel gets as far as its size guards
    terms = {(i, j): i + j + 1 for i in range(30) for j in range(30)}
    terms[0, 0] = 2
    terms[7, 7] = 10**5000 + 7
    small = {(i, 2 * i): i + 1 for i in range(25)}
    base = _convolve(terms, small)
    base[0, 0] -= 1
    assert min(base.values()) >= 1
    with pytest.raises(BudgetExceeded, match="int/str limit"):
        _packed.positive_exact_div(base, small, 1)


# _block_divmod takes a block's quotient from one reciprocal of the divisor
# per step.  It must agree with divmod on both arms of the kernel: Decimal,
# and int standing in for gmpy2's mpz.
_ARMS = [decimal.Decimal, int]


def _reciprocal_divmod(arm, a, pd, bl, offset=0):
    """_block_divmod(a, pd) from the reciprocal 10**(n+bl) // pd + offset."""
    with mock.patch.object(_packed, "_NUM", arm), decimal.localcontext(_packed._EXACT):
        a, pd = arm(a), arm(pd)
        n = _packed._digits(pd)
        assert 10 ** (n - 1) <= pd < 10**n
        recip = _packed._ten(n + bl) // pd + offset
        q, r = _packed._block_divmod(a, pd, n, recip, bl)
    return int(q), int(r)


def _estimate(a, pd, bl, offset=0):
    """_block_divmod's quotient before its correction loop."""
    n = len(str(pd))
    recip = 10 ** (n + bl) // pd + offset
    return a // 10 ** (n - 1) * recip // 10 ** (bl + 1)


def _block_cases():
    for n, bl in itertools.product((1, 2, 7, 23), (1, 4, 30)):
        for pd in (10 ** (n - 1), 10**n - 1, 10 ** (n - 1) + 7 * n if n > 1 else 3):
            for a in (0, 1, pd - 1, pd, pd * 10**bl - 1, pd * (10**bl - 1), pd * 10 ** (bl // 2)):
                yield a, pd, bl


@pytest.mark.parametrize("arm", _ARMS)
def test_block_divmod_matches_divmod(arm):
    below = 0
    for a, pd, bl in _block_cases():
        assert _reciprocal_divmod(arm, a, pd, bl) == divmod(a, pd), (a, pd, bl)
        # the exact reciprocal's estimate is at most 2 below the quotient
        assert 0 <= a // pd - _estimate(a, pd, bl) <= 2
        below += _estimate(a, pd, bl) < a // pd
    # the correction loop ran upward on some of these
    assert below


@pytest.mark.parametrize("arm", _ARMS)
@pytest.mark.parametrize("offset", [-5, -1, 1, 5])
def test_block_divmod_corrects_any_reciprocal(arm, offset):
    # an inexact reciprocal only costs correction steps: a reciprocal too
    # large puts the estimate above the quotient, so the loop runs downward
    above = 0
    for a, pd, bl in _block_cases():
        assert _reciprocal_divmod(arm, a, pd, bl, offset) == divmod(a, pd), (a, pd, bl)
        above += _estimate(a, pd, bl, offset) > a // pd
    assert bool(above) == (offset > 0)


@given(st.integers(1, 60), st.integers(1, 60), st.data())
@settings(max_examples=100)
def test_block_divmod_on_random_blocks(n, bl, data):
    pd = data.draw(st.integers(10 ** (n - 1), 10**n - 1))
    a = data.draw(st.integers(0, pd * 10**bl - 1))
    for arm in _ARMS:
        assert _reciprocal_divmod(arm, a, pd, bl) == divmod(a, pd)


# _reciprocal(pd, n, k) is floor(10**(n+k) / pd) on gmpy2's arm and at
# most one below it on Decimal, where Newton's iteration builds it; with
# _NEWTON_DIGITS patched down the iteration runs on small numbers.
def _reciprocal(arm, pd, k, newton_digits=4):
    with mock.patch.object(_packed, "_NUM", arm), mock.patch.object(
        _packed, "_NEWTON_DIGITS", newton_digits
    ), decimal.localcontext(_packed._EXACT):
        return int(_packed._reciprocal(arm(pd), len(str(pd)), k))


def _divisors(n):
    return st.integers(10 ** (n - 1), 10**n - 1) | st.sampled_from([10 ** (n - 1), 10**n - 1])


@given(st.integers(1, 200), st.integers(1, 200), st.data())
@settings(max_examples=300)
def test_reciprocal_on_the_decimal_arm(n, k, data):
    pd = data.draw(_divisors(n))
    floor = 10 ** (n + k) // pd
    assert floor - 1 <= _reciprocal(decimal.Decimal, pd, k) <= floor


@given(st.integers(1, 200), st.integers(1, 200), st.data())
def test_reciprocal_on_the_gmpy2_arm(n, k, data):
    pd = data.draw(_divisors(n))
    assert _reciprocal(int, pd, k) == 10 ** (n + k) // pd


def test_reciprocal_iterates_on_decimal():
    # precision 200 from a base case at 4 digits: seven Newton levels, at
    # precisions 200, 101, 52, 27, 15, 9 and 6, and one division on
    # gmpy2's arm
    pd = 10**199 + 12345
    for arm, calls in ((decimal.Decimal, 8), (int, 1)):
        with mock.patch.object(_packed, "_reciprocal", wraps=_packed._reciprocal) as spy:
            _reciprocal(arm, pd, 200)
        assert spy.call_count == calls, arm


# the two multi-block steps below run at full size, with the reciprocal
# of the real thresholds: every block's estimate lies within the bound of
# _block_divmod's docstring, and each quotient is checked in the sparse ring
@pytest.mark.parametrize("b,c,k", [(2, 4, 8), (5, 1, 10)])
def test_multi_block_steps_at_full_size(b, c, k):
    t = ExchangeType(b, c)
    prev, cur = cluster_variable(t, k - 2), cluster_variable(t, k - 1)
    e = b if (k - 1) % 2 else c
    corrections = []

    def block_divmod(a, pd, n, recip, bl, inner=_packed._block_divmod):
        q, r = inner(a, pd, n, recip, bl)
        corrections.append(q - _packed._shift(_packed._shift(a, n - 1) * recip, bl + 1))
        return q, r

    with mock.patch.object(_packed, "_block_divmod", block_divmod):
        quot = _packed.positive_exact_div(cur._terms, prev._terms, e)
    assert len(corrections) > 1
    assert all(0 <= step <= 3 for step in corrections), corrections
    num = LaurentPolynomial(X, _step_numerator(cur.terms, e))
    assert LaurentPolynomial(X, quot) * prev == num


def test_packed_div_certifies_at_the_first_width():
    # The kernel divides at a slot one digit wider than any operand or
    # numerator coefficient: 7 digits here, as max_n = 899,992.  A product
    # coefficient bound, 21 * 99,999 * 9 >= 10**7, does not hold there, but
    # no slot of quot * den carries, so the true quotient is certified
    # without a second division.
    den = {(i, 0): 9 for i in range(21)}
    quot = {(0, j): 99_999 for j in range(21)}
    base = _convolve(den, quot)
    base[0, 0] -= 1
    packs = []

    def pack(terms, mins, steps, strides, width, pack=_packed._pack):
        packs.append(width)
        return pack(terms, mins, steps, strides, width)

    with mock.patch.object(_packed, "_pack", pack):
        assert _packed.positive_exact_div(base, den, 1) == quot
    assert packs == [7, 7]


def test_packed_div_certifies_with_the_smallest_carry_bound():
    # The (5,1) x_11 step divides x_10 + 1 (1,591 terms) by x_9 (136
    # terms) at 32-digit slots, packing each operand once.
    t = ExchangeType(5, 1)
    base, den = cluster_variable(t, 10)._terms, cluster_variable(t, 9)._terms
    packs = []

    def pack(terms, mins, steps, strides, width, pack=_packed._pack):
        packs.append(width)
        return pack(terms, mins, steps, strides, width)

    with mock.patch.object(_packed, "_pack", pack):
        quot = _packed.positive_exact_div(base, den, 1)
    assert packs == [32, 32]
    assert quot == cluster_variable(t, 11)._terms


def test_packed_div_declines_a_carried_quotient():
    # (x2/x1 + 1) / 2 packs at 1-digit slots as 110 / 2 = 55, an exact
    # division whose quotient {(-1, 0): 5, (-1, 1): 5} fits the box; but
    # each 5 * 2 carries into the next slot, and at x = (1, 1) the
    # quotient's 10 * 2 differs from the numerator's 2
    assert _packed.positive_exact_div({(-1, 1): 1}, {(0, 0): 2}, 1) is None
