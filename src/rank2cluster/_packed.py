"""The exchange step (base**e + 1) / den as one packed big-number kernel.

A polynomial with positive integer coefficients can be evaluated into one
huge integer by laying its coefficient box out in base 10**w, a
multivariate Kronecker substitution: each slot of the box is w decimal
digits.  Powers and exact quotients of such integers recover the
polynomial operations as long as no convolution sum ever reaches the slot
modulus; positivity makes that cheap to check on the quotient actually
found, which turns this from a heuristic into a proof.  The check holds
for the positive polynomials of the exchange recurrence
x_{k+1} = (x_k**e + 1) / x_{k-1}, not for a general ring element, so the
packing serves that one step: ``positive_exact_div`` packs x_k and x_{k-1}
once each, raises the packed base to the e-th power, adds the constant
slot, divides, and unpacks only the quotient.  Recurrence sweeps spend
nearly all their time in these steps, so running them on a subquadratic
big-number library is worth the bookkeeping.

The packed numbers are ``gmpy2.mpz`` when gmpy2 is importable and
``decimal.Decimal`` otherwise.  CPython's ``decimal`` is libmpdec, which
multiplies by number-theoretic transform and divides by Newton iteration,
where CPython's own ``int`` divides in quadratic time.  Both types parse
and print base-10 digit strings, so one decimal packing serves both.
Decimal arithmetic runs under ``_EXACT``, a context that traps every
rounding, entered locally so the caller's context is neither read nor
changed.

The kernel takes term dicts and returns a plain exponent-tuple ->
coefficient dict, or None when it cannot prove its answer: an operand
with a coefficient <= 0, which the certificate does not cover, a divisor
off the numerator's lattice or box, a nonzero remainder, or a failed
certificate.  Callers must treat None as "not proven", never as a
divisibility verdict.  Along the recurrence every x_k is a positive
Laurent polynomial, so none of these cases arises there, and ``rank2``
reports a None as inconclusive.  A packing past MEMORY_CAP or a slot past
the interpreter's int/str conversion limit raises BudgetExceeded.  The
slots are one digit wider than any operand or numerator coefficient, and
the quotient found is certified before it is returned: quotient *
divisor must stay inside the numerator's box, and at x = (1, 1) it must
equal base**e + 1.  With no coefficient negative, a carry between slots
lowers the digit total, so the equality holds exactly when no slot
carried, and an accidental integer divisibility can never leak through
as a wrong polynomial quotient.

The slot bookkeeping is plain Python over digit strings: terms are
written into a digit buffer at their slots, and the quotient is read back
by slicing its decimal string from the right, one slot at a time.  The
numerator is never written out as digits: the long division cuts its
blocks off the packed power by powers of ten.  A numerator of one block
is divided by one divmod; a longer one pays for one reciprocal of the
divisor per step (``_reciprocal``: GMP's division on gmpy2, Newton's
iteration from products on Decimal, exact or one unit low), and each
block takes its quotient from two products with it (``_block_divmod``).
With a deadline, the clock is read before each block.
"""

from __future__ import annotations

import decimal
import sys
import time
from math import gcd

from .report import BudgetExceeded

try:
    from gmpy2 import mpz
except ImportError:
    mpz = int

# The packed number type: gmpy2's when present, else libmpdec's Decimal
# (CPython's int would be exact too, but its division is quadratic).
_NUM = decimal.Decimal if mpz is int else mpz

# Exact integer arithmetic in Decimal: the largest precision and exponent
# range, with Inexact and Rounded trapped so a rounding raises instead of
# passing silently.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[
        decimal.InvalidOperation,
        decimal.DivisionByZero,
        decimal.Overflow,
        decimal.Inexact,
        decimal.Rounded,
    ],
)

# Largest pack buffer we are willing to build, in bytes (one per digit).
# Steps that would exceed it raise BudgetExceeded instead of thrashing
# memory.  The guard judges the wide slot width, which the kernel never
# builds: it packs at the narrow width, at most as wide.
MEMORY_CAP = 1_500_000_000

# Floor on the block length of the long division, in digits.  Blocks this
# short need little scratch space, and each block costs two products and
# a correction, so shorter blocks would only add calls.
_MIN_BLOCK_DIGITS = 1 << 16

# Precision, in digits, at or below which the Decimal arm's reciprocal is
# one libmpdec division (there its schoolbook division beats Newton's
# products); above it, Newton's iteration builds the reciprocal.  At least
# 3, so that each Newton level halves a precision k > 3.
_NEWTON_DIGITS = 1 << 12

# Python 3.10 releases before 3.10.7 have no limit on int/str conversion.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _box(terms: dict) -> tuple[list[int], list[int], list[int]]:
    """Per-axis support data of a term dict.

    Returns (mins, maxs, gs) where gs[i] is the gcd of all offsets from
    mins[i]; 0 means the axis is constant.
    """
    exps = list(terms)
    n = len(exps[0])
    mins = [min(e[i] for e in exps) for i in range(n)]
    maxs = [max(e[i] for e in exps) for i in range(n)]
    gs = [0] * n
    for i in range(n):
        g = 0
        m = mins[i]
        for e in exps:
            g = gcd(g, e[i] - m)
            if g == 1:
                break
        gs[i] = g
    return mins, maxs, gs


def _width(bound: int) -> int:
    """The decimal digit count of `bound` > 0, rarely one more.

    So 10**width > bound.  It is sized from the bit length, since
    str(bound) itself may be past the interpreter's int/str conversion
    limit.
    """
    # 0.30103 > log10(2), so this is at least the digit count of
    # 2**(bit_length-1) <= bound, and at most one below that of bound
    width = (bound.bit_length() - 1) * 30103 // 100000 + 1
    if 10 ** width <= bound:
        width += 1
    return width


def _show(n: int) -> str:
    """str(n) for n > 0, or its size in digits past the int/str conversion limit."""
    try:
        return str(n)
    except ValueError:
        return f"({_width(n)} digits)"


def _geometry(sizes: list[int], width: int) -> list[int]:
    """Box strides for a box of `sizes` slots of `width` digits.

    Raises BudgetExceeded when a slot would be past the interpreter's
    int/str conversion limit, where the coefficients could not be written
    or read, or when the packed digits would exceed MEMORY_CAP.
    """
    limit = _max_str_digits()
    if limit and width > limit:
        raise BudgetExceeded(f"slot width {width} digits is past the int/str limit {limit}")
    strides = []
    total = 1
    for s in reversed(sizes):
        strides.append(total)
        total *= s
    if total * width > MEMORY_CAP:
        raise BudgetExceeded(
            f"{total} slots of {width} digits is {total * width} digits, "
            f"past MEMORY_CAP {MEMORY_CAP}"
        )
    return strides[::-1]


def _slot(exps, mins, steps, strides) -> int:
    """Box slot of the exponent vector `exps`; slot 0 is at `mins`."""
    return sum((x - m) // s * t for x, m, s, t in zip(exps, mins, steps, strides))


def _pack(terms: dict, mins, steps, strides, width: int):
    """The packed number of `terms`, with slot 0 least significant.

    Precondition: every term lies inside the box described by `strides`,
    and every coefficient has at most `width` digits.
    """
    pairs = [(_slot(e, mins, steps, strides), c) for e, c in terms.items()]
    end = (max(pairs)[0] + 1) * width
    buf = bytearray(b"0") * end
    for slot, c in pairs:
        digits = str(c).encode("ascii")
        stop = end - slot * width
        buf[stop - len(digits):stop] = digits
    return _NUM(buf.decode("ascii"))


def _unpack(value, low: int, out: dict, mins, steps, sizes, width: int) -> None:
    """Add to `out` the nonzero slots of `value`, whose slot 0 is `low`."""
    digits = str(value)
    n = len(sizes)
    slot = low
    for stop in range(len(digits), 0, -width):
        c = int(digits[max(stop - width, 0):stop])
        if c:
            e = [0] * n
            rest = slot
            for i in range(n - 1, -1, -1):
                rest, q = divmod(rest, sizes[i])
                e[i] = mins[i] + steps[i] * q
            out[tuple(e)] = c
        slot += 1


def _ten(digits: int):
    """10**digits as a packed number; in Decimal a one-word coefficient."""
    if _NUM is decimal.Decimal:
        return decimal.Decimal((0, (1,), digits))
    return _NUM(10) ** digits


def _shift(value, digits: int):
    """value // 10**digits for value >= 0, in Decimal by moving the exponent.

    libmpdec divides by a power of ten as by any other number; truncating
    the scaled value takes linear time instead.
    """
    if _NUM is not decimal.Decimal:
        return value // _ten(digits)
    return value.scaleb(-digits).to_integral_value(rounding=decimal.ROUND_DOWN)


def _split(value, digits: int):
    """divmod(value, 10**digits) for value >= 0, in linear time in Decimal."""
    high = _shift(value, digits)
    return high, value - high * _ten(digits)


def _digits(value) -> int:
    """Decimal digit count of the packed number value > 0."""
    if _NUM is decimal.Decimal:
        return value.adjusted() + 1
    n = _width(value)
    return n - (value < _ten(n - 1))


def _reciprocal(pd, n: int, k: int):
    """floor(10**(n+k) / pd) or one less, for 10**(n-1) <= pd <= 10**n.

    On gmpy2's mpz it is the floor itself: GMP divides in subquadratic
    time, while Newton's iteration there would pay a division for every
    shift.  On Decimal, where libmpdec's division costs 5 to 7 products of
    the same size, it is built from products by Newton's iteration (Brent
    and Zimmermann, Modern Computer Arithmetic, the section on reciprocal
    and division).  With R = 10**(n+k) / pd, the Decimal result satisfies
    R - 2 < result <= R.  Every approximation is from below, so the error
    term of each level is never negative:
    - When pd has more than k + 4 digits, it is cut to its top m = k + 4
      by T = ceil(pd / 10**s), s = n - m.  Then 10**(m-1) <= T <= 10**m,
      and 10**(m+k) / T lies below R by less than 10**(m+k) /
      10**(2(m-1)) = 1/100.
    - When k or the digit count is at most _NEWTON_DIGITS, the result is
      the floor from one division, less than 1 below R.
    - Otherwise r, the result at precision h = ceil((k+2)/2), is below
      R_h = 10**(n+h) / pd by less than 2, so e = 10**(n+h) - pd*r =
      pd*(R_h - r) >= 0, and the Newton step r*10**(k-h)*(1 + e/10**(n+h))
      is below R by pd*10**(k-n-2h)*(R_h - r)**2 < 4/100.  It is computed
      with e cut to its digits above 10**u, which loses less than
      r*10**u / 10**(n+2h-k) <= 1/100, and floored, which loses less
      than 1.
    Each level thus loses less than 1/100 + 4/100 + 1/100 + 1 < 2.  A
    Newton level costs the products pd*r and r*e, of about (k+4) x h and
    h x h digits.
    """
    if _NUM is decimal.Decimal:
        if n > k + 4:
            s = n - k - 4
            pd = _shift(pd - 1, s) + 1
            n -= s
        if min(n, k) > _NEWTON_DIGITS:
            h = (k + 3) // 2
            r = _reciprocal(pd, n, h)
            e = _ten(n + h) - pd * r
            u = max(n + h - k - 3, 0)
            return r * _ten(k - h) + _shift(r * _shift(e, u), n + 2 * h - k - u)
    return _ten(n + k) // pd


def _block_divmod(a, pd, n: int, recip, bl: int):
    """divmod(a, pd) for 0 <= a < pd * 10**bl, where pd has n digits.

    The quotient is estimated as floor(floor(a / 10**(n-1)) * recip /
    10**(bl+1)) and corrected by its exact remainder, so the result is
    exact for any `recip`.  With recip = 10**(n+bl) // pd the estimate is
    never above the quotient and at most 2 below it; with the reciprocal
    of ``_reciprocal``, at most one less (Newton's iteration on Decimal),
    it is at most 3 below.  So the block costs two products and the
    shifts, where a divmod would also compute a reciprocal of pd.
    """
    q = _shift(_shift(a, n - 1) * recip, bl + 1)
    r = a - q * pd
    while r < 0:
        q -= 1
        r += pd
    while r >= pd:
        q += 1
        r -= pd
    return q, r


def positive_exact_div(
    base: dict, den: dict, e: int, deadline: float | None = None
) -> dict | None:
    """Certified quotient (base**e + 1) / den of positive term dicts, or None.

    None means "not proven" and covers every such case: a coefficient
    <= 0, divisor support not on the numerator lattice, divisor box wider
    than the numerator box, nonzero integer remainder, or a failed
    certificate (quotient * den leaving the numerator box, or its value at
    x = (1, 1) differing from base**e + 1's, which means a slot carried).
    A packing past MEMORY_CAP or a slot past the int/str conversion limit
    raises BudgetExceeded before anything is packed.  When a dict is
    returned, quotient * den == base**e + 1 holds exactly over Z.

    With a `deadline` (a time.monotonic() value), the clock is read before
    each block of the long division, and a step found past it raises
    BudgetExceeded naming the block.  The deadline is then overrun by at
    most one power, one reciprocal and one block.  Without one the clock
    is never read.
    """
    if min(base.values()) <= 0 or min(den.values()) <= 0:
        return None
    mins_b, maxs_b, gs_b = _box(base)
    mins_d, maxs_d, gs_d = _box(den)
    n = len(mins_b)
    # base**e spans e times base's box on base's lattice, from e*mins_b;
    # the constant term joins the origin to it
    mins_n = [min(e * m, 0) for m in mins_b]
    maxs_n = [max(e * m, 0) for m in maxs_b]
    steps = [gcd(gs_b[i], e * mins_b[i]) or 1 for i in range(n)]
    for i in range(n):
        # A positive-coefficient multiple has Minkowski-sum support, so the
        # divisor box must embed in the numerator box on its lattice.
        if maxs_d[i] - mins_d[i] > maxs_n[i] - mins_n[i]:
            return None
        # Divisor offsets are multiples of their gcd, so one divisibility
        # check pins the whole support to the numerator lattice.
        if gs_d[i] % steps[i]:
            return None
    sizes = [(maxs_n[i] - mins_n[i]) // steps[i] + 1 for i in range(n)]
    max_d = max(den.values())
    # a coefficient of base**e sums at most len(base)**(e-1) products of e
    # coefficients, so this bounds every numerator coefficient
    max_n = len(base) ** (e - 1) * max(base.values()) ** e + 1
    # The size guards judge `wide`, whose slots would hold every
    # coefficient of quot*den for any quotient of coefficients up to
    # max_n, though no number is packed at it.  The step is packed at
    # `width`, one digit more than any operand or numerator coefficient
    # (or `wide`, if smaller), which packs them all without carries.
    wide = _width(len(den) * max_n * max_d)
    strides = _geometry(sizes, wide)
    width = min(_width(max(max_n, max_d)) + 1, wide)
    mins_q = [mins_n[i] - mins_d[i] for i in range(n)]
    # base**e starts at the slot of e*mins_b, the constant at the origin's
    shift = _slot([e * m for m in mins_b], mins_n, steps, strides)
    one = _slot([0] * n, mins_n, steps, strides)
    top = sizes[0] * strides[0]
    # Long division by blocks of whole slots, from the top, each block at
    # least as long as the divisor.  The quotient of a block fills exactly
    # the block's slots, and the scratch space of a division follows the
    # block length, not the numerator's.
    block = max(1 + _slot(maxs_d, mins_d, steps, strides), _MIN_BLOCK_DIGITS // width)
    blocks = (top - 1) // block + 1
    quot: dict = {}
    rem = 0
    hi = top
    with decimal.localcontext(_EXACT):
        pd = _pack(den, mins_d, steps, strides, width)
        # every slot of the power holds one coefficient of base**e, below
        # the slot modulus, so the power packs base**e without carries
        rest = _pack(base, mins_b, steps, strides, width) ** e
        if shift:
            rest *= _ten(shift * width)
        if blocks > 1:
            # one reciprocal of the divisor serves every block
            bl = block * width
            pd_digits = _digits(pd)
            recip = _reciprocal(pd, pd_digits, bl)
        for i, lo in enumerate(range((blocks - 1) * block, -1, -block), 1):
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceeded(
                    f"time budget exhausted before block {i} of {blocks} of the division"
                )
            part, rest = _split(rest, lo * width)
            if lo <= one < hi:
                part += _ten((one - lo) * width)
            digits = (hi - lo) * width
            part += rem * _ten(digits)
            if blocks == 1:
                q, rem = divmod(part, pd)
            else:
                # the top block may be short: floor(recip / 10**s) is the
                # reciprocal for a block s digits shorter
                r = recip if digits == bl else _shift(recip, bl - digits)
                q, rem = _block_divmod(part, pd, pd_digits, r, digits)
            _unpack(q, lo, quot, mins_q, steps, sizes, width)
            hi = lo
    if rem:
        return None
    # Certificate.  A zero remainder on a nonzero numerator leaves a
    # nonzero quotient, so quot has terms.  If quot*den stays inside the
    # numerator box, no slot wraps into the next row, and then, with Q
    # the packed quotient whose blocks were unpacked into quot:
    # - Q*pd is the packed numerator, and every numerator coefficient is
    #   below 10**width, so its slots hold exactly those coefficients;
    # - Q*pd is also the sum of quot*den's coefficients at their slots,
    #   each >= 0, as den > 0 is checked on entry and quot's coefficients
    #   are digits;
    # - reducing those sums to base-10**width digits lowers their total by
    #   10**width - 1 per carry, so the totals, quot*den and base**e + 1
    #   at x = (1, ..., 1), agree exactly when no slot carried, and then
    #   the integer identity is the polynomial identity.
    # A true quotient fills its slots exactly (its coefficients are at
    # most max_n) and passes both checks.
    if any(max(x[i] for x in quot) + maxs_d[i] > maxs_n[i] for i in range(n)):
        return None
    if sum(quot.values()) * sum(den.values()) != sum(base.values()) ** e + 1:
        return None
    return quot
