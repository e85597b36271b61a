"""Packed big-number kernels for arithmetic on positive sparse polynomials.

A polynomial with positive integer coefficients can be evaluated into one
huge integer by laying its coefficient box out in base 10**w, a
multivariate Kronecker substitution: each slot of the box is w decimal
digits.  Products and exact quotients of such integers recover the
polynomial operations as long as no convolution sum ever reaches the slot
modulus; positivity makes the required slot width cheap to bound ahead of
time, which turns this from a heuristic into a proof.  Recurrence sweeps
spend nearly all their time in dense positive products and quotients, so
routing them through a subquadratic big-number library is worth the
bookkeeping.

The packed numbers are ``gmpy2.mpz`` when gmpy2 is importable and
``decimal.Decimal`` otherwise.  CPython's ``decimal`` is libmpdec, which
multiplies by number-theoretic transform and divides by Newton iteration,
where CPython's own ``int`` divides in quadratic time.  Both types parse
and print base-10 digit strings, so one decimal packing serves both.
Decimal arithmetic runs under ``_EXACT``, a context that traps every
rounding, entered locally so the caller's context is neither read nor
changed.

Entry points take any term dicts and return plain exponent-tuple ->
coefficient dicts, or None when they cannot establish their answer: an
operand with a coefficient <= 0, which the carry bound does not cover, or
a packing past the memory budget or the interpreter's int/str conversion
limit.  Callers must treat None as "fall back to the generic sparse
algorithm", never as a divisibility verdict.  ``positive_mul`` results are
always exact; ``positive_exact_div`` certifies the quotient with a
carry-bound argument before returning it, so an accidental integer
divisibility can never leak through as a wrong polynomial quotient.

The slot bookkeeping is plain Python over the digit strings: terms become
(slot, coefficient) pairs written into a digit buffer, and results are
read back by slicing their decimal string from the right, one slot at a
time.
"""

from __future__ import annotations

import decimal
import sys
from math import gcd

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
# Operations that would exceed it return None instead of thrashing memory.
MEMORY_CAP = 1_500_000_000

# Floor on the block length of the long division, in digits.  Blocks this
# short need little scratch space, and every block pays for the divisor's
# reciprocal again, so shorter blocks would only add calls.
_MIN_BLOCK_DIGITS = 1 << 16

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


def _geometry(sizes: list[int], bound: int) -> tuple[int, list[int]] | None:
    """Slot width and box strides for a box of `sizes` slots, or None.

    The width is the decimal digit count of `bound`, so 10**width > bound.
    It is sized from the bit length, since str(bound) itself may be past
    the interpreter's int/str conversion limit.  None when a slot would be
    past that limit, where the coefficients could not be written or read,
    or when the packed digits would exceed MEMORY_CAP.
    """
    # 0.30103 > log10(2), so this is at least the digit count of
    # 2**(bit_length-1) <= bound, and at most one below that of bound
    width = (bound.bit_length() - 1) * 30103 // 100000 + 1
    if 10 ** width <= bound:
        width += 1
    limit = _max_str_digits()
    strides = []
    total = 1
    for s in reversed(sizes):
        strides.append(total)
        total *= s
    if limit and width > limit or total * width > MEMORY_CAP:
        return None
    return width, strides[::-1]


def _layout(terms: dict, mins, steps, strides) -> list[tuple[int, int]]:
    """(box slot, coefficient) of every term of `terms`.

    Precondition: every coordinate (e[i]-mins[i])//steps[i] fits inside
    the box described by `strides`.
    """
    return [
        (sum((e[i] - mins[i]) // steps[i] * s for i, s in enumerate(strides)), c)
        for e, c in terms.items()
    ]


def _digits(pairs, lo: int, hi: int, width: int) -> str:
    """Decimal digits of slots lo..hi-1, most significant first.

    `pairs` are the (slot, coefficient) pairs inside [lo, hi); every
    coefficient has at most `width` digits.
    """
    end = (hi - lo) * width
    buf = bytearray(b"0") * end
    for slot, c in pairs:
        digits = str(c).encode("ascii")
        stop = end - (slot - lo) * width
        buf[stop - len(digits):stop] = digits
    return buf.decode("ascii")


def _pack(terms: dict, mins, steps, strides, width: int):
    """The packed number of `terms`, with slot 0 least significant."""
    pairs = _layout(terms, mins, steps, strides)
    return _NUM(_digits(pairs, 0, max(pairs)[0] + 1, width))


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


def positive_mul(a: dict, b: dict) -> dict | None:
    """Product of two positive term dicts, or None if it cannot be packed.

    None means a coefficient <= 0, over the memory cap, or a slot past the
    int/str conversion limit.  A non-None result is exact: the slot width
    is chosen from the bound min(|a|,|b|) * max(a) * max(b) on every
    convolution sum of positive terms, so carries cannot cross slot
    boundaries.
    """
    if min(a.values()) <= 0 or min(b.values()) <= 0:
        return None
    mins_a, maxs_a, gs_a = _box(a)
    mins_b, maxs_b, gs_b = _box(b)
    n = len(mins_a)
    steps = [gcd(gs_a[i], gs_b[i]) or 1 for i in range(n)]
    sizes = [
        ((maxs_a[i] - mins_a[i]) + (maxs_b[i] - mins_b[i])) // steps[i] + 1
        for i in range(n)
    ]
    geometry = _geometry(sizes, min(len(a), len(b)) * max(a.values()) * max(b.values()))
    if geometry is None:
        return None
    width, strides = geometry
    with decimal.localcontext(_EXACT):
        pa = _pack(a, mins_a, steps, strides, width)
        if b is a:
            # one pack, and libmpdec squares with three transform buffers
            # where a product of two numbers takes four
            prod = pa * pa
        else:
            prod = pa * _pack(b, mins_b, steps, strides, width)
        del pa
    out: dict = {}
    mins_out = [mins_a[i] + mins_b[i] for i in range(n)]
    _unpack(prod, 0, out, mins_out, steps, sizes, width)
    return out


def positive_exact_div(num: dict, den: dict) -> dict | None:
    """Certified quotient num/den of positive term dicts, or None.

    None covers every unproven case: a coefficient <= 0, divisor support
    not on the numerator lattice, divisor box wider than the numerator
    box, nonzero integer remainder, failed carry-bound certificate, memory
    cap, or a slot past the int/str conversion limit.  When a dict is
    returned, quotient * den == num holds exactly over Z.
    """
    if min(num.values()) <= 0 or min(den.values()) <= 0:
        return None
    mins_n, maxs_n, gs_n = _box(num)
    mins_d, maxs_d, gs_d = _box(den)
    n = len(mins_n)
    steps = [g or 1 for g in gs_n]
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
    geometry = _geometry(sizes, len(den) * max(num.values()) * max_d)
    if geometry is None:
        return None
    width, strides = geometry
    mins_q = [mins_n[i] - mins_d[i] for i in range(n)]
    # Long division by blocks of whole slots, from the top, each block at
    # least as long as the divisor.  The quotient of a block fills exactly
    # the block's slots, and the scratch space of a division follows the
    # block length, not the numerator's.  The top block stops at the
    # numerator's top slot.
    block = max(
        1 + sum((maxs_d[i] - mins_d[i]) // steps[i] * strides[i] for i in range(n)),
        _MIN_BLOCK_DIGITS // width,
    )
    blocks: dict = {}
    for pair in _layout(num, mins_n, steps, strides):
        blocks.setdefault(pair[0] // block, []).append(pair)
    top = max(blocks)
    hi = 1 + max(blocks[top])[0]
    quot: dict = {}
    rem = ""
    with decimal.localcontext(_EXACT):
        pd = _pack(den, mins_d, steps, strides, width)
        for j in range(top, -1, -1):
            lo = j * block
            q, r = divmod(_NUM(rem + _digits(blocks.pop(j, ()), lo, hi, width)), pd)
            _unpack(q, lo, quot, mins_q, steps, sizes, width)
            rem = str(r)
            hi = lo
    if r:
        return None
    # Carry-bound certificate: if every convolution sum of quot*den stays
    # below the slot modulus, base-10**width digits are unique and the
    # integer identity q*pd == pn is the polynomial identity.  A true
    # quotient always passes (its coefficients are bounded by max_n, by
    # pairing against the divisor's minimal corner).  A zero remainder on
    # a nonzero numerator leaves a nonzero quotient, so quot has terms.
    if min(len(quot), len(den)) * max(quot.values()) * max_d >= 10 ** width:
        return None
    return quot
