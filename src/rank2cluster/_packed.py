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

Entry points return plain exponent-tuple -> coefficient dicts, or None
when they cannot establish their answer within the memory budget and the
interpreter's int/str conversion limit.  Callers
must treat None as "fall back to the generic sparse algorithm", never as a
divisibility verdict.  ``positive_mul`` results are always exact;
``positive_exact_div`` certifies the quotient with a carry-bound argument
before returning it, so an accidental integer divisibility can never leak
through as a wrong polynomial quotient.
"""

from __future__ import annotations

import decimal
import sys
from math import gcd

import numpy as np

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


def _strides(sizes: list[int]) -> list[int]:
    out = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        out[i] = out[i + 1] * sizes[i + 1]
    return out


def _slot_width(bound: int) -> int | None:
    """Decimal digits per slot so that 10**width > bound, or None.

    Sized from the bit length, since str(bound) itself may be past the
    interpreter's int/str conversion limit.  None when a slot would be
    past that limit: the coefficients could then not be written or read.
    """
    # 0.30103 > log10(2), so this is at least the digit count of
    # 2**(bit_length-1) <= bound, and at most one below that of bound
    width = (bound.bit_length() - 1) * 30103 // 100000 + 1
    if 10 ** width <= bound:
        width += 1
    limit = _max_str_digits()
    if limit and width > limit:
        return None
    return width


def _layout(terms: dict, mins, steps, strides) -> tuple[list[int], np.ndarray]:
    """Coefficients of `terms` and their box slots, sorted by slot.

    Precondition: every coordinate (e[i]-mins[i])//steps[i] fits inside
    the box described by `strides`.
    """
    slots = np.fromiter(
        (
            sum((e[i] - mins[i]) // steps[i] * s for i, s in enumerate(strides))
            for e in terms
        ),
        dtype=np.int64,
        count=len(terms),
    )
    order = np.argsort(slots)
    coeffs = list(terms.values())
    return [coeffs[i] for i in order.tolist()], slots[order]


def _digits(coeffs, slots, lo: int, hi: int, width: int) -> str:
    """Decimal digits of slots lo..hi-1, most significant first.

    `coeffs` and `slots` are the terms inside [lo, hi); every coefficient
    has at most `width` digits.
    """
    end = (hi - lo) * width
    buf = bytearray(b"0") * end
    for c, slot in zip(coeffs, slots.tolist()):
        digits = str(c).encode("ascii")
        stop = end - (slot - lo) * width
        buf[stop - len(digits):stop] = digits
    return buf.decode("ascii")


def _pack(terms: dict, mins, steps, strides, width: int):
    """The packed number of `terms`, with slot 0 least significant."""
    coeffs, slots = _layout(terms, mins, steps, strides)
    return _NUM(_digits(coeffs, slots, 0, int(slots[-1]) + 1, width))


def _unpack(value, low: int, out: dict, mins, steps, sizes, width: int) -> None:
    """Add to `out` the nonzero slots of `value`, whose slot 0 is `low`."""
    raw = str(value).encode("ascii")
    # str() drops the leading zeros of the top slot, which keeps `head` digits
    head = len(raw) % width
    count = len(raw) // width
    rows = np.frombuffer(raw, dtype=np.uint8, offset=head).reshape(count, width)
    nonzero = np.flatnonzero(rows.max(axis=1) > ord("0")).tolist()
    del rows
    if head and value:
        nonzero.append(-1)
    n = len(sizes)
    for r in nonzero:
        start = head + r * width
        c = int(raw[max(start, 0):start + width])
        e = [0] * n
        slot = low + count - 1 - r
        for i in range(n - 1, -1, -1):
            slot, q = divmod(slot, sizes[i])
            e[i] = mins[i] + steps[i] * q
        out[tuple(e)] = c


def positive_mul(a: dict, b: dict) -> dict | None:
    """Product of two positive term dicts, or None if it cannot be packed.

    None means over the memory cap or a slot past the int/str conversion
    limit.  A non-None result is exact: the slot width is chosen from the
    bound min(|a|,|b|) * max(a) * max(b) on every convolution sum, so
    carries cannot cross slot boundaries.
    """
    mins_a, maxs_a, gs_a = _box(a)
    mins_b, maxs_b, gs_b = _box(b)
    n = len(mins_a)
    steps = [gcd(gs_a[i], gs_b[i]) or 1 for i in range(n)]
    sizes = [
        ((maxs_a[i] - mins_a[i]) + (maxs_b[i] - mins_b[i])) // steps[i] + 1
        for i in range(n)
    ]
    width = _slot_width(min(len(a), len(b)) * max(a.values()) * max(b.values()))
    if width is None:
        return None
    total = 1
    for s in sizes:
        total *= s
    if total * width > MEMORY_CAP:
        return None
    strides = _strides(sizes)
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

    None covers every unproven case: divisor support not on the numerator
    lattice, divisor box wider than the numerator box, nonzero integer
    remainder, failed carry-bound certificate, memory cap, or a slot past
    the int/str conversion limit.  When a dict is returned,
    quotient * den == num holds exactly over Z.
    """
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
    width = _slot_width(len(den) * max(num.values()) * max_d)
    if width is None:
        return None
    total = 1
    for s in sizes:
        total *= s
    if total * width > MEMORY_CAP:
        return None
    strides = _strides(sizes)
    mins_q = [mins_n[i] - mins_d[i] for i in range(n)]
    quot: dict = {}
    coeffs, slots = _layout(num, mins_n, steps, strides)
    with decimal.localcontext(_EXACT):
        pd = _pack(den, mins_d, steps, strides, width)
        # Long division by blocks of whole slots, from the top, each block
        # at least as long as the divisor.  The quotient of a block fills
        # exactly the block's slots, and the scratch space of a division
        # follows the block length, not the numerator's.
        block = max(
            1 + sum((maxs_d[i] - mins_d[i]) // steps[i] * strides[i] for i in range(n)),
            _MIN_BLOCK_DIGITS // width,
        )
        rem = "0"
        for lo in range(int(slots[-1]) // block * block, -1, -block):
            hi = lo + block
            a, b = np.searchsorted(slots, [lo, hi]).tolist()
            q, r = divmod(_NUM(rem + _digits(coeffs[a:b], slots[a:b], lo, hi, width)), pd)
            _unpack(q, lo, quot, mins_q, steps, sizes, width)
            rem = str(r)
    if r:
        return None
    if not quot:
        return None
    # Carry-bound certificate: if every convolution sum of quot*den stays
    # below the slot modulus, base-10**width digits are unique and the
    # integer identity q*pd == pn is the polynomial identity.  A true
    # quotient always passes (its coefficients are bounded by max_n, by
    # pairing against the divisor's minimal corner).
    if min(len(quot), len(den)) * max(quot.values()) * max_d >= 10 ** width:
        return None
    return quot
