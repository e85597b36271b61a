"""Packed big-integer kernels for arithmetic on positive sparse polynomials.

A polynomial with positive integer coefficients can be evaluated into one
huge integer by laying its coefficient box out in base 2**(8*w), a
multivariate Kronecker substitution.  Products and exact quotients of such
integers recover the polynomial operations as long as no convolution sum
ever reaches the slot modulus; positivity makes the required slot width
cheap to bound ahead of time, which turns this from a heuristic into a
proof.  Recurrence sweeps spend nearly all their time in dense positive
products, so routing them through gmpy2 here is worth the bookkeeping.

Entry points return plain exponent-tuple -> coefficient dicts, or None
when they cannot establish their answer within the memory budget.  Callers
must treat None as "fall back to the generic sparse algorithm", never as a
divisibility verdict.  ``positive_mul`` results are always exact;
``positive_exact_div`` certifies the quotient with a carry-bound argument
before returning it, so an accidental integer divisibility can never leak
through as a wrong polynomial quotient.
"""

from __future__ import annotations

from math import gcd

import numpy as np

try:
    from gmpy2 import mpz
except ImportError:
    # same answers, but CPython's big-int divmod is quadratic: one large
    # exact division then takes seconds to minutes instead of milliseconds
    mpz = int

# Largest pack buffer we are willing to build, in bytes.  Operations that
# would exceed it return None instead of thrashing memory.
MEMORY_CAP = 1_500_000_000


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


def _pack(terms: dict, mins, steps, strides, total: int, width: int) -> int:
    # Precondition: every coordinate (e[i]-mins[i])//steps[i] fits inside
    # the box described by `strides`/`total`, and every coefficient fits
    # in `width` bytes.
    buf = bytearray(total * width)
    for e, c in terms.items():
        idx = 0
        for i, s in enumerate(strides):
            idx += ((e[i] - mins[i]) // steps[i]) * s
        off = idx * width
        nb = (c.bit_length() + 7) // 8
        buf[off:off + nb] = c.to_bytes(nb, "little")
    return int.from_bytes(buf, "little")


def _unpack(value, mins, steps, sizes, width: int) -> dict:
    total = 1
    for s in sizes:
        total *= s
    raw = int(value).to_bytes(total * width, "little")
    flags = np.frombuffer(raw, dtype=np.uint8).reshape(total, width).any(axis=1)
    out: dict = {}
    n = len(sizes)
    for idx in np.flatnonzero(flags).tolist():
        c = int.from_bytes(raw[idx * width:(idx + 1) * width], "little")
        e = [0] * n
        rem = idx
        for i in range(n - 1, -1, -1):
            rem, r = divmod(rem, sizes[i])
            e[i] = mins[i] + steps[i] * r
        out[tuple(e)] = c
    return out


def positive_mul(a: dict, b: dict) -> dict | None:
    """Product of two positive term dicts, or None if over the memory cap.

    A non-None result is exact: the slot width is chosen from the bound
    min(|a|,|b|) * max(a) * max(b) on every convolution sum, so carries
    cannot cross slot boundaries.
    """
    mins_a, maxs_a, gs_a = _box(a)
    mins_b, maxs_b, gs_b = _box(b)
    n = len(mins_a)
    steps = [gcd(gs_a[i], gs_b[i]) or 1 for i in range(n)]
    sizes = [
        ((maxs_a[i] - mins_a[i]) + (maxs_b[i] - mins_b[i])) // steps[i] + 1
        for i in range(n)
    ]
    bound = min(len(a), len(b)) * max(a.values()) * max(b.values())
    width = (bound.bit_length() + 7) // 8
    total = 1
    for s in sizes:
        total *= s
    if total * width > MEMORY_CAP:
        return None
    strides = _strides(sizes)
    pa = _pack(a, mins_a, steps, strides, total, width)
    pb = _pack(b, mins_b, steps, strides, total, width)
    prod = mpz(pa) * mpz(pb)
    mins_out = [mins_a[i] + mins_b[i] for i in range(n)]
    return _unpack(prod, mins_out, steps, sizes, width)


def positive_exact_div(num: dict, den: dict) -> dict | None:
    """Certified quotient num/den of positive term dicts, or None.

    None covers every unproven case: divisor support not on the numerator
    lattice, divisor box wider than the numerator box, nonzero integer
    remainder, failed carry-bound certificate, or memory cap.  When a dict
    is returned, quotient * den == num holds exactly over Z.
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
    max_n = max(num.values())
    max_d = max(den.values())
    bound = len(den) * max_n * max_d
    width = (bound.bit_length() + 7) // 8
    total = 1
    for s in sizes:
        total *= s
    if total * width > MEMORY_CAP:
        return None
    strides = _strides(sizes)
    pn = _pack(num, mins_n, steps, strides, total, width)
    pd = _pack(den, mins_d, steps, strides, total, width)
    q, r = divmod(mpz(pn), mpz(pd))
    if r:
        return None
    mins_q = [mins_n[i] - mins_d[i] for i in range(n)]
    quot = _unpack(q, mins_q, steps, sizes, width)
    if not quot:
        return None
    # Carry-bound certificate: if every convolution sum of quot*den stays
    # below the slot modulus, base-2**(8*width) digits are unique and the
    # integer identity q*pd == pn is the polynomial identity.  A true
    # quotient always passes (its coefficients are bounded by max_n, by
    # pairing against the divisor's minimal corner).
    if min(len(quot), len(den)) * max(quot.values()) * max_d >= 1 << (8 * width):
        return None
    return quot
