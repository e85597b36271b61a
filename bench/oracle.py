"""Independent output oracle for the benchmark.

Nothing here uses the package's Laurent arithmetic.  Polynomials arrive as
plain ``{exponent tuple: int}`` dicts (parsed from the CLI's JSON or read
from a returned polynomial's terms) and are checked by

- evaluating them modulo the prime P at a point of (F_P^*)^n and comparing
  with the exchange recurrence run forward or backward modulo P from the
  same point;
- requiring every coefficient to be positive (the positivity theorem);
- the denominator law of folded characters: the d-vector of x_k, from the
  tropical recurrence, equals the sums of the v- and w-dimensions of the
  module, which are the u-denominators of its unfolded character;
- the finite-type classification for periods, and chi >= 0 for Euler
  characteristics.

Every check returns a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

import random

P = (1 << 61) - 1  # Mersenne prime

FINITE_PERIODS = {1: 5, 2: 6, 3: 8}


def step_exponent(b: int, c: int, j: int) -> int:
    """Exponent e in x_{j-1} x_{j+1} = x_j^e + 1."""
    return b if j % 2 else c


def recurrence_mod_p(b: int, c: int, m: int, k: int, y1: int, y2: int, p: int = P):
    """x_k mod p given x_m = y1 and x_{m+1} = y2, or None on a zero divisor."""
    lo, hi, j = y1 % p, y2 % p, m  # (x_j, x_{j+1})
    while j + 1 < k:  # forward: x_{j+2} = (x_{j+1}^e + 1) / x_j
        if lo == 0:
            return None
        lo, hi = hi, (pow(hi, step_exponent(b, c, j + 1), p) + 1) * pow(lo, -1, p) % p
        j += 1
    while j > k:  # backward: x_{j-1} = (x_j^e + 1) / x_{j+1}
        if hi == 0:
            return None
        lo, hi = (pow(lo, step_exponent(b, c, j), p) + 1) * pow(hi, -1, p) % p, lo
        j -= 1
    return lo if j == k else hi


def evaluate_mod_p(terms: dict, point, p: int = P) -> int:
    total = 0
    for exps, coef in terms.items():
        v = coef % p
        for x, e in zip(point, exps):
            if e:
                v = v * pow(x, e, p) % p
        total += v
    return total % p


def random_point(rng: random.Random, n: int, p: int = P) -> tuple[int, ...]:
    return tuple(rng.randrange(2, p - 1) for _ in range(n))


def nonzero_point(rng: random.Random, b: int, c: int, m: int, k: int, p: int = P):
    """A point (y1, y2) on which the recurrence from m to k never divides by 0."""
    while True:
        y = random_point(rng, 2, p)
        value = recurrence_mod_p(b, c, m, k, y[0], y[1], p)
        if value is not None:
            return y, value


def check_positive(terms: dict, what: str = "polynomial") -> list[str]:
    if not terms:
        return [f"{what} is zero"]
    bad = [(e, c) for e, c in terms.items() if c <= 0]
    if bad:
        return [f"{what} has {len(bad)} non-positive coefficient(s), e.g. {bad[0]}"]
    return []


def check_cluster_expansion(b, c, k, m, terms, rng) -> list[str]:
    """terms claims to be x_k in the cluster (x_m, x_{m+1}) of type (b, c)."""
    point, expected = nonzero_point(rng, b, c, m, k)
    errors = check_positive(terms, f"x_{k} in cluster m={m}")
    if evaluate_mod_p(terms, point) != expected:
        errors.append(
            f"(b,c)=({b},{c}) x_{k} in cluster m={m}: value mod P at {point} "
            f"disagrees with the recurrence"
        )
    return errors


def d_vector(b: int, c: int, k: int) -> tuple[int, int]:
    """Denominator vector of x_k by the tropical recurrence from d_1, d_2."""
    lo, hi, j = (-1, 0), (0, -1), 1  # (d_j, d_{j+1})
    while j + 1 < k:
        e = step_exponent(b, c, j + 1)
        lo, hi = hi, tuple(e * max(h, 0) - x for h, x in zip(hi, lo))
        j += 1
    while j > k:
        e = step_exponent(b, c, j)
        lo, hi = tuple(e * max(x, 0) - h for x, h in zip(lo, hi)), lo
        j -= 1
    return lo if j == k else hi


def denominator(terms: dict) -> tuple[int, ...]:
    n = len(next(iter(terms)))
    return tuple(max(0, -min(e[i] for e in terms)) for i in range(n))


def fold_terms(terms: dict, b: int) -> dict:
    """u_{v_i} -> x1, u_{w_j} -> x2 on an exponent dict."""
    out: dict = {}
    for e, coef in terms.items():
        key = (sum(e[:b]), sum(e[b:]))
        out[key] = out.get(key, 0) + coef
    return {e: coef for e, coef in out.items() if coef}


def check_folded_character(b, c, k, unfolded, folded, rng) -> list[str]:
    """unfolded = X of the object for x_k over the u-variables, folded = pi(X)."""
    errors = check_positive(unfolded, f"X for x_{k}")
    if folded != fold_terms(unfolded, b):
        errors.append(f"(b,c)=({b},{c}) k={k}: folded polynomial is not the fold of X")
    errors += check_cluster_expansion(b, c, k, 1, folded, rng)
    if unfolded:
        dims = denominator(unfolded)
        law = (sum(dims[:b]), sum(dims[b:]))
        tropical = tuple(max(x, 0) for x in d_vector(b, c, k))
        if not folded or denominator(folded) != law or law != tropical:
            errors.append(
                f"(b,c)=({b},{c}) k={k}: denominator law broken: folded "
                f"{denominator(folded) if folded else None}, dimension sums {law}, "
                f"d-vector {tropical}"
            )
    return errors


def swap_variables(terms: dict, i: int, j: int) -> dict:
    out = {}
    for e, coef in terms.items():
        f = list(e)
        f[i], f[j] = f[j], f[i]
        out[tuple(f)] = coef
    return out


def check_triangle(b, c, orbit_class, first, second, factor, rng) -> list[str]:
    """X[s] X[s+1] = prod of the other class's characters + 1, mod P.

    factor is the character of P_{w1}[s] (class v) or P_{v1}[s+1] (class w);
    the other factors are its images under the vertex swaps w1<->wj or
    v1<->vi.
    """
    errors = []
    for name, terms in (("first", first), ("second", second), ("factor", factor)):
        errors += check_positive(terms, f"triangle {name} character")
    point = random_point(rng, b + c)
    lhs = evaluate_mod_p(first, point) * evaluate_mod_p(second, point) % P
    if orbit_class == "v":
        slots = range(b, b + c)
    else:
        slots = range(0, b)
    rhs = 1
    for j in slots:
        image = factor if j == slots[0] else swap_variables(factor, slots[0], j)
        rhs = rhs * evaluate_mod_p(image, point) % P
    if lhs != (rhs + 1) % P:
        errors.append(f"(b,c)=({b},{c}) class {orbit_class}: exchange triangle fails mod P")
    return errors


def check_period(b: int, c: int, max_period: int, answer) -> list[str]:
    expected = FINITE_PERIODS.get(b * c)
    if expected is not None and expected > max_period:
        expected = None
    if answer != expected:
        return [f"period of ({b},{c}) up to {max_period}: got {answer}, expected {expected}"]
    return []


def check_euler(chi) -> list[str]:
    if not isinstance(chi, int) or chi < 0:
        return [f"Euler characteristic {chi!r} is not a non-negative integer"]
    return []
