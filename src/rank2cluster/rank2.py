"""The rank-two exchange recurrence and its verification sweeps.

The variables x_k, k in Z, of the exchange pattern of type (b, c) satisfy

    x_{m-1} x_{m+1} = x_m^b + 1   (m odd)
    x_{m-1} x_{m+1} = x_m^c + 1   (m even)

with seed cluster (x_1, x_2).  Everything here is exact symbolic
computation in the Laurent ring over that seed (or any other cluster), so
positivity and exact divisibility are verified facts, not floating-point
impressions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .laurent import LaurentPolynomial, NotDivisible, VariableContext
from .report import FAIL, INCONCLUSIVE, PASS, CheckReport

X_CONTEXT = VariableContext(("x1", "x2"))
Y_CONTEXT = VariableContext(("y1", "y2"))

SWEEP_CHECKS = ("laurent", "positivity", "denominator")


@dataclass(frozen=True)
class ExchangeType:
    """Exchange pattern parameters; both must be positive integers."""

    b: int
    c: int

    def __post_init__(self):
        for name, value in (("b", self.b), ("c", self.c)):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    @property
    def swapped(self) -> "ExchangeType":
        return ExchangeType(self.c, self.b)


# cluster_variable memo, keyed (b, c, k) with k >= 3: indices k <= 0 are
# served by reflection and never stored.  Entries above the term limit are
# recomputed on demand instead of cached; insert-only, idempotent.
_CACHE: dict[tuple[int, int, int], LaurentPolynomial] = {}
_CACHE_TERM_LIMIT = 500_000

# negated minimal exponent vectors of the seed pair (x_1, x_2)
_SEED_DELTAS = ((-1, 0), (0, -1))


def clear_cache() -> None:
    _CACHE.clear()


def _step_exponent(t: ExchangeType, middle: int) -> int:
    # exponent in the relation x_{middle-1} x_{middle+1} = x_middle^e + 1
    return t.b if middle % 2 else t.c


def _maybe_cache(key: tuple[int, int, int], value: LaurentPolynomial) -> None:
    if len(value) <= _CACHE_TERM_LIMIT:
        _CACHE[key] = value


def cluster_variable(t: ExchangeType, k: int) -> LaurentPolynomial:
    """The element x_k written in the initial cluster (x_1, x_2).

    Iterates the recurrence up from the seed, dividing exactly at every
    step; NotDivisible propagating out of here means an implementation
    bug, since exactness is guaranteed for the pattern.  An index k <= 0
    is the mirror image of x_{3-k} of type (c, b) with x1 and x2 swapped.
    """
    mirrored = k <= 0
    if mirrored:
        t, k = t.swapped, 3 - k
    cur = _CACHE.get((t.b, t.c, k))
    if cur is None:
        prev = LaurentPolynomial.variable(X_CONTEXT, "x1")
        cur = prev if k == 1 else LaurentPolynomial.variable(X_CONTEXT, "x2")
        for j in range(2, k):
            nxt = _CACHE.get((t.b, t.c, j + 1))
            if nxt is None:
                nxt = (cur ** _step_exponent(t, j) + 1).exact_div(prev)
                _maybe_cache((t.b, t.c, j + 1), nxt)
            prev, cur = cur, nxt
    return cur.permute_variables({"x1": "x2", "x2": "x1"}) if mirrored else cur


def expand_in_cluster(t: ExchangeType, k: int, m: int) -> LaurentPolynomial:
    """x_k as a Laurent polynomial in y1 = x_m, y2 = x_{m+1}.

    Running the recurrence from the seed pair at offset m, with the step
    exponent keyed to the parity of the true index, is the same as
    evaluating the standard family at index k - m + 1 for type (b, c) when
    m is odd and type (c, b) when m is even; that reduction shares the
    memo cache across all offsets.
    """
    j = k - m + 1
    base = t if m % 2 else t.swapped
    p = cluster_variable(base, j)
    return LaurentPolynomial._raw(Y_CONTEXT, p._terms)


def d_vector(t: ExchangeType, k: int) -> tuple[int, int]:
    """Denominator exponent pair of x_k over the initial cluster."""
    return cluster_variable(t, k).denominator_exponents()


def _tropical_step(t: ExchangeType, j: int, lo, hi):
    # Negated minimal exponent vectors follow the recurrence tropically:
    # delta_{j+1} = e * max(delta_j, 0) - delta_{j-1}.  Integer-only, so
    # sweep cells are costed and periods ruled out without any polynomial.
    e = _step_exponent(t, j)
    return hi, tuple(e * max(x, 0) - y for x, y in zip(hi, lo))


def _tropical_denominator(t: ExchangeType, k: int) -> tuple[int, int]:
    if k <= 0:
        return _tropical_denominator(t.swapped, 3 - k)[::-1]
    lo, hi = _SEED_DELTAS
    if k == 1:
        return lo
    for j in range(2, k):
        lo, hi = _tropical_step(t, j, lo, hi)
    return hi


def predicted_numerator_terms(t: ExchangeType, k: int) -> int:
    """Upper bound on the numerator support of x_k, from the d-vector alone.

    The numerator support lies on a sublattice with steps (b, c) inside a
    box of extents (b*d2, c*d1), hence at most (d1+1)(d2+1) points.
    """
    delta = _tropical_denominator(t, k)
    d1, d2 = (max(x, 0) for x in delta)
    return (d1 + 1) * (d2 + 1)


def detect_period(t: ExchangeType, max_period: int) -> int | None:
    """Smallest p <= max_period with x_{k+p} = x_k for k in {1, 2}, or None.

    Equal variables have equal minimal exponent vectors, so polynomials are
    compared only where the tropical pair is back at the seed's.  For bc >= 4
    it never is (Fomin-Zelevinsky, Cluster algebras I, section 6).
    """
    if max_period < 1:
        raise ValueError("max_period must be at least 1")
    lo, hi = _SEED_DELTAS
    for p in range(1, max_period + 1):
        lo, hi = _tropical_step(t, p + 1, lo, hi)
        if (lo, hi) == _SEED_DELTAS and all(
            cluster_variable(t, i + p) == cluster_variable(t, i) for i in (1, 2)
        ):
            return p
    return None


def check_positivity_range(
    t: ExchangeType,
    k_min: int,
    k_max: int,
    m_min: int,
    m_max: int,
    checks: tuple[str, ...] = ("laurent", "positivity"),
    budget_seconds: float | None = None,
    max_predicted_terms: int | None = None,
) -> CheckReport:
    """Expand x_k in every cluster (x_m, x_{m+1}) of the grid and check it.

    checks: any subset of "laurent" (every recurrence division exact),
    "positivity" (all coefficients > 0), "denominator" (entries
    nonnegative, and max-norm strictly growing away from the seed when
    bc >= 4).  Failure is recorded with a witness, never raised.

    budget_seconds is checked between cells: cells not started before the
    deadline are reported inconclusive, but a cell started before it runs
    to its end, however long that takes (without gmpy2 a single (2,3)
    x_11 cell runs for minutes).  max_predicted_terms skips cells whose
    numerator support bound exceeds it, also as inconclusive.  Both guards
    keep a sweep honest about what it did not verify.
    """
    for name in checks:
        if name not in SWEEP_CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {SWEEP_CHECKS}")
    if k_min > k_max or m_min > m_max:
        raise ValueError("empty sweep range")
    report = CheckReport(
        f"sweep b={t.b} c={t.c} k in [{k_min},{k_max}] m in [{m_min},{m_max}] "
        f"checks={','.join(checks)}"
    )
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    for m in range(m_min, m_max + 1):
        for k in range(k_min, k_max + 1):
            cell = f"k={k} m={m}"
            if deadline is not None and time.monotonic() > deadline:
                report.add(cell, INCONCLUSIVE, "time budget exhausted before this cell")
                continue
            j = k - m + 1
            base = t if m % 2 else t.swapped
            if max_predicted_terms is not None:
                predicted = predicted_numerator_terms(base, j)
                if predicted > max_predicted_terms:
                    report.add(
                        cell,
                        INCONCLUSIVE,
                        f"skipped: numerator support bound {predicted} exceeds "
                        f"cap {max_predicted_terms}",
                    )
                    continue
            try:
                p = expand_in_cluster(t, k, m)
            except NotDivisible as exc:
                report.add(f"{cell} laurent", FAIL, f"inexact division: {exc}")
                continue
            if "laurent" in checks:
                report.add(f"{cell} laurent", PASS, "all divisions exact")
            if "positivity" in checks:
                if p.is_positive():
                    report.add(f"{cell} positivity", PASS, f"{len(p)} terms")
                else:
                    witness = next(
                        (e, c) for e, c in sorted(p.terms.items()) if c <= 0
                    )
                    report.add(
                        f"{cell} positivity",
                        FAIL,
                        f"coefficient {witness[1]} at exponent {witness[0]}",
                    )
            if "denominator" in checks:
                report.add(*_denominator_item(t, base, j, cell))
    return report


def _denominator_item(t: ExchangeType, base: ExchangeType, j: int, cell: str):
    den = d_vector(base, j)
    if min(den) < 0:
        return f"{cell} denominator", FAIL, f"negative entry in {den}"
    if t.b * t.c >= 4 and (j >= 3 or j <= 0):
        # past the seed pair the max-norm must grow strictly, step by step
        toward_seed = j - 1 if j >= 3 else j + 1
        prev = d_vector(base, toward_seed)
        if max(den) <= max(prev):
            return (
                f"{cell} denominator",
                FAIL,
                f"max-norm {max(den)} did not grow past {max(prev)}",
            )
    return f"{cell} denominator", PASS, f"d-vector {den}"
