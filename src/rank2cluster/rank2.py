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

from . import _packed
from .laurent import LaurentPolynomial, VariableContext
from .report import FAIL, INCONCLUSIVE, PASS, BudgetExceeded, CheckReport, Inconclusive

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


# cluster_variable memo, keyed (b, c, k) with k >= 3.  Entries above the
# term limit are recomputed on demand instead of cached; insert-only,
# idempotent.
_CACHE: dict[tuple[int, int, int], LaurentPolynomial] = {}
_CACHE_TERM_LIMIT = 500_000

# negated minimal exponent vectors of the seed pair (x_1, x_2)
_SEED_DELTAS = ((-1, 0), (0, -1))


def clear_cache() -> None:
    """Empty the recurrence memo."""
    _CACHE.clear()


def _step_exponent(t: ExchangeType, middle: int) -> int:
    # exponent in the relation x_{middle-1} x_{middle+1} = x_middle^e + 1
    return t.b if middle % 2 else t.c


def _maybe_cache(key: tuple[int, int, int], value: LaurentPolynomial) -> None:
    if len(value) <= _CACHE_TERM_LIMIT:
        _CACHE[key] = value


def cluster_variable(
    t: ExchangeType, k: int, deadline: float | None = None
) -> LaurentPolynomial:
    """The element x_k written in the initial cluster (x_1, x_2).

    Iterates the recurrence up from the seed, dividing exactly at every
    step, and each step runs as one certified packed kernel.  Every x_k
    is a positive Laurent polynomial, which is what the kernel's
    certificate needs, so it is expected to answer every step; a step it
    cannot certify raises Inconclusive naming the step, since nothing
    then proves or refutes the quotient.  A step past the kernel's size
    guards (MEMORY_CAP, the int/str conversion limit) raises
    BudgetExceeded.  With a `deadline` (a time.monotonic() value), a step
    found past it before one of its division blocks raises
    BudgetExceeded naming the step and the block; the deadline is
    overrun by at most one power, one reciprocal and one block.  Nothing
    of a step that raises is memoized.  An index k <= 0 is the mirror
    image of x_{3-k} of type (c, b) with x1 and x2 swapped: a new value
    permuted from the memoized x_{3-k}, and not itself memoized.
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
                step = f"x_{j + 1} of type ({t.b},{t.c})"
                e = _step_exponent(t, j)
                try:
                    quot = _packed.positive_exact_div(cur._terms, prev._terms, e, deadline)
                except BudgetExceeded as exc:
                    raise BudgetExceeded(f"{step}: {exc}") from None
                if quot is None:
                    raise Inconclusive(f"{step}: the packed kernel could not certify the quotient")
                nxt = LaurentPolynomial._raw(X_CONTEXT, quot)
                _maybe_cache((t.b, t.c, j + 1), nxt)
            prev, cur = cur, nxt
    return cur.permute_variables({"x1": "x2", "x2": "x1"}) if mirrored else cur


def expand_in_cluster(
    t: ExchangeType, k: int, m: int, deadline: float | None = None
) -> LaurentPolynomial:
    """x_k as a Laurent polynomial in y1 = x_m, y2 = x_{m+1}.

    Running the recurrence from the seed pair at offset m, with the step
    exponent keyed to the parity of the true index, is the same as
    evaluating the standard family at index k - m + 1 for type (b, c) when
    m is odd and type (c, b) when m is even; that reduction shares the
    memo cache across all offsets.  The result is a new Y_CONTEXT value
    sharing the terms of cluster_variable's answer.  `deadline` is
    cluster_variable's.
    """
    base, j = _in_seed_cluster(t, k, m)
    return LaurentPolynomial._raw(Y_CONTEXT, cluster_variable(base, j, deadline)._terms)


def _in_seed_cluster(t: ExchangeType, k: int, m: int) -> tuple[ExchangeType, int]:
    # x_k in the cluster (x_m, x_{m+1}) of type t is x_j in (x_1, x_2) of
    # the returned type, keyed to the parity of m
    return (t if m % 2 else t.swapped), k - m + 1


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
    "positivity" (all coefficients > 0), "denominator" (the unclamped
    d-vector, the negated minimal exponents, equal to the one the tropical
    recurrence delta_{k+1} = e * max(delta_k, 0) - delta_{k-1} predicts,
    and x_k equal to y1 or y2 itself where that prediction is an initial
    variable's).  Failure is recorded with a witness, never raised.  Every
    step runs as the packed kernel, whose certificate needs positive
    operands, so a non-positive x_k would show up as an inconclusive cell
    (the kernel could not certify its step), not as a positivity failure.

    budget_seconds is checked between cells, where cells not started
    before the deadline are reported inconclusive, and inside each
    exchange step, before each block of its division, where a cell cut at
    the deadline is one inconclusive item naming the step and the block.
    A cell overruns the deadline by at most one power, one reciprocal and
    one block of a step.  max_predicted_terms skips cells whose numerator
    support bound exceeds it, also as inconclusive.
    A cell whose computation raises Inconclusive (a step the kernel could
    not certify, or one past its size guards or the deadline) is one
    inconclusive item, and the sweep goes on to the next cell.  These
    guards keep a sweep honest about what it did not verify.  A NaN or
    negative budget_seconds and a negative max_predicted_terms raise
    ValueError; budget_seconds=inf means no budget.
    """
    if not checks:
        raise ValueError(f"no checks selected; choose from {SWEEP_CHECKS}")
    for name in checks:
        if name not in SWEEP_CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {SWEEP_CHECKS}")
    if k_min > k_max or m_min > m_max:
        raise ValueError("empty sweep range")
    if budget_seconds is not None and not budget_seconds >= 0:
        # NaN compares false against every deadline and would disable it
        raise ValueError(f"budget_seconds must be >= 0 or inf, got {budget_seconds}")
    if max_predicted_terms is not None and max_predicted_terms < 0:
        raise ValueError(f"max_predicted_terms must be >= 0, got {max_predicted_terms}")
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
            base, j = _in_seed_cluster(t, k, m)
            if max_predicted_terms is not None:
                predicted = predicted_numerator_terms(base, j)
                if predicted > max_predicted_terms:
                    report.add(
                        cell,
                        INCONCLUSIVE,
                        f"skipped: numerator support bound {_packed._show(predicted)} exceeds "
                        f"cap {max_predicted_terms}",
                    )
                    continue
            try:
                p = expand_in_cluster(t, k, m, deadline)
            except Inconclusive as exc:
                report.add(cell, INCONCLUSIVE, f"{type(exc).__name__}: {exc}")
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
                report.add(*_denominator_item(base, j, cell, p))
    return report


def _denominator_item(base: ExchangeType, j: int, cell: str, p: LaurentPolynomial):
    # p is x_j of type base.  Its d-vector, the negated minimal exponents
    # unclamped, must be the tropical prediction.  Finite types come back to
    # y1 or y2 at other indices than the seed pair, and where the prediction
    # is an initial variable's, p must be that variable itself.
    label = f"{cell} denominator"
    delta = tuple(-e for e in p.min_exponents())
    predicted = _tropical_denominator(base, j)
    if delta != predicted:
        return label, FAIL, f"d-vector {delta} differs from the predicted {predicted}"
    if predicted in _SEED_DELTAS and not _is_initial(p):
        name = p.context.names[predicted.index(-1)]
        return label, FAIL, f"d-vector {delta} is {name}'s, but the value is not {name}"
    return label, PASS, f"d-vector {p.denominator_exponents()}"


def _is_initial(p: LaurentPolynomial) -> bool:
    # y1 or y2: one term, coefficient 1, at a unit exponent vector
    return len(p) == 1 and next(iter(p.terms.items())) in (((1, 0), 1), ((0, 1), 1))
