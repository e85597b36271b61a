"""Tests of the benchmark's oracle: it accepts true answers and rejects
corrupted ones (a coefficient bumped, a term dropped, a sign flipped, a
wrong period, a negative Euler characteristic).

    python3 -m pytest bench/check_oracle.py    (or: python3 bench/check_oracle.py)

The file name keeps it out of the package's own test collection.
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import rank2cluster  # noqa: E402
from rank2cluster import ExchangeType, ccmap, rank2  # noqa: E402

import oracle  # noqa: E402


def _rng():
    return random.Random(2009)


def _bumped(terms: dict) -> dict:
    out = dict(terms)
    e = sorted(out)[len(out) // 2]
    out[e] += 1
    return out


def _dropped(terms: dict) -> dict:
    out = dict(terms)
    del out[sorted(out)[len(out) // 2]]
    return out


def _expansion(b, c, k, m) -> dict:
    return dict(rank2.expand_in_cluster(ExchangeType(b, c), k, m).terms)


def _character(b, c, k):
    X = ccmap.cc_polynomial(
        rank2cluster.kronecker_quiver(b, c), ccmap.object_for_index(b, c, k)
    )
    return dict(X.terms), dict(ccmap.fold(X, b, c).terms)


def test_recurrence_and_d_vector_match_the_package():
    for b, c in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (1, 5)]:
        for k in range(-3, 7):
            tropical = tuple(max(x, 0) for x in oracle.d_vector(b, c, k))
            assert tropical == rank2.d_vector(ExchangeType(b, c), k)
            for m in (-1, 1, 2):
                assert oracle.check_cluster_expansion(b, c, k, m, _expansion(b, c, k, m), _rng()) == []


def test_expansion_check_rejects_corruption():
    for b, c, k, m in [(2, 3, 8, -1), (1, 4, -5, 2), (3, 3, 6, 0), (1, 1, 4, 1)]:
        good = _expansion(b, c, k, m)
        if len(good) > 1:
            assert oracle.check_cluster_expansion(b, c, k, m, _dropped(good), _rng())
        assert oracle.check_cluster_expansion(b, c, k, m, _bumped(good), _rng())
        # x_k in another cluster, or of another type, is a different answer
        assert oracle.check_cluster_expansion(b, c, k, m + 1, good, _rng())


def test_positivity_check_rejects_a_sign_flip():
    good = _expansion(2, 3, 7, 1)
    assert oracle.check_positive(good) == []
    flipped = dict(good)
    e = next(iter(flipped))
    flipped[e] = -flipped[e]
    assert oracle.check_positive(flipped)
    assert oracle.check_cluster_expansion(2, 3, 7, 1, flipped, _rng())


def test_folded_character_checks():
    for b, c, k in [(2, 3, -1), (2, 3, 5), (1, 4, 5), (2, 2, -3), (3, 3, 4), (2, 3, 2)]:
        unfolded, folded = _character(b, c, k)
        assert oracle.check_folded_character(b, c, k, unfolded, folded, _rng()) == []
        assert oracle.check_folded_character(b, c, k, unfolded, _bumped(folded), _rng())
        if len(unfolded) > 1:
            assert oracle.check_folded_character(b, c, k, _dropped(unfolded), folded, _rng())


def test_denominator_law_rejects_a_lost_pole():
    b, c, k = 2, 3, 5
    unfolded, _ = _character(b, c, k)
    low = min(e[0] for e in unfolded)
    trimmed = {e: v for e, v in unfolded.items() if e[0] != low}
    errors = oracle.check_folded_character(
        b, c, k, trimmed, oracle.fold_terms(trimmed, b), _rng()
    )
    assert any("denominator law" in err for err in errors)


def test_triangle_check():
    b, c = 2, 3
    # class v, s = 0: X[P_v1[0]] X[P_v1[1]] = prod_j X[P_wj[0]] + 1
    first = dict(ccmap.cc_polynomial(rank2cluster.kronecker_quiver(b, c), ccmap.object_for_index(b, c, -1)).terms)
    second = dict(ccmap.cc_polynomial(rank2cluster.kronecker_quiver(b, c), ccmap.object_for_index(b, c, 1)).terms)
    factor = dict(ccmap.cc_polynomial(rank2cluster.kronecker_quiver(b, c), ccmap.object_for_index(b, c, 0)).terms)
    assert oracle.check_triangle(b, c, "v", first, second, factor, _rng()) == []
    assert oracle.check_triangle(b, c, "v", _bumped(first), second, factor, _rng())
    assert oracle.check_triangle(b, c, "w", first, second, factor, _rng())


def test_period_check():
    assert oracle.check_period(1, 1, 10, 5) == []
    assert oracle.check_period(1, 2, 10, 6) == []
    assert oracle.check_period(3, 1, 10, 8) == []
    assert oracle.check_period(1, 3, 7, None) == []
    assert oracle.check_period(2, 2, 10, None) == []
    assert oracle.check_period(1, 1, 10, 10)
    assert oracle.check_period(1, 3, 7, 8)
    assert oracle.check_period(2, 2, 10, 6)


def test_euler_check():
    assert oracle.check_euler(0) == []
    assert oracle.check_euler(3) == []
    assert oracle.check_euler(-1)
    assert oracle.check_euler(1.5)


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} oracle checks passed")
