import math

import pytest

from congaps import census, primes
from congaps.errors import DomainError, OutOfRangeError


def trial_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def trial_pairs(X, q, a, epsilon):
    out = []
    prev = 2
    n = 3
    while prev <= X:
        while not trial_is_prime(n):
            n += 1
        if (
            prev % q == a % q
            and n % q == a % q
            and (n - prev) < epsilon * math.log(prev)
        ):
            out.append((prev, n))
        prev, n = n, n + 1
    return out


def test_small_census_against_trial_division(table5):
    res = census.find_congruent_pairs(600, 3, 2, 1.0, table5)
    expect = trial_pairs(600, 3, 2, 1.0)
    assert res.pair_count == len(expect) == 6
    assert res.pairs == tuple(expect)
    assert (557, 563) in res.pairs


@pytest.mark.filterwarnings("error")
def test_census_huge_epsilon_admits_every_pair_without_warnings(table5):
    # epsilon * log p overflows to inf, so every pair in the class passes
    res = census.find_congruent_pairs(1000, 3, 2, 1e308, table5)
    assert res.pair_count == len(trial_pairs(1000, 3, 2, math.inf)) == 29


def test_census_pair_properties(table5):
    res = census.find_congruent_pairs(10**5, 3, 2, 2.0, table5)
    assert res.pair_count == 1710
    primes = table5.primes
    import numpy as np

    for p, nxt in res.pairs:
        assert p % 3 == 2 and nxt % 3 == 2
        i = int(np.searchsorted(primes, p))
        assert int(primes[i]) == p and int(primes[i + 1]) == nxt  # consecutive
        gap = nxt - p
        assert gap < 2.0 * math.log(p)
        assert gap % 2 == 0 and gap % 3 == 0
        assert gap >= 6  # even multiple of q for odd q


def test_census_monotone(table5):
    base = census.find_congruent_pairs(10**5, 3, 2, 2.0, table5, keep_pairs=False)
    smaller_x = census.find_congruent_pairs(10**4, 3, 2, 2.0, table5, keep_pairs=False)
    smaller_eps = census.find_congruent_pairs(10**5, 3, 2, 1.0, table5, keep_pairs=False)
    assert smaller_x.pair_count <= base.pair_count
    assert smaller_eps.pair_count <= base.pair_count


def test_census_errors(table5):
    with pytest.raises(DomainError):
        census.find_congruent_pairs(100, 3, 3, 1.0, table5)
    with pytest.raises(DomainError):
        census.find_congruent_pairs(100, 2, 1, 1.0, table5)
    with pytest.raises(DomainError):
        census.find_congruent_pairs(100, 3, 2, 0.0, table5)
    with pytest.raises(OutOfRangeError):
        census.find_congruent_pairs(table5.limit + 1, 3, 2, 1.0, table5)


def test_census_result_dict(table5):
    res = census.find_congruent_pairs(10**5, 3, 2, 2.0, table5)
    d = res.to_dict()
    assert d["pair_count"] == 1710
    assert len(d["sample_pairs"]) == 100  # capped
    assert d["sample_pairs"][0] == list(res.pairs[0])
    assert d["wall_time_ms"] >= 0.0
    assert d["X"] == 10**5 and d["q"] == 3 and d["a"] == 2


def test_census_sample_without_pairs(table5):
    # keep_pairs=False builds only the report's sample: the same first
    # pairs, as Python ints, that the full listing starts with
    full = census.find_congruent_pairs(10**5, 3, 2, 2.0, table5)
    lean = census.find_congruent_pairs(10**5, 3, 2, 2.0, table5, keep_pairs=False)
    assert lean.pairs is None
    assert len(lean.sample_pairs) == census.SAMPLE_PAIRS == 100
    assert lean.sample_pairs == full.sample_pairs == full.pairs[:100]
    assert all(type(p) is int for pair in full.pairs for p in pair)
    assert lean.to_dict() | {"wall_time_ms": 0} == full.to_dict() | {"wall_time_ms": 0}
    few = census.find_congruent_pairs(600, 3, 2, 1.0, table5, keep_pairs=False)
    assert few.sample_pairs == tuple(trial_pairs(600, 3, 2, 1.0))


def test_theorem11_bound():
    X = 10**5
    b = census.theorem11_bound(X, 1.0)
    assert 0 < b < X
    assert b == pytest.approx(X ** (1.0 - 1.0 / math.log(math.log(X))), rel=1e-12)
    with pytest.raises(DomainError):
        census.theorem11_bound(10.0, 1.0)
    with pytest.raises(DomainError):
        census.theorem11_bound(X, 0.0)


def test_shiu_bound_branches():
    X = 10**5
    # a = -1 mod 5 takes the (lll/ll)^(1/phi) branch
    b = census.shiu_bound(X, 5, 4, 1.0)
    assert 0 < b < X
    # the other branch needs loglogloglog X > 0: not available at 1e5
    with pytest.raises(DomainError):
        census.shiu_bound(X, 5, 2, 1.0)
    with pytest.raises(DomainError):
        census.shiu_bound(X, 5, 4, 0.0)


def test_census_reports_null_bound_when_undefined(table5):
    res = census.find_congruent_pairs(10**4, 5, 2, 1.0, table5)
    assert res.bound_shiu is None  # fourth iterated log undefined here
    assert "loglogloglog" in res.bound_reasons["bound_shiu"]
    assert math.isfinite(res.bound_thm11)
    assert "bound_thm11" not in res.bound_reasons
    d = res.to_dict()
    assert d["bound_shiu"] is None
    assert d["bound_reasons"] == res.bound_reasons


def test_census_needs_successor_of_last_prime():
    # 131 = 2 mod 3 and its successor 137 = 2 mod 3 make the fifth pair
    with pytest.raises(OutOfRangeError):
        census.find_congruent_pairs(131, 3, 2, 10.0, primes.sieve_primes(131))
    with pytest.raises(OutOfRangeError):
        census.find_congruent_pairs(132, 3, 2, 10.0, primes.sieve_primes(136))
    res = census.find_congruent_pairs(131, 3, 2, 10.0, primes.sieve_primes(137))
    assert res.pair_count == len(trial_pairs(131, 3, 2, 10.0)) == 5
    assert res.pairs[-1] == (131, 137)
