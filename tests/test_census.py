import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congaps import census, primes
from congaps.errors import DomainError
from oracles import listed


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


def test_small_census_against_trial_division(windows5):
    res = census.find_congruent_pairs(600, 3, 2, 1.0, windows5)
    pairs = listed(census.congruent_pairs(600, 3, 2, 1.0, windows5))
    expect = trial_pairs(600, 3, 2, 1.0)
    assert res.pair_count == len(expect) == 6
    assert pairs == tuple(expect)
    assert (557, 563) in pairs


@pytest.mark.filterwarnings("error")
def test_census_huge_epsilon_admits_every_pair_without_warnings(windows5):
    # epsilon * log p overflows to inf, so every pair in the class passes
    res = census.find_congruent_pairs(1000, 3, 2, 1e308, windows5)
    assert res.pair_count == len(trial_pairs(1000, 3, 2, math.inf)) == 29


def test_census_pair_properties(table5, windows5):
    res = census.find_congruent_pairs(10**5, 3, 2, 2.0, windows5)
    pairs = listed(census.congruent_pairs(10**5, 3, 2, 2.0, windows5))
    assert res.pair_count == len(pairs) == 1710
    primes = table5.primes
    import numpy as np

    for p, nxt in pairs:
        assert p % 3 == 2 and nxt % 3 == 2
        i = int(np.searchsorted(primes, p))
        assert int(primes[i]) == p and int(primes[i + 1]) == nxt  # consecutive
        gap = nxt - p
        assert gap < 2.0 * math.log(p)
        assert gap % 2 == 0 and gap % 3 == 0
        assert gap >= 6  # even multiple of q for odd q


def test_census_monotone(windows5):
    base = census.find_congruent_pairs(10**5, 3, 2, 2.0, windows5)
    smaller_x = census.find_congruent_pairs(10**4, 3, 2, 2.0, windows5)
    smaller_eps = census.find_congruent_pairs(10**5, 3, 2, 1.0, windows5)
    assert smaller_x.pair_count <= base.pair_count
    assert smaller_eps.pair_count <= base.pair_count


def test_census_errors(windows5):
    # the stream checks its inputs when called, before any pair is asked for
    for q, a, epsilon, constants in ((3, 3, 1.0, {}), (2, 1, 1.0, {}), (3, 2, 0.0, {}),
                                     (3, 2, math.inf, {}), (3, 2, 1.0, {"thm11_c": 0.0}),
                                     (3, 2, 1.0, {"shiu_C": math.nan})):
        with pytest.raises(DomainError):
            census.congruent_pairs(100, q, a, epsilon, windows5, **constants)
    with pytest.raises(DomainError):
        census.find_congruent_pairs(100, 3, 3, 1.0, windows5)
    with pytest.raises(DomainError):
        census.find_congruent_pairs(100, 2, 1, 1.0, windows5)
    with pytest.raises(DomainError):
        census.find_congruent_pairs(100, 3, 2, 0.0, windows5)


def test_census_result_dict(windows5):
    res = census.find_congruent_pairs(10**5, 3, 2, 2.0, windows5)
    d = res.to_dict()
    assert d["pair_count"] == 1710
    assert len(d["sample_pairs"]) == 100  # capped
    assert d["sample_pairs"][0] == list(res.pairs[0])
    assert d["wall_time_ms"] >= 0.0
    assert d["X"] == 10**5 and d["q"] == 3 and d["a"] == 2


def test_census_sample_without_pairs(windows5):
    # the census builds only the report's sample: the same first pairs, as
    # Python ints, that the stream starts with
    res = census.find_congruent_pairs(10**5, 3, 2, 2.0, windows5)
    pairs = listed(census.congruent_pairs(10**5, 3, 2, 2.0, windows5))
    assert len(res.pairs) == census.SAMPLE_PAIRS == 100
    assert res.pairs == pairs[:100]
    assert all(type(p) is int for pair in res.pairs for p in pair)
    few = census.find_congruent_pairs(600, 3, 2, 1.0, windows5)
    assert few.pairs == tuple(trial_pairs(600, 3, 2, 1.0))


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


def test_census_reports_null_bound_when_undefined(windows5):
    res = census.find_congruent_pairs(10**4, 5, 2, 1.0, windows5)
    assert res.bound_shiu is None  # fourth iterated log undefined here
    assert "loglogloglog" in res.bound_reasons["bound_shiu"]
    assert math.isfinite(res.bound_thm11)
    assert "bound_thm11" not in res.bound_reasons
    d = res.to_dict()
    assert d["bound_shiu"] is None
    assert d["bound_reasons"] == res.bound_reasons


def test_census_needs_successor_of_last_prime():
    # 131 = 2 mod 3 and its successor 137 = 2 mod 3 make the fifth pair,
    # whether or not the table reaches 137
    expect = trial_pairs(131, 3, 2, 10.0)
    assert len(expect) == 5 and expect[-1] == (131, 137)
    for limit in (131, 136, 137):
        windows = (primes.sieve_primes(limit).primes,)
        assert listed(census.congruent_pairs(131, 3, 2, 10.0, windows)) == tuple(expect)
        assert census.find_congruent_pairs(131, 3, 2, 10.0, windows).pair_count == 5


@settings(max_examples=60, deadline=None)
@given(X=st.integers(0, 3000), q=st.sampled_from((3, 4, 5)), a=st.integers(1, 4),
       epsilon=st.sampled_from((0.5, 1.0, 2.0, 10.0)))
def test_census_on_table_at_x_equals_larger_table(windows5, X, q, a, epsilon):
    a %= q
    assume(math.gcd(a, q) == 1)
    expect = tuple(trial_pairs(X, q, a, epsilon))
    at_x = listed(census.congruent_pairs(X, q, a, epsilon, (primes.sieve_primes(X).primes,)))
    larger = listed(census.congruent_pairs(X, q, a, epsilon, windows5))
    assert at_x == larger == expect


# 1048573 and 1048583 are consecutive primes, both 3 mod 5, on either side
# of the first segment boundary, 3 + SEGMENT_SIZE = 1048579
BOUNDARY_PAIR = (1048573, 1048583)


def fold_and_whole(X, q, a, epsilon):
    """The census's pairs folded over segments(X), and over the whole table
    to X as one window."""
    folded = listed(census.congruent_pairs(X, q, a, epsilon, primes.segments(X)))
    whole = listed(census.congruent_pairs(X, q, a, epsilon, (primes.sieve_primes(X).primes,)))
    return folded, whole


def test_boundary_pair_sits_on_a_window_edge():
    assert 3 + primes.SEGMENT_SIZE == 1048579
    low, high = BOUNDARY_PAIR
    assert primes.next_prime(low) == high
    first, second = list(primes.segments(high))[1:3]
    assert first[-1] == low and second[0] == high


@pytest.mark.parametrize("X", [BOUNDARY_PAIR[1], 1048600, 3 + 2 * primes.SEGMENT_SIZE])
def test_census_fold_carries_a_pair_across_windows(X):
    folded, whole = fold_and_whole(X, 5, 3, 1.0)
    assert BOUNDARY_PAIR in folded
    assert folded == whole
    count = census.find_congruent_pairs(X, 5, 3, 1.0, primes.segments(X)).pair_count
    assert count == len(whole)


@pytest.mark.parametrize("X", [BOUNDARY_PAIR[0], 1048578, 1048579, BOUNDARY_PAIR[1] - 1])
def test_census_fold_completes_the_last_pair_by_next_prime(X):
    folded, whole = fold_and_whole(X, 5, 3, 1.0)
    assert folded[-1] == BOUNDARY_PAIR
    assert folded == whole


def test_census_fold_keeps_only_the_sample(windows5):
    full = listed(census.congruent_pairs(10**5, 3, 2, 2.0, windows5))
    lean = census.find_congruent_pairs(10**5, 3, 2, 2.0, primes.segments(10**5))
    assert lean.pairs == full[: census.SAMPLE_PAIRS]
    assert lean.pair_count == len(full) == 1710


@settings(max_examples=60, deadline=None)
@given(X=st.integers(0, 3000), q=st.sampled_from((3, 4, 5)), a=st.integers(1, 4),
       epsilon=st.sampled_from((0.5, 1.0, 2.0, 10.0)), segment=st.integers(2, 200))
def test_census_fold_over_any_windows_equals_whole_table(windows5, X, q, a, epsilon, segment):
    a %= q
    assume(math.gcd(a, q) == 1)
    whole = listed(census.congruent_pairs(X, q, a, epsilon, windows5))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "SEGMENT_SIZE", segment)
        folded = listed(census.congruent_pairs(X, q, a, epsilon, primes.segments(X)))
        count = census.find_congruent_pairs(X, q, a, epsilon, primes.segments(X)).pair_count
    assert folded == whole
    assert count == len(whole)


@pytest.mark.parametrize("X", [4294967291, 2**32])
@pytest.mark.parametrize("q, a", [(4, 3), (3, 2)])
def test_census_over_uint32_windows_to_2_32(top_windows, X, q, a):
    # 4294967291, the last prime below 2^32, and its successor 4294967311 are
    # both 3 mod 4 and 20 apart: that pair ends past every uint32
    wide = tuple(w.astype(np.int64) for w in top_windows)
    pairs = listed(census.congruent_pairs(X, q, a, 1.0, top_windows))
    assert pairs == listed(census.congruent_pairs(X, q, a, 1.0, wide))
    assert ((4294967291, 4294967311) in pairs) == (q == 4)
    res = census.find_congruent_pairs(X, q, a, 1.0, top_windows)
    assert res.to_dict() | {"wall_time_ms": 0} == \
        census.find_congruent_pairs(X, q, a, 1.0, wide).to_dict() | {"wall_time_ms": 0}
    assert res.pair_count == len(pairs) > 0
