import csv
import io
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congaps import asymptotics, constants, primes
from congaps.errors import DegenerateComparisonError, DomainError
from oracles import enumerate_restricted


def test_mertens_product_small(windows5):
    # direct loop over the primes = 1 mod 3 up to 100
    expect = 1.0
    for p in (7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97):
        expect /= 1.0 - 1.0 / p
    got = asymptotics.mertens_ap_product(3, 100, windows5)
    assert got == pytest.approx(expect, rel=1e-12)
    assert asymptotics.mertens_ap_product(3, 5, windows5) == 1.0


def test_mertens_product_errors(windows5):
    with pytest.raises(DomainError):
        asymptotics.mertens_ap_product(2, 100, windows5)


def test_mertens_prediction():
    b = constants.constants_bundle(3)
    # at X = e the (log X)^(1/phi) factor is 1
    got = asymptotics.mertens_prediction(3, math.e, b)
    assert got == pytest.approx(math.exp(constants.EULER_GAMMA / 2.0) * b.c_q, rel=1e-12)
    with pytest.raises(DomainError):
        asymptotics.mertens_prediction(3, 1.0, b)


def test_mertens_ratio_near_one(windows5):
    b = constants.constants_bundle(3)
    ratio = asymptotics.mertens_ap_product(3, 10**5, windows5) / \
        asymptotics.mertens_prediction(3, 10**5, b)
    assert abs(ratio - 1.0) < 0.01


def test_count_restricted_examples(table5, windows5):
    assert asymptotics.count_restricted(50, 3, 1, windows5) == 8
    assert enumerate_restricted(50, 3, 1, table5) == [
        1, 7, 13, 19, 31, 37, 43, 49,
    ]
    assert asymptotics.count_restricted(100, 3, 10, windows5) == 11
    assert asymptotics.count_restricted(0, 3, 1, windows5) == 0
    assert asymptotics.count_restricted(6, 3, 1, windows5) == 1  # just n = 1


def test_count_restricted_errors(windows5):
    with pytest.raises(DomainError):
        asymptotics.count_restricted(50, 2, 1, windows5)
    with pytest.raises(DomainError):
        asymptotics.count_restricted(50, 3, 0.5, windows5)
    with pytest.raises(DomainError):
        asymptotics.count_restricted(50, 3, math.nan, windows5)


def test_count_matches_enumeration(table5, windows5):
    for X in (1, 10, 500, 12345):
        members = enumerate_restricted(X, 3, 1, table5)
        assert len(members) == asymptotics.count_restricted(X, 3, 1, windows5)
        assert members == sorted(set(members))
        assert members[0] == 1


def test_count_against_spf_oracle(table5, spf5):
    n_max = 20_000
    members = set(enumerate_restricted(n_max, 3, 1, table5))
    for n in range(1, n_max + 1):
        in_set = all(p % 3 == 1 for p in spf5.factor(n))
        assert (n in members) == in_set
    # and with a Y cutoff
    members = set(enumerate_restricted(n_max, 3, 10, table5))
    for n in range(1, n_max + 1):
        in_set = all(p % 3 == 1 and p > 10 for p in spf5.factor(n))
        assert (n in members) == in_set


def strike_count(X, q, Y):
    """Oracle for count_restricted sharing no code with it: sieve the primes
    up to X here, strike the multiples of every prime that is not allowed
    (p != 1 mod q, or p <= Y) from [1, X], and count the survivors, 1 among
    them."""
    is_prime = np.ones(X + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(X) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    survivors = np.ones(X + 1, dtype=bool)
    survivors[0] = False
    for p in np.flatnonzero(is_prime).tolist():
        if p % q != 1 or p <= Y:
            survivors[p::p] = False
    return int(survivors.sum())


@pytest.mark.parametrize(
    "q, Y", [(3, 1), (3, 7), (3, 10), (4, 1), (5, 1), (7, 1000), (12, 1)]
)
def test_count_against_strike_oracle(windows7, q, Y):
    assert asymptotics.count_restricted(10**6, q, Y, windows7) == strike_count(10**6, q, Y)


def test_count_at_leaf_boundaries(table5, windows5):
    # at X = p^2 the prime p stops being a leaf of n = 1 and becomes a node
    for p in (7, 13, 31):
        for X in (p * p - 1, p * p, p * p + 1):
            assert asymptotics.count_restricted(X, 3, 1, windows5) == strike_count(X, 3, 1)
    X = table5.limit
    assert asymptotics.count_restricted(X, 3, 1, windows5) == strike_count(X, 3, 1)


@settings(max_examples=40, deadline=None)
@given(X=st.integers(1, 10**5), q=st.sampled_from([3, 4, 5, 7, 12, 30, 210]),
       y_over_root=st.floats(0, 2), segment=st.sampled_from([256, 4096, 1 << 20]))
def test_count_walk_against_the_old_walk(table5, X, q, y_over_root, segment):
    # Y on either side of sqrt(X), where the walk's first leaves begin; the
    # primes as one window that ends at X, and as a stream of windows
    Y = max(1.0, y_over_root * math.sqrt(X))
    want = len(enumerate_restricted(X, q, Y, table5))
    at_limit = (table5.primes[:np.searchsorted(table5.primes, X, "right")],)
    assert asymptotics.count_restricted(X, q, Y, at_limit) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "SEGMENT_SIZE", segment)
        assert asymptotics.count_restricted(X, q, Y, primes.segments(X)) == want


def test_restricted_nodes_and_leaves_partition_the_members(table5):
    X = 20_000
    small = table5.residue_class(3, 1)
    n, lo, hi = asymptotics.restricted_nodes(X, small[small <= math.isqrt(X)], 1)
    leaves = [m * p for m, i, j in zip(n.tolist(), lo.tolist(), hi.tolist())
              for p in small[(small > i) & (small <= j)].tolist()]
    assert sorted(n.tolist() + leaves) == enumerate_restricted(X, 3, 1, table5)
    assert not set(n.tolist()) & set(leaves)


def test_count_restricted_budget(windows7):
    start = time.perf_counter()
    asymptotics.count_restricted(10**7, 3, 1, windows7)
    assert time.perf_counter() - start < 0.25


def test_count_monotone(windows5):
    counts = [asymptotics.count_restricted(x, 4, 1, windows5)
              for x in (10, 100, 1000, 10**4)]
    assert counts == sorted(counts)


def test_lemma33_prediction(windows5):
    b = constants.constants_bundle(3)
    p1 = asymptotics.lemma33_prediction(10**4, 3, 1, b, windows5)
    p10 = asymptotics.lemma33_prediction(10**4, 3, 10, b, windows5)
    # the Y = 10 prediction removes the p = 7 factor
    assert p10 == pytest.approx(p1 * (1.0 - 1.0 / 7.0), rel=1e-12)
    assert p1 > 0
    with pytest.raises(DomainError):
        asymptotics.lemma33_prediction(2, 3, 1, b, windows5)


def test_lemma33_ratio_small_scale(windows5):
    b = constants.constants_bundle(3)
    ratio = asymptotics.count_restricted(10**5, 3, 1, windows5) / \
        asymptotics.lemma33_prediction(10**5, 3, 1, b, windows5)
    assert 0.9 < ratio < 1.1


def test_compare_pass_band():
    rep = asymptotics.compare("x", 105.0, 100.0, 0.05)
    assert rep.ratio == pytest.approx(1.05)
    assert rep.passed
    assert not asymptotics.compare("x", 106.0, 100.0, 0.05).passed
    assert asymptotics.compare("x", 95.0, 100.0, 0.05).passed
    assert not asymptotics.compare("x", 94.9, 100.0, 0.05).passed


def test_compare_degenerate():
    with pytest.raises(DegenerateComparisonError):
        asymptotics.compare("x", 1.0, 0.0, 0.1)


def test_report_serialization():
    rep = asymptotics.compare("demo", 2.0, 4.0, 0.1, params={"q": 3})
    d = rep.to_dict()
    assert d["label"] == "demo"
    assert d["ratio"] == 0.5
    assert d["pass"] is False
    assert d["params"] == {"q": 3}
    assert "\"pass\": false" in rep.to_json()


def test_reports_to_csv_roundtrip():
    reps = [
        asymptotics.compare("a", 1.0, 1.0, 0.1, params={"q": 3, "X": 10}),
        asymptotics.compare("b", 0.5, 1.0, 0.1),
    ]
    header, first = csv.reader(io.StringIO(reps[0].to_csv()))
    assert header == ["label", "actual", "predicted", "ratio", "params", "pass"]
    assert float(first[3]) == 1.0
    assert json.loads(first[4]) == {"q": 3, "X": 10}
    assert first[5] == "True"
    header, second = csv.reader(io.StringIO(reps[1].to_csv()))
    assert header[0] == "label"
    assert second[:4] == ["b", "0.5", "1.0", "0.5"]
    assert second[5] == "False"


@settings(max_examples=100, deadline=None)
@given(
    actual=st.floats(-1e6, 1e6, allow_nan=False),
    predicted=st.floats(-1e6, 1e6, allow_nan=False).filter(lambda x: abs(x) > 1e-9),
    tol=st.floats(1e-6, 1.0),
)
def test_compare_invariants(actual, predicted, tol):
    rep = asymptotics.compare("h", actual, predicted, tol)
    assert rep.ratio == actual / predicted
    assert rep.passed == (1.0 - tol <= rep.ratio <= 1.0 + tol)


def test_mertens_fold_same_from_sieve_and_cache(tmp_path, monkeypatch):
    # [2] and three sieve segments below 3 * 10^6: the sum of one log_euler
    # per window over its primes = 1 mod 7 is bitwise the same from either
    # source. Against exactly rounded sums of the same terms, each window's
    # pairwise sum is off by at most (log2(n) + 2) roundings of its magnitude
    # sum, the four windows' sum by four more, and the exp and log by a few
    X = 3 * 10**6
    table = primes.sieve_primes(X)
    sieved = asymptotics.mertens_ap_product(7, X, primes.segments(X))
    monkeypatch.setenv(primes.CACHE_ENV, str(tmp_path))
    written = asymptotics.mertens_ap_product(7, X, primes.segments(X))
    monkeypatch.setattr(primes, "_sieved", None)  # the next pass reads the file
    cached = asymptotics.mertens_ap_product(7, X, primes.segments(X))
    assert sieved == written == cached
    terms = [math.log1p(-1.0 / p) for p in table.residue_class(7, 1).tolist()]
    eps = np.finfo(float).eps
    bound = (math.log2(len(terms)) + 6) * eps * math.fsum(map(abs, terms)) + 4 * eps
    for product in (sieved, asymptotics.mertens_ap_product(7, X, (table.primes,))):
        assert abs(math.log(product) + math.fsum(terms)) <= bound


@pytest.mark.parametrize("q, Y", [(3, 1), (3, 10.0), (4, 7.5), (5, 1000)])
def test_count_and_prediction_from_a_stream(windows7, q, Y, monkeypatch):
    X = 2 * 10**6
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 1 << 16)  # 31 windows
    b = constants.constants_bundle(q)
    assert asymptotics.count_restricted(X, q, Y, primes.segments(X)) == \
        asymptotics.count_restricted(X, q, Y, windows7)
    assert asymptotics.lemma33_prediction(X, q, Y, b, primes.segments(X)) == \
        asymptotics.lemma33_prediction(X, q, Y, b, windows7)


@pytest.mark.parametrize("X", [4294967291, 2**32])
def test_count_restricted_over_uint32_windows_to_2_32(top_windows, X):
    # above Y = 2^32 - 10^5 the members are 1 and the primes = 1 mod 3 in (Y, X],
    # all in the windows; at Y = 1000 the walk has 6,958 leaf bounds, the
    # greatest X itself, past every uint32 at X = 2^32
    wide = tuple(w.astype(np.int64) for w in top_windows)
    Y = 2**32 - 10**5
    assert asymptotics.count_restricted(X, 3, Y, top_windows) == \
        asymptotics.count_restricted(X, 3, Y, wide) == \
        1 + np.count_nonzero(np.concatenate(wide) % 3 == 1)
    assert asymptotics.count_restricted(X, 3, 1000, top_windows) == \
        asymptotics.count_restricted(X, 3, 1000, wide)


def test_leaf_counts_copies_no_window():
    # an int64 bound as a search key into a uint32 window makes searchsorted copy
    # the window to int64, 2 * window.nbytes, at every class of every window
    window = primes.sieve_primes(2 * 10**7).primes.astype(np.uint32)  # 5.1 MB
    lo = np.array([0, 10**6, 10**7], dtype=np.int64)
    hi = np.array([10**6, 10**7, 2**32], dtype=np.int64)
    tracemalloc.start()
    try:
        counts = asymptotics.leaf_counts((window,), 3, lo, hi, -1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.tolist() == [78498, 664579 - 78498, window.size - 664579]
    assert peak < window.nbytes / 4
