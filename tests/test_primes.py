import bisect
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congaps import primes
from congaps.errors import CacheError, CapacityError, DomainError, OutOfRangeError
from oracles import strike_odd_primes


def trial_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def test_sieve_small():
    assert primes.sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
    assert primes.sieve_primes(10).primes.dtype == np.int64  # the windows joined and widened
    assert primes.sieve_primes(2).primes.tolist() == [2]
    assert primes.sieve_primes(1).primes.tolist() == []
    assert primes.sieve_primes(0).primes.tolist() == []


def test_sieve_against_trial_division():
    table = primes.sieve_primes(10_000)
    assert table.primes.tolist() == trial_primes(10_000)


def test_pi_of_1e6():
    assert primes.sieve_primes(10**6).primes.size == 78498


def test_sieve_prefix_property():
    small = primes.sieve_primes(10**3).primes
    big = primes.sieve_primes(10**4).primes
    assert big[: small.size].tolist() == small.tolist()


def test_sieve_segment_boundaries(monkeypatch):
    # odd segment size forces awkward segment edges
    ref = primes.sieve_primes(50_000).primes
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 101)
    got = primes.sieve_primes(50_000).primes
    assert got.tolist() == ref.tolist()


TRIAL_5000 = trial_primes(5000)


@settings(max_examples=100, deadline=None)
@given(limit=st.integers(0, 5000), segment=st.integers(2, 300))
def test_sieve_any_segment_size_against_trial_division(limit, segment):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "SEGMENT_SIZE", segment)
        got = primes.sieve_primes(limit).primes.tolist()
    assert got == TRIAL_5000[: bisect.bisect_right(TRIAL_5000, limit)]


def test_sieve_domain_and_capacity(monkeypatch):
    with pytest.raises(DomainError):
        primes.sieve_primes(-1)
    with pytest.raises(CapacityError):
        primes.sieve_primes(2**40)
    monkeypatch.setattr(primes, "MAX_SIEVE_LIMIT", 10**5)
    with pytest.raises(CapacityError):
        primes.sieve_primes(10**6)


def test_next_prime_against_trial_division():
    table = trial_primes(10_100)
    for n in range(-2, 10_001):
        assert primes.next_prime(n) == table[bisect.bisect_right(table, n)]


@pytest.mark.parametrize("n, expect", [
    (31397, 31469),  # record gaps, wider than the first window
    (370261, 370373),
    (10**9, 10**9 + 7),
    (4294967291, 4294967311),  # from the last prime below 2^32 past it: no uint32 holds it
    (2**32, 4294967311),
])
def test_next_prime_across_wide_gaps(n, expect):
    assert primes.next_prime(n) == expect
    assert primes.next_prime(expect - 1) == expect


def count_ap(table, t, q, a):
    """pi(t; q, a) read from the residue-class subsequence."""
    return int(np.searchsorted(table.residue_class(q, a), t, side="right"))


def test_count_upto(table5):
    pi = table5.primes
    assert np.searchsorted(pi, 100, side="right") == 25
    assert np.searchsorted(pi, 2, side="right") == 1
    assert np.searchsorted(pi, 1, side="right") == 0


def test_prime_count_ap_examples(table5):
    assert count_ap(table5, 100, 3, 1) == 11
    assert count_ap(table5, 100, 3, 2) == 13
    assert count_ap(table5, 2, 3, 1) == 0
    assert count_ap(table5, 10, 4, 1) == 1  # just 5


def test_prime_count_ap_partition(table5):
    # residue classes partition the primes not dividing q
    for q in (3, 4, 5, 12):
        t = 50_000
        total = sum(count_ap(table5, t, q, a) for a in range(q))
        assert total == np.searchsorted(table5.primes, t, side="right")
        classes = np.concatenate([table5.residue_class(q, a) for a in range(q)])
        assert np.array_equal(np.sort(classes), table5.primes)


def test_prime_count_ap_monotone(table5):
    counts = [count_ap(table5, t, 3, 2) for t in (10, 100, 1000, 10000)]
    assert counts == sorted(counts)


def test_prime_count_ap_errors(table5):
    with pytest.raises(DomainError):
        table5.residue_class(3, 3)
    with pytest.raises(DomainError):
        table5.residue_class(0, 0)
    with pytest.raises(DomainError):
        table5.residue_class(3, -1)


def test_log_euler_against_fsum(table5):
    # a loop of exactly rounded sums is the reference; pairwise summation
    # is off by at most log2(n) roundings of the magnitude sum, and each
    # term by one rounding of its own (log1p and the power)
    p = table5.primes
    eps = np.finfo(float).eps
    for d in (1, p % 7 + 1):
        exps = np.broadcast_to(d, p.shape).tolist()
        terms = [math.log1p(-float(x) ** -e) / e for x, e in zip(p.tolist(), exps)]
        bound = (math.log2(p.size) + 2) * eps * math.fsum(map(abs, terms))
        assert abs(primes.log_euler(p, d) - math.fsum(terms)) <= bound
    assert primes.log_euler(np.empty(0, dtype=np.int64)) == 0.0


def test_log_euler_makes_one_temporary():
    # the Mertens case divides into one float array and takes log1p in place:
    # a float copy of p and a second temporary would each add p.nbytes
    p = primes.sieve_primes(2 * 10**7).primes  # 1,270,607 primes, 10.2 MB
    tracemalloc.start()
    try:
        primes.log_euler(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * p.nbytes


def test_spf_values(spf5):
    spf = spf5.spf
    assert spf[1] == 1
    assert spf[2] == 2
    assert spf[12] == 2
    assert spf[9991] == 97  # 97 * 103
    assert spf[65537] == 65537  # prime above sqrt(limit)


def test_spf_factor(spf5):
    assert spf5.factor(1) == []
    assert spf5.factor(360) == [2, 3, 5]
    assert spf5.factor(97) == [97]
    with pytest.raises(OutOfRangeError):
        spf5.factor(0)
    with pytest.raises(OutOfRangeError):
        spf5.factor(spf5.limit + 1)


def test_spf_against_trial_division(spf5):
    for n in range(2, 2000):
        least = next(d for d in range(2, n + 1) if n % d == 0)
        assert int(spf5.spf[n]) == least


def test_build_spf_errors(monkeypatch):
    with pytest.raises(DomainError):
        primes.build_spf(0)

    def no_allocation(*args, **kwargs):
        raise AssertionError("build_spf allocated before its capacity check")

    # one above the cap is refused before the 0.8 GB table is asked for
    monkeypatch.setattr(primes.np, "zeros", no_allocation)
    for limit in (primes.MAX_SPF_LIMIT + 1, 2**40):
        with pytest.raises(CapacityError):
            primes.build_spf(limit)


def test_cache_roundtrip(tmp_path):
    table = primes.sieve_primes(5000)
    path = primes.save_cache(table, str(tmp_path / "p.bin"))
    loaded = primes.load_cache(path, expected_limit=5000)
    assert loaded.limit == table.limit
    assert np.array_equal(loaded.primes, table.primes)
    assert loaded.primes.dtype == np.int64
    assert not loaded.primes.flags.writeable  # a table read from a cache is read-only


def test_cache_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTAPRIM" + b"\0" * 16)
    with pytest.raises(CacheError):
        primes.load_cache(str(path))


def test_cache_limit_mismatch(tmp_path):
    table = primes.sieve_primes(5000)
    path = primes.save_cache(table, str(tmp_path / "p.bin"))
    with pytest.raises(CacheError):
        primes.load_cache(path, expected_limit=6000)


def test_cache_rejects_garbled_body(tmp_path):
    path = tmp_path / "p.bin"
    # not ascending; below 2; a first word of 2^32 - 5, which as int32 reads
    # as -5 and as uint32 above the limit; above the limit; a prime under a
    # limit below 2, which has no windows
    for limit, body in ((100, [2, 3, 5, 0]), (100, [0, 2, 3]), (100, [1, 3]),
                        (100, [2**32 - 5]), (100, [2**32 - 5, 3]), (100, [2**32 - 5, 3, 5]),
                        (100, [2, 3, 101]), (1, [2])):
        header = primes._CACHE_HEADER.pack(primes.CACHE_MAGIC, limit, len(body))
        path.write_bytes(header + np.array(body, dtype="<u4").tobytes())
        with pytest.raises(CacheError, match="not ascending primes"):
            primes.load_cache(str(path))


def _cut_cache(tmp_path, cut_bytes):
    """A cache of the 9,592 primes below 10^5 with its last cut_bytes removed."""
    path = primes.save_cache(primes.sieve_primes(100_000), str(tmp_path / "p.bin"))
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-cut_bytes])
    return path


def test_cache_rejects_truncation_at_word_boundary(tmp_path):
    path = _cut_cache(tmp_path, 4 * 4796)  # half the primes, 4 bytes each
    with pytest.raises(CacheError, match="truncated"):
        primes.load_cache(path, expected_limit=100_000)


def test_cache_rejects_truncation_mid_word(tmp_path):
    path = _cut_cache(tmp_path, 4 * 4796 + 3)
    with pytest.raises(CacheError, match="truncated"):
        primes.load_cache(path, expected_limit=100_000)


def test_cache_rejects_short_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(primes.CACHE_MAGIC + b"\0" * 4)
    with pytest.raises(CacheError):
        primes.load_cache(str(path))


def test_save_cache_leaves_no_temp_file(tmp_path):
    primes.save_cache(primes.sieve_primes(1000), str(tmp_path / "p.bin"))
    assert os.listdir(tmp_path) == ["p.bin"]


def forbid(*args):
    raise AssertionError("sieved primes the cache holds")


def sieved_and_cached(limit, directory, mp):
    """The windows of segments(limit) sieved and written through to
    directory, then read back from the file with the sieve disabled."""
    mp.setenv(primes.CACHE_ENV, str(directory))
    sieved = list(primes.segments(limit))
    assert os.listdir(directory) == [f"primes_{limit}.bin"]
    with pytest.MonkeyPatch.context() as no_sieve:
        no_sieve.setattr(primes, "_sieved", forbid)
        cached = list(primes.segments(limit))
    return sieved, cached


def assert_windows(sieved, cached, limit):
    """Equal uint32 arrays window by window, each within its segment."""
    assert len(sieved) == len(cached)
    for s, c in zip(sieved, cached):
        assert s.dtype == c.dtype == np.uint32
        assert np.array_equal(s, c)
    size = primes.SEGMENT_SIZE
    if limit >= 2:
        assert sieved[0].tolist() == [2]
        assert len(sieved) == 1 + -(-(limit - 2) // size)
    else:
        assert sieved == []
    for k, window in enumerate(sieved[1:]):
        assert np.all((3 + k * size <= window) & (window < 3 + (k + 1) * size))


S = primes.SEGMENT_SIZE


@pytest.fixture(scope="module")
def spf_primes():
    """The primes up to 3 + 2 * SEGMENT_SIZE + 1 from the smallest-prime-factor table."""
    spf = primes.build_spf(3 + 2 * S + 1).spf
    n = np.arange(spf.size)
    return n[(spf == n) & (n >= 2)]


@pytest.mark.parametrize("limit", [0, 1, 2, 3, *(3 + k * S + d for k in (1, 2) for d in (-1, 0, 1))])
def test_segments_from_sieve_and_cache_agree(tmp_path, monkeypatch, spf_primes, limit):
    sieved, cached = sieved_and_cached(limit, tmp_path, monkeypatch)
    assert_windows(sieved, cached, limit)
    assert primes.joined(cached).dtype == np.int64
    assert np.array_equal(primes.joined(cached), spf_primes[spf_primes <= limit])


@settings(max_examples=100, deadline=None)
@given(limit=st.integers(0, 5000), segment=st.integers(2, 300), block=st.integers(1, 40))
def test_segments_any_segment_and_block_size(limit, segment, block):
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as directory:
        mp.setattr(primes, "SEGMENT_SIZE", segment)
        mp.setattr(primes, "_READ_BLOCK", block)
        sieved, cached = sieved_and_cached(limit, directory, mp)
        assert_windows(sieved, cached, limit)
        assert primes.joined(cached).tolist() == TRIAL_5000[: bisect.bisect_right(TRIAL_5000, limit)]


# low near the wheel primes 3..13, near the square of a base prime (where
# its striking starts), and in the last 10^5 below 2^32, past build_spf's reach
WINDOW_LOWS = st.one_of(
    st.integers(3, 20),
    st.builds(lambda p, d: max(3, p * p + d), st.sampled_from(TRIAL_5000[1:] + [65521]),
              st.integers(-40, 40)),
    st.integers(2**32 - 10**5, 2**32 - 1),
)


@settings(max_examples=100, deadline=None)
@given(low=WINDOW_LOWS, width=st.integers(1, 3000))
def test_odd_primes_against_strike_oracle(low, width):
    got = primes._odd_primes(low, low + width)
    assert got.dtype == np.int64
    assert np.array_equal(got, strike_odd_primes(low, low + width))


@pytest.mark.parametrize("segment", [101, 1000, 15013, 15017, 1 << 20])
@settings(max_examples=15, deadline=None)
@given(limit=st.integers(0, 50_000))
def test_segments_against_strike_oracle(segment, limit):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "SEGMENT_SIZE", segment)
        mp.delenv(primes.CACHE_ENV, raising=False)
        got = list(primes.segments(limit))
    want = [np.array([2])] if limit >= 2 else []
    want += [strike_odd_primes(low, min(low + segment, limit + 1))
             for low in range(3, limit + 1, segment)]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_segments_checks_limit_before_any_window(monkeypatch):
    monkeypatch.setattr(primes, "_odd_primes", forbid)
    with pytest.raises(DomainError):
        primes.segments(-1)
    with pytest.raises(CapacityError):
        primes.segments(primes.MAX_SIEVE_LIMIT + 1)


def test_stream_closed_early_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setenv(primes.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 1000)
    stream = primes.segments(100_000)
    next(stream)
    next(stream)
    assert len(os.listdir(tmp_path)) == 1  # the temp file being written
    stream.close()
    assert os.listdir(tmp_path) == []


def test_consumer_raising_midway_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setenv(primes.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 1000)

    def consume():
        for window in primes.segments(100_000):
            if window[-1] > 50_000:
                raise RuntimeError("consumer failed")

    with pytest.raises(RuntimeError):
        consume()
    assert os.listdir(tmp_path) == []
    assert len(list(primes.segments(100_000))) == 101  # and a whole pass writes it
    assert os.listdir(tmp_path) == ["primes_100000.bin"]


def test_windows_upto_of_a_table_and_of_a_stream(table5, windows5):
    for q, a, x in ((1, 0, 1000), (3, 2, 1000), (4, 1, 99_991), (7, 3, 10.5)):
        want = [p for p in table5.primes.tolist() if p % q == a and p <= x]
        assert primes.joined(primes.windows_upto(windows5, x, q, a)).tolist() == want
        assert primes.joined(primes.windows_upto(primes.segments(10**5), x, q, a)).tolist() == want


def test_windows_upto_copies_no_window():
    # a search key of a wider dtype than the window's, a Python int among them,
    # makes searchsorted copy the window into that dtype: 2 * window.nbytes
    window = primes.sieve_primes(2 * 10**7).primes.astype(np.uint32)  # 5.1 MB
    tracemalloc.start()
    try:
        for x in (10**7, 2**32, 2**40):
            list(primes.windows_upto((window,), x))  # views of the window
            _, peak = tracemalloc.get_traced_memory()
            assert peak < window.nbytes / 4, x
            tracemalloc.reset_peak()
    finally:
        tracemalloc.stop()


def test_windows_upto_reads_a_stream_no_further_than_x():
    seen = []

    def stream():
        for window in ([2], [3, 5, 7], [11, 13], [17, 19]):
            seen.append(window)
            yield np.array(window, dtype=np.int64)

    assert primes.joined(primes.windows_upto(stream(), 12)).tolist() == [2, 3, 5, 7, 11]
    assert len(seen) == 3
