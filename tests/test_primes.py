import bisect
import math
import os

import numpy as np
import pytest

from congaps import primes
from congaps.errors import CacheError, CapacityError, DomainError, OutOfRangeError


def trial_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def test_sieve_small():
    assert primes.sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
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


def test_build_spf_errors():
    with pytest.raises(DomainError):
        primes.build_spf(0)
    with pytest.raises(CapacityError):
        primes.build_spf(2**40)


def test_cache_roundtrip(tmp_path):
    table = primes.sieve_primes(5000)
    path = primes.save_cache(table, str(tmp_path / "p.bin"))
    loaded = primes.load_cache(path, expected_limit=5000)
    assert loaded.limit == table.limit
    assert np.array_equal(loaded.primes, table.primes)
    assert not loaded.primes.flags.writeable  # a view of the bytes read


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
    # not ascending; below 2; a first word of 2^64 - 5, which reads as -5
    for body in ([2, 3, 5, 0], [0, 2, 3], [1, 3], [2**64 - 5, 3], [2**64 - 5, 3, 5]):
        header = primes._CACHE_HEADER.pack(primes.CACHE_MAGIC, 100, len(body))
        path.write_bytes(header + np.array(body, dtype="<u8").tobytes())
        with pytest.raises(CacheError, match="not ascending primes"):
            primes.load_cache(str(path))


def _cut_cache(tmp_path, cut_bytes):
    """A cache of the 9,592 primes below 10^5 with its last cut_bytes removed."""
    path = primes.save_cache(primes.sieve_primes(100_000), str(tmp_path / "p.bin"))
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-cut_bytes])
    return path


def test_cache_rejects_truncation_at_word_boundary(tmp_path):
    path = _cut_cache(tmp_path, 8 * 4796)  # half the primes
    with pytest.raises(CacheError, match="truncated"):
        primes.load_cache(path, expected_limit=100_000)


def test_cache_rejects_truncation_mid_word(tmp_path):
    path = _cut_cache(tmp_path, 8 * 4796 + 3)
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


def test_get_prime_table_caches(tmp_path, monkeypatch):
    monkeypatch.setenv(primes.CACHE_ENV, str(tmp_path))
    t1 = primes.get_prime_table(3000)
    assert os.path.exists(primes.cache_path(3000, str(tmp_path)))
    t2 = primes.get_prime_table(3000)
    assert np.array_equal(t1.primes, t2.primes)
