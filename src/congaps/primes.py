"""Segmented prime sieve, residue-class subsequences, log Euler products,
smallest-prime-factor tables (a test oracle), and an on-disk prime cache.

The sieve is odd-only and processes fixed-size segments, so memory stays
O(segment) + O(primes up to sqrt(limit)) during construction.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CacheError, CapacityError, DomainError, OutOfRangeError

MAX_SIEVE_LIMIT = 10**9  # largest measured: a census to it takes 10 s, 855 MB (2 vCPUs)
SEGMENT_SIZE = 1 << 20  # integers per segment; cache-friendly default
CACHE_MAGIC = b"PRIMTBL2"
_CACHE_HEADER = struct.Struct("<8sQQ")  # magic, limit, prime count
CACHE_ENV = "CONGAPS_CACHE_DIR"


@dataclass
class PrimeTable:
    """All primes up to `limit`, ascending, with lazy residue-class indexing."""

    limit: int
    primes: np.ndarray  # int64, strictly increasing
    _residue_index: dict = field(default_factory=dict, repr=False, compare=False)

    def residue_class(self, q: int, a: int) -> np.ndarray:
        """Subsequence of primes congruent to a mod q (built lazily, cached)."""
        if q < 1 or not 0 <= a < q:
            raise DomainError(f"need q >= 1 and 0 <= a < q, got q={q}, a={a}")
        key = (q, a)
        if key not in self._residue_index:
            self._residue_index[key] = self.primes[self.primes % q == a]
        return self._residue_index[key]


def _odd_primes(low: int, high: int, base: np.ndarray | None = None) -> np.ndarray:
    """The odd primes in [low, high), for low >= 3, struck by `base`: the odd
    primes up to sqrt(high - 1), found by this same kernel when not given."""
    if base is None:
        root = math.isqrt(high - 1)
        base = _odd_primes(3, root + 1) if root >= 3 else np.empty(0, dtype=np.int64)
    first = low | 1
    mask = np.ones(max(0, (high - first + 1) // 2), dtype=bool)  # first, first + 2, ...
    for p in base.tolist():
        start = max(p * p, -(-first // p) * p)
        if start % 2 == 0:
            start += p
        mask[(start - first) // 2 :: p] = False
    return first + 2 * np.flatnonzero(mask).astype(np.int64)


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve all primes up to `limit` (inclusive) into a PrimeTable."""
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise CapacityError(f"limit {limit} exceeds configured maximum {MAX_SIEVE_LIMIT}")
    if limit < 2:
        return PrimeTable(limit, np.empty(0, dtype=np.int64))
    base = _odd_primes(3, math.isqrt(limit) + 1)
    chunks = [np.array([2], dtype=np.int64)]
    for low in range(3, limit + 1, SEGMENT_SIZE):
        chunks.append(_odd_primes(low, min(low + SEGMENT_SIZE, limit + 1), base))
    return PrimeTable(limit, np.concatenate(chunks))


def next_prime(n: int) -> int:
    """The least prime above n: the odd primes of a window above n, the
    window widened until it holds one."""
    if n < 2:
        return 2
    width = 64
    while True:
        found = _odd_primes(n + 1, n + 1 + width)
        if found.size:
            return int(found[0])
        width *= 2


def log_euler(p, d=1) -> float:
    """sum_p log(1 - p^-d) / d over the primes p, pairwise summed: the log
    of prod_p (1 - p^-d)^(1/d). d is 1 or an array of one exponent per p."""
    p = np.asarray(p, dtype=float)
    if np.ndim(d) == 0 and d == 1:  # no pass dividing by d: the Mertens product's case
        return float(np.sum(np.log1p(-1.0 / p)))
    return float(np.sum(np.log1p(-(p ** -d)) / d))


@dataclass
class SpfTable:
    """spf[n] = smallest prime factor of n (spf[1] = 1)."""

    limit: int
    spf: np.ndarray  # int64, length limit + 1

    def factor(self, n: int) -> list[int]:
        """Distinct prime factors of n, ascending."""
        if not 1 <= n <= self.limit:
            raise OutOfRangeError(f"n={n} outside [1, {self.limit}]")
        out = []
        spf = self.spf
        while n > 1:
            p = int(spf[n])
            out.append(p)
            while n % p == 0:
                n //= p
        return out


def build_spf(limit: int) -> SpfTable:
    """Smallest-prime-factor table for every n <= limit."""
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise CapacityError(f"limit {limit} exceeds configured maximum {MAX_SIEVE_LIMIT}")
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p * p :: p]
            view[view == 0] = p
    untouched = np.flatnonzero(spf == 0)
    spf[untouched] = untouched  # primes above sqrt(limit), plus 0 and 1
    return SpfTable(limit, spf)


# --- binary prime cache -------------------------------------------------
#
# File layout: 8-byte magic "PRIMTBL2", little-endian u64 limit, u64 count
# of primes, then the primes as little-endian u64, ascending. The count
# lets a load tell a truncated file from a complete one.


def cache_path(limit: int, directory: str) -> str:
    return os.path.join(directory, f"primes_{limit}.bin")


def save_cache(table: PrimeTable, path: str) -> str:
    """Write the table to path atomically: a reader sees the old file or
    the complete new one, never a partial write."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_HEADER.pack(CACHE_MAGIC, table.limit, table.primes.size))
            fh.write(table.primes.astype("<u8").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def load_cache(path: str, expected_limit: int | None = None) -> PrimeTable:
    """Load a prime cache file; header limit must match any expected limit."""
    with open(path, "rb") as fh:
        header = fh.read(_CACHE_HEADER.size)
        body = fh.read()
    if len(header) < _CACHE_HEADER.size or header[:8] != CACHE_MAGIC:
        raise CacheError(f"bad header in {path!r}: {header[:8]!r}")
    _, limit, count = _CACHE_HEADER.unpack(header)
    if expected_limit is not None and limit != expected_limit:
        raise CacheError(
            f"cache {path!r} holds limit {limit}, requested {expected_limit}"
        )
    if len(body) != 8 * count:
        raise CacheError(
            f"cache {path!r} is truncated: header promises {count} primes, "
            f"body holds {len(body)} bytes"
        )
    primes = np.frombuffer(body, dtype="<i8")  # a read-only view, not a copy
    # a word >= 2^63 reads as negative: ascending from at least 2 rules it out
    if primes.size and (primes[0] < 2 or np.any(np.diff(primes) <= 0)
                        or primes[-1] > limit):
        raise CacheError(f"cache {path!r} body is not ascending primes in [2, limit]")
    return PrimeTable(int(limit), primes)


def get_prime_table(limit: int) -> PrimeTable:
    """Load the cache for `limit` from the directory $CONGAPS_CACHE_DIR names,
    if present, else sieve (and cache there when the variable is set)."""
    directory = os.environ.get(CACHE_ENV)
    if directory:
        path = cache_path(limit, directory)
        if os.path.exists(path):
            return load_cache(path, expected_limit=limit)
    table = sieve_primes(limit)
    if directory:
        os.makedirs(directory, exist_ok=True)
        save_cache(table, cache_path(limit, directory))
    return table
