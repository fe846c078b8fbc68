"""Segmented prime sieve, residue-class subsequences, log Euler products,
smallest-prime-factor tables (a test oracle), and an on-disk prime cache.

The sieve is odd-only and processes fixed-size segments, so memory stays
O(segment) + O(primes up to sqrt(limit)) during construction. segments()
hands the primes on one segment's window at a time, from the sieve or the
cache, so a fold over them never holds all the primes; every fold reads
such a stream of windows, each a uint32 array. A PrimeTable is the same
windows joined into one int64 array.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import CacheError, CapacityError, DomainError

# every subcommand folds over windows. To 2^32, fresh CLI, no cache, 2 vCPUs (a noisy
# host): census 22 s, 33 MB; mertens 27 s, 34 MB; count 24-28 s, 44 MB; shiu 23 s, 90 MB. A uint32
# holds every prime below it, so a window or the cache file spends 4 bytes a prime (0.81 GB
# for the 203 M primes to 2^32); a whole int64 table (sieve_primes, load_cache) 1.6 GB
MAX_SIEVE_LIMIT = 2**32
MAX_SPF_LIMIT = 10**8  # build_spf's table: 8 bytes per integer, 0.8 GB here
SEGMENT_SIZE = 1 << 20  # integers per segment; cache-friendly default
CACHE_MAGIC = b"PRIMTBL4"
_CACHE_HEADER = struct.Struct("<8sQQ")  # magic, limit, prime count
CACHE_ENV = "CONGAPS_CACHE_DIR"
_TEMP_SERIAL = itertools.count()  # tells apart the temp files of one process


@dataclass
class PrimeTable:
    """All primes up to `limit`, ascending."""

    limit: int
    primes: np.ndarray  # int64, strictly increasing: the windows joined and widened

    def residue_class(self, q: int, a: int) -> np.ndarray:
        """Subsequence of primes congruent to a mod q."""
        if q < 1 or not 0 <= a < q:
            raise DomainError(f"need q >= 1 and 0 <= a < q, got q={q}, a={a}")
        return np.compress(self.primes % q == a, self.primes)


# what a fold over the primes reads: a stream of uint32 windows, ascending
Windows = Iterable[np.ndarray]
# the greatest search key into a window: above every prime below MAX_SIEVE_LIMIT, and
# a uint32. searchsorted copies a uint32 window into the dtype of a wider key, and a
# Python int is one, so every key into a window is a uint32 clipped here
KEY_MAX = np.iinfo(np.uint32).max


def _odd_primes(low: int, high: int, base: np.ndarray | None = None) -> np.ndarray:
    """The odd primes in [low, high), for low >= 3, struck by `base`: the odd
    primes up to sqrt(high - 1), found by this same kernel when not given."""
    if base is None:
        root = math.isqrt(high - 1)
        base = _odd_primes(3, root + 1) if root >= 3 else np.empty(0, dtype=np.int64)
    first = low | 1
    size = max(0, (high - first + 1) // 2)  # first, first + 2, ...
    mask = np.ones(size, dtype=bool)
    start = np.maximum(base * base, -(-first // base) * base)
    start += base * (start % 2 == 0)  # the first odd multiple
    for p, offset in zip(base.tolist(), ((start - first) // 2).tolist()):
        mask[offset::p] = False
    out = np.flatnonzero(mask)  # int64: next_prime's primes may pass 2^32
    out *= 2
    out += first
    return out


def _check_limit(limit: int) -> None:
    if limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise CapacityError(f"limit {limit} exceeds configured maximum {MAX_SIEVE_LIMIT}")


def _bounds(limit: int):
    """[low, high) of each window of the primes <= limit: [2, 3), then the
    sieve segments [3 + k*SEGMENT_SIZE, 3 + (k + 1)*SEGMENT_SIZE), the last
    one cut at limit + 1."""
    if limit >= 2:
        yield 2, 3
    for low in range(3, limit + 1, SEGMENT_SIZE):
        yield low, min(low + SEGMENT_SIZE, limit + 1)


def _sieved(limit: int):
    """The primes <= limit as uint32 windows, sieved one segment at a time."""
    base = _odd_primes(3, math.isqrt(limit) + 1) if limit >= 2 else None
    for low, high in _bounds(limit):
        window = np.array([2]) if low == 2 else _odd_primes(low, high, base)
        yield window.astype(np.uint32)


def joined(windows) -> np.ndarray:
    """The windows as one int64 array, grown in place as each comes, so
    the primes are never held twice: once in windows and once joined."""
    buf = bytearray()
    for window in windows:
        # through a memoryview, += appends the bytes; an ndarray would broadcast
        buf += memoryview(np.ascontiguousarray(window, dtype=np.int64)).cast("B")
    return np.frombuffer(buf, dtype=np.int64)


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve all primes up to `limit` (inclusive) into a PrimeTable."""
    _check_limit(limit)
    return PrimeTable(limit, joined(_sieved(limit)))


def segments(limit: int):
    """The primes <= limit as a stream of uint32 windows: [2], then the
    primes of each sieve segment [3 + k*SEGMENT_SIZE, 3 + (k + 1)*SEGMENT_SIZE).

    The windows come from the cache file for `limit` in the directory
    $CONGAPS_CACHE_DIR names, when it exists, read a window at a time;
    otherwise from the sieve, written through to that file when the
    variable is set. Both sources yield the same arrays. The limit, and
    the header of any cache file, are checked here, before any window is
    made.
    """
    _check_limit(limit)
    directory = os.environ.get(CACHE_ENV)
    if not directory:
        return _sieved(limit)
    path = cache_path(limit, directory)
    if os.path.exists(path):
        _, count = _read_header(path, limit)  # a bad header fails here, before the caller writes
        return _read_windows(path, limit, count)
    os.makedirs(directory, exist_ok=True)
    return _written(_sieved(limit), limit, path)


def windows_upto(windows: Windows, x: float, q: int = 1, a: int = 0):
    """The primes = a mod q and <= x of a stream of windows such as
    segments, window by window, read no further than the first window
    that passes x."""
    key = np.uint32(min(max(math.floor(x), 0), KEY_MAX))
    for window in windows:
        chosen = window if q == 1 else np.compress(window % q == a, window)
        yield chosen[: np.searchsorted(chosen, key, side="right")]
        if window.size and window[-1] > key:
            return


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
    # one path for every d: one temporary, in place; for d = 1, ** -1 is numpy's reciprocal
    t = np.array(p, dtype=float)
    t **= -d
    np.log1p(np.negative(t, out=t), out=t)
    t /= d
    return float(np.sum(t))


def build_spf(limit: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n <= limit (spf[1] = 1), int64."""
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    if limit > MAX_SPF_LIMIT:
        raise CapacityError(f"limit {limit} exceeds configured maximum {MAX_SPF_LIMIT}")
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p * p :: p]
            view[view == 0] = p
    untouched = np.flatnonzero(spf == 0)
    spf[untouched] = untouched  # primes above sqrt(limit), plus 0 and 1
    return spf


# --- binary prime cache -------------------------------------------------
#
# File layout: 8-byte magic "PRIMTBL4", little-endian u64 limit, u64 count
# of primes, then one record per window of segments(limit): a u32 size and
# that many u32 primes, ascending, all little-endian. The count lets a load
# tell a truncated file from a complete one. A file of another magic
# (PRIMTBL3 held one list of primes, PRIMTBL2 u64 primes) fails the header check.


def cache_path(limit: int, directory: str) -> str:
    return os.path.join(directory, f"primes_{limit}.bin")


def _written(windows, limit: int, path: str):
    """The windows, each passed on once it is written to path. The file
    appears, complete, only after the last window: a stream closed or
    dropped before then, or whose writing fails, leaves neither it nor its
    temp file."""
    tmp = f"{path}.{os.getpid()}.{next(_TEMP_SERIAL)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_HEADER.pack(CACHE_MAGIC, limit, 0))
            count = 0
            for window in windows:
                fh.write(window.size.to_bytes(4, "little"))
                fh.write(window.astype("<u4", copy=False))
                count += window.size
                yield window
            fh.seek(0)
            fh.write(_CACHE_HEADER.pack(CACHE_MAGIC, limit, count))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_cache(table: PrimeTable, path: str) -> str:
    """Write the table to path atomically: a reader sees the old file or
    the complete new one, never a partial write."""
    p = table.primes
    windows = (p[slice(*np.searchsorted(p, bounds))] for bounds in _bounds(table.limit))
    for _ in _written(windows, table.limit, path):
        pass
    return path


def _read_header(path: str, expected_limit: int | None) -> tuple[int, int]:
    """(limit, prime count) from the header of a cache file, whose body
    must hold exactly that many primes and a size word per window."""
    with open(path, "rb") as fh:
        header = fh.read(_CACHE_HEADER.size)
        body = os.fstat(fh.fileno()).st_size - _CACHE_HEADER.size
    if len(header) < _CACHE_HEADER.size or header[:8] != CACHE_MAGIC:
        raise CacheError(f"bad header in {path!r}: {header[:8]!r}")
    _, limit, count = _CACHE_HEADER.unpack(header)
    if expected_limit is not None and limit != expected_limit:
        raise CacheError(
            f"cache {path!r} holds limit {limit}, requested {expected_limit}"
        )
    windows = (limit >= 2) + len(range(3, limit + 1, SEGMENT_SIZE))  # of _bounds(limit)
    if body != 4 * (count + windows):
        raise CacheError(
            f"cache {path!r} is truncated: header promises {count} primes "
            f"in {windows} windows, body holds {body} bytes"
        )
    return limit, count


def _read_windows(path: str, limit: int, count: int):
    """The windows of segments(limit), one record each from the cache file
    at path, each checked as it is read: strictly ascending, inside its
    segment [low, high), and the count primes of the header in all."""
    with open(path, "rb") as fh:
        fh.seek(_CACHE_HEADER.size)
        for low, high in _bounds(limit):
            size = int.from_bytes(fh.read(4), "little")
            # a window holds at most high - low primes: a larger size is never allocated
            window = np.fromfile(fh, dtype="<u4", count=min(size, high - low))
            count -= size
            inside = not window.size or low <= window[0] <= window[-1] < high
            if window.size != size or not inside or np.any(window[1:] <= window[:-1]):
                raise CacheError(f"cache {path!r} body is not ascending primes in [2, limit]")
            yield window
    if count:
        raise CacheError(f"cache {path!r} body is not ascending primes in [2, limit]")


def load_cache(path: str, expected_limit: int | None = None) -> PrimeTable:
    """Load a prime cache file; header limit must match any expected limit."""
    limit, count = _read_header(path, expected_limit)
    primes = joined(_read_windows(path, limit, count))
    primes.flags.writeable = False
    return PrimeTable(int(limit), primes)

