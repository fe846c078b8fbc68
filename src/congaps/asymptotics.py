"""Exact counts and products versus their asymptotic main-term predictions:
the Mertens product over primes congruent to 1 mod q, and the count of
integers composed only of primes congruent to 1 mod q exceeding Y.
"""

from __future__ import annotations

import io
import json
import math
from typing import NamedTuple

import numpy as np

from .characters import check_modulus, totient
from .constants import EULER_GAMMA, ConstantsBundle
from .errors import DegenerateComparisonError, DomainError
from .primes import Windows, log_euler, remainders, sieve_primes, window_keys, windows_upto


class ComparisonReport(NamedTuple):
    """(actual, predicted, ratio, pass) for one asymptotic check."""

    label: str
    actual: float
    predicted: float
    ratio: float
    params: dict
    passed: bool | None = None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "actual": self.actual,
            "predicted": self.predicted,
            "ratio": self.ratio,
            "params": self.params,
            "pass": self.passed,
        }

    def to_csv(self) -> str:
        """to_dict as a CSV header and one row: floats as repr, params as sorted JSON."""
        import csv  # only --format csv reaches here, so no other start loads it
        row = {k: repr(v) if isinstance(v, float) else v for k, v in self.to_dict().items()}
        row["params"] = json.dumps(self.params, sort_keys=True)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([list(row), list(row.values())])
        return buf.getvalue()


def compare(
    label: str,
    actual: float,
    predicted: float,
    tol: float,
    params: dict | None = None,
) -> ComparisonReport:
    """Ratio comparison with pass iff ratio lies in [1 - tol, 1 + tol]."""
    if predicted == 0:
        raise DegenerateComparisonError(f"{label}: predicted value is zero")
    ratio = actual / predicted
    return ComparisonReport(
        label=label,
        actual=actual,
        predicted=predicted,
        ratio=ratio,
        params=dict(params or {}),
        passed=bool(1.0 - tol <= ratio <= 1.0 + tol),
    )


def mertens_ap_product(q: int, X: float, windows: Windows) -> float:
    """prod_{p <= X, p = 1 mod q} (1 - 1/p)^-1, accumulated in log space:
    one log_euler per window of primes.segments."""
    check_modulus(q)
    return math.exp(-sum(map(log_euler, windows_upto(windows, X, q, 1))))


def mertens_prediction(q: int, X: float, bundle: ConstantsBundle) -> float:
    """Main term e^(gamma/phi(q)) * c(q) * (log X)^(1/phi(q))."""
    if X <= 1:
        raise DomainError(f"X must be > 1, got {X}")
    if bundle.q != q:
        raise DomainError(f"the constants bundle is for q={bundle.q}, not q={q}")
    phi_q = totient(q)
    return math.exp(EULER_GAMMA / phi_q) * bundle.c_q * math.log(X) ** (1.0 / phi_q)


def restricted_nodes(X: int, small: np.ndarray, low: int):
    """The nodes of the restricted-product walk over a set of allowed
    primes, all above low; small holds those up to isqrt(X), ascending.
    n = 1 is a node, and so is n * p for a node n and an allowed
    p >= n's largest factor with p <= isqrt(X // n). Returns arrays
    (n, lo, hi): the leaves of n, the members n * p that no allowed prime
    extends, are the allowed p with lo < p <= hi = X // n. Every member
    <= X is a node or one leaf, once.

    The walk goes level by level, the nodes with k prime factors at
    level k, each level in array passes: isqrt(X // n) as a float square
    root corrected by one either way (the float root is off by at most
    one far beyond MAX_SIEVE_LIMIT = 2^32), one searchsorted of those
    roots into small, and the children laid out by np.repeat and a cumsum.
    So the rows come in level order, not in any depth-first order; every
    use sums or sorts them."""
    small = np.asarray(small, dtype=np.int64)
    n = np.ones(1, dtype=np.int64)
    start = np.zeros(1, dtype=np.int64)  # index in small of the least prime n may take
    low = np.full(1, low, dtype=np.int64)
    levels = []
    while n.size:
        cap = X // n
        root = np.sqrt(cap).astype(np.int64)
        root -= root * root > cap
        root += (root + 1) * (root + 1) <= cap
        levels.append((n, np.minimum(np.maximum(low, root), cap), cap))
        count = np.maximum(np.searchsorted(small, root, side="right") - start, 0)
        first = np.cumsum(count) - count  # each node's first child, in the next level
        index = np.arange(count.sum()) + np.repeat(start - first, count)
        n, start, low = np.repeat(n, count) * small[index], index, small[index] - 1
    return np.concatenate(levels, axis=1)


def leaf_counts(windows, q: int, lo: np.ndarray, hi: np.ndarray, cls) -> np.ndarray:
    """For each entry of lo, hi and cls (an array, or one class for all):
    the number of primes p of windows with lo < p <= hi and p = cls mod q,
    or any p where cls is -1. One pass: each bound is resolved in the
    window that holds it, on top of running counts by class."""
    xs = window_keys(np.concatenate((hi, lo)))
    classes, slot = np.unique(np.tile(np.broadcast_to(cls, lo.size), 2), return_inverse=True)
    order = np.argsort(xs)
    bounds = xs[order]
    running = np.zeros(classes.size, dtype=np.int64)
    pi = np.empty(xs.size, dtype=np.int64)
    done = 0
    for window in windows:
        if not window.size:
            continue
        due = order[done:np.searchsorted(bounds, window[-1], side="right")]
        rem = remainders(window, q) if (classes >= 0).any() else None  # once for all classes
        for s, c in enumerate(classes.tolist()):
            chosen = window if c < 0 else np.compress(rem == c, window)
            at = due[slot[due] == s]
            pi[at] = running[s] + np.searchsorted(chosen, xs[at], side="right")
            running[s] += chosen.size
        done += due.size
    pi[order[done:]] = running[slot[order[done:]]]
    return pi[:lo.size] - pi[lo.size:]


def count_restricted(X: int, q: int, Y: float, windows: Windows) -> int:
    """Exact count of n <= X whose prime factors are all congruent to
    1 mod q and greater than Y (n = 1 counts vacuously): the nodes of the
    restricted-product walk over those primes up to isqrt(X), sieved here,
    and their leaves, counted in one fold over the windows of
    primes.segments."""
    check_modulus(q)
    if not Y >= 1:
        raise DomainError(f"Y must be >= 1, got {Y}")
    if X < 1:
        return 0
    low = math.floor(min(Y, X))
    small = sieve_primes(math.isqrt(X)).residue_class(q, 1)
    n, lo, hi = restricted_nodes(X, small[small > low], low)
    return int(n.size + leaf_counts(windows_upto(windows, X, q, 1), q, lo, hi, -1).sum())


def lemma33_prediction(
    X: int, q: int, Y: float, bundle: ConstantsBundle, windows: Windows
) -> float:
    """Main term (c(q)/Gamma(1/phi(q))) * X (log X)^(1/phi(q)) / log X
    times prod_{p <= Y, p = 1 mod q} (1 - 1/p)."""
    if X < 3:
        raise DomainError(f"X must be >= 3, got {X}")
    if bundle.q != q:
        raise DomainError(f"the constants bundle is for q={bundle.q}, not q={q}")
    phi_q = totient(q)
    log_x = math.log(X)
    main = bundle.c_q * bundle.gamma_recip * X * log_x ** (1.0 / phi_q - 1.0)
    return main / mertens_ap_product(q, Y, windows)
