"""Exact counts and products versus their asymptotic main-term predictions:
the Mertens product over primes congruent to 1 mod q, and the count of
integers composed only of primes congruent to 1 mod q exceeding Y.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .characters import totient
from .constants import EULER_GAMMA, ConstantsBundle
from .errors import DegenerateComparisonError, DomainError
from .primes import PrimeSource, joined, log_euler, windows_upto


@dataclass(frozen=True)
class ComparisonReport:
    """(actual, predicted, ratio, pass) for one asymptotic check."""

    label: str
    actual: float
    predicted: float
    ratio: float
    params: dict = field(default_factory=dict)
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), allow_nan=False)

    def to_csv(self) -> str:
        """to_dict as a CSV header and one row: floats as repr, params as sorted JSON."""
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


def mertens_ap_product(q: int, X: float, table: PrimeSource) -> float:
    """prod_{p <= X, p = 1 mod q} (1 - 1/p)^-1, accumulated in log space:
    one log_euler per window of table (a PrimeTable, or the windows of
    primes.segments)."""
    if q < 3:
        raise DomainError(f"q must be >= 3, got {q}")
    return math.exp(-sum(map(log_euler, windows_upto(table, X, q, 1))))


def mertens_prediction(q: int, X: float, bundle: ConstantsBundle) -> float:
    """Main term e^(gamma/phi(q)) * c(q) * (log X)^(1/phi(q))."""
    if X <= 1:
        raise DomainError(f"X must be > 1, got {X}")
    phi_q = totient(q)
    return (
        math.exp(EULER_GAMMA / phi_q)
        * bundle.c_q
        * math.log(X) ** (1.0 / phi_q)
    )


def _restricted_walk(X: int, q: int, Y: float, table: PrimeSource):
    """Depth-first walk over the nondecreasing products n <= X of allowed
    primes (p = 1 mod q, p > Y) that a further factor can extend, n = 1
    first. Yields (n, leaves): leaves holds the allowed p >= n's largest
    factor with isqrt(X // n) < p <= X // n. Each n * p is a member that no
    allowed prime extends, so it is taken from one np.searchsorted and never
    visited. Every member is some yielded n or one n * p, exactly once."""
    if q < 3:
        raise DomainError(f"q must be >= 3, got {q}")
    if not Y >= 1:
        raise DomainError(f"Y must be >= 1, got {Y}")
    if X < 1:
        return
    # the allowed primes, kept whole: the walk bisects them from every node
    allowed = joined(cls[np.searchsorted(cls, math.floor(min(Y, X)), side="right"):]
                     for cls in windows_upto(table, X, q, 1))
    stack = [(1, 0)]  # (n, index of the least prime n may still take)
    while stack:
        n, start = stack.pop()
        cap = X // n
        mid, end = np.searchsorted(allowed, (math.isqrt(cap), cap), side="right")
        yield n, allowed[max(start, mid):end]
        for i, p in enumerate(allowed[start:mid].tolist(), start):
            stack.append((n * p, i))


def count_restricted(X: int, q: int, Y: float, table: PrimeSource) -> int:
    """Exact count of n <= X whose prime factors are all congruent to
    1 mod q and greater than Y (n = 1 counts vacuously), read off the
    restricted-product walk: each node and its leaves."""
    return sum(1 + leaves.size for _, leaves in _restricted_walk(X, q, Y, table))


def enumerate_restricted(X: int, q: int, Y: float, table: PrimeSource) -> list[int]:
    """Sorted members of the set counted by count_restricted, from the same
    walk; comparing this list against a per-n factorization oracle
    certifies the count for every cutoff up to X at once."""
    members = []
    for n, leaves in _restricted_walk(X, q, Y, table):
        members += [n, *(n * leaves).tolist()]
    return sorted(members)


def lemma33_prediction(
    X: int, q: int, Y: float, bundle: ConstantsBundle, table: PrimeSource
) -> float:
    """Main term (c(q)/Gamma(1/phi(q))) * X (log X)^(1/phi(q)) / log X
    times prod_{p <= Y, p = 1 mod q} (1 - 1/p)."""
    if X < 3:
        raise DomainError(f"X must be >= 3, got {X}")
    phi_q = totient(q)
    log_x = math.log(X)
    main = bundle.c_q * bundle.gamma_recip * X * log_x ** (1.0 / phi_q - 1.0)
    return main / mertens_ap_product(q, Y, table)
