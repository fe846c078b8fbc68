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
from .constants import ConstantsBundle, gamma_function
from .errors import DegenerateComparisonError, DomainError, OutOfRangeError
from .primes import PrimeTable, SpfTable


@dataclass(frozen=True)
class ComparisonReport:
    """(actual, predicted, ratio, pass) for one asymptotic check."""

    label: str
    actual: float
    predicted: float
    ratio: float
    params: dict = field(default_factory=dict)
    tol: float | None = None
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

    @staticmethod
    def csv_header() -> list[str]:
        return ["label", "actual", "predicted", "ratio", "params", "pass"]

    def to_csv_row(self) -> list:
        return [
            self.label,
            repr(self.actual),
            repr(self.predicted),
            repr(self.ratio),
            json.dumps(self.params, sort_keys=True),
            self.passed,
        ]


def reports_to_csv(reports: list[ComparisonReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ComparisonReport.csv_header())
    for rep in reports:
        writer.writerow(rep.to_csv_row())
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
        tol=tol,
        passed=bool(1.0 - tol <= ratio <= 1.0 + tol),
    )


def mertens_ap_product(q: int, X: int, table: PrimeTable) -> float:
    """prod_{p <= X, p = 1 mod q} (1 - 1/p)^-1, accumulated in log space."""
    if q < 3:
        raise DomainError(f"q must be >= 3, got {q}")
    if X > table.limit:
        raise OutOfRangeError(f"X={X} exceeds table limit {table.limit}")
    cls = table.residue_class(q, 1)
    cls = cls[cls <= X].astype(float)
    if cls.size == 0:
        return 1.0
    return float(np.exp(-np.sum(np.log1p(-1.0 / cls))))


def mertens_prediction(q: int, X: float, bundle: ConstantsBundle) -> float:
    """Main term e^(gamma/phi(q)) * c(q) * (log X)^(1/phi(q))."""
    if X <= 1:
        raise DomainError(f"X must be > 1, got {X}")
    phi_q = totient(q)
    return (
        math.exp(bundle.gamma_euler / phi_q)
        * bundle.c_q
        * math.log(X) ** (1.0 / phi_q)
    )


def _restricted_walk(X: int, q: int, Y: float, table: PrimeTable):
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
    if X > table.limit:
        raise OutOfRangeError(f"X={X} exceeds table limit {table.limit}")
    if X < 1:
        return
    cls = table.residue_class(q, 1)
    # an integer key: a float one would make searchsorted cast the whole class
    allowed = cls[np.searchsorted(cls, math.floor(min(Y, X)), side="right"):]
    stack = [(1, 0)]  # (n, index of the least prime n may still take)
    while stack:
        n, start = stack.pop()
        cap = X // n
        mid, end = np.searchsorted(allowed, (math.isqrt(cap), cap), side="right")
        yield n, allowed[max(start, mid):end]
        for i, p in enumerate(allowed[start:mid].tolist(), start):
            stack.append((n * p, i))


def count_restricted(X: int, q: int, Y: float, table: PrimeTable) -> int:
    """Exact count of n <= X whose prime factors are all congruent to
    1 mod q and greater than Y (n = 1 counts vacuously), read off the
    restricted-product walk: each node and its leaves."""
    return sum(1 + leaves.size for _, leaves in _restricted_walk(X, q, Y, table))


def enumerate_restricted(X: int, q: int, Y: float, table: PrimeTable) -> list[int]:
    """Sorted members of the set counted by count_restricted, from the same
    walk; comparing this list against a per-n factorization oracle
    certifies the count for every cutoff up to X at once."""
    members = []
    for n, leaves in _restricted_walk(X, q, Y, table):
        members += [n, *(n * leaves).tolist()]
    return sorted(members)


def lemma33_prediction(
    X: int, q: int, Y: float, bundle: ConstantsBundle, table: PrimeTable
) -> float:
    """Main term (c(q)/Gamma(1/phi(q))) * X (log X)^(1/phi(q)) / log X
    times prod_{p <= Y, p = 1 mod q} (1 - 1/p)."""
    if X < 3:
        raise DomainError(f"X must be >= 3, got {X}")
    phi_q = totient(q)
    log_x = math.log(X)
    main = bundle.c_q / gamma_function(1.0 / phi_q) * X * log_x ** (1.0 / phi_q - 1.0)
    return main / mertens_ap_product(q, Y, table)
