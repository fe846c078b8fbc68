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
    from .characters import totient

    phi_q = totient(q)
    return (
        math.exp(bundle.gamma_euler / phi_q)
        * bundle.c_q
        * math.log(X) ** (1.0 / phi_q)
    )


def count_restricted(X: int, q: int, Y: float, table: PrimeTable) -> int:
    """Exact count of n <= X whose prime factors are all congruent to
    1 mod q and greater than Y (n = 1 counts vacuously).

    Enumerated depth-first over nondecreasing products of allowed primes;
    the counted set is far sparser than [1, X], so no per-n factoring.
    """
    if q < 3:
        raise DomainError(f"q must be >= 3, got {q}")
    if Y < 1:
        raise DomainError(f"Y must be >= 1, got {Y}")
    if X > table.limit:
        raise OutOfRangeError(f"X={X} exceeds table limit {table.limit}")
    if X < 1:
        return 0
    cls = table.residue_class(q, 1)
    allowed = [int(p) for p in cls[(cls > Y) & (cls <= X)]]

    def walk(start: int, cap: int) -> int:
        total = 1  # the product accumulated so far
        for i in range(start, len(allowed)):
            p = allowed[i]
            if p > cap:
                break
            total += walk(i, cap // p)
        return total

    return walk(0, X)


def enumerate_restricted(X: int, q: int, Y: float, table: PrimeTable) -> list[int]:
    """Sorted members of the set counted by count_restricted (same DFS);
    comparing this list against a per-n factorization oracle certifies the
    count for every cutoff up to X at once."""
    if q < 3:
        raise DomainError(f"q must be >= 3, got {q}")
    if Y < 1:
        raise DomainError(f"Y must be >= 1, got {Y}")
    if X > table.limit:
        raise OutOfRangeError(f"X={X} exceeds table limit {table.limit}")
    cls = table.residue_class(q, 1)
    allowed = [int(p) for p in cls[(cls > Y) & (cls <= X)]]
    out: list[int] = []

    def walk(start: int, value: int) -> None:
        out.append(value)
        for i in range(start, len(allowed)):
            p = allowed[i]
            if value * p > X:
                break
            walk(i, value * p)

    if X >= 1:
        walk(0, 1)
    out.sort()
    return out


def lemma33_prediction(
    X: int, q: int, Y: float, bundle: ConstantsBundle, table: PrimeTable
) -> float:
    """Main term (c(q)/Gamma(1/phi(q))) * X (log X)^(1/phi(q)) / log X
    times prod_{p <= Y, p = 1 mod q} (1 - 1/p)."""
    if X < 3:
        raise DomainError(f"X must be >= 3, got {X}")
    from .characters import totient

    phi_q = totient(q)
    log_x = math.log(X)
    main = bundle.c_q / gamma_function(1.0 / phi_q) * X * log_x ** (1.0 / phi_q - 1.0)
    return main / mertens_ap_product(q, Y, table)
