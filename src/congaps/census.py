"""Census of consecutive prime pairs p_r <= X, p_{r+1} lying in the same
residue class a mod q with gap below epsilon * log p_r, plus the two
lower-bound reference curves it is juxtaposed with. Only p_r is bounded by
X; its successor p_{r+1} may exceed X.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .characters import totient
from .errors import DomainError, OutOfRangeError
from .primes import PrimeTable


SAMPLE_PAIRS = 100  # pairs a census report carries


@dataclass(frozen=True)
class CensusResult:
    X: int
    q: int
    a: int
    epsilon: float
    pair_count: int
    bound_thm11: float | None  # None where the bound is undefined at X
    bound_shiu: float | None
    wall_time_ms: float
    pairs: tuple[tuple[int, int], ...] | None = None  # all of them, if kept
    bound_reasons: dict = field(default_factory=dict)  # why a bound is None
    sample_pairs: tuple[tuple[int, int], ...] = ()  # the first SAMPLE_PAIRS pairs

    def to_dict(self) -> dict:
        return {
            "X": self.X,
            "q": self.q,
            "a": self.a,
            "epsilon": self.epsilon,
            "pair_count": self.pair_count,
            "bound_thm11": self.bound_thm11,
            "bound_shiu": self.bound_shiu,
            "bound_reasons": self.bound_reasons,
            "sample_pairs": [list(p) for p in self.sample_pairs],
            "wall_time_ms": self.wall_time_ms,
        }


def find_congruent_pairs(
    X: int,
    q: int,
    a: int,
    epsilon: float,
    table: PrimeTable,
    keep_pairs: bool = True,
    thm11_c: float = 1.0,
    shiu_C: float = 1.0,
) -> CensusResult:
    """Single pass over consecutive prime pairs with p_r <= X.

    The first SAMPLE_PAIRS pairs are always kept; all of them only with
    keep_pairs, as building that many Python tuples costs several times the
    pass itself at X = 10^8.

    The successor of the last prime <= X must be in the table, so the table
    has to hold a prime above X. Both reference bounds are informational;
    each is attached when it is defined at X, else reported as None with
    the reason in bound_reasons.
    """
    if math.gcd(a, q) != 1:
        raise DomainError(f"a={a} and q={q} must be coprime")
    if q < 3:
        raise DomainError(f"q must be >= 3, got {q}")
    for name, value in (("epsilon", epsilon), ("c", thm11_c), ("C", shiu_C)):
        if value <= 0:
            raise DomainError(f"{name} must be > 0, got {value}")
    if table.primes.size == 0 or table.primes[-1] <= X:
        raise OutOfRangeError(
            f"the table to {table.limit} holds no prime above X={X}, so the "
            "successor of the last prime <= X is unknown"
        )

    start = time.perf_counter()
    # the primes <= X and the successor of the last one
    primes = table.primes[: np.searchsorted(table.primes, X, side="right") + 1]
    in_class = primes % q == a % q
    # pairs with both primes in the class; only these take the gap test
    idx = np.flatnonzero(in_class[:-1] & in_class[1:])
    gaps = primes[idx + 1] - primes[idx]
    with np.errstate(over="ignore"):  # a huge epsilon overflows to inf: every gap passes
        idx = idx[gaps < epsilon * np.log(primes[idx].astype(float))]
    pair_count = int(idx.size)
    kept = idx if keep_pairs else idx[:SAMPLE_PAIRS]
    listed = tuple(zip(primes[kept].tolist(), primes[kept + 1].tolist()))

    reasons: dict[str, str] = {}
    b11 = _bound_or_reason(reasons, "bound_thm11", theorem11_bound, X, thm11_c)
    bsh = _bound_or_reason(reasons, "bound_shiu", shiu_bound, X, q, a, shiu_C)
    elapsed = (time.perf_counter() - start) * 1000.0
    return CensusResult(
        X=X,
        q=q,
        a=a,
        epsilon=epsilon,
        pair_count=pair_count,
        bound_thm11=b11,
        bound_shiu=bsh,
        wall_time_ms=elapsed,
        sample_pairs=listed[:SAMPLE_PAIRS],
        pairs=listed if keep_pairs else None,
        bound_reasons=reasons,
    )


def _bound_or_reason(reasons: dict, name: str, bound, *args) -> float | None:
    """bound(*args), or None with the DomainError message kept as
    reasons[name]."""
    try:
        return bound(*args)
    except DomainError as exc:
        reasons[name] = str(exc)
        return None


def theorem11_bound(X: float, c: float) -> float:
    """X^(1 - c/loglog X)."""
    if X < 16:
        raise DomainError(f"need X >= 16 so loglog X > 0, got {X}")
    if c <= 0:
        raise DomainError(f"c must be > 0, got {c}")
    return X ** (1.0 - c / math.log(math.log(X)))


def shiu_bound(X: float, q: int, a: int, C: float) -> float:
    """X^(1 - eps(X)) with eps(X) = C*(logloglog X/loglog X)^(1/phi(q)) when
    a = +-1 mod q, and the (logloglog X)^2/(loglog X * loglogloglog X)
    variant otherwise."""
    if C <= 0:
        raise DomainError(f"C must be > 0, got {C}")
    phi_q = totient(q)
    ll = math.log(math.log(X)) if X > math.e else -1.0
    if ll <= 0 or math.log(ll) <= 0:
        raise DomainError(f"iterated logs not positive at X={X}")
    lll = math.log(ll)
    if a % q in (1 % q, (q - 1) % q):
        eps = C * (lll / ll) ** (1.0 / phi_q)
    else:
        if math.log(lll) <= 0:
            raise DomainError(f"loglogloglog X not positive at X={X}")
        llll = math.log(lll)
        eps = C * (lll**2 / (ll * llll)) ** (1.0 / phi_q)
    return X ** (1.0 - eps)
