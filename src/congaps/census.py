"""Census of consecutive prime pairs p_r <= X, p_{r+1} lying in the same
residue class a mod q with gap below epsilon * log p_r, plus the two
lower-bound reference curves it is juxtaposed with. Only p_r is bounded by
X; its successor p_{r+1} may exceed X.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .characters import totient
from .errors import DomainError
from .primes import Windows, next_prime, windows_upto


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
    pairs: tuple[tuple[int, int], ...]  # the first SAMPLE_PAIRS pairs
    bound_reasons: dict = field(default_factory=dict)  # why a bound is None

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
            "sample_pairs": [list(p) for p in self.pairs],
            "wall_time_ms": self.wall_time_ms,
        }


def congruent_pairs(X: int, q: int, a: int, epsilon: float, windows: Windows,
                    thm11_c: float = 1.0, shiu_C: float = 1.0):
    """The consecutive prime pairs with p_r <= X (p_next may pass X), both
    = a mod q and gap below epsilon * log p_r: one (p_r, p_next) pair of
    arrays per window of primes.segments(X), the last prime of each
    carried into the next. They are uint32, as the windows are, but the
    last pair is int64: it ends at next_prime(X), which may pass 2^32.
    The inputs, the reference bounds' constants
    among them, are checked when this is called, so a census with a bad
    one writes nothing.
    """
    if math.gcd(a, q) != 1:
        raise DomainError(f"a={a} and q={q} must be coprime")
    if q < 3:
        raise DomainError(f"q must be >= 3, got {q}")
    for name, value in (("epsilon", epsilon), ("c", thm11_c), ("C", shiu_C)):
        if not 0 < value < math.inf:
            raise DomainError(f"{name} must be > 0 and finite, got {value}")
    return _pairs(X, q, a, epsilon, windows)


def _pairs(X: int, q: int, a: int, epsilon: float, windows: Windows):
    last = np.empty(0, dtype=np.uint32)  # the last prime of the windows so far
    # next_prime(X), the successor no window holds, comes last, as int64: joined to
    # the last window it widens only that one. map defers finding it till then
    successor = map(lambda x: np.array([next_prime(x)], dtype=np.int64), [X])
    for window in itertools.chain(windows_upto(windows, X), successor):
        primes = np.concatenate((last, window))
        in_class = primes % q == a % q
        # pairs with both primes in the class; only these take the gap test
        idx = np.flatnonzero(in_class[:-1] & in_class[1:])
        gaps = primes[idx + 1] - primes[idx]
        with np.errstate(over="ignore"):  # a huge epsilon overflows to inf: every gap passes
            idx = idx[gaps < epsilon * np.log(primes[idx].astype(float))]
        yield primes[idx], primes[idx + 1]
        last = primes[-1:]


def find_congruent_pairs(
    X: int,
    q: int,
    a: int,
    epsilon: float,
    windows: Windows,
    thm11_c: float = 1.0,
    shiu_C: float = 1.0,
) -> CensusResult:
    """The census: the pairs of congruent_pairs counted in one pass over
    the windows, the first SAMPLE_PAIRS of them kept as Python ints. Both
    reference bounds are informational; each is attached when it is
    defined at X, else reported as None with the reason in bound_reasons.
    """
    pairs = congruent_pairs(X, q, a, epsilon, windows, thm11_c, shiu_C)
    start = time.perf_counter()
    sample: list[tuple[int, int]] = []
    pair_count = 0
    for p_r, p_next in pairs:
        pair_count += p_r.size
        room = SAMPLE_PAIRS - len(sample)
        sample += zip(p_r[:room].tolist(), p_next[:room].tolist())

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
        pairs=tuple(sample),
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
