"""Independent checks of congaps reports.

Nothing here imports congaps. Each check recomputes what it compares
against with code of its own (a numpy sieve, mpmath, sympy) or tests a
property the method must have, and raises CheckFailed naming what
disagreed. Checks take the parsed report and the benchmark's own Primes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

PI_1E8 = 5_761_455  # number of primes below 10^8 (OEIS A006880)
THETA_PRIME_CUTOFF = 10**7  # prime cutoff of the benchmark's own Theta(1) sum
SUITE_CHECKS = (
    "orthogonality", "l_one_closed_forms", "c_of_q_anchors", "gamma_identities",
    "hankel_main_term", "perron_truncation", "mertens_in_progression",
    "restricted_count", "shiu_partition", "census_pairs",
)


class CheckFailed(Exception):
    """A report disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name} in JSON")


def strict_json(text: str):
    """Parse JSON as RFC 8259 has it: NaN and Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


@dataclass(frozen=True)
class Primes:
    """Every prime up to `limit`, ascending."""

    limit: int
    array: np.ndarray

    def upto(self, x: float) -> np.ndarray:
        require(x <= self.limit, f"oracle primes stop at {self.limit}, below {x}")
        return self.array[: np.searchsorted(self.array, x, side="right")]


def sieve(limit: int) -> Primes:
    """The primes up to limit, from an odd-only sieve of Eratosthenes."""
    if limit < 2:
        return Primes(limit, np.empty(0, dtype=np.int64))
    is_odd_prime = np.ones((limit - 1) // 2, dtype=bool)  # index i is 2i + 3
    for i in range((math.isqrt(limit) - 1) // 2):
        if is_odd_prime[i]:
            p = 2 * i + 3
            is_odd_prime[(p * p - 3) // 2 :: p] = False
    odd = 2 * np.flatnonzero(is_odd_prime).astype(np.int64) + 3
    return Primes(limit, np.concatenate((np.array([2], dtype=np.int64), odd)))


# --- constants --q ------------------------------------------------------


def _l_values(out: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in out["l_values"]])


def constants_length(out: dict, primes: Primes, q: int) -> None:
    from sympy import totient

    require(out["q"] == q, f"report is for q={out['q']}, asked q={q}")
    want = int(totient(q)) - 1
    require(len(out["l_values"]) == want,
            f"q={q}: {len(out['l_values'])} L(1, chi) values, want phi(q) - 1 = {want}")


def constants_conjugate(out: dict, primes: Primes, q: int) -> None:
    """L(1, conj chi) = conj L(1, chi): the values are closed under
    conjugation, to twice the per-value tolerance."""
    values = _l_values(out)
    tol = 2 * out["tolerances"]["l_tol"]
    gaps = np.abs(values[:, None] - np.conj(values)[None, :]).min(axis=1)
    worst = float(gaps.max(initial=0.0))
    require(worst <= tol, f"q={q}: a value has no conjugate partner within {tol} ({worst})")


def constants_digamma_sum(out: dict, primes: Primes, q: int) -> None:
    """sum_{chi != chi0} L(1, chi) = -(1/q)[phi psi(1/q) - sum_{(r,q)=1} psi(r/q)]."""
    import mpmath

    with mpmath.workdps(25):
        units = [r for r in range(1, q) if math.gcd(r, q) == 1]
        closed = -(len(units) * mpmath.digamma(mpmath.mpf(1) / q)
                   - mpmath.fsum(mpmath.digamma(mpmath.mpf(r) / q) for r in units)) / q
        closed = complex(closed)
    total = complex(_l_values(out).sum())
    tol = len(units) * out["tolerances"]["l_tol"]
    dev = abs(total - closed)
    require(dev <= tol, f"q={q}: sum of L(1, chi) is off the digamma closed form by {dev} > {tol}")


def constants_product_positive(out: dict, primes: Primes, q: int) -> None:
    """prod L(1, chi) is real and positive: its argument is 0 mod 2 pi, up
    to the phase the per-value tolerances allow."""
    values = _l_values(out)
    phase = math.remainder(float(np.angle(values).sum()), 2 * math.pi)
    allowed = float(np.sum(out["tolerances"]["l_tol"] / np.abs(values)))
    require(abs(phase) <= allowed,
            f"q={q}: prod L(1, chi) has argument {phase}, allowed {allowed}")


def constants_c_q(out: dict, primes: Primes, q: int) -> None:
    """c(q) = Theta(1) ((phi/q) prod L(1, chi))^(1/phi), in log space."""
    values = _l_values(out)
    phi = values.size + 1
    log_prod = math.fsum(np.log(np.abs(values)).tolist())
    want = out["theta1"] * math.exp((math.log(phi / q) + log_prod) / phi)
    require(math.isclose(out["c_q"], want, rel_tol=1e-9),
            f"q={q}: c_q = {out['c_q']}, recomputed {want}")


def multiplicative_orders(q: int) -> np.ndarray:
    """order[r] = multiplicative order of r mod q (0 where gcd(r, q) > 1)."""
    r = np.arange(q, dtype=np.int64)
    units = np.gcd(r, q) == 1
    order = np.zeros(q, dtype=np.int64)
    power = r.copy()
    for k in range(1, q):
        fresh = units & (order == 0) & (power == 1 % q)
        order[fresh] = k
        if order[units].all():
            break
        power = power * r % q
    return order


def theta_one(q: int, primes: Primes) -> float:
    """Theta(1) = exp(sum_p (1/d) log(1 - p^-d)) over primes p not dividing q,
    p != 1 mod q, d the order of p mod q; truncated at THETA_PRIME_CUTOFF,
    whose tail is below 2 / THETA_PRIME_CUTOFF."""
    p = primes.upto(THETA_PRIME_CUTOFF)
    p = p[(q % p != 0) & (p % q != 1)]
    d = multiplicative_orders(q)[p % q]
    terms = np.log1p(-np.power(p.astype(float), -d.astype(float))) / d
    return math.exp(math.fsum(terms.tolist()))


def constants_theta(out: dict, primes: Primes, q: int) -> None:
    want = theta_one(q, primes)
    tol = out["tolerances"]["theta_tol"] + 2.0 / THETA_PRIME_CUTOFF * want
    dev = abs(out["theta1"] - want)
    require(dev <= tol, f"q={q}: theta1 = {out['theta1']}, own prime sum {want} (|dev| {dev} > {tol})")


def constants_gamma(out: dict, primes: Primes, q: int) -> None:
    import mpmath

    phi = len(out["l_values"]) + 1
    require(math.isclose(out["gamma_recip"], float(mpmath.rgamma(mpmath.mpf(1) / phi)),
                         rel_tol=1e-12), f"q={q}: 1/Gamma(1/phi) is off")
    require(math.isclose(out["gamma_euler"], float(mpmath.euler), rel_tol=1e-15),
            "Euler's constant is off")


CONSTANTS_CHECKS = (constants_length, constants_conjugate, constants_digamma_sum,
                    constants_product_positive, constants_c_q, constants_theta,
                    constants_gamma)


def constants(out: dict, primes: Primes, q: int) -> None:
    for check in CONSTANTS_CHECKS:
        check(out, primes, q)


# --- scan: mertens, count, census, shiu ----------------------------------


def mertens(out: dict, primes: Primes, q: int, x: int) -> None:
    """prod_{p <= x, p = 1 mod q} (1 - 1/p)^-1 from the own sieve."""
    require(out["params"] == {"q": q, "X": x}, f"mertens params {out['params']}")
    cls = primes.upto(x)
    cls = cls[cls % q == 1].astype(float)
    want = math.exp(-math.fsum(np.log1p(-1.0 / cls).tolist()))
    require(math.isclose(out["actual"], want, rel_tol=1e-10),
            f"mertens q={q} X={x}: actual {out['actual']}, own {want}")
    require(math.isclose(out["ratio"], out["actual"] / out["predicted"], rel_tol=1e-12),
            "mertens ratio is not actual / predicted")


def restricted_count(primes: Primes, q: int, x: int, y: float) -> int:
    """#{n <= x : every prime factor p of n has p = 1 mod q and p > y},
    counting n = 1, by striking the multiples of every disallowed prime."""
    allowed = np.ones(x + 1, dtype=bool)
    allowed[0] = False
    p = primes.upto(x)
    banned = p[(p % q != 1) | (p <= y)]
    few = x // 64  # primes above this have fewer than 64 multiples up to x
    for b in banned[banned <= few].tolist():
        allowed[b::b] = False
    big = banned[banned > few]
    for k in range(1, 64):
        multiples = k * big[big <= x // k]
        if multiples.size == 0:
            break
        allowed[multiples] = False
    return int(np.count_nonzero(allowed))


def count(out: dict, primes: Primes, q: int, x: int, y: float) -> None:
    require(out["params"] == {"q": q, "X": x, "Y": y}, f"count params {out['params']}")
    want = restricted_count(primes, q, x, y)
    require(out["actual"] == want, f"count q={q} X={x} Y={y}: {out['actual']}, own sieve {want}")


def congruent_pairs(primes: Primes, q: int, a: int, x: int, eps: float) -> np.ndarray:
    """Consecutive primes p < p' with p <= x, both = a mod q, p' - p < eps log p."""
    values = primes.array
    n = np.searchsorted(values, x, side="right")
    require(n < values.size, f"oracle primes lack the successor of the last prime <= {x}")
    lo, hi = values[:n], values[1 : n + 1]
    keep = (lo % q == a % q) & (hi % q == a % q) & ((hi - lo) < eps * np.log(lo.astype(float)))
    return np.stack((lo[keep], hi[keep]), axis=1)


def census(out: dict, primes: Primes, q: int, a: int, x: int, eps: float) -> None:
    require((out["X"], out["q"], out["a"], out["epsilon"]) == (x, q, a, eps),
            f"census echoes X={out['X']} q={out['q']} a={out['a']} eps={out['epsilon']}")
    pairs = congruent_pairs(primes, q, a, x, eps)
    require(out["pair_count"] == len(pairs),
            f"census q={q} a={a} X={x} eps={eps}: {out['pair_count']} pairs, own sieve {len(pairs)}")
    sample = out["sample_pairs"]
    require(sample == pairs[: len(sample)].tolist() and len(sample) == min(len(pairs), 100),
            f"census q={q} a={a}: sample pairs are not the first consecutive pairs")


def shiu_prime_set(primes: Primes, h: int, q: int, a: int) -> np.ndarray:
    """The prime set P(H) by its definition: for a = 1 mod q, primes
    p <= log H with p = 1 and p <= H/(log H)^2 with p != 1; otherwise
    p <= log H with p = 1, p <= H/(log H)^2 with p != 1, a,
    t(H) < p <= H/(log H)^2 with p = 1, and p <= H/t(H) with p = a."""
    log_h = math.log(h)
    cap = h / log_h**2
    if a % q == 1:
        p = primes.upto(max(cap, log_h))
        r = p % q
        return p[((p <= log_h) & (r == 1)) | ((p <= cap) & (r != 1))]
    t = math.exp(log_h * math.log(math.log(log_h)) / (2 * math.log(log_h)))
    p = primes.upto(max(cap, h / t, log_h))
    r = p % q
    keep = (((p <= log_h) & (r == 1)) | ((p <= cap) & (r != 1) & (r != a % q))
            | ((p > t) & (p <= cap) & (r == 1)) | ((p <= h / t) & (r == a % q)))
    return p[keep]


def shiu_split(primes: Primes, h: int, q: int, a: int) -> tuple[int, int, int]:
    """(|P(H)|, |S|, |T|): h' <= H coprime to q and to P(H), split by h' = a mod q."""
    script_p = shiu_prime_set(primes, h, q, a)
    coprime = np.ones(h + 1, dtype=bool)
    coprime[0] = False
    for p in set(script_p.tolist()) | {p for p in primes.upto(q).tolist() if q % p == 0}:
        coprime[p::p] = False
    in_class = np.arange(h + 1) % q == a % q
    s = int(np.count_nonzero(coprime & in_class))
    return int(script_p.size), s, int(np.count_nonzero(coprime)) - s


def shiu(out: dict, primes: Primes, h: int, q: int, a: int) -> None:
    require((out["H"], out["q"], out["a"], out["p0"]) == (h, q, a, 1),
            f"shiu echoes H={out['H']} q={out['q']} a={out['a']} p0={out['p0']}")
    want = shiu_split(primes, h, q, a)
    got = (out["P_size"], out["S_count"], out["T_count"])
    require(got == want, f"shiu H={h} q={q} a={a}: (|P|, S, T) = {got}, own recount {want}")


# --- suite --------------------------------------------------------------

SUITE_CENSUS = (3, 2, 10**5, 2.0)  # (q, a, X, eps) of the suite's census check
SUITE_SHIU_H = 10**4


def suite(out: dict, primes: Primes) -> None:
    require(out["scale"] == "full" and out["ok"] is True, "suite did not pass at full scale")
    records = {r["name"]: r for r in out["checks"]}
    require(tuple(records) == SUITE_CHECKS, f"suite ran checks {list(records)}")
    failing = [name for name, r in records.items() if r["ok"] is not True]
    require(not failing, f"suite checks failed: {failing}")
    q, a, x, eps = SUITE_CENSUS
    want = len(congruent_pairs(primes, q, a, x, eps))
    got = records["census_pairs"]["pair_count"]
    require(got == want, f"suite census_pairs: {got} pairs, own sieve {want}")
    for case, rec in records["shiu_partition"]["cases"].items():
        q, a = (int(part.split("=")[1]) for part in case.split(","))
        _, s, t = shiu_split(primes, SUITE_SHIU_H, q, a)
        require((rec["S"], rec["T"]) == (s, t),
                f"suite shiu_partition {case}: S, T = {rec['S']}, {rec['T']}, own {s}, {t}")


# --- traced run -----------------------------------------------------------


def sieved_tables(tables: list[tuple[int, int]], primes: Primes) -> None:
    """Every prime table the program sieved holds pi(limit) primes, and
    pi(10^8) is the known 5,761,455."""
    if primes.limit >= 10**8:
        require(primes.upto(10**8).size == PI_1E8, "own sieve disagrees with pi(10^8)")
    for limit, size in tables:
        if limit <= primes.limit:
            want = primes.upto(limit).size
            require(size == want, f"sieve to {limit} gave {size} primes, pi({limit}) = {want}")
