"""The Shiu-style prime set, the factored modulus built from it, and the
split of [1, H] coprime residues into the target class (S) and the rest (T).

The modulus is only ever represented by its set of distinct prime factors;
its integer value (a product of thousands of primes) is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import ComparisonReport, leaf_counts, restricted_nodes
from .characters import factorize, totient
from .errors import DomainError
from .primes import Windows, joined, log_euler, sieve_primes, windows_upto

# t_of_H needs log log log H > 0, i.e. H > e^e.
T_OF_H_THRESHOLD = math.exp(math.e)


def t_of_H(H: float) -> float:
    """The cut parameter exp((log H)(logloglog H) / (2 loglog H))."""
    if H <= T_OF_H_THRESHOLD:
        raise DomainError(
            f"t_of_H needs H > e^e = {T_OF_H_THRESHOLD:.6f} "
            f"(so that logloglog H > 0), got {H}"
        )
    log_h = math.log(H)
    return math.exp(log_h * math.log(math.log(log_h)) / (2.0 * math.log(log_h)))


@dataclass(frozen=True)
class ShiuConstruction:
    H: int
    q: int
    a: int
    p0: int  # 1, or a prime of script_p exceeding log H
    tH: float | None  # only defined for a not congruent to 1 mod q
    script_p: np.ndarray  # the engineered prime set, sorted
    q_primes: tuple[int, ...]  # distinct prime factors of q
    regime_ok: bool  # log H < t(H) < H/t(H) < H/(log H)^2

    def modulus_primes(self) -> np.ndarray:
        """Distinct primes of the working modulus, ascending: q's primes
        plus the engineered set, with p0 struck from the latter."""
        kept = self.script_p[self.script_p != self.p0]
        extra = [p for p in self.q_primes if p not in kept]
        return np.insert(kept, np.searchsorted(kept, extra), extra)


def build_construction(
    H: int, q: int, a: int, p0: int, windows: Windows
) -> ShiuConstruction:
    """Assemble the prime set for (H, q, a), literally per its definition.

    For a = 1 mod q: primes p <= log H with p = 1 mod q, plus primes
    p <= H/(log H)^2 with p != 1 mod q.  Otherwise four ranges split by
    residue, cut at t(H) and H/t(H); the asymptotic ordering
    log H < t(H) < H/t(H) < H/(log H)^2 is recorded in regime_ok but never
    enforced by clamping. p0, struck from the set, is 1 or one of its
    primes above log H. The primes come from a stream of windows, read up
    to max(H/(log H)^2, log H, H/t(H)).
    """
    if math.gcd(a, q) != 1:
        raise DomainError(f"a={a} and q={q} must be coprime")
    if q < 3:
        raise DomainError(f"q must be >= 3, got {q}")
    if H < 100:
        raise DomainError(f"H must be >= 100, got {H}")
    log_h = math.log(H)
    if p0 != 1:
        if p0 > H:
            raise DomainError(f"p0 must be 1 or a prime <= H = {H}, got {p0}")
        if p0 <= log_h:
            raise DomainError(f"p0={p0} must exceed log H = {log_h:.4f}")

    cap = H / log_h**2
    tH = None if a % q == 1 else t_of_H(H)

    def engineered(p):
        """The primes of the set among the ascending primes p."""
        res = p % q
        s1 = (p <= log_h) & (res == 1)
        if tH is None:
            return p[s1 | ((p <= cap) & (res != 1))]
        s2 = (p <= cap) & (res != 1) & (res != a % q)
        s3 = (p > tH) & (p <= cap) & (res == 1)
        s4 = (p <= H / tH) & (res == a % q)
        return p[s1 | s2 | s3 | s4]

    # window by window, so the masks never span every prime up to the top
    top = max(cap, log_h, H / tH if tH else 0.0)
    script_p = joined(map(engineered, windows_upto(windows, top)))
    regime_ok = tH is None or log_h < tH < H / tH < cap  # no t(H) enters a = 1
    if p0 != 1 and p0 not in script_p:
        raise DomainError(f"p0={p0} is not a prime of the set P(H) for H={H}, "
                          f"q={q}, a={a}")
    return ShiuConstruction(
        H=H,
        q=q,
        a=a,
        p0=p0,
        tH=tH,
        script_p=script_p,
        q_primes=tuple(p for p, _ in factorize(q)),
        regime_ok=bool(regime_ok),
    )


@dataclass(frozen=True)
class ResidueSets:
    """Counts (and optionally members) of the coprime residues h <= H,
    split by whether h falls in the target progression."""

    S_count: int
    T_count: int
    phiQ_over_Q: float
    S_members: tuple[int, ...] | None = None
    T_members: tuple[int, ...] | None = None


def compute_S_T(c: ShiuConstruction, windows: Windows,
                keep_members: bool = False) -> ResidueSets:
    """Split the h <= H coprime to the modulus, the products of the primes
    that do not divide it: h = a mod q goes to S, the rest to T. They are
    counted by the restricted-product walk over those primes up to
    isqrt(H), sieved here, and one fold over the windows of
    primes.segments(H); a leaf n * p is in S when
    p = a / n mod q. keep_members lists them from one array of the primes."""
    modulus, q = c.modulus_primes(), c.q

    def allowed(window):  # the window less the modulus primes, all of which it holds
        i, j = np.searchsorted(modulus, (window[0], window[-1] + 1)) if window.size else (0, 0)
        keys = modulus[i:j].astype(window.dtype)  # int64 keys would copy a uint32 window
        return np.delete(window, np.searchsorted(window, keys)) if j > i else window

    n, lo, hi = restricted_nodes(c.H, allowed(sieve_primes(math.isqrt(c.H)).primes), 1)
    windows = map(allowed, windows_upto(windows, c.H))
    s_members = t_members = None
    if keep_members:
        every = joined(windows)
        windows = [every]
        span = np.searchsorted(every, np.stack((lo, hi)), side="right")
        kept = np.sort(np.concatenate([n, *(m * every[i:j] for m, i, j in zip(n, *span))]))
        in_s = kept % q == c.a % q
        s_members, t_members = tuple(kept[in_s].tolist()), tuple(kept[~in_s].tolist())
    k = n.size
    target = [c.a * pow(r, -1, q) % q for r in (n % q).tolist()]
    leaves = leaf_counts(windows, q, np.tile(lo, 2), np.tile(hi, 2), np.r_[[-1] * k, target])
    s_count = int(np.count_nonzero(n % q == c.a % q) + leaves[k:].sum())
    return ResidueSets(
        S_count=s_count,
        T_count=int(k + leaves[:k].sum()) - s_count,
        phiQ_over_Q=math.exp(log_euler(modulus)),  # prod (1 - 1/p) over the modulus
        S_members=s_members,
        T_members=t_members,
    )


def lemma34_check(c: ShiuConstruction, sets: ResidueSets) -> ComparisonReport:
    """|S| - |T| against its predicted lower bound:
    H/Gamma(1/phi(q)) * phi(Q)/Q for the a = 1 case, and
    (2/5) * H/((1 + phi(q)) Gamma(1/phi(q))) * phi(Q)/Q otherwise.

    Pass records whether the inequality held as observed; at desk scale the
    asymptotic regime may not be reached, which is annotated, not fixed.
    """
    phi_q = totient(c.q)
    gamma_factor = math.gamma(1.0 / phi_q)
    lhs = float(sets.S_count - sets.T_count)
    if c.a % c.q == 1:
        rhs = c.H / gamma_factor * sets.phiQ_over_Q
        case = "a=1"
    else:
        rhs = 0.4 * c.H / ((1 + phi_q) * gamma_factor) * sets.phiQ_over_Q
        case = "a!=1"
    regime = "ok" if c.regime_ok else "asymptotic regime not reached"
    return ComparisonReport(
        label="lower-bound S-T vs predicted",
        actual=lhs,
        predicted=rhs,
        ratio=lhs / rhs if rhs != 0 else math.inf,
        params={
            "H": c.H,
            "q": c.q,
            "a": c.a,
            "p0": c.p0,
            "case": case,
            "regime": regime,
        },
        passed=bool(lhs >= rhs),
    )


def t_bound_report(c: ShiuConstruction, sets: ResidueSets) -> ComparisonReport:
    """Report |T| * log H / H (no pass threshold: the implied constant in
    the |T| << H/log H bound is unspecified)."""
    log_h = math.log(c.H)
    actual = float(sets.T_count)
    predicted = c.H / log_h
    return ComparisonReport(
        label="off-class count vs H/log H",
        actual=actual,
        predicted=predicted,
        ratio=actual / predicted,
        params={
            "H": c.H,
            "q": c.q,
            "a": c.a,
            "regime": "ok" if c.regime_ok else "asymptotic regime not reached",
        },
    )
