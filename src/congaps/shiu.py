"""The Shiu-style prime set, the factored modulus built from it, and the
split of [1, H] coprime residues into the target class (S) and the rest (T).

The modulus is only ever represented by its set of distinct prime factors;
its integer value (a product of thousands of primes) is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import ComparisonReport
from .characters import factorize, totient
from .errors import DomainError
from .primes import PrimeTable, log_euler

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

    def modulus_primes(self) -> frozenset[int]:
        """Distinct primes of the working modulus: q's primes plus the
        engineered set, with p0 struck from the latter."""
        out = set(self.q_primes)
        out.update(int(p) for p in self.script_p if p != self.p0)
        return frozenset(out)


def build_construction(
    H: int, q: int, a: int, p0: int, table: PrimeTable
) -> ShiuConstruction:
    """Assemble the prime set for (H, q, a), literally per its definition.

    For a = 1 mod q: primes p <= log H with p = 1 mod q, plus primes
    p <= H/(log H)^2 with p != 1 mod q.  Otherwise four ranges split by
    residue, cut at t(H) and H/t(H); the asymptotic ordering
    log H < t(H) < H/t(H) < H/(log H)^2 is recorded in regime_ok but never
    enforced by clamping. p0, struck from the set, is 1 or one of its
    primes above log H.
    """
    if math.gcd(a, q) != 1:
        raise DomainError(f"a={a} and q={q} must be coprime")
    if q < 3:
        raise DomainError(f"q must be >= 3, got {q}")
    if H < 100:
        raise DomainError(f"H must be >= 100, got {H}")
    if table.limit < H:
        raise DomainError("a PrimeTable with limit >= H is required")
    log_h = math.log(H)
    primes = table.primes
    if p0 != 1:
        if p0 > H:
            raise DomainError(f"p0 must be 1 or a prime <= H = {H}, got {p0}")
        if p0 <= log_h:
            raise DomainError(f"p0={p0} must exceed log H = {log_h:.4f}")

    cap = H / log_h**2
    tH = None if a % q == 1 else t_of_H(H)
    in_range = primes[primes <= max(cap, log_h, H / tH if tH else 0.0)]
    res = in_range % q

    s1 = (in_range <= log_h) & (res == 1)
    if tH is None:
        mask = s1 | ((in_range <= cap) & (res != 1))
        regime_ok = True  # no t(H) ordering enters the a = 1 case
    else:
        regime_ok = log_h < tH < H / tH < cap
        s2 = (in_range <= cap) & (res != 1) & (res != a % q)
        s3 = (in_range > tH) & (in_range <= cap) & (res == 1)
        s4 = (in_range <= H / tH) & (res == a % q)
        mask = s1 | s2 | s3 | s4

    script_p = in_range[mask]
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


def phi_over_Q(c: ShiuConstruction) -> float:
    """prod (1 - 1/p) over the distinct primes of the modulus, in log space."""
    return math.exp(log_euler(sorted(c.modulus_primes())))


@dataclass(frozen=True)
class ResidueSets:
    """Counts (and optionally members) of the coprime residues h <= H,
    split by whether h falls in the target progression."""

    S_count: int
    T_count: int
    phiQ_over_Q: float
    S_members: tuple[int, ...] | None = None
    T_members: tuple[int, ...] | None = None


def compute_S_T(c: ShiuConstruction, keep_members: bool = False) -> ResidueSets:
    """Strike the multiples of every modulus prime from [1, H]; of the h
    kept, those with h = a mod q form S and the rest T."""
    keep = np.ones(c.H + 1, dtype=bool)
    keep[0] = False
    for p in c.modulus_primes():
        keep[p::p] = False
    a_mod = c.a % c.q
    s_count = int(np.count_nonzero(keep[a_mod::c.q]))
    s_members = t_members = None
    if keep_members:
        kept = np.flatnonzero(keep)
        in_s = kept % c.q == a_mod
        s_members = tuple(kept[in_s].tolist())
        t_members = tuple(kept[~in_s].tolist())
    return ResidueSets(
        S_count=s_count,
        T_count=int(np.count_nonzero(keep)) - s_count,
        phiQ_over_Q=phi_over_Q(c),
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
