"""The benchmark's workloads: fixed closed-loop sequences of congaps
invocations, with their inputs drawn from a seed.

A workload is one client running one CLI invocation at a time, each a
fresh interpreter, the way a user runs one experiment per command. The
seed chooses among inputs of the same shape and cost; the program sees
only the resulting argv.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

import checks

X_SCAN = 10**8
H_SCAN = 10**6

# Primes near 10^3 whose q - 1 is smooth, so that the multiplicative
# orders summed by the Theta(1) loop total within 4% of each other: the
# seed changes the modulus, not the work. (At 983 or 1019 the same loop
# takes twice as long.)
PRIMES_NEAR_1000 = (991, 1009, 1021)
HIGHLY_COMPOSITE = (720, 840)  # both have phi = 192


@dataclass(frozen=True)
class Op:
    """One invocation: its argv after `congaps`, and the check its report
    must pass (called with the parsed report and the oracle Primes)."""

    argv: tuple[str, ...]
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    oracle_limit: int  # the checks need every prime up to this
    uses_cache: bool  # CONGAPS_CACHE_DIR set, and emptied before every round


def _op(check, *argv, **params) -> Op:
    return Op(tuple(str(a) for a in argv), functools.partial(check, **params))


def suite(rng: random.Random) -> Workload:
    """The battery every user and tier-1 run; it takes no inputs, so the
    seed changes nothing."""
    op = _op(checks.suite, "suite", "--scale", "full")
    return Workload("suite", (op,), 10**7, uses_cache=False)


def moduli(rng: random.Random) -> Workload:
    """Constants for three shapes of modulus near 10^3: prime, power of
    two and highly composite."""
    ops = tuple(_op(checks.constants, "constants", "--q", q, q=q) for q in (
        rng.choice(PRIMES_NEAR_1000), 1024, rng.choice(HIGHLY_COMPOSITE)))
    return Workload("moduli", ops, checks.THETA_PRIME_CUTOFF, uses_cache=False)


def _census(q: int, a: int, x: int, eps: float) -> Op:
    return _op(checks.census, "census", "--q", q, "--a", a, "--x", x, "--epsilon", eps,
               q=q, a=a, x=x, eps=eps)


def scan(rng: random.Random) -> Workload:
    """A user's scan at X = 10^8 on an empty prime cache. mertens sieves and
    writes the table for 10^8 and count reads it; the first census sieves
    and writes the table for 10^8 + 10^4 and the second reads it."""
    y = 10.0
    ops = (
        _op(checks.mertens, "mertens", "--q", 3, "--x", X_SCAN, q=3, x=X_SCAN),
        _op(checks.count, "count", "--q", 3, "--x", X_SCAN, "--y", y, q=3, x=X_SCAN, y=y),
        _census(3, rng.choice((1, 2)), X_SCAN, rng.choice((1.9, 2.0, 2.1))),
        _census(4, rng.choice((1, 3)), X_SCAN, rng.choice((0.9, 1.0, 1.1))),
        _op(checks.shiu, "shiu", "--h", H_SCAN, "--q", 3, "--a", 2, h=H_SCAN, q=3, a=2),
        # Known failure, kept on purpose: the report carries "bound_shiu": NaN
        # (loglogloglog X <= 0 at X = 10^6) and cli._emit writes it as bare
        # NaN, so the output is not JSON. It fails the same way on every seed.
        _census(5, 2, 10**6, 1.0),
    )
    return Workload("scan", ops, X_SCAN + 10**4, uses_cache=True)


WORKLOADS = {"suite": suite, "moduli": moduli, "scan": scan}
DEFAULT_SEED = 1


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(seed))
