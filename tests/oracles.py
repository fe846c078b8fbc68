"""Reference implementations, each the algorithm the program used before
a faster one replaced it: the restricted counts, from before the
restricted-product walk counted the leaves in a fold over the primes,
which hold whole arrays and so serve at test sizes only; the walk's nodes
found depth first, one node at a time, from before the walk went level by
level in array passes; and the segment sieve's kernel with each base
prime's first odd multiple found one prime at a time, a scalar reference
for the kernel's array arithmetic (trial division and build_spf check
both independently). listed joins a census pair stream the same way,
into the one tuple of pairs that trial division gives. SpfTable factors
over primes.build_spf's table, apart from characters.factorize.
prime_counts counts the primes of each class mod q by Lucy's recursion,
with no sieve and no table of primes, so it checks the prime stream
itself at every limit up to 2^32."""

import math
from dataclasses import dataclass

import numpy as np


def enumerate_restricted(X, q, Y, table):
    """Sorted n <= X whose prime factors are all = 1 mod q and > Y, n = 1
    among them, by a depth-first walk over the nondecreasing products of
    those primes that bisects one array of all of them up to X: from each
    node n, the allowed p >= n's largest factor with
    isqrt(X // n) < p <= X // n give the members n * p that no allowed
    prime extends, and the smaller ones are the node's children."""
    if X < 1:
        return []
    cls = table.residue_class(q, 1)
    allowed = cls[slice(*np.searchsorted(cls, (math.floor(min(Y, X)), X), side="right"))]
    members = []
    stack = [(1, 0)]  # (n, index of the least prime n may still take)
    while stack:
        n, start = stack.pop()
        cap = X // n
        mid, end = np.searchsorted(allowed, (math.isqrt(cap), cap), side="right")
        members += [n, *(n * allowed[max(start, mid):end]).tolist()]
        for i, p in enumerate(allowed[start:mid].tolist(), start):
            stack.append((n * p, i))
    return sorted(members)


def depth_first_nodes(X, small, low):
    """asymptotics.restricted_nodes's rows (n, lo, hi) as a (3, k) array,
    found by a depth-first walk that pops one node at a time, takes
    math.isqrt(X // n) and bisects small for the node's children."""
    rows, stack = [], [(1, 0, low)]  # (n, index of the least prime n may take, lo)
    while stack:
        n, start, low = stack.pop()
        cap = X // n
        root = math.isqrt(cap)
        rows.append((n, min(max(low, root), cap), cap))
        children = small[start:np.searchsorted(small, root, side="right")].tolist()
        stack += [(n * p, i, p - 1) for i, p in enumerate(children, start)]
    return np.array(rows, dtype=np.int64).T


def strike_S_T(c):
    """(S, T) of a Shiu construction as sorted member lists: strike the
    multiples of every modulus prime from [1, H]; of the h kept, those
    with h = a mod q form S and the rest T."""
    keep = np.ones(c.H + 1, dtype=bool)
    keep[0] = False
    for p in c.modulus_primes().tolist():
        keep[p::p] = False
    kept = np.flatnonzero(keep)
    in_s = kept % c.q == c.a % c.q
    return kept[in_s].tolist(), kept[~in_s].tolist()


def listed(stream):
    """The (p_r, p_next) arrays of census.congruent_pairs joined into one
    tuple of int pairs."""
    return tuple((p, nxt) for p_r, p_next in stream
                 for p, nxt in zip(p_r.tolist(), p_next.tolist()))


def strike_odd_primes(low, high):
    """The odd primes in [low, high), for low >= 3: a mask over the odd
    numbers from which the odd multiples of each odd prime up to
    sqrt(high - 1), found the same way, are struck one prime at a time."""
    root = math.isqrt(high - 1)
    base = strike_odd_primes(3, root + 1).tolist() if root >= 3 else []
    first = low | 1
    mask = np.ones(max(0, (high - first + 1) // 2), dtype=bool)  # first, first + 2, ...
    for p in base:
        start = max(p * p, -(-first // p) * p)
        if start % 2 == 0:
            start += p
        mask[(start - first) // 2 :: p] = False
    return first + 2 * np.flatnonzero(mask).astype(np.int64)


@dataclass
class SpfTable:
    """spf[n] = smallest prime factor of n (spf[1] = 1): primes.build_spf(limit)."""

    limit: int
    spf: np.ndarray  # int64, length limit + 1

    def factor(self, n: int) -> list[int]:
        """Distinct prime factors of n, ascending."""
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside [1, {self.limit}]")
        out = []
        spf = self.spf
        while n > 1:
            p = int(spf[n])
            out.append(p)
            while n % p == 0:
                n //= p
        return out


def prime_counts(x, q):
    """pi(x; q, c) for every class c mod q, as an int64 array of q entries:
    Legendre's recursion in Lucy's form over the values v = x // n and
    v <= isqrt(x), with S_c(v) the m in [2, v], m = c mod q, not yet struck.
    Each prime p <= isqrt(x), which S finds itself, strikes the m <= v whose
    least prime factor is p: the p * k with k in [p, v // p] unstruck, k of
    class c moving to class p * c mod q. Integers only: no character, no
    float."""
    r = math.isqrt(x)
    c = np.arange(q)[:, None]

    def integers(v):  # the m in [2, v] of each class c, one row per class
        return (v - c) // q + 1 - (c == 0) - (c == 1 % q) * (v >= 1)

    small = integers(np.arange(r + 1))  # S(v) for v = 0..r
    large = integers(x // np.arange(1, r + 1))  # S(x // n) for n = 1..r
    for p in range(2, r + 1):
        if small[:, p].sum() == small[:, p - 1].sum():
            continue  # p was struck: not a prime
        k = min(r, x // (p * p))  # the large entries with x // n >= p^2
        split = min(k, r // p)  # those with n * p <= r read large[n * p - 1]
        n = np.arange(split + 1, k + 1)
        struck = np.concatenate((large[:, p - 1 : split * p : p], small[:, x // (n * p)],
                                 small[:, np.arange(p * p, r + 1) // p]), axis=1)
        struck -= small[:, p - 1 : p]  # less the k < p, all primes: k must be >= p
        moved = np.zeros_like(struck)
        for cls, to in enumerate((p * c[:, 0] % q).tolist()):
            moved[to] += struck[cls]
        large[:, :k] -= moved[:, :k]
        small[:, p * p :] -= moved[:, k:]
    return large[:, 0] if x >= 1 else np.zeros(q, dtype=np.int64)
