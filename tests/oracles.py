"""Reference implementations, each the algorithm the program used before
a faster one replaced it: the restricted counts, from before the
restricted-product walk counted the leaves in a fold over the primes,
which hold whole arrays and so serve at test sizes only, and the segment
sieve's kernel, from before the wheel pre-sieve. listed joins a census
pair stream the same way, into the one tuple of pairs that trial division
gives."""

import math

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
