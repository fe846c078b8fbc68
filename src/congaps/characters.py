"""Dirichlet characters mod q as exponent vectors over one discrete-log table.

(Z/qZ)* is a product of cyclic groups of orders d_1..d_k, and the table
maps every residue n to its discrete log x(n) = (x_1..x_k) over their
generators.  A character is its exponent vector e: its value at a unit n
is the root of unity e^{2*pi*i*t} with turn t = sum_i e_i x_i / d_i mod 1,
computed exactly on demand as the integer numerator
sum_i e_i x_i (L/d_i) mod L over the group exponent L.  Turn addition mod 1
makes complete multiplicativity, closure, and orthogonality exactly
testable; float values are built from the same numerators.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import DomainError

MAX_MODULUS = 10**6


def check_modulus(q: int, a: int | None = None) -> None:
    """The paper's modulus, one rule for every fold and constant: raise
    DomainError unless 3 <= q <= MAX_MODULUS and, when a class a is given,
    gcd(a, q) = 1."""
    if not 3 <= q <= MAX_MODULUS:
        raise DomainError(f"q must satisfy 3 <= q <= {MAX_MODULUS}, got {q}")
    if a is not None and gcd(a, q) != 1:
        raise DomainError(f"a={a} and q={q} must be coprime")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as (p, e) pairs, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def totient(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _smallest_primitive_root(pe: int) -> int:
    """Smallest primitive root mod p^e for odd prime p."""
    phi = totient(pe)
    prime_divs = [f for f, _ in factorize(phi)]
    g = 2
    while True:
        if gcd(g, pe) == 1 and all(pow(g, phi // f, pe) != 1 for f in prime_divs):
            return g
        g += 1


def _local_generators(pe: int, p: int, e: int) -> list[tuple[int, int]]:
    """Generators (residue mod p^e, order) of the unit group of Z/p^e."""
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [(3, 2)]  # -1 mod 4
        return [(pe - 1, 2), (5, 2 ** (e - 2))]  # {-1, 5}
    return [(_smallest_primitive_root(pe), totient(pe))]


def _crt_lift(residue: int, pe: int, q: int) -> int:
    """The residue mod q that is `residue` mod pe and 1 mod q/pe."""
    rest = q // pe
    inv = pow(rest, -1, pe)
    return (1 + rest * ((residue - 1) * inv % pe)) % q


def unit_group(q: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(Z/qZ)* as cyclic orders, discrete-log table and unit mask.

    Returns (orders, dlog, units): dlog[n] is the exponent vector of n over
    the generators (zeros where units[n] is False).  Residue 0 counts as
    the unit of Z/1Z.
    """
    if not 1 <= q <= MAX_MODULUS:
        raise DomainError(f"q must satisfy 1 <= q <= {MAX_MODULUS}, got {q}")
    residues = np.array([1 % q], dtype=np.int64)  # in lexicographic exponent order
    orders = []
    for p, e in factorize(q):
        pe = p**e
        for local_g, d in _local_generators(pe, p, e):
            gens = itertools.repeat(_crt_lift(local_g, pe, q), d - 1)
            powers = itertools.accumulate(gens, lambda x, g: x * g % q, initial=1)
            residues = (residues[:, None] * np.fromiter(powers, np.int64) % q).ravel()
            orders.append(d)
    dlog = np.zeros((q, len(orders)), dtype=np.int64)
    dlog[residues] = np.indices(orders).reshape(len(orders), residues.size).T
    return tuple(orders), dlog, np.gcd(np.arange(q), q) == 1


def element_orders(coords: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
    """Orders lcm_i d_i / gcd(x_i, d_i) of the elements with coordinates
    x = coords[..., :] in Z/d_1 x ... x Z/d_k."""
    out = np.ones(np.shape(coords)[:-1], dtype=np.int64)
    for i, d in enumerate(orders):  # a column at a time: reduce along a short axis is slow
        out = np.lcm(out, d // np.gcd(coords[..., i], d))
    return out


@dataclass(frozen=True, slots=True)
class Character:
    """One Dirichlet character mod q: its exponent vector over the table's
    cyclic components."""

    table: CharacterTable = field(repr=False)
    exponents: tuple[int, ...]

    def _numerators(self, coords: np.ndarray) -> np.ndarray:
        """Turn numerators over the group exponent L of the elements with
        discrete logs coords: sum_i e_i x_i (L/d_i) mod L."""
        table = self.table
        L = table.exponent
        weights = [e * (L // d) for e, d in zip(self.exponents, table.orders)]
        return coords @ np.array(weights, dtype=np.int64) % L

    def turn(self, n: int) -> Fraction | None:
        """The exact turn of chi(n), or None if n is not coprime to q."""
        r = n % self.table.q
        if not self.table.units[r]:
            return None
        return Fraction(int(self._numerators(self.table.dlog[r])), self.table.exponent)

    def values(self) -> np.ndarray:
        """chi(n) for n = 0..q-1 as complex floats, exactly 0 off the units."""
        table = self.table
        phase = self._numerators(table.dlog) / table.exponent
        return np.where(table.units, np.exp(2j * np.pi * phase), 0)

    def __call__(self, n: int) -> complex:
        """chi(n) as a unit complex number, or exactly 0 off the coprime residues."""
        if n < 0:
            raise DomainError(f"n must be >= 0, got {n}")
        t = self.turn(n)
        if t is None:
            return 0j
        return cmath.exp(2j * cmath.pi * t)


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """The full group of phi(q) characters mod q over one discrete-log
    table; principal first, then lexicographic in generator exponents."""

    q: int
    orders: tuple[int, ...]  # cyclic component orders d_1..d_k
    dlog: np.ndarray = field(repr=False)  # (q, k) exponent vector of each residue
    units: np.ndarray = field(repr=False)  # (q,) residue coprime to q
    characters: tuple[Character, ...] = field(init=False, repr=False)

    def __post_init__(self):
        exps = itertools.product(*(range(d) for d in self.orders))
        object.__setattr__(self, "characters", tuple(Character(self, e) for e in exps))

    @property
    def phi_q(self) -> int:
        return math.prod(self.orders)

    @property
    def exponent(self) -> int:
        """L = lcm of the cyclic orders: every turn is a multiple of 1/L."""
        return math.lcm(*self.orders)


def build_character_table(q: int) -> CharacterTable:
    """Construct all phi(q) Dirichlet characters mod q."""
    return CharacterTable(q, *unit_group(q))


def orthogonality_sum(table: CharacterTable, n: int) -> complex:
    """Sum of chi(n) over all characters mod q.

    Evaluated exactly: the sum factors over the cyclic components of the
    dual group, and each factor is a full geometric sum of roots of unity
    (d if the component discrete log vanishes, else 0).
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    r = n % table.q
    if not table.units[r] or table.dlog[r].any():
        return 0j
    return complex(table.phi_q)
