from collections import Counter
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congaps import characters
from congaps.errors import DomainError


def order(chi):
    """The order of chi: that of its exponent vector in Z/d_1 x ... x Z/d_k."""
    return int(characters.element_orders(np.array(chi.exponents), chi.table.orders))


def test_group_sizes():
    for q in list(range(1, 31)) + [360]:
        table = characters.build_character_table(q)
        assert len(table.characters) == characters.totient(q)
        assert table.phi_q == characters.totient(q)


def test_principal_first():
    for q in (1, 2, 3, 8, 12, 45):
        table = characters.build_character_table(q)
        chi0 = table.characters[0]
        assert not any(chi0.exponents)
        assert all(any(chi.exponents) for chi in table.characters[1:])
        for r in range(q):
            expect = Fraction(0) if gcd(r, q) == 1 else None
            assert chi0.turn(r) == expect


def test_q5_order_four_character():
    table = characters.build_character_table(5)
    quartic = [chi for chi in table.characters if order(chi) == 4]
    assert len(quartic) == 2  # chi and its conjugate
    assert sorted(chi.turn(2) for chi in quartic) == [
        Fraction(1, 4),
        Fraction(3, 4),
    ]


def test_evaluate_values():
    table = characters.build_character_table(4)
    chi = table.characters[1]
    assert chi(1) == 1
    assert chi(3) == pytest.approx(-1)
    assert chi(2) == 0
    assert chi(7) == pytest.approx(-1)  # periodicity
    with pytest.raises(DomainError):
        chi(-1)


def test_complete_multiplicativity_exact():
    for q in (3, 4, 5, 8, 12, 24, 45):
        table = characters.build_character_table(q)
        for chi in table.characters:
            for m in range(q):
                for n in range(q):
                    tm, tn = chi.turn(m), chi.turn(n)
                    tmn = chi.turn(m * n)
                    if tm is None or tn is None:
                        assert tmn is None
                    else:
                        assert tmn == (tm + tn) % 1


def test_orders_divide_group_order():
    for q in (3, 7, 8, 16, 40):
        table = characters.build_character_table(q)
        for chi in table.characters:
            assert table.phi_q % order(chi) == 0
            # the order really is the lcm of the turn denominators
            turns = (chi.turn(r) for r in range(q))
            denoms = [t.denominator for t in turns if t is not None]
            assert max(denoms) == order(chi) or not any(chi.exponents)


def test_orthogonality_exact():
    for q in range(3, 41):
        table = characters.build_character_table(q)
        for n in range(1, q + 1):
            got = characters.orthogonality_sum(table, n)
            expect = table.phi_q if n % q == 1 % q else 0
            assert got == complex(expect)
            approx = sum(chi(n) for chi in table.characters)
            assert abs(approx - expect) <= 1e-9


def test_orthogonality_q1():
    table = characters.build_character_table(1)
    assert characters.orthogonality_sum(table, 7) == 1


def test_character_sum_over_residues_vanishes():
    # for non-principal chi the multiset of turns is uniform over the
    # m-th roots of unity, so the sum is exactly zero
    for q in range(3, 31):
        table = characters.build_character_table(q)
        for chi in table.characters[1:]:
            m = order(chi)
            turns = (chi.turn(r) for r in range(q))
            counts = Counter(t for t in turns if t is not None)
            assert counts == {
                Fraction(j, m) % 1: table.phi_q // m for j in range(m)
            }
            assert abs(sum(chi(r) for r in range(q))) <= 1e-9


def test_product_closure():
    # the product of two characters is the one whose exponents add mod d_i
    table = characters.build_character_table(12)
    by_exponents = {chi.exponents: chi for chi in table.characters}
    for c1 in table.characters:
        for c2 in table.characters:
            prod = by_exponents[tuple(
                (e1 + e2) % d for e1, e2, d in zip(c1.exponents, c2.exponents, table.orders)
            )]
            for r in range(12):
                t1, t2 = c1.turn(r), c2.turn(r)
                if t1 is None:
                    assert prod.turn(r) is None
                else:
                    assert prod.turn(r) == (t1 + t2) % 1


def test_modulus_domain():
    with pytest.raises(DomainError):
        characters.build_character_table(0)
    with pytest.raises(DomainError):
        characters.build_character_table(10**6 + 1)


def test_totient_and_factorize():
    assert characters.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert characters.factorize(1) == []
    assert characters.totient(1) == 1
    assert characters.totient(12) == 4
    assert characters.totient(97) == 96


@settings(max_examples=60, deadline=None)
@given(q=st.integers(3, 60), n=st.integers(1, 10**6))
def test_orthogonality_random(q, n):
    table = characters.build_character_table(q)
    got = characters.orthogonality_sum(table, n)
    expect = table.phi_q if n % q == 1 else 0
    assert got == complex(expect)


def brute_order(r, q):
    d, x = 1, r % q
    while x != 1 % q:
        x = x * r % q
        d += 1
    return d


ODD_PRIMES = [p for p in range(3, 500) if characters.factorize(p) == [(p, 1)]]
TWICE_PRIME_POWERS = sorted(
    2 * p**k for p in ODD_PRIMES for k in (1, 2, 3) if 2 * p**k <= 2000
)
MODULI = st.one_of(
    st.integers(1, 10).map(lambda k: 2**k),
    st.sampled_from([2] + ODD_PRIMES),
    st.sampled_from(TWICE_PRIME_POWERS),
    st.just(30030),  # 2*3*5*7*11*13
)


@settings(max_examples=40, deadline=None)
@given(q=MODULI, data=st.data())
def test_dlog_orders_and_exact_turns(q, data):
    table = characters.build_character_table(q)
    units = [r for r in range(q) if gcd(r, q) == 1]
    assert [r for r in range(q) if table.units[r]] == units
    orders = characters.element_orders(table.dlog[units], table.orders)
    assert orders.tolist() == [brute_order(r, q) for r in units]

    chi = data.draw(st.sampled_from(table.characters))
    m, n = data.draw(st.integers(0, 10**6)), data.draw(st.integers(0, 10**6))
    tm, tn, tmn = chi.turn(m), chi.turn(n), chi.turn(m * n)
    if tm is None or tn is None:
        assert tmn is None
    else:
        assert tmn == (tm + tn) % 1
    assert chi.values()[m % q] == pytest.approx(chi(m), abs=1e-15)
