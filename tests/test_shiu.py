import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congaps import primes, shiu
from congaps.errors import DomainError
from oracles import strike_S_T


def brute_sets(con, spf_table):
    """S and T member lists by factoring each h with the SPF table."""
    qset = set(con.modulus_primes().tolist())
    s, t = [], []
    for h in range(1, con.H + 1):
        if qset.isdisjoint(spf_table.factor(h)):
            (s if h % con.q == con.a % con.q else t).append(h)
    return s, t


def test_t_of_h():
    assert shiu.t_of_H(10**7) == pytest.approx(19.375768888695553, rel=1e-12)
    assert shiu.t_of_H(10**6) < 13.816  # below log H: regime not reached
    with pytest.raises(DomainError):
        shiu.t_of_H(15.0)
    with pytest.raises(DomainError):
        shiu.t_of_H(1.0)


def test_construction_a1_set(table5, windows5):
    H = 10**5
    con = shiu.build_construction(H, 3, 1, 1, windows5)
    log_h = math.log(H)
    cap = H / log_h**2
    expect = sorted(
        int(p) for p in table5.primes
        if (p <= log_h and p % 3 == 1) or (p <= cap and p % 3 != 1)
    )
    assert con.script_p.tolist() == expect
    assert con.tH is None
    assert con.regime_ok
    assert con.q_primes == (3,)


def test_construction_a2_set(table5, windows5):
    H = 10**5
    con = shiu.build_construction(H, 3, 2, 1, windows5)
    log_h = math.log(H)
    cap = H / log_h**2
    tH = con.tH
    assert tH == pytest.approx(shiu.t_of_H(H))
    expect = sorted(
        int(p) for p in table5.primes
        if (p <= log_h and p % 3 == 1)
        or (p <= cap and p % 3 not in (1, 2))
        or (tH < p <= cap and p % 3 == 1)
        or (p <= H / tH and p % 3 == 2)
    )
    assert con.script_p.tolist() == expect
    assert not con.regime_ok  # t(H) < log H at this scale


def test_construction_contains_small_primes(table5, windows5):
    for q, a in ((3, 1), (3, 2), (4, 3), (6, 5)):
        con = shiu.build_construction(10**4, q, a, 1, windows5)
        sp = set(con.script_p.tolist())
        for p in table5.primes[table5.primes <= math.log(10**4)]:
            assert int(p) in sp


def test_construction_errors(windows5):
    with pytest.raises(DomainError):
        shiu.build_construction(10**4, 3, 3, 1, windows5)  # gcd(a, q) > 1
    with pytest.raises(DomainError):
        shiu.build_construction(10**4, 2, 1, 1, windows5)
    with pytest.raises(DomainError):
        shiu.build_construction(50, 3, 1, 1, windows5)
    with pytest.raises(DomainError):
        shiu.build_construction(10**4, 3, 1, 8, windows5)  # p0 composite
    with pytest.raises(DomainError):
        shiu.build_construction(10**4, 3, 1, 13 * 17, windows5)  # p0 composite, > log H
    with pytest.raises(DomainError):
        shiu.build_construction(10**4, 3, 1, 10007, windows5)  # p0 prime, above H
    with pytest.raises(DomainError):
        shiu.build_construction(10**5, 3, 1, 7, windows5)  # p0 <= log H
    with pytest.raises(DomainError):
        shiu.build_construction(10**4, 3, 1, 9973, windows5)  # p0 prime <= H, not in P(H)


def test_p0_removed_from_modulus(windows5):
    con = shiu.build_construction(10**5, 3, 1, 17, windows5)
    assert 17 in con.script_p
    assert 17 not in con.modulus_primes()
    base = shiu.build_construction(10**5, 3, 1, 1, windows5)
    assert con.modulus_primes().tolist() == np.setdiff1d(base.modulus_primes(), [17]).tolist()


def test_modulus_primes_include_q(windows5):
    con = shiu.build_construction(10**4, 6, 5, 1, windows5)
    modulus = con.modulus_primes()
    assert {2, 3} <= set(modulus.tolist())
    assert modulus.dtype == np.int64 and np.all(np.diff(modulus) > 0)


def test_phi_over_q_tiny(windows5):
    con = shiu.ShiuConstruction(
        H=100, q=3, a=1, p0=1, tH=None,
        script_p=np.array([5], dtype=np.int64),
        q_primes=(3,), regime_ok=True,
    )
    sets = shiu.compute_S_T(con, windows5)
    assert sets.phiQ_over_Q == pytest.approx((2 / 3) * (4 / 5), rel=1e-12)
    assert (sets.S_count, sets.T_count) == (27, 26)  # h <= 100 prime to 15, = 1 or 2 mod 3


def test_compute_s_t_matches_brute_force(windows5, spf5):
    for q, a in ((3, 1), (3, 2), (4, 1), (4, 3), (6, 1), (6, 5)):
        con = shiu.build_construction(10**4, q, a, 1, windows5)
        sets = shiu.compute_S_T(con, windows5)
        s, t = brute_sets(con, spf5)
        assert (sets.S_count, sets.T_count) == (len(s), len(t))
        assert sets.S_members is None and sets.T_members is None


def test_compute_s_t_members(windows5, spf5):
    con = shiu.build_construction(10**4, 3, 2, 1, windows5)
    sets = shiu.compute_S_T(con, windows5, keep_members=True)
    s, t = brute_sets(con, spf5)
    assert sets.S_members == tuple(s)
    assert sets.T_members == tuple(t)
    assert (sets.S_count, sets.T_count) == (len(s), len(t))


def test_lemma34_check_a1(windows5):
    con = shiu.build_construction(10**4, 3, 1, 1, windows5)
    sets = shiu.compute_S_T(con, windows5)
    rep = shiu.lemma34_check(con, sets)
    assert rep.actual == float(sets.S_count - sets.T_count)
    expect_rhs = 10**4 / math.gamma(0.5) * sets.phiQ_over_Q
    assert rep.predicted == pytest.approx(expect_rhs, rel=1e-12)
    assert rep.params["case"] == "a=1"
    assert rep.passed == (rep.actual >= rep.predicted)


def test_lemma34_check_a2(windows5):
    con = shiu.build_construction(10**4, 3, 2, 1, windows5)
    sets = shiu.compute_S_T(con, windows5)
    rep = shiu.lemma34_check(con, sets)
    expect_rhs = 0.4 * 10**4 / (3 * math.gamma(0.5)) * sets.phiQ_over_Q
    assert rep.predicted == pytest.approx(expect_rhs, rel=1e-12)
    assert rep.params["case"] == "a!=1"
    assert rep.params["regime"] == "asymptotic regime not reached"


def test_t_bound_report(windows5):
    con = shiu.build_construction(10**4, 3, 1, 1, windows5)
    sets = shiu.compute_S_T(con, windows5)
    rep = shiu.t_bound_report(con, sets)
    assert rep.passed is None
    assert rep.ratio == pytest.approx(
        sets.T_count * math.log(10**4) / 10**4, rel=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(H=st.integers(100, 10**5), q=st.integers(3, 30),
       segment=st.sampled_from([256, 4096, 1 << 20]), data=st.data())
def test_s_t_walk_against_strike_sieve(windows5, H, q, segment, data):
    units = [a for a in range(1, q) if math.gcd(a, q) == 1]
    a = data.draw(st.sampled_from(units) | st.sampled_from([1, q - 1, q + 1]), label="a")
    base = shiu.build_construction(H, q, a, 1, windows5)
    above = base.script_p[base.script_p > math.log(H)].tolist()
    p0 = data.draw(st.sampled_from([1, *above]), label="p0")
    con = shiu.build_construction(H, q, a, p0, windows5)
    s, t = strike_S_T(con)
    sets = shiu.compute_S_T(con, windows5)
    assert (sets.S_count, sets.T_count) == (len(s), len(t))
    with pytest.MonkeyPatch.context() as mp:  # modulus primes in many windows
        mp.setattr(primes, "SEGMENT_SIZE", segment)
        sets = shiu.compute_S_T(con, primes.segments(H))
    assert (sets.S_count, sets.T_count) == (len(s), len(t))
