import pytest

from congaps import primes


@pytest.fixture(scope="session")
def table5():
    return primes.sieve_primes(10**5)


@pytest.fixture(scope="session")
def spf5():
    return primes.build_spf(100_000)


@pytest.fixture(scope="session")
def table7():
    # shared by the large-scale acceptance criteria; sieved once per session
    return primes.sieve_primes(10**7)
