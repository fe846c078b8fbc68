import pytest

from congaps import primes


@pytest.fixture(scope="session", autouse=True)
def no_cache_dir():
    # every test sieves unless it points $CONGAPS_CACHE_DIR at its own tmp_path,
    # so a directory set in the environment is neither read nor written
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(primes.CACHE_ENV, raising=False)
        yield


@pytest.fixture(scope="session")
def table5():
    return primes.sieve_primes(10**5)


@pytest.fixture(scope="session")
def windows5(table5):
    # the primes to 10^5 as a stream of one window, for the folds
    return (table5.primes,)


@pytest.fixture(scope="session")
def spf5():
    return primes.build_spf(100_000)


@pytest.fixture(scope="session")
def table7():
    # shared by the large-scale acceptance criteria; sieved once per session
    return primes.sieve_primes(10**7)


@pytest.fixture(scope="session")
def windows7(table7):
    return (table7.primes,)
