import numpy as np
import pytest

from congaps import primes
from oracles import SpfTable


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
    return SpfTable(100_000, primes.build_spf(100_000))


@pytest.fixture(scope="session")
def table7():
    # shared by the large-scale acceptance criteria; sieved once per session
    return primes.sieve_primes(10**7)


@pytest.fixture(scope="session")
def windows7(table7):
    return (table7.primes,)


@pytest.fixture(scope="session")
def top_windows():
    # the 4,455 primes in the last 10^5 below 2^32 as three uint32 windows, as the
    # stream holds them: the folds' bounds and the census's successor pass 2^32
    top = primes._odd_primes(2**32 - 10**5, 2**32).astype(np.uint32)
    return tuple(np.array_split(top, 3))
