"""Constants, constructions, and counts around consecutive congruent
primes with small gaps."""

from .asymptotics import (
    ComparisonReport,
    compare,
    count_restricted,
    enumerate_restricted,
    lemma33_prediction,
    mertens_ap_product,
    mertens_prediction,
)
from .census import CensusResult, find_congruent_pairs, shiu_bound, theorem11_bound
from .characters import (
    Character,
    CharacterTable,
    build_character_table,
    orthogonality_sum,
    totient,
)
from .constants import (
    ConstantsBundle,
    EULER_GAMMA,
    c_of_q,
    constants_bundle,
    l_one,
    theta_at_one,
)
from .contour import (
    HankelParams,
    default_params,
    gamma_reflection_check,
    hankel_closed_form,
    hankel_main,
    perron_check,
    residue_circle,
)
from .primes import (
    PrimeTable,
    get_prime_table,
    load_cache,
    save_cache,
    sieve_primes,
)
from .shiu import (
    ResidueSets,
    ShiuConstruction,
    build_construction,
    compute_S_T,
    lemma34_check,
    phi_over_Q,
    t_bound_report,
    t_of_H,
)

__version__ = "0.1.0"
