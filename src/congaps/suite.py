"""The built-in verification battery, ordered cheap to expensive.

Each check returns a dict with a deterministic payload plus a hard pass
flag; informational checks (unquantified asymptotic inequalities) always
pass and only report their outcome.
"""

from __future__ import annotations

import math

import numpy as np

from . import asymptotics, census, characters, constants, contour, primes, shiu

SCALE_LIMITS = {"small": 10**5, "full": 10**7}


def _check_orthogonality() -> dict:
    worst = 0.0
    ok = True
    for q in range(3, 51):
        table = characters.build_character_table(q)
        approx = sum(chi.values() for chi in table.characters)  # indexed by n mod q
        for n in range(1, q + 1):
            exact = characters.orthogonality_sum(table, n)
            expect = table.phi_q if n % q == 1 % q else 0
            ok &= exact == complex(expect)
            worst = max(worst, abs(approx[n % q] - expect))
    return {"name": "orthogonality", "ok": bool(ok and worst <= 1e-9),
            "max_float_residual": worst}


def _check_l_closed_forms() -> dict:
    d3 = abs(constants.l_one(3)[0] - math.pi / (3 * math.sqrt(3)))
    d4 = abs(constants.l_one(4)[0] - math.pi / 4)
    return {"name": "l_one_closed_forms", "ok": bool(max(d3, d4) <= constants.L_TOL),
            "dev_q3": d3, "dev_q4": d4}


def _check_c_anchors() -> dict:
    ok = constants.c_of_q(1) == 1.0 and constants.c_of_q(2) == 0.5
    values = {}
    for q in range(3, 31):
        bundle = constants.constants_bundle(q)
        c, th = bundle.c_q, bundle.theta1
        values[str(q)] = c
        ok = ok and c > 0 and 0 < th <= 1
    return {"name": "c_of_q_anchors", "ok": bool(ok), "c_values": values}


def _check_gamma_identities() -> dict:
    refl = max(contour.gamma_reflection_check(t) for t in (1 / 6, 1 / 3, 0.5))
    X = math.exp(20)
    res = contour.residue_circle(X)
    res_dev = abs(res - X) / X
    return {"name": "gamma_identities", "ok": bool(refl <= 1e-10 and res_dev <= 1e-8),
            "reflection_residual": refl, "residue_rel_dev": res_dev}


def _check_hankel() -> dict:
    X = math.exp(20)
    devs = {}
    ok = True
    for beta in (0.5, 1 / 3, 0.25):
        p = contour.default_params(X, beta, eta=0.6)
        dev = abs(contour.hankel_main(p) - contour.hankel_closed_form(X, beta))
        dev /= contour.hankel_closed_form(X, beta)
        devs[f"beta={beta:.4f}"] = dev
        ok = ok and dev <= 1e-4
    return {"name": "hankel_main_term", "ok": bool(ok), "rel_devs": devs}


def _check_perron() -> dict:
    coeffs = [1.0] * 20
    errs = []
    for T in (1e2, 1e3, 1e4, 1e5):
        _, _, err = contour.perron_check(coeffs, 10.5, T, 1.1)
        errs.append(abs(err))
    increases = sum(1 for a, b in zip(errs, errs[1:]) if b > a)
    ok = increases <= 1 and errs[-1] <= 0.5
    return {"name": "perron_truncation", "ok": bool(ok), "abs_errors": errs}


def _check_mertens(windows, limit: int) -> dict:
    out = {}
    ok = True
    xs = [10**4, limit]
    for q in (3, 4, 5):
        bundle = constants.constants_bundle(q)
        devs = []
        for X in xs:
            ratio = asymptotics.mertens_ap_product(q, X, windows) / \
                asymptotics.mertens_prediction(q, X, bundle)
            devs.append(abs(ratio - 1.0))
        out[str(q)] = devs
        if limit >= 10**7:
            ok = ok and devs[-1] <= 0.05 and devs[-1] < devs[0]
        else:
            ok = ok and devs[-1] <= 0.25
    return {"name": "mertens_in_progression", "ok": bool(ok), "abs_dev": out}


def _check_lemma33(windows, limit: int) -> dict:
    ok = True
    out = {}
    for q, Y in ((3, 1), (3, 10), (4, 1)):
        bundle = constants.constants_bundle(q)
        devs = []
        for X in (10**4, limit):
            ratio = asymptotics.count_restricted(X, q, Y, windows) / \
                asymptotics.lemma33_prediction(X, q, Y, bundle, windows)
            devs.append(abs(ratio - 1.0))
        out[f"q={q},Y={Y}"] = devs
        if limit >= 10**7:
            ok = ok and devs[-1] <= 0.2 and devs[-1] < devs[0]
        else:
            ok = ok and devs[-1] <= 0.2
    # exact agreement with trial-division factorization on a modest prefix
    n_max = min(limit, 2000)
    brute = sum(
        1 for n in range(1, n_max + 1)
        if all(p % 3 == 1 for p, _ in characters.factorize(n))
    )
    ok = ok and brute == asymptotics.count_restricted(n_max, 3, 1, windows)
    return {"name": "restricted_count", "ok": bool(ok), "abs_dev": out}


def _check_shiu(windows, limit: int) -> dict:
    out = {}
    ok = True
    H = min(10**4, limit)
    for q, a in ((3, 1), (3, 2), (4, 3), (6, 5)):
        con = shiu.build_construction(H, q, a, 1, windows)
        sets = shiu.compute_S_T(con, windows)
        h = np.arange(1, H + 1)
        coprime = np.ones(H, dtype=bool)
        for p in con.modulus_primes():
            coprime &= h % p != 0
        brute_s = int(np.count_nonzero(coprime & (h % q == a % q)))
        brute_t = int(np.count_nonzero(coprime)) - brute_s
        ok = ok and (brute_s, brute_t) == (sets.S_count, sets.T_count)
        rep = shiu.lemma34_check(con, sets)
        out[f"q={q},a={a}"] = {
            "S": sets.S_count, "T": sets.T_count,
            "lemma34_ratio": rep.ratio, "lemma34_holds": rep.passed,
            "regime": rep.params["regime"],
            "t_bound_ratio": shiu.t_bound_report(con, sets).ratio,
        }
    return {"name": "shiu_partition", "ok": bool(ok), "cases": out}


def _check_census(windows) -> dict:
    X = 10**5
    p_r, p_next = map(np.concatenate, zip(*census.congruent_pairs(X, 3, 2, 2.0, windows)))
    # consecutive: no prime of the windows lies strictly between p_r and p_next
    known = primes.joined(primes.windows_upto(windows, primes.next_prime(X)))
    ok = np.array_equal(np.searchsorted(known, p_next),
                        np.searchsorted(known, p_r, side="right"))
    ok = ok and np.all((p_r % 3 == 2) & (p_next % 3 == 2)
                       & (p_next - p_r < 2.0 * np.log(p_r)))
    smaller = census.find_congruent_pairs(X // 10, 3, 2, 2.0, windows)
    ok = ok and smaller.pair_count <= p_r.size
    return {"name": "census_pairs", "ok": bool(ok), "pair_count": p_r.size}


def run_suite(scale: str = "small") -> list[dict]:
    """Run the battery; returns one record per check (deterministic apart
    from any wall-time fields, of which there are none here)."""
    if scale not in SCALE_LIMITS:
        raise ValueError(f"scale must be one of {sorted(SCALE_LIMITS)}")
    limit = SCALE_LIMITS[scale]
    results = [
        _check_orthogonality(),
        _check_l_closed_forms(),
        _check_c_anchors(),
        _check_gamma_identities(),
        _check_hankel(),
        _check_perron(),
    ]
    # the windows of the primes up to limit, held for the four folds below
    windows = tuple(primes.segments(limit))
    results.append(_check_mertens(windows, limit))
    results.append(_check_lemma33(windows, limit))
    results.append(_check_shiu(windows, limit))
    results.append(_check_census(windows))
    return results
