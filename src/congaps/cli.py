"""Command-line front end: reproducible experiments with JSON/CSV reports.

Exit codes: 0 success, 1 suite failure, 2 precondition/domain violation,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time

import numpy as np

from . import asymptotics, census, constants, contour, primes, shiu, suite
from .errors import CapacityError, CongapsError, DomainError, NumericsError

MAX_MEMBERS_H = 10**6  # shiu --members prints each coprime h <= H: 0.11 M at 10^6, 53 M at 10^9


def _config_flags(path: str) -> list[str]:
    """Read a flat key=value config ('#' starts a comment) as flags of the
    subcommand, so that argparse checks and types each value as it does a
    flag. A switch such as --members is turned on by `members = true`."""
    flags = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise OSError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CongapsError(f"{path}: config is not UTF-8: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CongapsError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        flags.append(flag if value.lower() == "true" else f"{flag}={value}")
    return flags


def _with_config(argv: list[str], flags: list[str]) -> list[str]:
    """argv with the config flags placed right after the subcommand name,
    ahead of the user's own flags, which therefore win."""
    i = 0
    while argv[i].startswith("-"):  # only --config precedes the subcommand
        i += 1 if "=" in argv[i] else 2
    return argv[: i + 1] + flags + argv[i + 1 :]


def _output(args):
    """The report's destination: the --out file, else stdout."""
    return (open(args.out, "w", newline="") if args.out
            else contextlib.nullcontext(sys.stdout))


def _emit(payload, args) -> None:
    is_report = isinstance(payload, asymptotics.ComparisonReport)
    # only the subcommands that emit a report (mertens, count) take --format
    if is_report and args.format == "csv":
        text = payload.to_csv()
    else:
        try:
            text = json.dumps(payload.to_dict() if is_report else payload, allow_nan=False) + "\n"
        except ValueError as exc:  # NaN or infinity, which JSON cannot carry
            raise NumericsError(f"report holds a non-finite number: {exc}") from exc
    with _output(args) as fh:
        fh.write(text)


def cmd_constants(args) -> int:
    bundle = constants.constants_bundle(args.q)
    l_values = bundle.l_values
    payload = {
        "q": bundle.q,
        "gamma_euler": constants.EULER_GAMMA,
        "l_values": np.column_stack((l_values.real, l_values.imag)).tolist(),
        "theta1": bundle.theta1,
        "c_q": bundle.c_q,
        "gamma_recip": bundle.gamma_recip,
        "tolerances": {"l_tol": constants.L_TOL, "theta_tol": constants.THETA_TOL},
    }
    _emit(payload, args)
    return 0


def cmd_mertens(args) -> int:
    with contextlib.closing(primes.segments(args.x)) as stream:
        bundle = constants.constants_bundle(args.q)
        report = asymptotics.compare(
            "mertens product vs prediction",
            asymptotics.mertens_ap_product(args.q, args.x, stream),
            asymptotics.mertens_prediction(args.q, args.x, bundle),
            args.tol,
            params={"q": args.q, "X": args.x},
        )
    _emit(report, args)
    return 0


def cmd_count(args) -> int:
    if not math.isfinite(args.y):
        raise DomainError(f"Y must be finite, got {args.y}")
    # two passes over the primes up to max(X, Y): the walk's fold counts its
    # leaves; the prediction's Euler product stops at the first window past Y
    limit = max(args.x, math.ceil(args.y))
    with contextlib.closing(primes.segments(limit)) as stream:
        bundle = constants.constants_bundle(args.q)
        actual = asymptotics.count_restricted(args.x, args.q, args.y, stream)
    with contextlib.closing(primes.segments(limit)) as stream:
        predicted = asymptotics.lemma33_prediction(args.x, args.q, args.y, bundle, stream)
    report = asymptotics.compare(
        "restricted count vs prediction", actual, predicted, args.tol,
        params={"q": args.q, "X": args.x, "Y": args.y},
    )
    _emit(report, args)
    return 0


def cmd_shiu(args) -> int:
    if args.members and args.h > MAX_MEMBERS_H:
        raise CapacityError(f"--members lists H <= {MAX_MEMBERS_H}, got {args.h}")
    # two passes over the primes up to H: the construction stops at its top
    with contextlib.closing(primes.segments(args.h)) as stream:
        con = shiu.build_construction(args.h, args.q, args.a, args.p0, stream)
    with contextlib.closing(primes.segments(args.h)) as stream:
        sets = shiu.compute_S_T(con, stream, keep_members=args.members)
    lemma = shiu.lemma34_check(con, sets)
    tb = shiu.t_bound_report(con, sets)
    payload = {
        "H": con.H,
        "q": con.q,
        "a": con.a,
        "p0": con.p0,
        "tH": con.tH,
        "regime_ok": con.regime_ok,
        "P_size": int(con.script_p.size),
        "S_count": sets.S_count,
        "T_count": sets.T_count,
        "phiQ_over_Q": sets.phiQ_over_Q,
        "lemma34_lhs": lemma.actual,
        "lemma34_rhs": lemma.predicted,
        "lemma34_ratio": lemma.ratio,
        "t_bound_ratio": tb.ratio,
    }
    if args.members:
        payload.update(S_members=sets.S_members, T_members=sets.T_members)
    _emit(payload, args)
    return 0


def cmd_census(args) -> int:
    with contextlib.closing(primes.segments(args.x)) as stream:
        if not args.list_pairs:
            result = census.find_congruent_pairs(
                args.x, args.q, args.a, args.epsilon, stream,
                thm11_c=args.c, shiu_C=args.big_c,
            )
            _emit(result.to_dict(), args)
            return 0
        # checked before the output opens: a bad input writes no header
        pairs = census.congruent_pairs(args.x, args.q, args.a, args.epsilon, stream,
                                       thm11_c=args.c, shiu_C=args.big_c)
        with _output(args) as fh:
            fh.write("p_r,p_next,gap,log_p,q,a\n")
            q, a = args.q, args.a
            for p_r, p_next in pairs:  # math.log, not np.log: the two differ in the last bit
                fh.write("".join([f"{p},{n},{n - p},{math.log(p)!r},{q},{a}\n"
                                  for p, n in zip(p_r.tolist(), p_next.tolist())]))
    return 0


def cmd_contour(args) -> int:
    if args.mode == "hankel":
        params = contour.default_params(args.x, args.beta, eta=args.eta)
        value = contour.hankel_main(params)
        closed = contour.hankel_closed_form(args.x, args.beta)
        payload = {
            "mode": "hankel",
            "X": args.x,
            "beta": args.beta,
            "eta": params.eta,
            "value": value,
            "closed_form": closed,
            "rel_dev": abs(value - closed) / closed,
        }
    elif args.mode == "perron":
        if args.n < 1:
            raise DomainError(f"N must be >= 1, got {args.n}")
        if args.n > contour.MAX_PERRON_TERMS:
            raise CapacityError(
                f"N={args.n} exceeds configured maximum {contour.MAX_PERRON_TERMS}"
            )
        coeffs = np.broadcast_to(1.0, args.n)  # all ones, held as one value
        integral, partial, err = contour.perron_check(
            coeffs, args.x, args.t_height, args.kappa
        )
        payload = {
            "mode": "perron",
            "N": args.n,
            "X": args.x,
            "T": args.t_height,
            "kappa": args.kappa,
            "integral": integral,
            "partial_sum": partial,
            "error": err,
        }
    else:
        payload = {
            "mode": "gamma",
            "theta": args.theta,
            "reflection_residual": contour.gamma_reflection_check(args.theta),
        }
    _emit(payload, args)
    return 0


def cmd_suite(args) -> int:
    start = time.perf_counter()
    results = suite.run_suite(args.scale)
    hard_fail = False
    for record in results:
        status = "PASS" if record["ok"] else "FAIL"
        print(f"[{status}] {record['name']}", file=sys.stderr)
        hard_fail = hard_fail or not record["ok"]
    payload = {
        "scale": args.scale,
        "checks": results,
        "ok": not hard_fail,
        "wall_time_ms": (time.perf_counter() - start) * 1000.0,
    }
    _emit(payload, args)
    return 1 if hard_fail else 0


def _tolerance(text: str) -> float:
    """--tol: finite and >= 0, as NaN or a negative tolerance fails every ratio."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congaps",
        description="Constants, constructions, and counts around consecutive "
        "congruent primes with small gaps.",
    )
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, report=False):
        """--out for every subcommand; --format for those emitting a
        comparison report."""
        p.add_argument("--out", help="write the report here instead of stdout")
        if report:
            p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("constants", help="constants bundle for one modulus")
    p.add_argument("--q", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("mertens", help="Mertens product vs its prediction")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--tol", type=_tolerance, default=0.05)
    common(p, report=True)
    p.set_defaults(func=cmd_mertens)

    p = sub.add_parser("count", help="restricted-integer count vs prediction")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=float, default=1.0)
    p.add_argument("--tol", type=_tolerance, default=0.2)
    common(p, report=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("shiu", help="prime-set construction and S/T split")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--p0", type=int, default=1)
    p.add_argument("--members", action="store_true")
    common(p)
    p.set_defaults(func=cmd_shiu)

    p = sub.add_parser("census", help="consecutive congruent prime pairs")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--x", type=int, default=10**7)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0,
                   help="constant in the X^(1-c/loglog X) reference bound")
    p.add_argument("--big-c", dest="big_c", type=float, default=1.0,
                   help="constant in the X^(1-eps(X)) reference bound")
    p.add_argument("--list-pairs", dest="list_pairs", action="store_true")
    common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("contour", help="Hankel/Perron/Gamma numerical checks")
    p.add_argument("--mode", choices=["hankel", "perron", "gamma"], required=True)
    p.add_argument("--x", type=float, default=math.exp(20))
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--t-height", dest="t_height", type=float, default=1e4)
    p.add_argument("--kappa", type=float, default=1.1)
    p.add_argument("--theta", type=float, default=0.5)
    common(p)
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("suite", help="run the verification battery")
    p.add_argument("--scale", choices=["small", "full"], default="small")
    common(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_with_config(argv, _config_flags(args.config)))
        return args.func(args)
    except CongapsError as exc:
        print(f"congaps: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"congaps: I/O failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
