import csv
import io
import json
import math
import time

import pytest

from congaps import asymptotics, census, cli, primes, shiu
from congaps.errors import NumericsError
from oracles import listed, strike_S_T


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as RFC 8259 does."""

    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(text, parse_constant=reject)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_constants_json(capsys):
    rc, out, _ = run(capsys, "constants", "--q", "4")
    assert rc == 0
    payload = json.loads(out)
    assert payload["q"] == 4
    (lval,) = payload["l_values"]
    assert lval[0] == pytest.approx(math.pi / 4, abs=1e-8)
    assert abs(lval[1]) <= 1e-8
    assert payload["c_q"] == pytest.approx(0.5798217112030226, abs=1e-6)


def test_mertens_report(capsys):
    rc, out, _ = run(capsys, "mertens", "--q", "3", "--x", "10000")
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert abs(payload["ratio"] - 1.0) < 0.05


def test_count_csv(capsys):
    rc, out, _ = run(capsys, "count", "--q", "3", "--x", "10000", "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "label,actual,predicted,ratio,params,pass"
    assert len(lines) == 2


def test_count_with_y_above_x(capsys):
    rc, out, _ = run(capsys, "count", "--q", "3", "--x", "1000", "--y", "5000")
    assert rc == 0
    payload = json.loads(out)
    assert payload["actual"] == 1  # only n = 1 has no prime factor <= Y
    # the prediction's product over primes = 1 mod 3 up to Y reaches past X
    low = json.loads(run(capsys, "count", "--q", "3", "--x", "1000", "--y", "1000")[1])
    assert payload["predicted"] < low["predicted"]


def test_shiu_payload(capsys):
    rc, out, _ = run(capsys, "shiu", "--h", "1000", "--q", "3", "--a", "1")
    assert rc == 0
    payload = json.loads(out)
    for key in (
        "H", "q", "a", "p0", "tH", "regime_ok", "P_size", "S_count",
        "T_count", "phiQ_over_Q", "lemma34_lhs", "lemma34_rhs",
        "lemma34_ratio", "t_bound_ratio",
    ):
        assert key in payload
    assert payload["S_count"] + payload["T_count"] <= 1000


def test_shiu_p0_struck(capsys):
    # the report when p0 was tested by trial division, floats to 1e-12
    want = {"H": 100000, "q": 3, "a": 2, "p0": 17, "tH": 8.205188184819578,
            "regime_ok": False, "P_size": 801, "S_count": 4391, "T_count": 4723,
            "phiQ_over_Q": 0.07515294406920563, "lemma34_lhs": -332.0,
            "lemma34_rhs": 565.3401095572392, "lemma34_ratio": -0.5872571119357062,
            "t_bound_ratio": 0.5437554697105439}
    rc, out, _ = run(capsys, "shiu", "--h", "100000", "--q", "3", "--a", "2", "--p0", "17")
    assert rc == 0
    assert json.loads(out) == pytest.approx(want, rel=1e-12)


def test_shiu_p0_above_h_rejected_at_once(capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, "shiu", "--h", "100000", "--q", "3", "--a", "2",
                       "--p0", "1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert out == ""
    assert "p0 must be 1 or a prime <= H = 100000, got 1000000000000000003" in err


def test_shiu_p0_outside_prime_set_rejected(capsys):
    # 99991 is a prime <= H, but above max(H/(log H)^2, H/t(H)): striking
    # it would leave the p0 = 1 report under "p0": 99991
    rc, out, err = run(capsys, "shiu", "--h", "100000", "--q", "3", "--a", "2",
                       "--p0", "99991")
    assert rc == 2
    assert out == ""
    assert "p0=99991 is not a prime of the set P(H)" in err


def test_shiu_members_capped_before_any_sieving(capsys, monkeypatch):
    def no_primes(limit):
        raise AssertionError("primes were read")

    monkeypatch.setattr(primes, "segments", no_primes)
    rc, out, err = run(capsys, "shiu", "--h", str(cli.MAX_MEMBERS_H + 1), "--q", "3",
                       "--a", "2", "--members")
    assert rc == 2
    assert out == ""
    assert f"--members lists H <= {cli.MAX_MEMBERS_H}" in err


def test_shiu_members_at_the_cap(capsys):
    H = cli.MAX_MEMBERS_H
    rc, out, _ = run(capsys, "shiu", "--h", str(H), "--q", "4", "--a", "3", "--members")
    assert rc == 0
    payload = json.loads(out)
    con = shiu.build_construction(H, 4, 3, 1, primes.segments(H))
    s, t = strike_S_T(con)
    assert (payload["S_members"], payload["T_members"]) == (s, t)
    assert (payload["S_count"], payload["T_count"]) == (len(s), len(t))


def test_census_payload(capsys):
    rc, out, _ = run(capsys, "census", "--q", "3", "--a", "2", "--x", "600",
                     "--epsilon", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["pair_count"] == 6
    assert [557, 563] in payload["sample_pairs"]


def test_census_list_pairs(capsys):
    rc, out, _ = run(capsys, "census", "--q", "3", "--a", "2", "--x", "600",
                     "--epsilon", "1", "--list-pairs")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p_r,p_next,gap,log_p,q,a"
    assert len(lines) == 7


def test_census_json_equals_full_report(capsys, windows5):
    # the CLI builds only the sample pairs; its report is unchanged
    rc, out, _ = run(capsys, "census", "--q", "3", "--a", "2", "--x", "100000",
                     "--epsilon", "2")
    assert rc == 0
    full = census.find_congruent_pairs(10**5, 3, 2, 2.0, windows5)
    pairs = listed(census.congruent_pairs(10**5, 3, 2, 2.0, windows5))
    payload, expect = json.loads(out), full.to_dict()
    del payload["wall_time_ms"], expect["wall_time_ms"]
    assert payload == expect
    assert payload["sample_pairs"] == [list(p) for p in pairs[:100]]
    rc, out, _ = run(capsys, "census", "--q", "3", "--a", "2", "--x", "100000",
                     "--epsilon", "2", "--list-pairs")
    rows = out.strip().split("\n")[1:]
    assert len(rows) == full.pair_count == len(pairs) == 1710
    assert tuple(tuple(map(int, r.split(",")[:2])) for r in rows) == pairs


def test_census_list_pairs_rows_are_csv_writer_rows(capsys):
    # 11,483 rows formatted one f-string each: csv.writer, which they replace, is the reference
    X = 10**6
    rc, out, _ = run(capsys, "census", "--q", "3", "--a", "2", "--x", str(X),
                     "--epsilon", "2", "--list-pairs")
    assert rc == 0
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["p_r", "p_next", "gap", "log_p", "q", "a"])
    for p, nxt in listed(census.congruent_pairs(X, 3, 2, 2.0, primes.segments(X))):
        writer.writerow([p, nxt, nxt - p, repr(math.log(p)), 3, 2])
    assert out == want.getvalue()


def test_census_list_pairs_out_file(tmp_path, capsys):
    path = tmp_path / "pairs.csv"
    rc, out, _ = run(capsys, "census", "--q", "3", "--a", "2", "--x", "600",
                     "--epsilon", "1", "--list-pairs", "--out", str(path))
    assert rc == 0
    assert out == ""
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "p_r,p_next,gap,log_p,q,a"
    assert len(lines) == 7


@pytest.mark.parametrize("bad", [["--epsilon", "0"], ["--c", "0"], ["--q", "2", "--a", "1"],
                                 ["--a", "3"]], ids=["epsilon", "c", "q", "a"])
def test_census_list_pairs_bad_input_writes_nothing(tmp_path, capsys, bad):
    argv = ["census", "--q", "3", "--a", "2", "--x", "600", "--list-pairs", *bad]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "congaps:" in err
    path = tmp_path / "pairs.csv"
    rc, out, _ = run(capsys, *argv, "--out", str(path))
    assert (rc, out) == (2, "")
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["constants", "--q", "4", "--format", "csv"],
    ["constants", "--q", "4", "--tol", "1e-8"],
    ["contour", "--mode", "gamma", "--cache-dir", "D"],
    ["contour", "--mode", "hankel", "--r", "0.1"],
    ["mertens", "--q", "3", "--x", "100", "--cache-dir", "D"],
])
def test_flags_a_subcommand_ignores_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments" in err


def test_contour_gamma(capsys):
    rc, out, _ = run(capsys, "contour", "--mode", "gamma", "--theta", "0.25")
    assert rc == 0
    payload = json.loads(out)
    assert payload["reflection_residual"] <= 1e-12


@pytest.mark.parametrize("argv, name", [
    (["contour", "--mode", "gamma", "--theta", "1e-320"], "theta"),
    (["contour", "--mode", "hankel", "--beta", "1e-320"], "beta"),
], ids=["gamma-theta", "hankel-beta"])
def test_gamma_overflow_exit_code(capsys, argv, name):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"congaps: Gamma({name}) overflows")
    assert "Traceback" not in err


def test_domain_violation_exit_code(capsys):
    rc, _, err = run(capsys, "shiu", "--h", "10", "--q", "3", "--a", "2")
    assert rc == 2
    assert "congaps:" in err


@pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
def test_count_rejects_non_finite_y(capsys, monkeypatch, y):
    def no_primes(*args):
        raise AssertionError("a prime stream was sized for a non-finite Y")

    monkeypatch.setattr(primes, "segments", no_primes)
    rc, out, err = run(capsys, "count", "--q", "3", "--x", "1000", f"--y={y}")
    assert rc == 2
    assert out == ""
    assert "Y must be finite" in err


@pytest.mark.parametrize("flag, value", [
    ("--t-height", "nan"), ("--t-height", "inf"), ("--x", "inf"), ("--kappa", "nan"),
])
def test_perron_rejects_non_finite_inputs(capsys, flag, value):
    rc, out, err = run(capsys, "contour", "--mode", "perron", f"{flag}={value}")
    assert rc == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code", [
    (["contour", "--mode", "perron", "--kappa", "1e300"], 2),
    (["census", "--q", "3", "--a", "2", "--x", "1000", "--epsilon", "1e308"], 0),
    (["contour", "--mode", "hankel", "--x", "1e308"], 0),
], ids=["perron-kappa", "census-epsilon", "hankel-x"])
def test_extreme_finite_inputs_raise_no_warnings(capsys, argv, code):
    rc, _, err = run(capsys, *argv)
    assert rc == code
    assert "Warning" not in err
    if code == 0:
        assert err == ""


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, _ = run(capsys, "constants", "--q", "3", "--out", str(path))
    assert rc == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["q"] == 3


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = 1  # narrow gaps only\nx = 600\n")
    rc, out, _ = run(capsys, "--config", str(cfg), "census", "--q", "3", "--a", "2")
    assert rc == 0
    assert json.loads(out)["pair_count"] == 6


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = 1\nx = 600\n")
    rc, out, _ = run(capsys, "--config", str(cfg), "census", "--q", "3", "--a", "2",
                     "--epsilon", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["epsilon"] == 2.0
    assert payload["pair_count"] >= 6


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = 1\n")
    with pytest.raises(SystemExit):
        cli.main(["--config", str(cfg), "constants", "--q", "3"])
    capsys.readouterr()


def test_missing_config_file(capsys):
    rc, _, err = run(capsys, "--config", "/nonexistent/run.cfg",
                     "constants", "--q", "3")
    assert rc == 3
    assert "cannot read config" in err


def test_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no equals sign here\n")
    rc, _, err = run(capsys, "--config", str(cfg), "constants", "--q", "3")
    assert rc == 2
    assert "key=value" in err


@pytest.mark.parametrize("q", ["0", "-3"])
def test_constants_rejects_nonpositive_modulus(capsys, q):
    rc, out, err = run(capsys, "constants", "--q", q)
    assert rc == 2
    assert out == ""
    assert "q must be >= 1" in err


def test_census_json_is_strict_when_bounds_undefined(capsys):
    rc, out, _ = run(capsys, "census", "--q", "3", "--a", "2", "--x", "5")
    assert rc == 0
    payload = strict_json(out)
    assert payload["bound_thm11"] is None and payload["bound_shiu"] is None
    assert set(payload["bound_reasons"]) == {"bound_thm11", "bound_shiu"}

    rc, out, _ = run(capsys, "census", "--q", "5", "--a", "2", "--x", "1000000")
    assert rc == 0
    payload = strict_json(out)
    assert payload["bound_shiu"] is None
    assert payload["bound_thm11"] > 0
    assert "loglogloglog" in payload["bound_reasons"]["bound_shiu"]


@pytest.mark.parametrize("flag, value, name", [
    pytest.param("--epsilon", "nan", "epsilon", id="--epsilon"),
    pytest.param("--c", "nan", "c", id="--c"),
    pytest.param("--big-c", "nan", "C", id="--big-c"),
    pytest.param("--epsilon", "inf", "epsilon", id="--epsilon-inf"),
])
def test_non_finite_report_exit_code(capsys, flag, value, name):
    """A non-finite census parameter is refused by name, not found in the
    report after the pass."""
    rc, out, err = run(capsys, "census", "--q", "3", "--a", "2", "--x", "100", flag, value)
    assert rc == 2
    assert out == ""
    assert f"congaps: {name} must be > 0 and finite, got {value}" in err


@pytest.mark.parametrize("flag, value", [("--c", "0"), ("--big-c", "-1")])
def test_census_rejects_nonpositive_bound_constants(capsys, flag, value):
    argv = ("census", "--q", "3", "--a", "2", "--x", "1000", flag, value)
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "must be > 0" in err


@pytest.mark.parametrize("argv", [
    ["census", "--q", "3", "--a", "2", "--x", str(primes.MAX_SIEVE_LIMIT + 1)],
    ["mertens", "--q", "3", "--x", str(primes.MAX_SIEVE_LIMIT + 1)],
], ids=["census", "mertens"])
def test_x_above_sieve_capacity_exits_before_sieving(capsys, monkeypatch, argv):
    def no_sieve(*args):
        raise AssertionError(f"sieved {args} past the capacity")

    monkeypatch.setattr(primes, "_odd_primes", no_sieve)
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "exceeds configured maximum" in err


def test_perron_term_count_capped(capsys):
    # N = 10^12 ones would be an 8 TB list: the cap is checked before it is built
    rc, out, err = run(capsys, "contour", "--mode", "perron", "--n", "1000000000000")
    assert rc == 2
    assert out == ""
    assert "exceeds configured maximum" in err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_perron_rejects_fewer_than_one_term(capsys, n):
    # checked before any work: a negative N reaching np.broadcast_to raised ValueError
    rc, out, err = run(capsys, "contour", "--mode", "perron", "--n", n)
    assert rc == 2
    assert out == ""
    assert "N must be >= 1" in err


@pytest.mark.parametrize("entry, argv", [
    ("", ["mertens", "--q", "3", "--x", "100000", "--tol", "nan"]),
    ("", ["mertens", "--q", "3", "--x", "100000", "--tol", "inf"]),
    ("", ["count", "--q", "3", "--x", "100000", "--tol", "-1"]),
    ("tol = nan", ["count", "--q", "3", "--x", "100000"]),
], ids=["mertens-nan", "mertens-inf", "count-negative", "config-nan"])
def test_tol_must_be_finite_and_nonnegative(tmp_path, capsys, monkeypatch, entry, argv):
    def no_primes(*args):
        raise AssertionError("a prime stream was sized for a tolerance it cannot honour")

    monkeypatch.setattr(primes, "segments", no_primes)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entry + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), *argv])
    assert exc.value.code == 2
    assert "argument --tol: must be finite and >= 0" in capsys.readouterr().err


def test_mertens_and_census_share_one_cache_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(primes.CACHE_ENV, str(tmp_path))
    rc, _, _ = run(capsys, "mertens", "--q", "3", "--x", "10000")
    assert rc == 0

    def no_sieve(limit):
        raise AssertionError("the census sieved primes the cache holds")

    monkeypatch.setattr(primes, "_sieved", no_sieve)
    rc, out, _ = run(capsys, "census", "--q", "3", "--a", "2", "--x", "10000")
    assert rc == 0
    assert strict_json(out)["pair_count"] > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["primes_10000.bin"]


CACHED_COMMANDS = {
    "mertens": ("mertens", "--q", "3", "--x", "10000"),
    "count": ("count", "--q", "3", "--x", "10000"),
    "census": ("census", "--q", "3", "--a", "2", "--x", "10000"),
}


def rerun_on_damaged_cache(tmp_path, capsys, monkeypatch, command, damage):
    """Run command, writing primes_10000.bin; damage its bytes; run it again
    from the damaged file: (exit code, stdout, stderr) of the second run."""
    monkeypatch.setenv(primes.CACHE_ENV, str(tmp_path))
    argv = CACHED_COMMANDS[command]
    rc, _, _ = run(capsys, *argv)
    assert rc == 0
    path = tmp_path / "primes_10000.bin"
    path.write_bytes(damage(path.read_bytes()))
    return run(capsys, *argv)


# 1,200 of the file's 1,229 four-byte words cut, and three bytes of one more
@pytest.mark.parametrize("cut", [4 * 1200, 4 * 1200 + 3])
def test_truncated_cache_exit_code(tmp_path, capsys, monkeypatch, cut):
    rc, out, err = rerun_on_damaged_cache(tmp_path, capsys, monkeypatch, "mertens",
                                          lambda raw: raw[:-cut])
    assert rc == 2
    assert out == ""
    assert "truncated" in err


@pytest.mark.parametrize("command", ["count", "census"])
@pytest.mark.parametrize("cut", [4 * 1200, 4 * 1200 + 3])
def test_truncated_cache_exit_code_of_every_fold(tmp_path, capsys, monkeypatch, cut, command):
    rc, out, err = rerun_on_damaged_cache(tmp_path, capsys, monkeypatch, command,
                                          lambda raw: raw[:-cut])
    assert rc == 2
    assert out == ""
    assert "truncated" in err


def test_truncated_cache_list_pairs_writes_nothing(tmp_path, capsys, monkeypatch):
    # the header is checked when the stream is made, before the CSV header row is written
    monkeypatch.setenv(primes.CACHE_ENV, str(tmp_path))
    argv = ["census", "--q", "3", "--a", "2", "--x", "100000", "--list-pairs"]
    assert run(capsys, *argv)[0] == 0
    path = tmp_path / "primes_100000.bin"
    path.write_bytes(path.read_bytes()[:1000])
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "truncated" in err
    target = tmp_path / "pairs.csv"
    rc, out, _ = run(capsys, *argv, "--out", str(target))
    assert (rc, out) == (2, "")
    assert not target.exists()


def out_of_order_late(raw):
    """The body with its 600th word from the end made 7: out of order."""
    return raw[: -4 * 600] + (7).to_bytes(4, "little") + raw[-4 * 599 :]


@pytest.mark.parametrize("command", sorted(CACHED_COMMANDS))
def test_garbled_cache_exit_code(tmp_path, capsys, monkeypatch, command):
    # small windows and blocks: the bad word is read after four windows are folded
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 1000)
    monkeypatch.setattr(primes, "_READ_BLOCK", 100)
    rc, out, err = rerun_on_damaged_cache(tmp_path, capsys, monkeypatch, command,
                                          out_of_order_late)
    assert rc == 2
    assert out == ""
    assert "not ascending primes" in err


@pytest.mark.parametrize("command", sorted(CACHED_COMMANDS))
def test_cache_of_the_old_format_exit_code(tmp_path, capsys, monkeypatch, command):
    # a PRIMTBL2 file holds the same primes in 8-byte words: it fails the header check
    monkeypatch.setenv(primes.CACHE_ENV, str(tmp_path))
    table = primes.sieve_primes(10_000).primes
    path = tmp_path / "primes_10000.bin"
    path.write_bytes(primes._CACHE_HEADER.pack(b"PRIMTBL2", 10_000, table.size)
                     + table.astype("<u8").tobytes())
    rc, out, err = run(capsys, *CACHED_COMMANDS[command])
    assert (rc, out) == (2, "")
    assert "bad header" in err and str(path) in err


def test_fold_failing_midway_leaves_no_cache_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(primes.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 1000)
    folded = []

    def failing_log_euler(p, d=1):
        folded.append(p)
        if len(folded) == 5:
            raise NumericsError("failed in the fifth window")
        return 0.0

    monkeypatch.setattr(asymptotics, "log_euler", failing_log_euler)
    rc, out, err = run(capsys, "mertens", "--q", "3", "--x", "100000")
    assert rc == 2
    assert "fifth window" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("entry, argv", [
    ("scale = huge", ["suite"]),
    ("format = xml", ["mertens", "--q", "3", "--x", "100"]),
])
def test_config_values_checked_like_flags(tmp_path, capsys, entry, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entry + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), *argv])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_config_switch_honoured(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("members = true\n")
    rc, out, _ = run(capsys, "--config", str(cfg), "shiu", "--h", "1000", "--q", "3",
                     "--a", "2")
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["S_members"]) == payload["S_count"]
    assert len(payload["T_members"]) == payload["T_count"]
    rc, out, _ = run(capsys, "shiu", "--h", "1000", "--q", "3", "--a", "2")
    assert "S_members" not in json.loads(out)


def test_config_typed_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("big-c = 2\nlist_pairs = true\nepsilon = 1\nx = 600\n")
    rc, out, _ = run(capsys, "--config=" + str(cfg), "census", "--q", "3", "--a", "2")
    assert rc == 0
    assert len(out.strip().split("\n")) == 7  # header plus the 6 pairs
