import json
import math

import pytest

from congaps import census, cli, primes


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


def test_census_json_equals_full_report(capsys, table5):
    # the CLI builds only the sample pairs; its report is unchanged
    rc, out, _ = run(capsys, "census", "--q", "3", "--a", "2", "--x", "100000",
                     "--epsilon", "2")
    assert rc == 0
    full = census.find_congruent_pairs(10**5, 3, 2, 2.0, table5, keep_pairs=True)
    payload, expect = json.loads(out), full.to_dict()
    del payload["wall_time_ms"], expect["wall_time_ms"]
    assert payload == expect
    assert payload["sample_pairs"] == [list(p) for p in full.pairs[:100]]
    rc, out, _ = run(capsys, "census", "--q", "3", "--a", "2", "--x", "100000",
                     "--epsilon", "2", "--list-pairs")
    rows = out.strip().split("\n")[1:]
    assert len(rows) == full.pair_count == 1710
    assert [tuple(map(int, r.split(",")[:2])) for r in rows] == list(full.pairs)


def test_census_list_pairs_out_file(tmp_path, capsys):
    path = tmp_path / "pairs.csv"
    rc, out, _ = run(capsys, "census", "--q", "3", "--a", "2", "--x", "600",
                     "--epsilon", "1", "--list-pairs", "--out", str(path))
    assert rc == 0
    assert out == ""
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "p_r,p_next,gap,log_p,q,a"
    assert len(lines) == 7


@pytest.mark.parametrize("argv", [
    ["constants", "--q", "4", "--format", "csv"],
    ["constants", "--q", "4", "--tol", "1e-8"],
    ["contour", "--mode", "gamma", "--cache-dir", "D"],
    ["contour", "--mode", "hankel", "--r", "0.1"],
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


def test_domain_violation_exit_code(capsys):
    rc, _, err = run(capsys, "shiu", "--h", "10", "--q", "3", "--a", "2")
    assert rc == 2
    assert "congaps:" in err


@pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
def test_count_rejects_non_finite_y(capsys, monkeypatch, y):
    def no_table(*args):
        raise AssertionError("a prime table was sized for a non-finite Y")

    monkeypatch.setattr(primes, "get_prime_table", no_table)
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


@pytest.mark.parametrize("flag", ["--epsilon", "--c", "--big-c"])
def test_non_finite_report_exit_code(capsys, flag):
    rc, out, err = run(capsys, "census", "--q", "3", "--a", "2", "--x", "100", flag, "nan")
    assert rc == 2
    assert out == ""
    assert "non-finite" in err


@pytest.mark.parametrize("flag, value", [("--c", "0"), ("--big-c", "-1")])
def test_census_rejects_nonpositive_bound_constants(capsys, flag, value):
    argv = ("census", "--q", "3", "--a", "2", "--x", "1000", flag, value)
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "must be > 0" in err


@pytest.mark.parametrize("argv", [
    ["census", "--q", "3", "--a", "2", "--x", "1000000001"],
    ["mertens", "--q", "3", "--x", "1000000001"],
], ids=["census", "mertens"])
def test_x_above_sieve_capacity_exits_before_sieving(capsys, monkeypatch, argv):
    def no_sieve(limit):
        raise AssertionError(f"sieved to {limit} past the capacity")

    monkeypatch.setattr(primes, "_simple_sieve", no_sieve)
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "exceeds configured maximum" in err


def test_mertens_and_census_share_one_cache_file(tmp_path, capsys, monkeypatch):
    cache = ("--cache-dir", str(tmp_path))
    rc, _, _ = run(capsys, "mertens", "--q", "3", "--x", "10000", *cache)
    assert rc == 0

    def no_sieve(limit):
        raise AssertionError("the census sieved a table the cache holds")

    monkeypatch.setattr(primes, "sieve_primes", no_sieve)
    rc, out, _ = run(capsys, "census", "--q", "3", "--a", "2", "--x", "10000", *cache)
    assert rc == 0
    assert strict_json(out)["pair_count"] > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["primes_10000.bin"]


@pytest.mark.parametrize("cut", [8 * 600, 8 * 600 + 3])
def test_truncated_cache_exit_code(tmp_path, capsys, cut):
    argv = ("mertens", "--q", "3", "--x", "10000", "--cache-dir", str(tmp_path))
    rc, _, _ = run(capsys, *argv)
    assert rc == 0
    path = tmp_path / "primes_10000.bin"
    path.write_bytes(path.read_bytes()[:-cut])
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "truncated" in err


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
