"""CLI surface: JSON shapes, exit codes, determinism, env overrides."""

from __future__ import annotations

import json

import pytest

from fsplit.cli import _build_parser, main

NODE2 = "char = 2\nvars = x, y\nideal = x*y\nsop = x + y\n"
NODE3 = """\
char = 2
vars = x, y, z
ideal = x*y
equidimensional = true
connected = true
prime Px = x
prime Pxz = x, z
prime Pxy = x, y
prime Pall = x, y, z
chain C1 = Px < Pxz < Pall
chain C2 = Pxy < Pall
"""
CUSP5 = "char = 5\nvars = x, y\nideal = y^2 - x^3\n"
ZERO = "char = 3\nvars = x, y\nideal = 0\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("node2", NODE2),
        ("node3", NODE3),
        ("cusp5", CUSP5),
        ("zero", ZERO),
    ):
        path = tmp_path / f"{name}.ring"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_se_single_report(files, capsys):
    code, out, _ = run(capsys, "se", files["node2"], "--e", "1", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "fsplit/1"
    expected = {"e": 1, "q": 2, "lambda": "1", "dim": 1, "s_e": "1/2"}
    assert {k: payload[k] for k in expected} == expected


def test_se_zero_ideal(files, capsys):
    code, out, _ = run(capsys, "se", files["zero"], "--e", "3", "--no-timestamp")
    payload = json.loads(out)
    assert code == 0 and payload["s_e"] == "1"


def test_se_cusp(files, capsys):
    code, out, _ = run(capsys, "se", files["cusp5"], "--e", "1", "--no-timestamp")
    payload = json.loads(out)
    assert code == 0 and payload["s_e"] == "0"


def test_se_sequence(files, capsys):
    code, out, _ = run(capsys, "se", files["node2"], "--emax", "3", "--no-timestamp")
    payload = json.loads(out)
    assert code == 0
    assert [r["s_e"] for r in payload["reports"]] == ["1", "1/2", "1/4", "1/8"]
    assert payload["positive"] is True
    assert payload["tail_min"] == "1/8"


def test_probe_table_and_verdict(files, capsys):
    code, out, _ = run(
        capsys,
        "probe", files["node3"],
        "--primes", "Px|Pxz|Pxy|Pall",
        "--e", "1",
        "--thresholds", "0,1/2,3/4,1",
        "--chains", "C1|C2",
        "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert [row["s_e"] for row in payload["values"]] == ["1", "1", "1/2", "1/2"]
    assert payload["passed"] is True
    assert payload["kunz"] == {"sums": [2, 2, 2, 2], "constant": True}
    assert all(m["monotone"] for m in payload["monotonicity"])


def test_probe_inline_primes(files, capsys):
    code, out, _ = run(
        capsys,
        "probe", files["node3"],
        "--primes", "x|x,y,z",
        "--e", "1",
        "--thresholds", "0",
        "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_probe_not_containing_exit_2(files, capsys):
    code, _, err = run(
        capsys, "probe", files["node3"], "--primes", "z", "--e", "1", "--thresholds", "0"
    )
    assert code == 2 and "does not lie" in err


def test_probe_chain_needs_flag(files, capsys):
    code, _, err = run(
        capsys,
        "probe", files["node2"],
        "--primes", "x,y",
        "--e", "1",
        "--thresholds", "0",
        "--chains", "x<x,y",
    )
    assert code == 2 and "equidimensional" in err


def test_gorenstein_routes(files, capsys):
    code, out, _ = run(capsys, "gorenstein", files["node2"], "--e", "1", "--no-timestamp")
    payload = json.loads(out)
    assert code == 0 and payload["s_e"] == "1/2"
    code, out, _ = run(
        capsys, "gorenstein", files["zero"], "--sop", "x,y", "--e", "1", "--no-timestamp"
    )
    assert code == 0 and json.loads(out)["s_e"] == "1"


def test_gorenstein_not_gorenstein_exit_2(tmp_path, capsys):
    path = tmp_path / "fat.ring"
    path.write_text("char = 3\nvars = x, y\nideal = x^2, x*y, y^2\n", encoding="utf-8")
    code, _, err = run(capsys, "gorenstein", str(path), "--e", "1")
    assert code == 2 and "socle" in err


def test_se_ideal_off_the_origin_exit_2(tmp_path, capsys):
    path = tmp_path / "line.ring"
    path.write_text("char = 3\nvars = x, y\nideal = x - 1\n", encoding="utf-8")
    code, out, err = run(capsys, "se", str(path), "--e", "1")
    assert code == 2 and out == "" and "not contained" in err


def test_oracle_hidden_command(files, capsys):
    code, out, _ = run(
        capsys, "oracle", files["node2"], "--e", "1", "--mode", "dual-length", "--no-timestamp"
    )
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_usage_errors_exit_1(files, capsys):
    assert run(capsys, "se", files["node2"])[0] == 1  # missing --e/--emax
    assert run(capsys)[0] == 1  # missing subcommand


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "se", "/nonexistent.ring", "--e", "1")
    assert code == 1


def test_nonprime_char_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.ring"
    path.write_text("char = 6\nvars = x\nideal = x\n", encoding="utf-8")
    code, _, err = run(capsys, "se", str(path), "--e", "1")
    assert code == 2 and "not prime" in err


def test_budget_env_exit_3(files, capsys, monkeypatch):
    monkeypatch.setenv("FSPLIT_BUDGET", "10")
    code, _, err = run(capsys, "se", files["node2"], "--e", "3")
    assert code == 3 and "budget" in err


def test_budget_flag_beats_env(files, capsys, monkeypatch):
    monkeypatch.setenv("FSPLIT_BUDGET", "10")
    code, out, _ = run(capsys, "se", files["node2"], "--e", "3", "--budget", "10000",
                       "--no-timestamp")
    assert code == 0 and json.loads(out)["s_e"] == "1/8"


def test_deterministic_bytes(files, capsys):
    first = run(capsys, "se", files["node2"], "--e", "2", "--no-timestamp")
    second = run(capsys, "se", files["node2"], "--e", "2", "--no-timestamp")
    assert first == second
    a = run(capsys, "probe", files["node3"], "--primes", "Px|Pall", "--e", "1",
            "--thresholds", "0,1/2", "--no-timestamp")
    b = run(capsys, "probe", files["node3"], "--primes", "Px|Pall", "--e", "1",
            "--thresholds", "0,1/2", "--no-timestamp")
    assert a == b


def test_timestamp_present_by_default(files, capsys):
    _, out, _ = run(capsys, "se", files["node2"], "--e", "1")
    assert "timestamp" in json.loads(out)


def test_function_field_input(tmp_path, capsys):
    path = tmp_path / "ft.ring"
    path.write_text(
        "char = 2\nvars = x, y\ntranscendentals = t\nideal = x*y\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "se", str(path), "--e", "2", "--no-timestamp")
    payload = json.loads(out)
    assert code == 0
    assert (payload["s_e"], payload["alpha"], payload["a_e"]) == ("1/4", 1, "4")
    # x*(y - t) is regular at the origin: y - t is a unit there
    path.write_text(
        "char = 2\nvars = x, y\ntranscendentals = t\nideal = x*y - t*x\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "se", str(path), "--e", "1", "--no-timestamp")
    assert code == 0 and json.loads(out)["s_e"] == "1"


def test_json_roundtrip_value_identity(files, capsys):
    _, out, _ = run(capsys, "se", files["node2"], "--e", "1", "--no-timestamp")
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize(
    "argv, env, needle",
    [
        (("--e", "-1"), None, "--e must be nonnegative"),
        (("--emax", "0"), None, "--emax must be positive"),
        (("--e", "1"), "lots", "FSPLIT_BUDGET must be an integer"),
        (("--e", "1", "--budget", "-1"), None, "--budget must be positive"),
        (("--e", "0"), "0", "FSPLIT_BUDGET must be positive"),
    ],
    ids=["negative-e", "zero-emax", "non-integer-budget-env", "negative-budget",
         "zero-budget-env"],
)
def test_se_bad_values_are_usage_errors(files, capsys, monkeypatch, argv, env, needle):
    if env is not None:
        monkeypatch.setenv("FSPLIT_BUDGET", env)
    code, out, err = run(capsys, "se", files["node2"], *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == [err.strip()]  # one line, no traceback
    assert err.startswith("fsplit: error: ") and needle in err


@pytest.mark.parametrize("thresholds", ["abc", "1/0"], ids=["not-a-number", "zero-denominator"])
def test_probe_bad_thresholds_are_usage_errors(files, capsys, thresholds):
    code, out, err = run(
        capsys, "probe", files["node3"], "--primes", "x", "--e", "1", "--thresholds", thresholds
    )
    assert code == 1 and out == ""
    assert err.splitlines() == [err.strip()]  # one line, no traceback
    assert err.startswith("fsplit: error: ") and "--thresholds must be rationals" in err


def test_successive_calls_share_one_parser(files, capsys):
    # main builds its parser once per process: a call must not see what an
    # earlier call parsed, so each gives what it gives in a fresh process
    calls = [
        ("se", files["node2"], "--e", "-1", "--no-timestamp"),
        ("se", files["node2"], "--e", "1", "--no-timestamp"),
        ("gorenstein", files["node2"], "--e", "1", "--no-timestamp"),
        ("se", files["node2"], "--emax", "2", "--no-timestamp"),
    ]
    alone = []
    for argv in calls:
        _build_parser.cache_clear()
        alone.append(run(capsys, *argv)[:2])
    _build_parser.cache_clear()
    assert [run(capsys, *argv)[:2] for argv in calls] == alone
    assert [code for code, _ in alone] == [1, 0, 0, 0]
    assert _build_parser.cache_info().misses == 1
