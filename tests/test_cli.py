"""CLI surface: JSON shapes, exit codes, determinism, one place for each input."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import fsplit.localization
from fsplit import FsplitError
from fsplit.cli import _build_parser, main
from fsplit.ringspec import parse_ring_spec

NODE2 = "char = 2\nvars = x, y\nideal = x*y\nsop = x + y\n"
NODE3 = """\
char = 2
vars = x, y, z
ideal = x*y
equidimensional = true
prime Px = x
prime Pxz = x, z
prime Pxy = x, y
prime Pall = x, y, z
chain C1 = Px < Pxz < Pall
chain C2 = Pxy < Pall
"""
CUSP5 = "char = 5\nvars = x, y\nideal = y^2 - x^3\n"
ZERO = "char = 3\nvars = x, y\nideal = 0\n"
ZERO_SOP = ZERO + "sop = x, y\n"
LONG_NAME = "w" * 5000
LONG_VAR = f"char = 2\nvars = {LONG_NAME}, x\nideal = x\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("node2", NODE2),
        ("node3", NODE3),
        ("cusp5", CUSP5),
        ("zero", ZERO),
        ("zero_sop", ZERO_SOP),
        ("long_var", LONG_VAR),
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


def test_probe_localizes_each_prime_once(files, capsys, monkeypatch):
    # 4 distinct primes over --primes and both chains: one report each
    calls = []
    s_e_at_prime = fsplit.localization.s_e_at_prime

    def counted(I, P, e, budget):
        calls.append(P.variables)
        return s_e_at_prime(I, P, e, budget)

    monkeypatch.setattr(fsplit.localization, "s_e_at_prime", counted)
    code, _, _ = run(
        capsys, "probe", files["node3"], "--primes", "Px|Pxz|Pxy|Pall", "--e", "1",
        "--thresholds", "0,1/2", "--chains", "C1|C2", "--no-timestamp",
    )
    assert code == 0 and len(calls) == 4


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
    code, out, _ = run(capsys, "gorenstein", files["zero_sop"], "--e", "1", "--no-timestamp")
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


def test_usage_errors_exit_1(files, capsys):
    for argv in (
        ("se", files["node2"]),  # missing --e/--emax
        (),  # missing subcommand
        ("gorenstein", files["node2"], "--e", "1", "--sop", "x"),  # not a flag; the file sets it
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        # one line, without argparse's usage block
        assert len(err.splitlines()) == 1 and ": error: " in err, argv


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "se", "/nonexistent.ring", "--e", "1")
    assert code == 1


def test_nonprime_char_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.ring"
    path.write_text("char = 6\nvars = x\nideal = x\n", encoding="utf-8")
    code, _, err = run(capsys, "se", str(path), "--e", "1")
    assert code == 2 and "not prime" in err


def test_char_beyond_certified_primes_exit_2(tmp_path, capsys):
    # 399165290221 * 798330580441, composite and far past the 2^16 bound
    path = tmp_path / "psi12.ring"
    path.write_text("char = 318665857834031151167461\nvars = x\nideal = x\n", encoding="utf-8")
    code, out, err = run(capsys, "se", str(path), "--e", "1")
    assert code == 2 and out == "" and "2^16" in err


@pytest.mark.parametrize(
    "command, flags",
    [("se", ()), ("gorenstein", ()), ("probe", ("--primes", "x,y", "--thresholds", "0"))],
)
def test_huge_e_is_a_budget_refusal(files, capsys, command, flags):
    # q^n = 2^10000: refused by its bit length, never printed in full
    code, out, err = run(capsys, command, files["node2"], "--e", "5000", *flags)
    assert code == 3 and out == ""
    assert err.splitlines() == ["fsplit: budget: q^n = 2^10000 exceeds the "
                                "standard-monomial budget 1000000"]


def test_budget_env_exit_3(files, capsys, monkeypatch):
    # a budget of 10 stops e = 3 with exit 3; it is set by --budget, since a
    # set FSPLIT_BUDGET is not read
    monkeypatch.setenv("FSPLIT_BUDGET", "10")
    code, _, err = run(capsys, "se", files["node2"], "--e", "3", "--budget", "10")
    assert code == 3 and "budget" in err


def test_budget_flag_beats_env(files, capsys, monkeypatch):
    # --budget is the one place for the budget: the variable is not read
    monkeypatch.setenv("FSPLIT_BUDGET", "10")
    code, out, _ = run(capsys, "se", files["node2"], "--e", "3", "--budget", "10000",
                       "--no-timestamp")
    assert code == 0 and json.loads(out)["s_e"] == "1/8"
    code, out, _ = run(capsys, "se", files["node2"], "--e", "3", "--no-timestamp")
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
    "argv, needle",
    [
        (("--e", "-1"), "--e must be nonnegative"),
        (("--emax", "0"), "--emax must be positive"),
        (("--e", "1", "--budget", "-1"), "--budget must be positive"),
        (("--e", "0", "--budget", "0"), "--budget must be positive"),
        (("--e", "\u0663"), "--e must be an integer in ASCII digits, got '\u0663'"),
        (("--emax", "\uff13"), "--emax must be an integer in ASCII digits"),
        (("--e", "1", "--budget", "1_0"), "--budget must be an integer in ASCII digits"),
        (("--e", "+1"), "--e must be an integer in ASCII digits"),
        (("--e", "1", "--budget", "lots"), "--budget must be an integer in ASCII digits"),
    ],
    ids=["negative-e", "zero-emax", "negative-budget", "zero-budget", "arabic-indic-e",
         "fullwidth-emax", "underscore-budget", "plus-sign-e", "non-integer-budget"],
)
def test_se_bad_values_are_usage_errors(files, capsys, argv, needle):
    code, out, err = run(capsys, "se", files["node2"], *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == [err.strip()]  # one line, no traceback
    assert err.startswith("fsplit: error: ") and needle in err


@pytest.mark.parametrize(
    "thresholds",
    ["abc", "1/0", "0,\u0663/4", "1_0", "0,1/\uff12", "1e9999", "0," + "z" * 5000,
     "1" * 3000 + "." + "1" * 3000],
    ids=["not-a-number", "zero-denominator", "arabic-indic-digit", "underscore",
         "fullwidth-digit", "exponent", "long-value", "decimal-past-the-digit-limit"],
)
def test_probe_bad_thresholds_are_usage_errors(files, capsys, thresholds):
    code, out, err = run(
        capsys, "probe", files["node3"], "--primes", "x", "--e", "1", "--thresholds", thresholds
    )
    assert code == 1 and out == ""
    assert err.splitlines() == [err.strip()]  # one line, no traceback
    assert err.startswith("fsplit: error: ") and "--thresholds must be rationals" in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize(
    "ring, flags, needle",
    [
        ("node3", ("--primes", "Pz"), "'Pz'"),
        ("node3", ("--primes", "x|x,w"), "'x,w'"),
        ("node3", ("--primes", "x", "--chains", "Px<Pq"), "'Pq'"),
        ("node3", ("--primes", "x", "--chains", "Pxz<Px"), "not strictly increasing"),
        ("node3", ("--primes", "x,x,y"), "--primes: prime 'x,x,y' repeats a variable"),
        ("node3", ("--primes", "x|" + "z" * 5000), "prime '" + "z" * 60 + " ...' is neither"),
        # the primes of a decreasing chain are cut too, not only the quoted text
        ("long_var", ("--primes", "x", "--chains", f"{LONG_NAME},x<x"),
         f"increasing at ({LONG_NAME[:59]} ... < (x)"),
    ],
    ids=["unknown-prime", "unknown-variable", "unknown-prime-in-chain", "decreasing-chain",
         "repeated-variable", "long-value", "long-prime-in-chain"],
)
def test_probe_bad_prime_tokens_are_usage_errors(files, capsys, ring, flags, needle):
    code, out, err = run(
        capsys, "probe", files[ring], "--e", "1", "--thresholds", "0", *flags
    )
    assert code == 1 and out == ""
    assert err.splitlines() == [err.strip()]  # one line, no traceback
    assert err.startswith("fsplit: error: ") and needle in err
    assert len(err.encode()) < 300


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


def test_zero_prime_huge_e_is_a_budget_refusal(files, capsys):
    # no variable is left at the zero prime, so q^n = 1; q = 3^10000 itself
    # is refused rather than printed
    code, out, err = run(
        capsys, "probe", files["zero"], "--primes", "0", "--e", "10000", "--thresholds", "0"
    )
    assert code == 3 and out == ""
    assert err.splitlines() == ["fsplit: budget: q = 3^10000 exceeds the "
                                "standard-monomial budget 1000000"]


def test_zero_prime_a_e_is_bounded_with_q(files, capsys):
    # q = 3^4600 is within this budget, but a_e can reach q^alpha = 3^9200
    # (alpha = 2), past Python's 4,300-digit integer printing limit
    code, out, err = run(
        capsys, "probe", files["zero"], "--primes", "0", "--e", "4600",
        "--thresholds", "0", "--budget", "1" + "0" * 2200,
    )
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("fsplit: budget: q^alpha = 3^9200 exceeds")


@pytest.mark.parametrize(
    "lines, needle",
    [
        ("sop = x+w", "line 4, column 9: unknown name 'w'"),
        ("sop = (x, y)", "line 4, column 9: unexpected character ','"),
        ("sop = " + "(" * 260 + "x" + ")" * 260, "line 4, column 107: more than 100"),
        ("sop = x + y\nsocle = x*", "line 5, column 11: unexpected end"),
        ("sop = y^²", "line 4, column 9: unexpected character '²'"),
    ],
    ids=["unknown-name", "comma-in-parentheses", "deep-nesting", "socle", "superscript-digit"],
)
def test_gorenstein_bad_polynomial_statements_exit_2(tmp_path, capsys, lines, needle):
    path = tmp_path / "bad.ring"
    path.write_text(f"char = 2\nvars = x, y\nideal = x*y\n{lines}\n", encoding="utf-8")
    code, out, err = run(capsys, "gorenstein", str(path), "--e", "1")
    assert code == 2 and out == ""
    assert err.splitlines() == [err.strip()]  # one line, no traceback
    assert err.startswith(f"fsplit: error: {needle}")


@pytest.mark.parametrize(
    "command, ideal, flags, position",
    [
        ("se", "(x + y + 1)^200", (), 1),
        ("probe", "(x + y + z)^40*(x + y + 1) - x", ("--primes", "z", "--thresholds", "0"), 1),
        ("se", "z, 0, (x + y + 1)^200", (), 2),
    ],
    ids=["se-off-the-origin", "probe-outside-the-prime", "se-second-nonzero-generator"],
)
def test_a_refusal_names_a_long_generator_by_position(
    tmp_path, capsys, command, ideal, flags, position
):
    path = tmp_path / "long.ring"
    path.write_text(f"char = 3\nvars = x, y, z\nideal = {ideal}\n", encoding="utf-8")
    code, out, err = run(capsys, command, str(path), "--e", "1", *flags)
    assert code == 2 and out == ""
    assert err.splitlines() == [err.strip()]  # one line, no traceback
    assert len(err.encode()) < 300 and f"generator {position} " in err


LONG = "w" * 60 + " ..."  # a 5000-character "ww...w" as a refusal quotes it


@pytest.mark.parametrize(
    "text, message",
    [
        ("char = 2\nvars = x, y\nideal = x*y\nconnected = true\n",
         "line 4: unknown key 'connected'"),
        ("char = " + "1" * 5000 + "\nvars = x\nideal = x\n",
         "line 1, column 8: integer of 5000 digits is too long"),
        ("char = 2\nvars = x, x\nideal = x\n",
         "line 2: duplicate variable name in ['x', 'x']"),
        ("char = 2\ntranscendentals = t\nvars = x, t\nideal = x\n",
         "line 3: ring variables and transcendentals overlap"),
        ("char = 65537\nvars = x\nideal = x\n",
         "characteristic 65537 is at least 2^16: q = p^e is an exponent of n^[q] and "
         "sop^[q], which must stay below 2^16"),
        ("char = " + "w" * 5000 + "\nvars = x\nideal = x\n",
         f"line 1, column 8: characteristic '{LONG}' is not an integer"),
        *(
            (f"char = 2\nvars = x, y\n{text}\n", message)
            for text, message in [
                ("ideal = x^y", "line 3, column 11: exponent must be a nonnegative integer"),
                ("ideal = (x y)", "line 3, column 12: expected ')'"),
                ("ideal = x y", "line 3, column 11: trailing input 'y'"),
                ("ideal x*y", "line 3, column 1: expected 'key = value'"),
                ("ideal = x*y; sop", "line 3, column 14: expected 'key = value'"),
                ("ideal = x*y\ntranscendentals = t, t",
                 "line 4: duplicate transcendental name in ['t', 't']"),
                ("ideal = x*y\nprime P = x, x",
                 "line 4, column 11: prime 'x, x' repeats a variable"),
                ("ideal = x*y\ntranscendentals = t, 2s",
                 "line 4: invalid transcendental name '2s'"),
                ("ideal = x*y\nideal = x", "line 4: duplicate key 'ideal'"),
                ("ideal = x*y\nequidimensional = maybe",
                 "line 4: expected true/false, found 'maybe'"),
                ("ideal = x*y\nprime P = x\nprime P = y", "line 5: duplicate prime name 'P'"),
                ("ideal = x*y\nchain C = x < x, y\nchain C = y < x, y",
                 "line 5: duplicate chain name 'C'"),
                ("ideal = " + "w" * 5000, f"line 3, column 9: unknown name '{LONG}'"),
                ("w" * 5000 + " = 1\nideal = x", f"line 3: unknown key '{LONG}'"),
                ("ideal = x\nequidimensional = " + "w" * 5000,
                 f"line 4: expected true/false, found '{LONG}'"),
            ]
        ),
    ],
    ids=[
        "statement-level-no-column", "characteristic-too-long", "duplicate-variable",
        "overlap-on-the-later-line", "characteristic-at-least-2-to-16", "long-characteristic",
        "exponent", "close-paren", "trailing", "no-equals", "no-equals-after-semicolon",
        "duplicate-transcendental", "prime-repeats-a-variable", "name", "duplicate-key",
        "boolean", "duplicate-prime", "duplicate-chain", "long-name", "long-key",
        "long-boolean",
    ],
)
def test_ring_file_refusals_are_one_line(tmp_path, capsys, text, message):
    # each names its line, and the column where the parser has one
    path = tmp_path / "bad.ring"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "se", str(path), "--e", "1")
    assert code == 2 and out == ""
    assert err.splitlines() == [f"fsplit: error: {message}"]


def test_deep_nesting_in_a_ring_file_exit_2(tmp_path, capsys):
    path = tmp_path / "nest.ring"
    path.write_text("char = 2\nvars = x, y\nideal = " + "(" * 260 + "x" + ")" * 260 + "\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "se", str(path), "--e", "1")
    assert code == 2 and out == ""
    assert err.splitlines() == ["fsplit: error: line 3, column 109: more than 100 nested "
                                "parentheses or signs"]


# -- one grammar: a flag value and the same value in a ring file ---------------

GRAMMAR_BASE = """\
char = 2
vars = x, y, z
ideal = 0
equidimensional = true
prime Px = x
prime Pxz = x, z
chain C = Px < Pxz
"""

_prime_texts = st.one_of(
    st.sampled_from(["Px", "Pxz", "0", "", " 0 ", "Pq", "C"]),
    st.builds(
        lambda names, sep: sep.join(names),
        st.lists(st.sampled_from(["x", "y", "z", "w", "x y", "1x", "", "Px", "0"]),
                 min_size=1, max_size=4),
        st.sampled_from([",", ", ", " , "]),
    ),
)
_chain_texts = st.one_of(
    st.sampled_from(["C", "Cq"]),
    st.builds(" < ".join, st.lists(_prime_texts, min_size=1, max_size=3)),
    # decreasing
    st.sampled_from(["x,y,z < x,y", "Pxz < Px", "x < 0"]),
)


def _nested(text, depth, kind):
    return {"paren": "(" * depth + text + ")" * depth, "minus": "-" * depth + text}[kind]


_atoms = st.sampled_from(["x", "y", "z", "1", "0", "2*x", "x^2", "t", "x^99999", "x+", ")("])
_expressions = st.builds(
    _nested,
    st.builds(lambda a, op, b: f"{a} {op} {b}", _atoms, st.sampled_from("+-*"), _atoms),
    st.one_of(st.integers(0, 3), st.sampled_from([99, 100, 101, 260, 1000])),
    st.sampled_from(["paren", "minus"]),
)
_polynomial_lists = st.one_of(
    st.sampled_from(["x, y, z", "(x), -(y), z^1", "x + y, y, z*1, "]),
    st.builds(
        lambda polys, wrap: ("({})" if wrap else "{}").format(", ".join(polys)),
        st.lists(_expressions, max_size=3),
        st.booleans(),
    ),
)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _flag_and_file_agree(line, flag_argv, file_argv, flag):
    """One value as a flag and as a ring-file statement: the same result, or both refused."""
    with tempfile.TemporaryDirectory() as tmp:
        base, stated = Path(tmp) / "base.ring", Path(tmp) / "stated.ring"
        base.write_text(GRAMMAR_BASE, encoding="utf-8")
        stated.write_text(GRAMMAR_BASE + line + "\n", encoding="utf-8")
        by_flag = _run_quietly([*flag_argv[:1], str(base), *flag_argv[1:]])
        by_file = _run_quietly([*file_argv[:1], str(stated), *file_argv[1:]])
    for code, out, err in (by_flag, by_file):
        assert code in (0, 1, 2, 3)
        if code:
            assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
        else:
            assert json.loads(out)["schema"] == "fsplit/1"
    if by_flag[0] == 1:
        # refused by the grammar: a usage error as a flag, a bad ring file as a statement
        assert by_flag[2].startswith(f"fsplit: error: {flag}: ")
        assert by_file[0] == 2
        with pytest.raises(FsplitError):
            parse_ring_spec(GRAMMAR_BASE + line)
    else:
        assert by_flag == by_file


@given(_prime_texts, st.sampled_from(["0", "1", "10000"]))
def test_a_prime_flag_and_a_prime_statement_agree(text, e):
    scan = ["--e", e, "--thresholds", "0", "--no-timestamp"]
    _flag_and_file_agree(
        f"prime Q = {text}", ["probe", f"--primes={text}", *scan],
        ["probe", "--primes=Q", *scan], "--primes",
    )


@given(_chain_texts)
def test_a_chain_flag_and_a_chain_statement_agree(text):
    scan = ["--primes=Px", "--e", "1", "--thresholds", "0", "--no-timestamp"]
    _flag_and_file_agree(
        f"chain Q = {text}", ["probe", f"--chains={text}", *scan],
        ["probe", "--chains=Q", *scan], "--chains",
    )


@given(_polynomial_lists)
def test_a_sop_statement_gives_a_report_or_one_refusal_line(text):
    # the sop has one place, the ring file: a value its grammar refuses exits 2
    with tempfile.TemporaryDirectory() as tmp:
        stated = Path(tmp) / "stated.ring"
        stated.write_text(GRAMMAR_BASE + f"sop = {text}\n", encoding="utf-8")
        code, out, err = _run_quietly(
            ["gorenstein", str(stated), "--e", "1", "--budget", "1000", "--no-timestamp"]
        )
    assert code in (0, 2, 3)
    if code:
        assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
    else:
        assert json.loads(out)["schema"] == "fsplit/1"
    try:
        parse_ring_spec(GRAMMAR_BASE + f"sop = {text}")
    except FsplitError as exc:
        assert code == 2 and err == f"fsplit: error: {exc}\n"
