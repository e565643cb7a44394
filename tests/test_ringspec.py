"""Ring-spec grammar and polynomial expression parsing."""

from __future__ import annotations

import re

import pytest

from fsplit import (
    CoordinatePrime,
    DuplicateVariable,
    NonPrimeCharacteristic,
    ParseError,
    PrimeField,
    Ring,
)
from fsplit.ringspec import (
    MAX_NESTING,
    parse_chain,
    parse_polynomial,
    parse_polynomials,
    parse_prime,
    parse_ring_spec,
)


def test_node_file():
    spec = parse_ring_spec("char=2; vars=x,y; ideal=x*y")
    assert spec.ring.field.characteristic == 2
    assert spec.ring.variables == ("x", "y")
    assert [str(g) for g in spec.ideal.generators] == ["x*y"]


def test_cusp_file():
    spec = parse_ring_spec("char=5; vars=x,y; ideal=y^2-x^3")
    x, y = spec.ring.gens()
    assert spec.ideal.generators == (y**2 - x**3,)


def test_nonprime_characteristic():
    with pytest.raises(NonPrimeCharacteristic):
        parse_ring_spec("char=4; vars=x; ideal=x")


def test_duplicate_variable():
    with pytest.raises(DuplicateVariable):
        parse_ring_spec("char=3; vars=x,x; ideal=x")
    with pytest.raises(DuplicateVariable):
        parse_ring_spec("char=3; vars=x; transcendentals=x; ideal=x")


def test_unknown_key_rejected():
    with pytest.raises(ParseError):
        parse_ring_spec("char=3; vars=x; ideal=x; frobnicate=1")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_ring_spec("char=3\nvars=x, y\nideal=x*")
    assert info.value.line == 3
    with pytest.raises(ParseError) as info:
        parse_ring_spec("char=3; vars=x; ideal=x$y")
    assert "$" in str(info.value)


def test_comments_and_separators():
    text = """
    # a comment line
    char = 3        # trailing comment
    vars = x, y ; ideal = x^2 - y^2
    sop = x; equidimensional = true
    """
    spec = parse_ring_spec(text)
    x, y = spec.ring.gens()
    assert spec.sop == (x,) and spec.equidimensional
    assert spec.ideal.generators == (x**2 - y**2,)


def test_connected_is_an_unknown_key():
    # no check reads connectedness, so a file cannot state it; a statement-level
    # error knows its line but no column, and prints no column
    with pytest.raises(ParseError, match="^line 1: unknown key 'connected'$") as info:
        parse_ring_spec("char=2; vars=x; ideal=x; connected = true")
    assert (info.value.line, info.value.column) == (1, 0)


def test_characteristic_past_the_int_digit_limit_is_a_parse_error():
    # int() refuses more than 4,300 digits; the tokenizer's error is raised instead
    message = "line 2, column 8: integer of 5000 digits is too long"
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_ring_spec("vars = x\nchar = " + "1" * 5000 + "\nideal = x")


def test_zero_ideal_forms():
    assert parse_ring_spec("char=3; vars=x; ideal=0").ideal.generators == ()
    assert parse_ring_spec("char=3; vars=x; ideal=").ideal.generators == ()


def test_multiple_generators_and_parens():
    spec = parse_ring_spec("char=5; vars=x,y; ideal=(x+y)^2, x*y - 2")
    x, y = spec.ring.gens()
    assert spec.ideal.generators == ((x + y) ** 2, x * y - 2)


def test_transcendental_coefficients():
    spec = parse_ring_spec("char=2; vars=x,y; transcendentals=t; ideal=t*x + y")
    field = spec.ring.field
    g = spec.ideal.generators[0]
    assert dict(g.terms)[(1, 0)] == field.transcendental("t")


def test_primes_chains_sop_socle():
    text = """
    char = 2
    vars = x, y, z
    ideal = x*y
    equidimensional = true
    prime Px = x
    prime Pxy = x, y
    prime Pall = x, y, z
    prime generic = 0
    chain C = Px < Pxy < Pall
    sop = x + y, z
    socle = y
    """
    spec = parse_ring_spec(text)
    assert spec.primes["Px"].variables == ("x",)
    assert spec.primes["generic"].variables == ()
    assert [P.variables for P in spec.chains["C"].primes] == [
        ("x",),
        ("x", "y"),
        ("x", "y", "z"),
    ]
    assert len(spec.sop) == 2
    assert str(spec.socle) == "y"


def test_chain_unknown_prime():
    with pytest.raises(ParseError):
        parse_ring_spec("char=2; vars=x; ideal=x; chain C = nope")


def test_integer_coefficients_reduced_mod_p():
    spec = parse_ring_spec("char=5; vars=x; ideal=7*x")
    assert str(spec.ideal.generators[0]) == "2*x"


def test_negative_and_unary_minus():
    R = Ring(PrimeField(7), ("x", "y"))
    f = parse_polynomial(R, "-x^2 + -3*y + 10")
    x, y = R.gens()
    assert f == -(x**2) - 3 * y + 3


def test_expression_rejects_unknown_name():
    R = Ring(PrimeField(7), ("x",))
    with pytest.raises(ParseError):
        parse_polynomial(R, "x + w")


def test_missing_required_keys():
    with pytest.raises(ParseError):
        parse_ring_spec("vars=x; ideal=x")
    with pytest.raises(ParseError):
        parse_ring_spec("char=3; ideal=x")


R3 = Ring(PrimeField(2), ("x", "y", "z"))
NAMED = {"Px": CoordinatePrime(("x",)), "Pxz": CoordinatePrime(("x", "z"))}


def test_parse_prime_forms():
    assert parse_prime(R3, " Pxz ", NAMED) is NAMED["Pxz"]
    assert parse_prime(R3, "0", NAMED) == parse_prime(R3, " ", NAMED) == CoordinatePrime(())
    assert parse_prime(R3, "z , x", NAMED) == CoordinatePrime(("z", "x"))


@pytest.mark.parametrize(
    "text, error, needle",
    [
        ("Pq", ParseError, "'Pq' is neither"),
        ("x,w", ParseError, "'x,w' is neither"),
        ("x y", ParseError, "'x y' is neither"),
        ("x,,y", ParseError, "'x,,y' is neither"),
        ("x, y, x", DuplicateVariable, "'x, y, x' repeats a variable"),
        ("z" * 5000, ParseError, "^prime '" + "z" * 60 + r" \.\.\.' is neither"),
    ],
    ids=["unknown-name", "unknown-variable", "not-an-identifier", "empty-entry", "repeat",
         "long-text"],
)
def test_parse_prime_refusals(text, error, needle):
    with pytest.raises(error, match=needle):
        parse_prime(R3, text, NAMED)


def test_parse_chain_forms():
    named = parse_chain(R3, "Px < x,z", NAMED, {})
    assert named.primes == (NAMED["Px"], NAMED["Pxz"])
    assert parse_chain(R3, " C ", NAMED, {"C": named}) is named
    assert parse_chain(R3, "0 < x < x,y,z", NAMED, {}).primes[0] == CoordinatePrime(())
    with pytest.raises(ParseError, match="'Pxz < x': chain is not strictly increasing"):
        parse_chain(R3, "Pxz < x", NAMED, {})
    with pytest.raises(ParseError, match="'x < x'"):
        parse_chain(R3, "x < x", NAMED, {})
    with pytest.raises(ParseError, match="'Pq'"):
        parse_chain(R3, "x < Pq", NAMED, {})


def test_file_primes_and_chains_take_the_flag_grammar():
    spec = parse_ring_spec(
        "char=2; vars=x,y,z; ideal=x*y; prime Px = x; prime Q = Px; chain C = x < x, y"
    )
    assert spec.primes["Q"] == spec.primes["Px"]
    assert [P.variables for P in spec.chains["C"].primes] == [("x",), ("x", "y")]
    with pytest.raises(ParseError) as info:
        parse_ring_spec("char=2; vars=x,y\nchain C = x,y < x")
    assert info.value.line == 2 and "not strictly increasing" in str(info.value)
    with pytest.raises(DuplicateVariable):
        parse_ring_spec("char=2; vars=x,y; prime P = x, x, y")


def test_parse_polynomials_splits_at_top_level_commas():
    x, y, z = R3.gens()
    got = parse_polynomials(R3, " (x + y)^2 , , z*(x+y), 0")
    assert got == ((x + y) ** 2, z * (x + y), R3.zero())
    assert parse_polynomials(R3, "") == ()
    with pytest.raises(ParseError) as info:
        parse_polynomials(R3, "x, (y, z)", line=4, col0=7)
    assert (info.value.line, info.value.column) == (4, 12)


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 260, 1000])
def test_deep_nesting_is_a_parse_error(depth):
    text = "(" * depth + "x" + ")" * depth
    with pytest.raises(ParseError, match="nested"):
        parse_polynomial(R3, text)
    with pytest.raises(ParseError, match="nested"):
        parse_polynomial(R3, "-" * depth + "x")
    with pytest.raises(ParseError, match="nested") as info:
        parse_ring_spec(f"char=2; vars=x\nideal = x^2, {text}")
    assert info.value.line == 2


def test_nesting_up_to_the_bound_parses():
    x = R3.var("x")
    depth = MAX_NESTING
    assert parse_polynomial(R3, "(" * depth + "x" + ")" * depth) == x
    assert parse_polynomial(R3, "-" * depth + "x") == x  # -1 = 1 in characteristic 2
    assert parse_polynomial(R3, "-(" * (depth // 2) + "x" + ")" * (depth // 2)) == x


def test_overlong_integer_is_a_parse_error():
    with pytest.raises(ParseError, match="5000 digits"):
        parse_polynomial(R3, "x + " + "1" * 5000)


@pytest.mark.parametrize(
    "text, col",
    [("x^²", 3), ("²*x", 1), ("y + ٣*x", 5), ("x^1٣", 4)],
    ids=["superscript-exponent", "superscript-coefficient", "arabic-indic-coefficient",
         "arabic-indic-in-an-exponent"],
)
def test_only_ascii_digits_are_integers(text, col):
    # str.isdigit and int() also accept superscripts and other scripts' digits
    with pytest.raises(ParseError, match=f"^line 1, column {col}: unexpected character") as info:
        parse_polynomial(R3, text)
    assert (info.value.line, info.value.column) == (1, col)
    assert repr(text[col - 1]) in str(info.value)


@pytest.mark.parametrize(
    "char, quoted",
    [("1_1", "'1_1'"), ("٣", "'٣'"), ("+3", "'+3'"), ("-3", "'-3'"), ("3 3", "'3 3'"),
     ("c" * 5000, "'" + "c" * 60 + " ...'")],
    ids=["underscore", "arabic-indic", "plus-sign", "minus-sign", "inner-space", "long-value"],
)
def test_characteristic_is_ascii_digits_only(char, quoted):
    # int() would read 1_1 as 11 and ٣ as 3; a long value is quoted to 60 characters
    message = f"line 2, column 8: characteristic {quoted} is not an integer"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_ring_spec(f"vars = x\nchar = {char}\nideal = x")
    assert parse_ring_spec("vars = x\nchar = 11\nideal = x").ring.field == PrimeField(11)
