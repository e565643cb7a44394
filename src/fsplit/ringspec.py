"""Parser for ring-spec files and polynomial expressions.

Grammar: line-oriented ``key = value`` statements, separated by newlines or
semicolons, with ``#`` comments. Recognized keys:

    char = 5
    vars = x, y
    transcendentals = t1, t2          # optional
    ideal = y^2 - x^3, x*y            # comma-separated generators; 0 or empty for (0)
    equidimensional = true            # optional flag, default false
    prime NAME = x, y                 # named coordinate primes (parse_prime)
    chain NAME = P1 < P2 < P3         # named chains (parse_chain)
    sop = x + y                       # optional system of parameters (Gorenstein route)
    socle = x                         # optional socle generator for that route

Polynomial expressions support + - * ^, integer coefficients (reduced mod p),
parentheses, and unary minus, nested at most MAX_NESTING deep; identifiers
are ring variables or transcendentals. Unknown keys are rejected.

``parse_prime`` and ``parse_chain`` read one value each; the statements
above and the CLI's ``--primes`` and ``--chains`` flags both go through them,
so a flag takes exactly what a file does.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .errors import DuplicateVariable, FsplitError, ParseError, excerpt
from .fields import PrimeField, RationalFunctionField, check_characteristic
from .localization import CoordinatePrime, PrimeChain
from .poly import GREVLEX, IdealPresentation, Polynomial, Ring


@dataclass
class RingSpec:
    ring: Ring
    ideal: IdealPresentation
    equidimensional: bool = False
    primes: dict = dataclass_field(default_factory=dict)
    chains: dict = dataclass_field(default_factory=dict)
    sop: tuple | None = None
    socle: Polynomial | None = None


# Parentheses and unary minus signs: each level costs the descent up to four
# Python frames, so this stays well inside the default recursion limit.
MAX_NESTING = 100

# ASCII only: str.isdigit and int() also take other scripts' digits and '_'
_DIGITS = set("0123456789")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | _DIGITS


def _integer(digits: str, line: int, col: int) -> int:
    """int() of a run of ASCII digits, a ParseError past Python's limit on
    int-from-str digits."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long", line, col) from None


class _Tokens:
    """Expression tokenizer carrying (line, column) for error messages."""

    def __init__(self, text: str, line: int, col0: int):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch in " \t":
                i += 1
                continue
            col = col0 + i
            if ch in "+-*^()":
                self.toks.append((ch, ch, line, col))
                i += 1
            elif ch in _DIGITS:
                j = i
                while j < len(text) and text[j] in _DIGITS:
                    j += 1
                self.toks.append(("int", _integer(text[i:j], line, col), line, col))
                i = j
            elif ch in _IDENT_START:
                j = i
                while j < len(text) and text[j] in _IDENT_CONT:
                    j += 1
                self.toks.append(("ident", text[i:j], line, col))
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
        self.pos = 0
        self.depth = 0
        self.line = line
        self.endcol = col0 + len(text)

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line, self.endcol)
        self.pos += 1
        return tok


def _parse_expr(ring: Ring, toks: _Tokens) -> Polynomial:
    result = _parse_term(ring, toks)
    while True:
        tok = toks.peek()
        if tok and tok[0] in "+-":
            toks.next()
            rhs = _parse_term(ring, toks)
            result = result + rhs if tok[0] == "+" else result - rhs
        else:
            return result


def _parse_term(ring: Ring, toks: _Tokens) -> Polynomial:
    result = _parse_factor(ring, toks)
    while True:
        tok = toks.peek()
        if tok and tok[0] == "*":
            toks.next()
            result = result * _parse_factor(ring, toks)
        else:
            return result


def _parse_factor(ring: Ring, toks: _Tokens) -> Polynomial:
    base = _parse_atom(ring, toks)
    tok = toks.peek()
    if tok and tok[0] == "^":
        toks.next()
        exp = toks.next()
        if exp[0] != "int":
            raise ParseError("exponent must be a nonnegative integer", exp[2], exp[3])
        return base ** exp[1]
    return base


def _parse_atom(ring: Ring, toks: _Tokens) -> Polynomial:
    tok = toks.next()
    kind, value, line, col = tok
    if kind in ("-", "("):
        toks.depth += 1
        if toks.depth > MAX_NESTING:
            raise ParseError(f"more than {MAX_NESTING} nested parentheses or signs", line, col)
        if kind == "-":
            inner = -_parse_factor(ring, toks)
        else:
            inner = _parse_expr(ring, toks)
            closing = toks.next()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2], closing[3])
        toks.depth -= 1
        return inner
    if kind == "int":
        return ring.from_int(value)
    if kind == "ident":
        if value in ring.variables:
            return ring.var(value)
        if value in ring.field.transcendentals:
            return ring.constant(ring.field.transcendental(value))
        raise ParseError(f"unknown name {excerpt(value)!r}", line, col)
    raise ParseError(f"unexpected token {excerpt(value)!r}", line, col)


def parse_polynomial(ring: Ring, text: str, line: int = 1, col0: int = 1) -> Polynomial:
    """Parse one polynomial expression in the given ring."""
    toks = _Tokens(text, line, col0)
    poly = _parse_expr(ring, toks)
    tok = toks.peek()
    if tok is not None:
        raise ParseError(f"trailing input {excerpt(tok[1])!r}", tok[2], tok[3])
    return poly


def parse_polynomials(ring: Ring, text: str, line: int = 1, col0: int = 1) -> tuple:
    """The polynomials of a list split at top-level commas; empty entries are skipped."""
    chunks, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            chunks.append((start, text[start:i]))
            start = i + 1
    chunks.append((start, text[start:]))
    return tuple(
        parse_polynomial(ring, chunk, line, col0 + offset)
        for offset, chunk in chunks
        if chunk.strip()
    )


def parse_prime(
    ring: Ring, text: str, primes: dict, line: int = 0, col: int = 0
) -> CoordinatePrime:
    """A named prime, ``0`` or empty for the zero prime, or distinct ring variables."""
    text = text.strip()
    if text in primes:
        return primes[text]
    if text in ("0", ""):
        return CoordinatePrime(())
    names = tuple(v.strip() for v in text.split(","))
    if not set(names) <= set(ring.variables):
        raise ParseError(
            f"prime {excerpt(text)!r} is neither a named prime nor ring variables", line, col
        )
    if len(set(names)) != len(names):
        raise DuplicateVariable(f"prime {excerpt(text)!r} repeats a variable", line, col)
    return CoordinatePrime(names)


def parse_chain(
    ring: Ring, text: str, primes: dict, chains: dict, line: int = 0, col: int = 0
) -> PrimeChain:
    """A named chain, or primes (as ``parse_prime`` reads them) joined by ``<``."""
    text = text.strip()
    if text in chains:
        return chains[text]
    links = tuple(parse_prime(ring, part, primes, line, col) for part in text.split("<"))
    try:
        return PrimeChain(links)
    except FsplitError as exc:  # not strictly increasing
        raise ParseError(f"chain {excerpt(text)!r}: {exc}", line, col) from None


def _statements(text: str):
    """Yield (key, value, line, column-of-value) for each statement."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        offset = 0
        for piece in line.split(";"):
            stmt = piece.strip()
            if stmt:
                if "=" not in stmt:
                    col = offset + piece.index(stmt) + 1
                    raise ParseError("expected 'key = value'", lineno, col)
                key, value = stmt.split("=", 1)
                col = offset + piece.index("=") + 2 + len(value) - len(value.lstrip())
                yield key.strip(), value.strip(), lineno, col
            offset += len(piece) + 1


_KNOWN_KEYS = {
    "char",
    "vars",
    "transcendentals",
    "ideal",
    "equidimensional",
    "sop",
    "socle",
}


def _names(value: str, lineno: int, kind: str):
    if not value:
        return []
    names = [v.strip() for v in value.split(",")]
    for name in names:
        if not name or name[0] not in _IDENT_START or any(c not in _IDENT_CONT for c in name):
            raise ParseError(f"invalid {kind} name {excerpt(name)!r}", lineno)
    if len(set(names)) != len(names):
        raise DuplicateVariable(f"duplicate {kind} name in {excerpt(names)}", lineno)
    return names


def parse_ring_spec(text: str) -> RingSpec:
    """Parse a full ring-spec file into (ring, ideal, metadata)."""
    raw: dict = {}
    equidimensional = False
    prime_stmts = []
    chain_stmts = []

    for key, value, lineno, col in _statements(text):
        words = key.split()
        if len(words) == 2 and words[0] == "prime":
            prime_stmts.append((words[1], value, lineno, col))
            continue
        if len(words) == 2 and words[0] == "chain":
            chain_stmts.append((words[1], value, lineno, col))
            continue
        if len(words) != 1 or words[0] not in _KNOWN_KEYS:
            raise ParseError(f"unknown key {excerpt(key)!r}", lineno)
        key = words[0]
        if key in raw:
            raise ParseError(f"duplicate key {key!r}", lineno)
        if key == "char":
            if not value or not set(value) <= _DIGITS:
                raise ParseError(
                    f"characteristic {excerpt(value)!r} is not an integer", lineno, col
                )
            raw[key] = _integer(value, lineno, col)
            check_characteristic(raw[key])
        elif key in ("vars", "transcendentals"):
            raw[key] = _names(value, lineno, "variable" if key == "vars" else "transcendental")
            if set(raw.get("vars", ())) & set(raw.get("transcendentals", ())):
                raise DuplicateVariable("ring variables and transcendentals overlap", lineno)
        elif key == "equidimensional":
            if value.lower() not in ("true", "yes", "1", "false", "no", "0"):
                raise ParseError(f"expected true/false, found {excerpt(value)!r}", lineno)
            equidimensional = raw[key] = value.lower() in ("true", "yes", "1")
        else:
            raw[key] = (value, lineno, col)

    char, vars_, transcendentals = (raw.get(k) for k in ("char", "vars", "transcendentals"))
    if char is None:
        raise ParseError("missing required key 'char'", 1)
    if not vars_:
        raise ParseError("missing required key 'vars'", 1)
    field = RationalFunctionField(char, transcendentals) if transcendentals else PrimeField(char)
    ring = Ring(field, vars_, GREVLEX)

    gens = parse_polynomials(ring, *raw["ideal"]) if "ideal" in raw else ()
    ideal = IdealPresentation(ring, [g for g in gens if not g.is_zero()])

    primes: dict = {}
    for name, value, lineno, col in prime_stmts:
        if name in primes:
            raise ParseError(f"duplicate prime name {excerpt(name)!r}", lineno)
        primes[name] = parse_prime(ring, value, primes, lineno, col)

    chains: dict = {}
    for name, value, lineno, col in chain_stmts:
        if name in chains:
            raise ParseError(f"duplicate chain name {excerpt(name)!r}", lineno)
        chains[name] = parse_chain(ring, value, primes, chains, lineno, col)

    sop = parse_polynomials(ring, *raw["sop"]) if "sop" in raw else None
    socle = parse_polynomial(ring, *raw["socle"]) if "socle" in raw else None

    return RingSpec(
        ring=ring,
        ideal=ideal,
        equidimensional=equidimensional,
        primes=primes,
        chains=chains,
        sop=sop,
        socle=socle,
    )
