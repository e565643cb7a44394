"""Parser for ring-spec files and polynomial expressions.

Grammar: line-oriented ``key = value`` statements, separated by newlines or
semicolons, with ``#`` comments. Recognized keys:

    char = 5
    vars = x, y
    transcendentals = t1, t2          # optional
    ideal = y^2 - x^3, x*y            # comma-separated generators; 0 or empty for (0)
    equidimensional = true            # optional flags, default false
    connected = true
    prime NAME = x, y                 # named coordinate primes; "0" for the zero prime
    chain NAME = P1 < P2 < P3         # named chains of named primes
    sop = x + y                       # optional system-of-parameters hint
    socle = x                         # optional socle generator hint

Polynomial expressions support + - * ^, integer coefficients (reduced mod p),
parentheses, and unary minus; identifiers are ring variables or
transcendentals. Unknown keys are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .errors import (
    DuplicateVariable,
    NonPrimeCharacteristic,
    ParseError,
    ReservedVariable,
)
from .fields import PrimeField, RationalFunctionField, is_prime
from .localization import CoordinatePrime, PrimeChain
from .poly import GREVLEX, RESERVED_VARIABLE, IdealPresentation, Polynomial, Ring


@dataclass
class RingSpec:
    ring: Ring
    ideal: IdealPresentation
    equidimensional: bool = False
    connected: bool = False
    primes: dict = dataclass_field(default_factory=dict)
    chains: dict = dataclass_field(default_factory=dict)
    sop: tuple | None = None
    socle: Polynomial | None = None


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


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
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("int", int(text[i:j]), line, col))
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
    if kind == "-":
        return -_parse_factor(ring, toks)
    if kind == "int":
        return ring.from_int(value)
    if kind == "ident":
        if value in ring.variables:
            return ring.var(value)
        if value in ring.field.transcendentals:
            return ring.constant(ring.field.transcendental(value))
        raise ParseError(f"unknown name {value!r}", line, col)
    if kind == "(":
        inner = _parse_expr(ring, toks)
        closing = toks.next()
        if closing[0] != ")":
            raise ParseError("expected ')'", closing[2], closing[3])
        return inner
    raise ParseError(f"unexpected token {value!r}", line, col)


def parse_polynomial(ring: Ring, text: str, line: int = 1, col0: int = 1) -> Polynomial:
    """Parse one polynomial expression in the given ring."""
    toks = _Tokens(text, line, col0)
    poly = _parse_expr(ring, toks)
    tok = toks.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
    return poly


def _split_top_level(text: str):
    """Split on commas outside parentheses, keeping offsets."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append((text[start:i], start))
            start = i + 1
    parts.append((text[start:], start))
    return parts


def _statements(text: str):
    """Yield (key, value, line, column-of-value) for each statement."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        offset = 0
        for piece in line.split(";"):
            stmt = piece.strip()
            if stmt:
                if "=" not in stmt:
                    raise ParseError("expected 'key = value'", lineno, offset + 1)
                key, value = stmt.split("=", 1)
                col = offset + piece.index("=") + 2
                yield key.strip(), value.strip(), lineno, col
            offset += len(piece) + 1


_KNOWN_KEYS = {
    "char",
    "vars",
    "transcendentals",
    "ideal",
    "equidimensional",
    "connected",
    "sop",
    "socle",
}


def _names(value: str, lineno: int, kind: str):
    if not value:
        return []
    names = [v.strip() for v in value.split(",")]
    for name in names:
        if not name or name[0] not in _IDENT_START or any(c not in _IDENT_CONT for c in name):
            raise ParseError(f"invalid {kind} name {name!r}", lineno)
        if name == RESERVED_VARIABLE:
            raise ReservedVariable(f"{name!r} is reserved for internal use")
    if len(set(names)) != len(names):
        raise DuplicateVariable(f"duplicate {kind} name in {names}")
    return names


def _boolean(value: str, lineno: int) -> bool:
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise ParseError(f"expected true/false, found {value!r}", lineno)


def parse_ring_spec(text: str) -> RingSpec:
    """Parse a full ring-spec file into (ring, ideal, metadata)."""
    char = None
    vars_: list | None = None
    transcendentals: list = []
    raw: dict = {}
    flags = {"equidimensional": False, "connected": False}
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
            raise ParseError(f"unknown key {key!r}", lineno)
        key = words[0]
        if key in raw:
            raise ParseError(f"duplicate key {key!r}", lineno)
        if key == "char":
            try:
                char = int(value)
            except ValueError:
                raise ParseError(f"characteristic {value!r} is not an integer", lineno) from None
            if not is_prime(char):
                raise NonPrimeCharacteristic(f"characteristic {char} is not prime")
            raw[key] = char
        elif key == "vars":
            vars_ = _names(value, lineno, "variable")
            raw[key] = vars_
        elif key == "transcendentals":
            transcendentals = _names(value, lineno, "transcendental")
            raw[key] = transcendentals
        elif key in ("equidimensional", "connected"):
            flags[key] = _boolean(value, lineno)
            raw[key] = flags[key]
        else:
            raw[key] = (value, lineno, col)

    if char is None:
        raise ParseError("missing required key 'char'", 1)
    if not vars_:
        raise ParseError("missing required key 'vars'", 1)
    if set(vars_) & set(transcendentals):
        raise DuplicateVariable("ring variables and transcendentals overlap")
    field = RationalFunctionField(char, transcendentals) if transcendentals else PrimeField(char)
    ring = Ring(field, vars_, GREVLEX)

    def parse_poly_list(value, lineno, col):
        polys = []
        for chunk, off in _split_top_level(value):
            chunk_stripped = chunk.strip()
            if not chunk_stripped:
                continue
            polys.append(parse_polynomial(ring, chunk, lineno, col + off))
        return polys

    if "ideal" in raw:
        value, lineno, col = raw["ideal"]
        gens = [g for g in parse_poly_list(value, lineno, col) if not g.is_zero()]
    else:
        gens = []
    ideal = IdealPresentation(ring, gens)

    primes: dict = {}
    for name, value, lineno, col in prime_stmts:
        if name in primes:
            raise ParseError(f"duplicate prime name {name!r}", lineno)
        if value.strip() in ("0", ""):
            subset: list = []
        else:
            subset = _names(value, lineno, "prime variable")
            for v in subset:
                if v not in ring.variables:
                    raise ParseError(f"{v!r} is not a ring variable", lineno)
        primes[name] = CoordinatePrime(tuple(subset))

    chains: dict = {}
    for name, value, lineno, col in chain_stmts:
        if name in chains:
            raise ParseError(f"duplicate chain name {name!r}", lineno)
        links = []
        for part in value.split("<"):
            pname = part.strip()
            if pname not in primes:
                raise ParseError(f"chain references unknown prime {pname!r}", lineno)
            links.append(primes[pname])
        chains[name] = PrimeChain(tuple(links))

    sop = None
    if "sop" in raw:
        value, lineno, col = raw["sop"]
        sop = tuple(parse_poly_list(value, lineno, col))
    socle = None
    if "socle" in raw:
        value, lineno, col = raw["socle"]
        socle = parse_polynomial(ring, value, lineno, col)

    return RingSpec(
        ring=ring,
        ideal=ideal,
        equidimensional=flags["equidimensional"],
        connected=flags["connected"],
        primes=primes,
        chains=chains,
        sop=sop,
        socle=socle,
    )
