"""Multivariate polynomials over a coefficient field, monomial orders, rings.

Monomials are exponent tuples with 16-bit entries (checked: bracket powers
multiply exponents by q and must fail loudly instead of wrapping). Orders
compare via packed integer keys so term sorting and Buchberger's pair
selection ride on native int comparison.

The engines (``groebner``, ``ideals.divide_exact``, ``artinian.length``)
pack a monomial into one integer instead, as in Bachmann and Schoenemann,
"Monomial representations for Groebner bases computations" (ISSAC 1998):
variable i owns bits [17i, 17i + 17), 16 value bits plus a guard bit on top,
which is zero in every valid packed monomial. With ``G = guard_mask(nvars)``,
the guard bits of all fields:

* b divides a iff ``((a | G) - b) & G == G``: each field borrows from its own
  guard bit exactly when b's exponent exceeds a's, and never from the next;
* a product is ``a + b`` (fields are below 2^16, so no carry crosses a
  field), and it overflows iff ``(a + b) & G`` is nonzero;
* when b divides a, the quotient is ``a - b``; lcm and coprimality use the
  same borrows (``groebner._packed_lcm`` and ``groebner._support``).

Polynomial terms and ``ReducedGB.lead_exponents`` stay tuples.
"""

from __future__ import annotations

from .errors import (
    DuplicateVariable,
    ExponentOverflow,
    ReservedVariable,
    RingMismatch,
)
from .fields import FieldDescriptor

EXPONENT_LIMIT = 1 << 16  # exclusive per-variable bound
_SHIFT = 16
_MASK = EXPONENT_LIMIT - 1
_DEG_BITS = 24

#: Internal elimination variable; rejected in user input.
RESERVED_VARIABLE = "t_elim__"


def _grevlex_key(exps) -> int:
    key = sum(exps)
    for a in reversed(exps):
        key = (key << _SHIFT) | (_MASK - a)
    return key


def _lex_key(exps) -> int:
    key = 0
    for a in exps:
        key = (key << _SHIFT) | a
    return key


class MonomialOrder:
    """Total multiplicative well-order on monomials: lex, grevlex, or block elimination."""

    __slots__ = ("kind", "block")

    def __init__(self, kind: str, block: int = 0):
        if kind not in ("lex", "grevlex", "elim"):
            raise ValueError(f"unknown order kind {kind!r}")
        if kind == "elim" and block < 1:
            raise ValueError("elimination order needs a positive first-block size")
        self.kind = kind
        self.block = block

    @classmethod
    def lex(cls) -> "MonomialOrder":
        return cls("lex")

    @classmethod
    def grevlex(cls) -> "MonomialOrder":
        return cls("grevlex")

    @classmethod
    def elimination(cls, block: int) -> "MonomialOrder":
        """Block order eliminating the first ``block`` variables (grevlex inside blocks)."""
        return cls("elim", block)

    def key(self, exps) -> int:
        if self.kind == "grevlex":
            return _grevlex_key(exps)
        if self.kind == "lex":
            return _lex_key(exps)
        k = self.block
        rest = exps[k:]
        width = _DEG_BITS + _SHIFT * len(rest)
        return (_grevlex_key(exps[:k]) << width) | _grevlex_key(rest)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.block == other.block
        )

    def __hash__(self):
        return hash((self.kind, self.block))

    def __repr__(self):
        if self.kind == "elim":
            return f"elim({self.block})"
        return self.kind


GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()


class Ring:
    """A polynomial ring: coefficient field, ordered variable names, default order."""

    __slots__ = ("field", "variables", "order")

    def __init__(self, field: FieldDescriptor, variables, order: MonomialOrder = GREVLEX,
                 _allow_reserved: bool = False):
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise DuplicateVariable(f"duplicate ring variable in {names}")
        clash = set(names) & set(field.transcendentals)
        if clash:
            raise DuplicateVariable(f"names {sorted(clash)} are already transcendentals")
        if not _allow_reserved and RESERVED_VARIABLE in names:
            raise ReservedVariable(f"{RESERVED_VARIABLE!r} is reserved for internal use")
        self.field = field
        self.variables = names
        self.order = order

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.field == other.field
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return f"{self.field!r}[{','.join(self.variables)}]"

    # -- element constructors ------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(self.field.one())

    def constant(self, c) -> "Polynomial":
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, c),))

    def from_int(self, k: int) -> "Polynomial":
        return self.constant(self.field.from_int(k))

    def monomial(self, exps, coefficient=None) -> "Polynomial":
        c = self.field.one() if coefficient is None else coefficient
        return self.from_terms({tuple(exps): c})

    def var(self, name: str) -> "Polynomial":
        i = self.variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.monomial(exps)

    def gens(self):
        return tuple(self.var(name) for name in self.variables)

    def from_terms(self, terms: dict) -> "Polynomial":
        """Canonicalize a {exponent tuple: coefficient} mapping."""
        field = self.field
        clean = []
        for exps, c in terms.items():
            if field.is_zero(c):
                continue
            if len(exps) != self.nvars:
                raise RingMismatch(f"exponent arity {len(exps)} != {self.nvars}")
            if any(a < 0 or a >= EXPONENT_LIMIT for a in exps):
                raise ExponentOverflow(f"exponent out of range in {exps}")
            clean.append((exps, c))
        clean.sort(key=lambda t: self.order.key(t[0]), reverse=True)
        return Polynomial(self, tuple(clean))

    def ideal(self, *gens) -> "IdealPresentation":
        return IdealPresentation(self, gens)

    def variable_ideal(self) -> "IdealPresentation":
        """The ideal of all ring variables (the maximal ideal at the origin)."""
        return IdealPresentation(self, self.gens())


_FIELD_BITS = _SHIFT + 1  # packed monomials: 16 value bits and a guard bit per variable


def guard_mask(nvars: int) -> int:
    """The guard bits of a packed monomial in ``nvars`` variables."""
    return sum(EXPONENT_LIMIT << (_FIELD_BITS * i) for i in range(nvars))


def pack(exps) -> int:
    """Pack an exponent tuple (entries below 2^16) into one integer."""
    m = 0
    for a in reversed(exps):
        m = (m << _FIELD_BITS) | a
    return m


def unpack(m: int, nvars: int) -> tuple:
    """The exponent tuple of a packed monomial with clear guard bits."""
    out = []
    for _ in range(nvars):
        out.append(m & _MASK)
        m >>= _FIELD_BITS
    return tuple(out)


def packed_overflow(a: int, b: int, guard: int) -> ExponentOverflow:
    """The error for a packed product ``a + b`` that set a guard bit.

    The message shows the true exponents of the product, not wrapped fields.
    """
    nvars = guard.bit_length() // _FIELD_BITS
    out = tuple(x + y for x, y in zip(unpack(a, nvars), unpack(b, nvars)))
    return ExponentOverflow(f"monomial product overflows 16-bit exponents: {out}")


def _add_exps(a, b):
    out = tuple(x + y for x, y in zip(a, b))
    if any(x >= EXPONENT_LIMIT for x in out):
        raise ExponentOverflow(f"monomial product overflows 16-bit exponents: {out}")
    return out


class Polynomial:
    """Immutable sparse polynomial; terms sorted descending under the ring order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms):
        self.ring = ring
        self.terms = terms  # tuple of (exps, coefficient)

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def leading_term(self, order: MonomialOrder | None = None):
        """(exponents, coefficient) of the largest monomial under ``order``."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        if order is None or order == self.ring.order:
            return self.terms[0]
        return max(self.terms, key=lambda t: order.key(t[0]))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def is_constant(self) -> bool:
        return not self.terms or not any(self.terms[0][0])

    def monic(self, order: MonomialOrder | None = None) -> "Polynomial":
        if not self.terms:
            return self
        field = self.ring.field
        _, lc = self.leading_term(order)
        if lc == field.one():
            return self
        ic = field.inv(lc)
        return Polynomial(self.ring, tuple((e, field.mul(c, ic)) for e, c in self.terms))

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatch(f"{other.ring!r} != {self.ring!r}")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        field = self.ring.field
        acc = dict(self.terms)
        for e, c in g.terms:
            if e in acc:
                acc[e] = field.add(acc[e], c)
            else:
                acc[e] = c
        return self.ring.from_terms(acc)

    __radd__ = __add__

    def __neg__(self):
        field = self.ring.field
        return Polynomial(self.ring, tuple((e, field.neg(c)) for e, c in self.terms))

    def __sub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self + (-g)

    def __rsub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g + (-self)

    def __mul__(self, other):
        g = self._coerce(other)
        if g is None:
            # allow scaling by a raw field element
            if self.ring.field.element_of(other):
                return self.scale(other)
            return NotImplemented
        field = self.ring.field
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in g.terms:
                e = _add_exps(e1, e2)
                prod = field.mul(c1, c2)
                if e in acc:
                    acc[e] = field.add(acc[e], prod)
                else:
                    acc[e] = prod
        return self.ring.from_terms(acc)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        field = self.ring.field
        if field.is_zero(c):
            return self.ring.zero()
        return self.ring.from_terms({e: field.mul(cf, c) for e, cf in self.terms})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def frobenius(self, e: int) -> "Polynomial":
        """Apply the e-fold Frobenius: coefficients to the q, exponents times q."""
        q = self.ring.field.characteristic**e
        field = self.ring.field
        terms = {}
        for exps, c in self.terms:
            new = tuple(a * q for a in exps)
            if any(a >= EXPONENT_LIMIT for a in new):
                raise ExponentOverflow(f"bracket power overflows 16-bit exponents: {new}")
            terms[new] = field.frobenius(c, e)
        return self.ring.from_terms(terms)

    def shift(self, exps) -> "Polynomial":
        """Multiply by the monomial with the given exponents."""
        return Polynomial(self.ring, tuple((_add_exps(e, exps), c) for e, c in self.terms))

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        names = self.ring.variables
        parts = []
        for exps, c in self.terms:
            factors = []
            cs = field.format(c)
            if c != field.one() or not any(exps):
                factors.append(f"({cs})" if ("+" in cs or "/" in cs or " " in cs) else cs)
            for name, a in zip(names, exps):
                if a == 1:
                    factors.append(name)
                elif a > 1:
                    factors.append(f"{name}^{a}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} in {self.ring!r}>"


class IdealPresentation:
    """An ideal as an ordered generator list in a named ring; order is preserved."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: Ring, generators):
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Polynomial) or g.ring != ring:
                raise RingMismatch("generator does not belong to the presentation ring")
        self.ring = ring
        self.generators = gens

    def nonzero_generators(self):
        return tuple(g for g in self.generators if not g.is_zero())

    def __eq__(self, other):
        return (
            isinstance(other, IdealPresentation)
            and self.ring == other.ring
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.ring, self.generators))

    def __repr__(self):
        return f"ideal({', '.join(str(g) for g in self.generators) or '0'})"
