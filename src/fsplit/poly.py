"""Multivariate polynomials over a coefficient field, monomial orders, rings.

Monomials are exponent tuples with 16-bit entries. Products, powers and
bracket powers (which multiply exponents by q) must fail loudly instead of
wrapping, and they refuse up front, from the largest exponent of each
variable (``_refuse_overflow``). Orders
compare via packed integer keys so term sorting and Buchberger's pair
selection ride on native int comparison.

The engines (``groebner``, ``ideals.intersect``, ``ideals.colon_ideal``,
``artinian``) pack a monomial into one integer instead, as in Bachmann and
Schoenemann, "Monomial representations for Groebner bases computations"
(ISSAC 1998):
variable i owns bits [17i, 17i + 17), 16 value bits plus a guard bit on top,
which is zero in every valid packed monomial. With ``G = guard_mask(nvars)``,
the guard bits of all fields:

* b divides a iff ``((a | G) - b) & G == G``: each field borrows from its own
  guard bit exactly when b's exponent exceeds a's, and never from the next;
* a product is ``a + b`` (fields are below 2^16, so no carry crosses a
  field), and it overflows iff ``(a + b) & G`` is nonzero;
* when b divides a, the quotient is ``a - b``; lcm and coprimality use the
  same borrows (``groebner._packed_lcm`` and ``groebner._support``).

``ReducedGB.leads`` are packed too. Polynomial terms stay tuples: terms are
(exponents, coefficient) pairs with nonzero coefficients, sorted ascending by a
rank, a key that puts larger monomials first (``MonomialOrder.rank``). The
term functions ``add_terms``, ``mul_terms``, ``scale_terms``, ``format_terms``
and their kin take the field and the rank as arguments, so Polynomial and the
F_p[t] parts of ``fields.RatFunc`` (rank ``fields._rank``, whose exponents
have no bound) share one arithmetic. They take bare tuples, not Polynomial
objects, so F_p(t) fractions pay for no ring check and no wrapper objects.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

from .errors import DuplicateVariable, ExponentOverflow, RingMismatch

if TYPE_CHECKING:
    from .fields import FieldDescriptor

EXPONENT_LIMIT = 1 << 16  # exclusive per-variable bound
_SHIFT = 16
_MASK = EXPONENT_LIMIT - 1
_DEG_BITS = 24


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
        # elim needs an int first block >= 1; lex and grevlex take none
        if type(block) is not int or (block < 1 if kind == "elim" else block != 0):
            raise ValueError(f"{kind} order cannot take block {block!r}")
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
        """Packed integer key: a monomial is larger than another iff its key is.

        Keys are affine in the exponents, key(u + w) = key(u) + key(w) - key(0):
        each field holds an exponent a, 2^16 - 1 - a, or a block's total
        degree, and no field reaches into the next while exponents stay below
        2^16. So the elim(1) key of t^a*x^m is the grevlex key of x^m plus a
        constant that depends on a alone. ``groebner``'s reduction steps,
        ``buchberger``'s pair keys, ``ideals._divide`` and ``ideals.intersect``
        rely on this.
        """
        if self.kind == "grevlex":
            return _grevlex_key(exps)
        if self.kind == "lex":
            return _lex_key(exps)
        k = self.block
        rest = exps[k:]
        width = _DEG_BITS + _SHIFT * len(rest)
        return (_grevlex_key(exps[:k]) << width) | _grevlex_key(rest)

    def rank(self, exps) -> int:
        """``-key``: terms sorted ascending by rank list the largest first."""
        return -self.key(exps)

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

    def __init__(self, field: FieldDescriptor, variables, order: MonomialOrder = GREVLEX):
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise DuplicateVariable(f"duplicate ring variable in {names}")
        clash = set(names) & set(field.transcendentals)
        if clash:
            raise DuplicateVariable(f"names {sorted(clash)} are already transcendentals")
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
        clean = {}
        for exps, c in terms.items():
            if field.is_zero(c):
                continue
            if len(exps) != self.nvars:
                raise RingMismatch(f"exponent arity {len(exps)} != {self.nvars}")
            if any(a < 0 or a >= EXPONENT_LIMIT for a in exps):
                raise ExponentOverflow(f"exponent out of range in {exps}")
            clean[exps] = c
        return Polynomial(self, sort_terms(clean, self.order.rank))

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


def _key_weights(keyf, nvars: int) -> tuple:
    """(key(0), [key(x_i) - key(0)]): keys are affine, so a monomial's key is
    key(0) plus its exponents times these weights (``groebner._key_degree``)."""
    k0 = keyf((0,) * nvars)
    return k0, [keyf(tuple(int(i == j) for j in range(nvars))) - k0 for i in range(nvars)]


def packed_overflow(a: int, b: int, guard: int) -> ExponentOverflow:
    """The error for a packed product ``a + b`` that set a guard bit.

    The message shows the true exponents of the product, not wrapped fields.
    """
    nvars = guard.bit_length() // _FIELD_BITS
    out = tuple(x + y for x, y in zip(unpack(a, nvars), unpack(b, nvars)))
    return ExponentOverflow(f"monomial product overflows 16-bit exponents: {out}")


def _base_p_power(f: "Polynomial", k: int, cap: int = EXPONENT_LIMIT) -> "Polynomial":
    """f^k with every term that has an exponent >= cap dropped, 1 <= cap <= 2^16.

    In characteristic p, f^k = prod_i (f^(k_i))^[p^i] over the base-p digits
    k_i of k: raising g to the p^i multiplies its exponents by p^i and applies
    the field's Frobenius to its coefficients (``field.frobenius(c, i)``, the
    identity on F_p). Dropping every term with an exponent >= cap is the ring
    map S -> S/n^[cap], as n^[cap] = (x_1^cap, ..., x_n^cap) is a monomial
    ideal, so it applies to f, to each factor and to each partial product.
    The factors are multiplied from the highest digit down.

    On packed monomials (``pack``) with exponents below cap, a product m has
    every field below 2^17, so it has an exponent >= cap iff (m + B) & G is
    nonzero, with B = pack((2^16 - cap,) * n) and G = ``guard_mask(n)``.
    Factor i takes the terms of f^(k_i) with exponents below cap / p^i, so
    scaling by p^i moves no bit across a field; the constant term always enters.
    """
    ring = f.ring
    field, n = ring.field, ring.nvars
    p = field.characteristic
    guard = guard_mask(n)
    bcap = pack((EXPONENT_LIMIT - cap,) * n)

    def times(a: dict, b: dict) -> dict:
        """a * b, truncated at cap."""
        acc = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                if (m + bcap) & guard:
                    continue
                c = field.mul(ca, cb)
                old = acc.get(m)
                acc[m] = c if old is None else field.add(old, c)
        return {m: c for m, c in acc.items() if not field.is_zero(c)}

    digits = []
    while k:
        k, digit = divmod(k, p)
        digits.append(digit)
    base = {m: c for m, c in ((pack(x), c) for x, c in f.terms) if not (m + bcap) & guard}
    out = h = {0: field.one()}
    powers = {}  # f^d, truncated, for each nonzero digit d of k
    for d in range(1, max(digits, default=0) + 1):
        h = times(base, h)
        if d in digits:
            powers[d] = h
    for i in reversed(range(len(digits))):
        if digits[i]:
            s = p**i
            bi = pack((EXPONENT_LIMIT + cap // -s,) * n)  # 2^16 - ceil(cap / s)
            factor = {
                m * s: field.frobenius(c, i) for m, c in powers[digits[i]].items()
                if not (m + bi) & guard
            }
            out = times(factor, out)
    _, weights = _key_weights(ring.order.key, n)  # one walk gives exponents and key
    keyed = []
    for m, c in out.items():
        exps, k = [], 0
        for w in weights:
            exps.append(m & _MASK)
            k += (m & _MASK) * w
            m >>= _FIELD_BITS
        keyed.append((k, tuple(exps), c))
    keyed.sort(reverse=True)
    return Polynomial(ring, tuple([(x, c) for _, x, c in keyed]))


def _largest(terms) -> tuple:
    """The largest exponent of each variable in ``terms``; () for no terms."""
    return tuple(map(max, zip(*(e for e, _ in terms))))


def _refuse_overflow(what: str, largest: tuple) -> None:
    """Raise ExponentOverflow if some exponent in ``largest`` passes 16 bits.

    S is a domain, so the largest exponent of x_j in f*g is the sum of those
    in f and g, and in f^k and f^[q] it is k and q times that in f: each
    bound is exact, and a result is refused exactly when it overflows.
    """
    if any(a >= EXPONENT_LIMIT for a in largest):
        raise ExponentOverflow(f"{what} overflows 16-bit exponents: largest {largest}")


# -- term arithmetic (see the module docstring) -------------------------------------


def sort_terms(acc: dict, rank) -> tuple:
    """The items of an {exponents: coefficient} dict as terms sorted by ``rank``."""
    if len(acc) < 2:
        return tuple(acc.items())
    return tuple(sorted(acc.items(), key=lambda t: rank(t[0])))


def add_terms(a, b, field, rank) -> tuple:
    """a + b."""
    if not a or not b:
        return a or b
    acc = dict(a)
    for e, c in b:
        v = acc.get(e)
        if v is None:
            acc[e] = c
        else:
            v = field.add(v, c)
            if field.is_zero(v):
                del acc[e]
            else:
                acc[e] = v
    return sort_terms(acc, rank)


def neg_terms(a, field) -> tuple:
    """-a, in the order of a."""
    return tuple([(e, field.neg(c)) for e, c in a])


def mul_terms(a, b, field, rank) -> tuple:
    """a * b; exponents add without a bound (``Polynomial.__mul__`` checks it)."""
    acc = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = tuple(map(operator.add, e1, e2))
            c = field.mul(c1, c2)
            v = acc.get(e)
            acc[e] = c if v is None else field.add(v, c)
    return sort_terms({e: c for e, c in acc.items() if not field.is_zero(c)}, rank)


def scale_terms(a, c, field) -> tuple:
    """c * a for a nonzero c, in the order of a."""
    return tuple([(e, field.mul(x, c)) for e, x in a])


def monic_terms(a, field) -> tuple:
    """a divided by its leading coefficient."""
    if not a or a[0][1] == field.one():
        return a
    return scale_terms(a, field.inv(a[0][1]), field)


def format_terms(a, names, field) -> str:
    """Terms as text: ``c*x^2*y + ...``, coefficients that contain an operator in
    parentheses, a unit coefficient left out unless the monomial is 1."""
    one = field.one()
    parts = []
    for exps, c in a:
        factors = []
        if c != one or not any(exps):
            cs = field.format(c)
            factors.append(f"({cs})" if ("+" in cs or "/" in cs or " " in cs) else cs)
        for name, k in zip(names, exps):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"


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

    def monic(self, order: MonomialOrder | None = None) -> "Polynomial":
        if not self.terms:
            return self
        field = self.ring.field
        _, lc = self.leading_term(order)
        if lc == field.one():
            return self
        return Polynomial(self.ring, scale_terms(self.terms, field.inv(lc), field))

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
        ring = self.ring
        return Polynomial(ring, add_terms(self.terms, g.terms, ring.field, ring.order.rank))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, neg_terms(self.terms, self.ring.field))

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
        ring = self.ring
        tops = map(operator.add, _largest(self.terms), _largest(g.terms))
        _refuse_overflow("product", tuple(tops))
        return Polynomial(ring, mul_terms(self.terms, g.terms, ring.field, ring.order.rank))

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        field = self.ring.field
        if field.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, scale_terms(self.terms, c, field))

    def __pow__(self, k: int):
        """f^k by base-p digits (``_base_p_power``), with no term dropped."""
        if k < 0:
            raise ValueError("negative polynomial power")
        _refuse_overflow("power", tuple(k * a for a in _largest(self.terms)))
        return _base_p_power(self, k)

    def frobenius(self, e: int) -> "Polynomial":
        """Apply the e-fold Frobenius: coefficients to the q, exponents times q.

        x -> x^q keeps every monomial order (u < v gives q*u < q*v), so the
        scaled terms stay sorted.
        """
        field = self.ring.field
        q = field.characteristic**e
        _refuse_overflow("bracket power", tuple(q * a for a in _largest(self.terms)))
        return Polynomial(
            self.ring,
            tuple((tuple(a * q for a in x), field.frobenius(c, e)) for x, c in self.terms),
        )

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
        return format_terms(self.terms, self.ring.variables, self.ring.field)

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
