"""Exact coefficient fields: the prime field F_p and rational functions F_p(t1, ..., tm).

Both fields implement one operations contract (add/sub/mul/div/frobenius/...)
so polynomial code is written once and instantiated for either. Elements of
F_p are plain residues in [0, p); elements of F_p(t...) are RatFunc fractions
in canonical form: gcd(numerator, denominator) = 1, denominator monic under
grevlex on the transcendentals, zero represented uniquely as 0/1. Canonical
form makes structural equality valid, which everything downstream relies on.

A numerator or denominator is stored as a Polynomial stores its terms: a tuple
of (exponents, residue), leading term first. Add, multiply, scale and format
are poly.py's term functions, called with PrimeField(p); only the gcd and
exact division of F_p[t1, ..., tm] live here. The sort key is ``_rank``, a
tuple, not poly's packed integer key: ``frobenius`` multiplies exponents by q,
so t^2 at p = 2, e = 15 becomes t^65536, past the 16 bits a packed field holds.

F_p[t1, ..., tm] is a UFD and both operands are canonical, so the field
operations follow Henrici's rules for reduced fractions (Knuth, TAOCP vol. 2,
4.5.1) and take only the gcds that can differ from 1. For a = an/ad, b = bn/bd:

- ``add`` with ad = bd = d takes gcd(an + bn, d) only, none when d = 1.
  Otherwise let g = gcd(ad, bd): t = an*(bd/g) + bn*(ad/g) is, modulo ad/g, a
  product of factors prime to ad/g, and likewise modulo bd/g, so gcd(t, g) is
  the only gcd left, and none when g = 1.
- ``mul`` cancels gcd(an, bd) and gcd(bn, ad), none against a denominator 1;
  each numerator factor left is prime to both denominator factors. On four
  monomials the gcds cancel exponentwise: c*t^u/t^v * d*t^w/t^x = c*d*t^E+/t^E-
  for E = u - v + w - x.
- ``inv`` swaps the parts and rescales by the numerator's leading coefficient,
  ``div`` is ``mul`` by the inverse, and ``neg`` negates coefficients in place.

Quotients and products of monic polynomials are monic, and the canonical form
is unique, so each rule gives the RatFunc the cross-multiplied fraction has.

Most operands have a one-term numerator or denominator (c*t^e, often 1), so
the operations and helpers take exact single-term cases before the general
code:

- ``add`` of c*t^u/d and c'*t^u/d, one like term over one denominator, is
  (c + c')*t^u/d, or the field's zero when c + c' = 0 mod p. The general code
  would take gcd(t^u, d), which is 1, since gcd(c*t^u, d) = 1 for the
  canonical summand, and d stays monic, so the tuple is the same.
- ``neg`` of a one-term numerator c*t^u writes (p - c)*t^u, the term
  ``neg_terms`` builds, over the same denominator.
- ``_tp_gcd`` with a one-term argument c*t^e and a nonzero f returns t^g, g the
  componentwise minimum of e and every exponent of f. The t_i are the only
  primes dividing a monomial, so every divisor of c*t^e is a unit times a
  monomial, and t^g divides f exactly when g is at most each exponent of f.
  t^g is monic, the normalization the pseudo-remainder sequence returns.
- ``_tp_divexact`` by a one-term divisor c*t^e shifts every exponent down by e
  and multiplies by 1/c. Multiplying by a monomial maps terms to terms one to
  one, so the quotient exists exactly when no shifted exponent is negative,
  and ``None`` is returned otherwise. A longer divisor drains the remainder
  through a heap of ``_rank``, each key computed once, and the quotient's
  terms come out leading term first.

Each case gives the same tuple as the general code, so canonical forms do not
depend on which path ran.
"""

from __future__ import annotations

import heapq
import math
import operator

from .errors import (
    DivisionByZero,
    DuplicateVariable,
    NonPrimeCharacteristic,
    excerpt,
)
from .poly import (
    EXPONENT_LIMIT,
    add_terms,
    format_terms,
    monic_terms,
    mul_terms,
    neg_terms,
    scale_terms,
    sort_terms,
)


def is_prime(n: int) -> bool:
    """Trial division: at most 255 divisors below ``EXPONENT_LIMIT``, the only range asked."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def check_characteristic(p: int) -> None:
    """Raise NonPrimeCharacteristic unless p is a prime below 2^16 (``EXPONENT_LIMIT``)."""
    if p >= EXPONENT_LIMIT:
        raise NonPrimeCharacteristic(
            f"characteristic {excerpt(p)} is at least 2^16: q = p^e is an exponent of"
            " n^[q] and sop^[q], which must stay below 2^16"
        )
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")


# -- gcd and exact division in F_p[t1, ..., tm], on term tuples sorted by _rank --


def _rank(e):
    """Grevlex rank, (-degree, reversed exponents): a tuple, as exponents have no bound."""
    return (-sum(e), e[::-1])


def _tp_divexact(a, b, F):
    """Quotient a/b when it exists, else None. Single-divisor division."""
    if not a:
        return ()
    p = F.characteristic
    (eb, cb), tail = b[0], b[1:]
    ib = pow(cb, p - 2, p)
    q = []
    if not tail:
        for e, c in a:
            m = tuple(map(operator.sub, e, eb))
            if any(x < 0 for x in m):
                return None
            q.append((m, c * ib % p))
        return tuple(q)
    r = dict(a)
    heap = [_rank(e) for e in r]
    heapq.heapify(heap)
    while heap:
        er = heapq.heappop(heap)[1][::-1]
        cr = r.pop(er, 0)
        if not cr:
            continue
        m = tuple(map(operator.sub, er, eb))
        if any(x < 0 for x in m):
            return None
        f = cr * ib % p
        q.append((m, f))
        for e, c in tail:
            ee = tuple(map(operator.add, e, m))
            v = r.get(ee)
            if v is None:
                heapq.heappush(heap, _rank(ee))
            r[ee] = ((v or 0) - f * c) % p
    return tuple(q)


def _tp_is_const(a):
    """Whether a nonzero a is a constant; a monic constant is 1."""
    return len(a) == 1 and not any(a[0][0])


def _tp_cancel(a, d, F):
    """a/g and d/g for g = gcd(a, d), a and d nonzero; no gcd when d is constant."""
    if _tp_is_const(d):
        return a, d
    g = _tp_gcd(a, d, F)
    if _tp_is_const(g):
        return a, d
    return _tp_divexact(a, g, F), _tp_divexact(d, g, F)


def _tp_univar_gcd(a, b, F):
    """Monic gcd of polynomials in one variable: Euclid on dense coefficient lists."""
    p = F.characteristic
    a, b = ([f.get((d,), 0) for d in range(max(f)[0] + 1)] for f in (dict(a), dict(b)))
    while b:
        db, ib = len(b) - 1, pow(b[-1], p - 2, p)
        while len(a) > db:
            f, s = a[-1] * ib % p, len(a) - 1 - db
            for i, c in enumerate(b):
                a[s + i] = (a[s + i] - f * c) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    ia = pow(a[-1], p - 2, p)
    return tuple(((d,), a[d] * ia % p) for d in reversed(range(len(a))) if a[d])


def _tp_split_main(a):
    """{degree in the first transcendental: coefficient in the others}."""
    u = {}
    for e, c in a:
        u.setdefault(e[0], []).append((e[1:], c))
    return {d: tuple(cf) for d, cf in u.items()}


def _tp_join_main(u):
    return sort_terms({(d,) + e: c for d, cf in u.items() for e, c in cf}, _rank)


def _tp_content_pp(a, F):
    """Content (gcd of main-variable coefficients) and primitive part."""
    u = _tp_split_main(a)
    cont = ()
    for d in sorted(u):
        cont = _tp_gcd(cont, u[d], F)
    if _tp_is_const(cont):
        return cont, a  # content is the constant 1; a is already primitive
    return cont, _tp_join_main({d: _tp_divexact(cf, cont, F) for d, cf in u.items()})


def _tp_prem(a, b, F):
    """Pseudo-remainder of a by b in the first transcendental."""
    ua, ub = _tp_split_main(a), _tp_split_main(b)
    db = max(ub)
    lb = ub[db]
    r = ua
    while r:
        dr = max(r)
        if dr < db:
            break
        lr = r[dr]
        new = {d: mul_terms(cf, lb, F, _rank) for d, cf in r.items()}
        for d, cf in ub.items():
            dd = d + dr - db
            sub = neg_terms(mul_terms(cf, lr, F, _rank), F)
            new[dd] = add_terms(new.get(dd, ()), sub, F, _rank)
        r = {d: cf for d, cf in new.items() if cf}
    return _tp_join_main(r)


def _tp_gcd(a, b, F):
    """Monic gcd in F_p[t1, ..., tm] via primitive pseudo-remainder sequences."""
    if not a:
        return monic_terms(b, F)
    if not b:
        return monic_terms(a, F)
    if len(a) == 1 or len(b) == 1:
        return ((tuple(map(min, *(e for e, _ in a + b))), 1),)
    if len(a[0][0]) == 1:
        return _tp_univar_gcd(a, b, F)
    ca, pa = _tp_content_pp(a, F)
    cb, pb = _tp_content_pp(b, F)
    c = _tp_gcd(ca, cb, F)
    while pb:
        r = _tp_prem(pa, pb, F)
        if r:
            _, r = _tp_content_pp(r, F)
        pa, pb = pb, r
    lifted = tuple(((0,) + e, v) for e, v in c)
    return monic_terms(mul_terms(lifted, pa, F, _rank), F)


class RatFunc:
    """Canonical fraction of transcendental polynomials; dumb immutable data.

    Arithmetic lives on RationalFunctionField, which knows p and the arity.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num  # tuple of (exps, residue), grevlex-descending
        self.den = den

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


class FieldDescriptor:
    """Common surface of the two supported coefficient fields."""

    __slots__ = ("characteristic", "transcendentals")

    def __init__(self, characteristic: int, transcendentals=()):
        check_characteristic(characteristic)
        names = tuple(transcendentals)
        if len(set(names)) != len(names):
            raise DuplicateVariable(f"duplicate transcendental in {names}")
        self.characteristic = characteristic
        self.transcendentals = names

    def alpha(self) -> int:
        """log_p of the degree of the field over its subfield of p-th powers."""
        return len(self.transcendentals)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.characteristic == other.characteristic
            and self.transcendentals == other.transcendentals
        )

    def __hash__(self):
        return hash((type(self).__name__, self.characteristic, self.transcendentals))


class PrimeField(FieldDescriptor):
    """F_p with residues in [0, p) as elements."""

    def __init__(self, p: int):
        super().__init__(p, ())

    def __repr__(self):
        return f"F_{self.characteristic}"

    def element_of(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.characteristic

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k: int):
        return k % self.characteristic

    def is_zero(self, a) -> bool:
        return a == 0

    def add(self, a, b):
        s = a + b
        return s - self.characteristic if s >= self.characteristic else s

    def sub(self, a, b):
        d = a - b
        return d + self.characteristic if d < 0 else d

    def neg(self, a):
        return self.characteristic - a if a else 0

    def mul(self, a, b):
        return a * b % self.characteristic

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in " + repr(self))
        return pow(a, self.characteristic - 2, self.characteristic)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, k: int):
        """a^k; a^(-k) is inv(a)^k, so 0^(-k) raises DivisionByZero."""
        if k < 0:
            a, k = self.inv(a), -k
        return pow(a, k, self.characteristic)

    def frobenius(self, a, e: int):
        # a^(p^e) = a for residues (Fermat)
        return a

    def format(self, a) -> str:
        return str(a)


class RationalFunctionField(FieldDescriptor):
    """F_p(t1, ..., tm) with canonical-form RatFunc elements."""

    def __init__(self, p: int, transcendentals):
        super().__init__(p, transcendentals)
        if not self.transcendentals:
            raise ValueError("use PrimeField when there are no transcendentals")
        m = len(self.transcendentals)
        self._fp = PrimeField(p)
        self._zero = RatFunc((), (((0,) * m, 1),))
        self._one = RatFunc((((0,) * m, 1),), (((0,) * m, 1),))

    def __repr__(self):
        return f"F_{self.characteristic}({','.join(self.transcendentals)})"

    # -- construction ------------------------------------------------------

    def _canonical(self, num, den) -> RatFunc:
        """num/den in canonical form; both parts are term tuples sorted by _rank."""
        F = self._fp
        if not den:
            raise DivisionByZero("zero denominator in " + repr(self))
        if not num:
            return self._zero
        num, den = _tp_cancel(num, den, F)
        if den[0][1] != 1:
            ic = F.inv(den[0][1])
            num, den = scale_terms(num, ic, F), scale_terms(den, ic, F)
        return RatFunc(num, den)

    def element_of(self, a) -> bool:
        return (
            isinstance(a, RatFunc)
            and all(len(e) == len(self.transcendentals) for e, _ in a.num + a.den)
        )

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, k: int):
        return self.monomial((0,) * len(self.transcendentals), k)

    def transcendental(self, name: str):
        i = self.transcendentals.index(name)
        return self.monomial(tuple(int(j == i) for j in range(len(self.transcendentals))))

    def monomial(self, exps, coefficient: int = 1):
        c = coefficient % self.characteristic
        if c == 0:
            return self._zero
        return RatFunc(((tuple(exps), c),), (((0,) * len(self.transcendentals), 1),))

    def is_zero(self, a) -> bool:
        return not a.num

    # -- arithmetic ---------------------------------------------------------

    def add(self, a, b):
        if not a.num:
            return b
        if not b.num:
            return a
        ad, bd = a.den, b.den
        if ad == bd:
            if len(a.num) == len(b.num) == 1 and a.num[0][0] == b.num[0][0]:
                (u, c), (_, d) = a.num[0], b.num[0]
                s = (c + d) % self.characteristic
                return RatFunc(((u, s),), ad) if s else self._zero
            return self._canonical(add_terms(a.num, b.num, self._fp, _rank), ad)
        F = self._fp
        # the denominators differ, so the sum is nonzero
        g = _tp_gcd(ad, bd, F)
        if not _tp_is_const(g):
            ad, bd = _tp_divexact(ad, g, F), _tp_divexact(bd, g, F)
        num = add_terms(mul_terms(a.num, bd, F, _rank), mul_terms(b.num, ad, F, _rank), F, _rank)
        num, g = _tp_cancel(num, g, F)
        return RatFunc(num, mul_terms(mul_terms(ad, bd, F, _rank), g, F, _rank))

    def neg(self, a):
        if len(a.num) == 1:
            ((u, c),) = a.num
            return RatFunc(((u, self.characteristic - c),), a.den)
        return RatFunc(neg_terms(a.num, self._fp), a.den)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a.num or not b.num:
            return self._zero
        p = self.characteristic
        if len(a.num) == len(a.den) == len(b.num) == len(b.den) == 1:
            ((u, c),), ((v, _),), ((w, d),), ((x, _),) = a.num, a.den, b.num, b.den
            # E = u - v + w - x, split into its positive and negative parts
            num, den = [], []
            for i, j, k, l in zip(u, v, w, x):
                k += i - j - l
                if k > 0:
                    num.append(k)
                    den.append(0)
                else:
                    num.append(0)
                    den.append(-k)
            return RatFunc(((tuple(num), c * d % p),), ((tuple(den), 1),))
        F = self._fp
        an, bd = _tp_cancel(a.num, b.den, F)
        bn, ad = _tp_cancel(b.num, a.den, F)
        return RatFunc(mul_terms(an, bn, F, _rank), mul_terms(ad, bd, F, _rank))

    def inv(self, a):
        if not a.num:
            raise DivisionByZero("inverse of 0 in " + repr(self))
        F = self._fp
        ic = F.inv(a.num[0][1])  # a.num[0] is the leading term
        return RatFunc(scale_terms(a.den, ic, F), scale_terms(a.num, ic, F))

    def div(self, a, b):
        if not b.num:
            raise DivisionByZero("division by 0 in " + repr(self))
        return self.mul(a, self.inv(b))

    def pow(self, a, k: int):
        """a^k; a^(-k) is inv(a)^k, so 0^(-k) raises DivisionByZero."""
        if k < 0:
            a, k = self.inv(a), -k
        out, base = self._one, a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def frobenius(self, a, e: int):
        # (num/den)^q termwise: coefficients are fixed by Frobenius, exponents scale.
        # Canonical form is preserved: gcd and monicity are stable under x -> x^q.
        q = self.characteristic**e
        return RatFunc(*(tuple((tuple(x * q for x in e), c) for e, c in t) for t in (a.num, a.den)))

    def format(self, a) -> str:
        num, den = (format_terms(t, self.transcendentals, self._fp) for t in (a.num, a.den))
        return num if a.den == self._one.den else f"({num})/({den})"
