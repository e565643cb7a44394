"""Exact coefficient fields: the prime field F_p and rational functions F_p(t1, ..., tm).

Both fields implement one operations contract (add/sub/mul/div/frobenius/...)
so polynomial code is written once and instantiated for either. Elements of
F_p are plain residues in [0, p); elements of F_p(t...) are RatFunc fractions
in canonical form: gcd(numerator, denominator) = 1, denominator monic under
grevlex on the transcendentals, zero represented uniquely as 0/1. Canonical
form makes structural equality valid, which everything downstream relies on.

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
the helpers take exact single-term cases before the general code:

- ``_tp_gcd`` with a one-term argument c*t^e and a nonzero f returns t^g, g the
  componentwise minimum of e and every exponent of f. The t_i are the only
  primes dividing a monomial, so every divisor of c*t^e is a unit times a
  monomial, and t^g divides f exactly when g is at most each exponent of f.
  t^g is monic, the normalization the pseudo-remainder sequence returns.
- ``_tp_divexact`` by a one-term divisor c*t^e shifts every exponent down by e
  and multiplies by 1/c. Multiplying by a monomial maps terms to terms one to
  one, so the quotient exists exactly when no shifted exponent is negative,
  and ``None`` is returned otherwise. A longer divisor drains the remainder
  through a heap of ``_tp_key``, each key computed once.
- ``_tp_lead`` and ``_freeze`` of a one-term dict return its only term, with no
  grevlex key and no sort.

Each case gives the same dict or tuple as the general code, so canonical
forms do not depend on which path ran.
"""

from __future__ import annotations

import heapq
import operator

from .errors import (
    DivisionByZero,
    DuplicateVariable,
    NonPrimeCharacteristic,
)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for word-size inputs."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Polynomials in the transcendentals, represented as {exponent tuple: residue}.
# These are coefficient plumbing for RatFunc only; the ring variables use the
# dedicated engine in poly.py.
# ---------------------------------------------------------------------------


def _tp_key(e):
    """Key whose ascending order is grevlex-descending: (-degree, reversed exponents)."""
    return (-sum(e), e[::-1])


def _tp_lead(a):
    if len(a) == 1:
        return next(iter(a.items()))
    e = min(a, key=_tp_key)
    return e, a[e]


def _tp_add(a, b, p):
    out = dict(a)
    for e, c in b.items():
        v = (out.get(e, 0) + c) % p
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _tp_sub(a, b, p):
    return _tp_add(a, {e: p - c for e, c in b.items()}, p)


def _tp_scale(a, c, p):
    c %= p
    if c == 0:
        return {}
    return {e: v * c % p for e, v in a.items()}


def _tp_mul(a, b, p):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            v = (out.get(e, 0) + c1 * c2) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _tp_monic(a, p):
    if not a:
        return a
    _, lc = _tp_lead(a)
    if lc == 1:
        return a
    return _tp_scale(a, pow(lc, p - 2, p), p)


def _tp_divexact(a, b, p):
    """Quotient a/b when it exists, else None. Single-divisor division."""
    if not a:
        return {}
    eb, cb = _tp_lead(b)
    ib = pow(cb, p - 2, p)
    q = {}
    if len(b) == 1:
        for e, c in a.items():
            m = tuple(map(operator.sub, e, eb))
            if any(x < 0 for x in m):
                return None
            q[m] = c * ib % p
        return q
    tail = [(e, c) for e, c in b.items() if e != eb]
    r = dict(a)
    heap = [_tp_key(e) for e in r]
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
        q[m] = f
        for e, c in tail:
            ee = tuple(map(operator.add, e, m))
            v = r.get(ee)
            if v is None:
                heapq.heappush(heap, _tp_key(ee))
            r[ee] = ((v or 0) - f * c) % p
    return q


def _tp_is_const(a):
    """Whether a nonzero a is a constant; a monic constant is 1."""
    return len(a) == 1 and not any(next(iter(a)))


def _tp_cancel(a, d, p):
    """a/g and d/g for g = gcd(a, d), a and d nonzero; no gcd when d is constant."""
    if _tp_is_const(d):
        return a, d
    g = _tp_gcd(a, d, p)
    if _tp_is_const(g):
        return a, d
    return _tp_divexact(a, g, p), _tp_divexact(d, g, p)


def _tp_univar_gcd(a, b, p):
    """Monic gcd of dicts over 1-tuples: Euclid on dense coefficient lists."""
    a, b = ([f.get((d,), 0) for d in range(max(f)[0] + 1)] for f in (a, b))
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
    return {(d,): c * ia % p for d, c in enumerate(a) if c}


def _tp_split_main(a):
    u = {}
    for e, c in a.items():
        u.setdefault(e[0], {})[e[1:]] = c
    return u


def _tp_join_main(u):
    out = {}
    for d, coeff in u.items():
        for e, c in coeff.items():
            out[(d,) + e] = c
    return out


def _tp_content_pp(a, p):
    """Content (gcd of main-variable coefficients) and primitive part."""
    u = _tp_split_main(a)
    cont = {}
    for d in sorted(u):
        cont = _tp_gcd(cont, u[d], p)
    if _tp_is_const(cont):
        return cont, a  # content is the constant 1; a is already primitive
    pp = {}
    for d, coeff in u.items():
        q = _tp_divexact(coeff, cont, p)
        for e, c in q.items():
            pp[(d,) + e] = c
    return cont, pp


def _tp_prem(a, b, p):
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
        new = {d: _tp_mul(cf, lb, p) for d, cf in r.items()}
        for d, cf in ub.items():
            dd = d + dr - db
            new[dd] = _tp_sub(new.get(dd, {}), _tp_mul(cf, lr, p), p)
        r = {d: cf for d, cf in new.items() if cf}
    return _tp_join_main(r)


def _tp_gcd(a, b, p):
    """Monic gcd in F_p[t1, ..., tm] via primitive pseudo-remainder sequences."""
    if not a:
        return _tp_monic(b, p)
    if not b:
        return _tp_monic(a, p)
    if len(a) == 1 or len(b) == 1:
        return {tuple(map(min, zip(*a, *b))): 1}
    if len(next(iter(a))) == 1:
        return _tp_univar_gcd(a, b, p)
    ca, pa = _tp_content_pp(a, p)
    cb, pb = _tp_content_pp(b, p)
    c = _tp_gcd(ca, cb, p)
    while pb:
        r = _tp_prem(pa, pb, p)
        if r:
            _, r = _tp_content_pp(r, p)
        pa, pb = pb, r
    lifted = {(0,) + e: v for e, v in c.items()}
    return _tp_monic(_tp_mul(lifted, pa, p), p)


def _tp_str(a, names):
    if not a:
        return "0"
    parts = []
    for e in sorted(a, key=_tp_key):
        c = a[e]
        factors = []
        if c != 1 or not any(e):
            factors.append(str(c))
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        parts.append("*".join(factors))
    return " + ".join(parts)


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


def _freeze(d):
    if len(d) == 1:
        return tuple(d.items())
    return tuple(sorted(d.items(), key=lambda item: _tp_key(item[0])))


class FieldDescriptor:
    """Common surface of the two supported coefficient fields."""

    __slots__ = ("characteristic", "transcendentals")

    def __init__(self, characteristic: int, transcendentals=()):
        if not is_prime(characteristic):
            raise NonPrimeCharacteristic(f"characteristic {characteristic} is not prime")
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
        self._zero = RatFunc((), (((0,) * m, 1),))
        self._one = RatFunc((((0,) * m, 1),), (((0,) * m, 1),))

    def __repr__(self):
        return f"F_{self.characteristic}({','.join(self.transcendentals)})"

    # -- construction ------------------------------------------------------

    def _canonical(self, num, den) -> RatFunc:
        p = self.characteristic
        if not den:
            raise DivisionByZero("zero denominator in " + repr(self))
        if not num:
            return self._zero
        num, den = _tp_cancel(num, den, p)
        _, lc = _tp_lead(den)
        if lc != 1:
            ic = pow(lc, p - 2, p)
            num = _tp_scale(num, ic, p)
            den = _tp_scale(den, ic, p)
        return RatFunc(_freeze(num), _freeze(den))

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
        c = k % self.characteristic
        if c == 0:
            return self._zero
        m = len(self.transcendentals)
        return RatFunc((((0,) * m, c),), (((0,) * m, 1),))

    def transcendental(self, name: str):
        i = self.transcendentals.index(name)
        m = len(self.transcendentals)
        e = tuple(1 if j == i else 0 for j in range(m))
        return RatFunc(((e, 1),), (((0,) * m, 1),))

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
        p = self.characteristic
        an, ad, bn, bd = dict(a.num), dict(a.den), dict(b.num), dict(b.den)
        if a.den == b.den:
            return self._canonical(_tp_add(an, bn, p), ad)
        # the denominators differ, so the sum is nonzero
        g = _tp_gcd(ad, bd, p)
        if not _tp_is_const(g):
            ad, bd = _tp_divexact(ad, g, p), _tp_divexact(bd, g, p)
        num, g = _tp_cancel(_tp_add(_tp_mul(an, bd, p), _tp_mul(bn, ad, p), p), g, p)
        return RatFunc(_freeze(num), _freeze(_tp_mul(_tp_mul(ad, bd, p), g, p)))

    def neg(self, a):
        return RatFunc(tuple((e, self.characteristic - c) for e, c in a.num), a.den)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a.num or not b.num:
            return self._zero
        p = self.characteristic
        if len(a.num) == len(a.den) == len(b.num) == len(b.den) == 1:
            ((u, c),), ((v, _),), ((w, d),), ((x, _),) = a.num, a.den, b.num, b.den
            e = [i - j + k - l for i, j, k, l in zip(u, v, w, x)]
            num, den = tuple(k if k > 0 else 0 for k in e), tuple(0 if k > 0 else -k for k in e)
            return RatFunc(((num, c * d % p),), ((den, 1),))
        an, bd = _tp_cancel(dict(a.num), dict(b.den), p)
        bn, ad = _tp_cancel(dict(b.num), dict(a.den), p)
        return RatFunc(_freeze(_tp_mul(an, bn, p)), _freeze(_tp_mul(ad, bd, p)))

    def inv(self, a):
        if not a.num:
            raise DivisionByZero("inverse of 0 in " + repr(self))
        p = self.characteristic
        ic = pow(a.num[0][1], p - 2, p)  # a.num[0] is the leading term
        return RatFunc(*(tuple((e, c * ic % p) for e, c in t) for t in (a.den, a.num)))

    def div(self, a, b):
        if not b.num:
            raise DivisionByZero("division by 0 in " + repr(self))
        return self.mul(a, self.inv(b))

    def pow(self, a, k: int):
        """a^k; a^(-k) is inv(a)^k, so 0^(-k) raises DivisionByZero."""
        if k < 0:
            a, k = self.inv(a), -k
        out = self._one
        base = a
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
        num = tuple((tuple(x * q for x in exps), c) for exps, c in a.num)
        den = tuple((tuple(x * q for x in exps), c) for exps, c in a.den)
        return RatFunc(num, den)

    def format(self, a) -> str:
        names = self.transcendentals
        num = _tp_str(dict(a.num), names)
        if a.den == self._one.den:
            return num
        den = _tp_str(dict(a.den), names)
        return f"({num})/({den})"
