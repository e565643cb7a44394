"""Buchberger's algorithm, reduced Groebner bases, and normal forms.

Pairs are handled as in Gebauer and Moeller (1988). When a new element h
arrives, its pairs (g, h) go through criterion M (drop a pair whose lcm is
a proper multiple of another new pair's lcm) and criterion F (one pair per
lcm, and none when some pair with that lcm has coprime leading monomials);
criterion B then marks dead each old pair (i, j) whose lcm lead(h) divides
while lcm(i, h) and lcm(j, h) both differ from it. Dead pairs stay in the
pair heap and are skipped when popped, so the heap is never rebuilt; the
fresh pairs are pushed onto it. Elements whose leading monomial lead(h)
divides stay as reducers but get no new pairs. A pair's key and sugar
degree are read off its packed lcm through affine weights
(``poly._key_weights``).

Pairs are selected by the sugar strategy (Giovini, Mora, Niesi, Robbiano and
Traverso, 1991): smallest sugar degree first, ties broken by the lcm's key
under the working order, then by the pair's indices. Inputs are taken in
their given order, reducers are scanned in insertion order, and the reduced
basis is sorted by leading monomial. That fixed tie order makes the engine
deterministic: identical inputs give byte-identical bases.

Tails are lazy. Each input and each S-polynomial is reduced only until its
leading term is irreducible (``_nf`` with ``head``); the criteria and the
sugar see leads alone, so nothing in the pair loop needs a reduced tail.
The final interreduction, ``_reduce_basis``, is the one place that reduces
tails, once each, in ascending lead order. A lead that divides a tail term
divides the tail's lcm, so ``_nf`` runs only on an element where a smaller
kept lead that divides that lcm divides a tail term. A caller that keeps
only the elements below a lead key (the t-free block of an elimination,
see ``_Working``) has only those interreduced.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .errors import InternalInconsistency, RingMismatch
from .poly import (
    IdealPresentation,
    MonomialOrder,
    Polynomial,
    Ring,
    _key_weights,
    guard_mask,
    pack,
    packed_overflow,
    unpack,
)

# Internal working form: list of (key, packed monomial, coeff), strictly
# descending by key. Monomials are packed as in ``poly.pack``: 17 bits per
# variable, 16 value bits under a guard bit. With G the ring's guard mask, a
# lead b divides a term a iff ((a | G) - b) & G == G, the cofactor is a - b,
# and a product a + s overflows iff (a + s) & G is nonzero. Packed order keys
# are affine in the exponents, key(a + b) = key(a) + key(b) - key(0) (see
# ``MonomialOrder.key``), so a reduction step shifts keys by (term key - lead
# key) with one integer add and never calls the order's key function. The
# pair bookkeeping is packed too: see ``_packed_lcm``, ``_support``, and
# ``_key_degree`` for a pair's key and degree from its packed lcm.


def _internal(f: Polynomial, keyf) -> list:
    terms = [(keyf(e), pack(e), c) for e, c in f.terms]
    terms.sort(key=lambda t: t[0], reverse=True)
    return terms


def _monic(terms: list, field) -> list:
    """``terms`` divided by its leading coefficient."""
    c = terms[0][2]
    if c == field.one():
        return terms
    ic = field.inv(c)
    return [(k, m, field.mul(x, ic)) for k, m, x in terms]


def _to_poly(ring: Ring, order: MonomialOrder, terms: list) -> Polynomial:
    n = ring.nvars
    if order == ring.order:
        # already sorted by the ring order, distinct, nonzero and in range
        return Polynomial(ring, tuple((unpack(m, n), c) for _, m, c in terms))
    return ring.from_terms({unpack(m, n): c for _, m, c in terms})


def _divides(a, b) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _nf(
    terms: list, basis: list, leads: list, field, guard: int, head: bool = False, spair=None
) -> list:
    """Normal form of a working term list against (basis, packed leads).

    Every reduction in the engine enters here: Buchberger's inputs and
    S-polynomials, the final interreduction, ``normal_form``, and the
    generator reductions of ``ideals.colon_ideal``.
    With ``spair = (g, l, kl)`` the input is instead the S-polynomial
    x^a*terms - x^b*g of two monic working forms at their packed lcm
    l = lead(terms)*x^a = lead(g)*x^b, whose key is kl: both tails are shifted
    straight into the reduction, and the cancelled leads are never built.
    With ``head`` the reduction stops at the first irreducible term, so the
    result has the lead of the full normal form, and its tail is left as
    the reduction steps made it.

    Terms live in a dict keyed by packed order key, drained through a lazy
    max-heap, so each reduction step costs the reducer's length rather than
    the whole work list.
    """
    if not basis:
        return list(terms)
    coeffs = {}
    exps_of = {}
    get = coeffs.get
    fmul, fadd, fneg = field.mul, field.add, field.neg
    if spair is None:
        for k, e, c in terms:
            coeffs[k] = c
            exps_of[k] = e
    else:
        g, l, kl = spair
        shift, delta = l - terms[0][1], kl - terms[0][0]
        for k, e, c in terms[1:]:
            m = e + shift
            if m & guard:
                raise packed_overflow(e, shift, guard)
            nk = k + delta
            coeffs[nk] = c
            exps_of[nk] = m
        fsub = field.sub
        shift, delta = l - g[0][1], kl - g[0][0]
        for k, e, c in g[1:]:
            m = e + shift
            if m & guard:
                raise packed_overflow(e, shift, guard)
            nk = k + delta
            old = get(nk)
            if old is None:
                coeffs[nk] = fneg(c)
                exps_of[nk] = m
            else:
                coeffs[nk] = fsub(old, c)
    heap = [-k for k in coeffs]
    heapq.heapify(heap)
    out = []
    is_zero = field.is_zero
    zero = field.zero()
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        k = -pop(heap)
        c = get(k)
        if c is None or is_zero(c):
            continue  # stale heap entry
        e = exps_of[k]
        eg = e | guard
        for lm, g in zip(leads, basis):
            if (eg - lm) & guard == guard:
                shift = e - lm
                delta = k - g[0][0]
                factor = fneg(c)  # reducer is monic; cancel the top term
                coeffs[k] = zero
                for kg, gm, gc in g[1:]:
                    m = gm + shift
                    if m & guard:
                        raise packed_overflow(gm, shift, guard)
                    nk = kg + delta
                    v = fmul(gc, factor)
                    old = get(nk)
                    if old is None:
                        coeffs[nk] = v
                        exps_of[nk] = m
                        push(heap, -nk)
                    else:
                        coeffs[nk] = fadd(old, v)
                break
        else:
            if head:
                # every key above k is cancelled; the tail is what is left below it
                rest = coeffs.items()
                out = [(kt, exps_of[kt], ct) for kt, ct in rest if kt < k and not is_zero(ct)]
                out.sort(reverse=True)
                return [(k, e, c)] + out
            out.append((k, e, c))
            coeffs[k] = zero
    return out


def _lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _packed_lcm(a: int, b: int, guard: int) -> int:
    """lcm of packed monomials: per field, ``ge`` keeps the guard bit where a >= b,
    and ``ge - (ge >> 16)`` widens it to that field's 16 value bits."""
    ge = ((a | guard) - b) & guard
    return b ^ ((a ^ b) & (ge - (ge >> 16)))


def _key_degree(m: int, k0: int, weights) -> tuple:
    """(order key, total degree) of a packed monomial, from ``_key_weights``:
    one walk over its fields, the degree with every weight 1."""
    k, d = k0, 0
    for w in weights:
        a = m & 0xFFFF
        k += a * w
        d += a
        m >>= 17
    return k, d


def _support(m: int, guard: int) -> int:
    """The guard bits of the variables a packed monomial involves; two monomials
    are coprime iff their supports are disjoint."""
    return ((m | guard) - (guard >> 16)) & guard


def _minimalize(gens, guard: int) -> tuple:
    """The minimal packed monomials of ``gens``, ascending; a proper divisor is a
    smaller integer, so each is tested only against the minimal ones before it."""
    out: list[int] = []
    for g in sorted(set(gens)):
        gg = g | guard
        for h in out:
            if (gg - h) & guard == guard:
                break
        else:
            out.append(g)
    return tuple(out)


class ReducedGB:
    """A reduced Groebner basis: monic, mutually reduced, sorted by leading term.

    Its state is ``terms``, the working form under ``order``: one descending
    (key, packed monomial, coeff) list per element, as ``_reduce_basis``
    leaves it. ``leads`` (their packed leading monomials) and ``basis``
    (Polynomials) are built from it on first read and kept, so a basis that
    only feeds further engine steps never builds either. A reduced basis of
    Polynomials comes from ``buchberger`` or ``interreduce``.
    """

    __slots__ = ("ring", "order", "_terms", "_basis", "_leads")

    def __init__(self, ring: Ring, order: MonomialOrder, terms):
        self.ring = ring
        self.order = order
        self._terms = tuple(terms)
        self._basis = None
        self._leads = None

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            self._basis = tuple(_to_poly(self.ring, self.order, t) for t in self._terms)
        return self._basis

    @property
    def leads(self) -> tuple:
        if self._leads is None:
            self._leads = tuple(t[0][1] for t in self._terms)
        return self._leads

    def is_unit_ideal(self) -> bool:
        return self.leads == (0,)

    def presentation(self) -> IdealPresentation:
        return IdealPresentation(self.ring, self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, ReducedGB)
            and self.ring == other.ring
            and self.order == other.order
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.ring, self.order, tuple(map(tuple, self._terms))))

    def __repr__(self):
        return f"GB{{{'; '.join(str(g) for g in self.basis) or '0'}}}"


class _Working(NamedTuple):
    """Generators for ``buchberger`` in working form under the ring order:
    (descending term list, total degree) pairs, none of them zero.

    With a key ``bound``, the caller keeps only the basis elements whose lead
    key lies below it, and these must form a Groebner basis of their own, as
    the t-free block of an elimination does: only they are interreduced and
    returned. Without one, the whole reduced basis is.
    """

    ring: Ring
    gens: list
    bound: int | None = None


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
    """S-polynomial of f and g under ``order`` (defaults to the ring order)."""
    ring = f.ring
    if g.ring != ring:
        raise RingMismatch("S-polynomial operands in different rings")
    order = order or ring.order
    field = ring.field
    ef, cf = f.leading_term(order)
    eg, cg = g.leading_term(order)
    l = _lcm(ef, eg)
    a = f.shift(tuple(x - y for x, y in zip(l, ef))).scale(field.inv(cf))
    b = g.shift(tuple(x - y for x, y in zip(l, eg))).scale(field.inv(cg))
    return a - b


def buchberger(ideal: IdealPresentation, order: MonomialOrder | None = None) -> ReducedGB:
    """Reduced Groebner basis of an IdealPresentation."""
    ring = ideal.ring
    order = order or ring.order
    keyf = order.key
    bound = None
    if isinstance(ideal, _Working):
        gens, bound = ideal.gens, ideal.bound
    else:
        gens = [(_internal(g, keyf), g.total_degree()) for g in ideal.nonzero_generators()]
    nvars = ring.nvars
    k0, weights = _key_weights(keyf, nvars)
    guard = guard_mask(nvars)
    low = guard >> 16  # the lowest bit of every field
    field = ring.field

    basis: list[list] = []
    packed: list[int] = []  # packed leading monomials
    supports: list[int] = []  # _support of each lead
    degrees: list[int] = []  # total degree of each lead
    sugar: list[int] = []
    active: list[int] = []  # elements that still get new pairs
    # heap of (sugar, lcm key, i, j, packed lcm); criterion B adds the pairs
    # it drops to ``dead``, and the main loop skips them when it pops them
    pairs: list[tuple] = []
    dead: set[tuple] = set()
    push = heapq.heappush

    def add(terms: list, s: int) -> None:
        """Append ``terms`` made monic and run the Gebauer-Moller update."""
        h = len(basis)
        lh = terms[0][1]
        sh = ((lh | guard) - low) & guard  # _support(lh, guard)
        dh = _key_degree(lh, k0, weights)[1]
        basis.append(_monic(terms, field))
        packed.append(lh)
        supports.append(sh)
        degrees.append(dh)
        sugar.append(s)
        # new pairs (g, h): criterion M drops a pair whose lcm is a proper
        # multiple of another new lcm; criterion F keeps one pair per lcm,
        # and none when some pair with that lcm is coprime (it reduces to 0).
        # Here and in criterion B, _packed_lcm(packed[g], lh, guard) is inlined.
        by_lcm: dict[int, list] = {}
        for g in active:
            lg = packed[g]
            ge = ((lg | guard) - lh) & guard
            l = lh ^ ((lg ^ lh) & (ge - (ge >> 16)))
            entry = by_lcm.get(l)
            if entry is None:
                by_lcm[l] = entry = [g, False]
            if not supports[g] & sh:
                entry[1] = True
        # criterion B: h makes (i, j) redundant when lead(h) divides lcm(i, j)
        # and lcm(i, h), lcm(j, h) are both proper divisors of it
        for pr in pairs:
            l = pr[4]
            if ((l | guard) - lh) & guard == guard:
                li = packed[pr[2]]
                ge = ((li | guard) - lh) & guard
                if lh ^ ((li ^ lh) & (ge - (ge >> 16))) != l:
                    lj = packed[pr[3]]
                    ge = ((lj | guard) - lh) & guard
                    if lh ^ ((lj ^ lh) & (ge - (ge >> 16))) != l:
                        dead.add(pr)
        # criterion M, pushing each kept non-coprime lcm
        for l in _minimalize(by_lcm, guard):
            g, coprime = by_lcm[l]
            if not coprime:
                kl, dl = _key_degree(l, k0, weights)
                push(pairs, (max(sugar[g] + dl - degrees[g], s + dl - dh), kl, g, h, l))
        # elements whose lead h divides stay as reducers but get no new pairs
        active[:] = [g for g in active if ((packed[g] | guard) - lh) & guard != guard]
        active.append(h)

    # inputs and S-polynomials are reduced only until their lead is
    # irreducible; _reduce_basis reduces the tails once, at the end
    for terms, d in gens:
        t = _nf(terms, basis, packed, field, guard, True)
        if t:
            add(t, d)

    pop = heapq.heappop
    while pairs:
        pr = pop(pairs)
        if pr in dead:
            dead.remove(pr)
            continue
        s, kl, i, j, l = pr
        r = _nf(basis[i], basis, packed, field, guard, True, (basis[j], l, kl))
        if r:
            add(r, s)

    if bound is not None:
        basis = [t for t in basis if t[0][0] < bound]
    return _reduce_basis(ring, order, basis)


def interreduce(ring: Ring, gens, order: MonomialOrder) -> ReducedGB:
    """Reduced basis of an ideal from a Groebner basis ``gens`` of it under ``order``.

    No S-pair is formed: elements whose lead another lead divides are dropped
    and the rest are made monic and reduced against each other. Generators
    that are not a Groebner basis give a wrong answer.
    """
    field = ring.field
    basis = [_monic(_internal(g, order.key), field) for g in gens if not g.is_zero()]
    return _reduce_basis(ring, order, basis)


def _reduce_basis(ring: Ring, order: MonomialOrder, basis: list) -> ReducedGB:
    """The reduced basis from a monic Groebner basis: drop each element whose lead
    another lead divides, then reduce the tails of the rest in ascending lead order.

    A tail can meet only the smaller kept leads, whose elements are already
    final, and only those that divide its lcm. Each tail ends as the unique
    normal form of minus its lead, so the result is the unique reduced basis.
    """
    field = ring.field
    guard = guard_mask(ring.nvars)
    kept: list[list] = []
    leads: list[int] = []
    for t in sorted(basis, key=lambda t: t[0][0]):  # stable: first of equal leads
        lead = t[0][1]
        lg = lead | guard
        if any((lg - l) & guard == guard for l in leads):
            continue
        tail = t[1:]
        if tail:
            tail_lcm = 0
            for _, m, _ in tail:
                tail_lcm = _packed_lcm(tail_lcm, m, guard)
            tg = tail_lcm | guard
            near = [l for l in leads if (tg - l) & guard == guard]
            if near and any(((m | guard) - l) & guard == guard for _, m, _ in tail for l in near):
                t = _nf(t, kept, leads, field, guard)
                if not t or t[0][1] != lead:
                    raise InternalInconsistency("interreduction destroyed a leading term")
        kept.append(t)
        leads.append(lead)
    return ReducedGB(ring, order, kept)


def normal_form(f: Polynomial, gb: ReducedGB) -> Polynomial:
    """Remainder of f on division by the reduced basis; unique since gb is reduced."""
    if f.ring != gb.ring:
        raise RingMismatch(f"{f.ring!r} != {gb.ring!r}")
    basis = gb._terms
    if not basis or f.is_zero():
        return f
    r = _nf(_internal(f, gb.order.key), basis, gb.leads, gb.ring.field, guard_mask(gb.ring.nvars))
    return _to_poly(gb.ring, gb.order, r)


def ideal_member(f: Polynomial, gb: ReducedGB) -> bool:
    """True iff f lies in the ideal presented by gb."""
    return normal_form(f, gb).is_zero()


def validate_reduced_gb(gb: ReducedGB) -> None:
    """Engine health check: reducedness, monicity, and the S-polynomial certificate."""
    field = gb.ring.field
    leads = [g.leading_term(gb.order) for g in gb.basis]
    for i, g in enumerate(gb.basis):
        if leads[i][1] != field.one():
            raise InternalInconsistency(f"basis element {i} is not monic")
        for e, _ in g.terms:
            for j, (le, _) in enumerate(leads):
                if j != i and _divides(le, e):
                    raise InternalInconsistency(
                        f"term of basis element {i} divisible by lead of {j}"
                    )
    for i in range(len(gb.basis)):
        for j in range(i + 1, len(gb.basis)):
            s = s_polynomial(gb.basis[i], gb.basis[j], gb.order)
            if not ideal_member(s, gb):
                raise InternalInconsistency(f"S-polynomial of pair ({i},{j}) does not reduce to 0")
