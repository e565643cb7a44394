"""Buchberger's algorithm, reduced Groebner bases, and normal forms.

Pairs are handled as in Gebauer and Moeller (1988). When a new element h
arrives, its pairs (g, h) go through criterion M (drop a pair whose lcm is
a proper multiple of another new pair's lcm) and criterion F (one pair per
lcm, and none when some pair with that lcm has coprime leading monomials);
criterion B then drops each old pair (i, j) whose lcm lead(h) divides while
lcm(i, h) and lcm(j, h) both differ from it. Elements whose leading monomial
lead(h) divides stay as reducers but get no new pairs.

Pairs are selected by the sugar strategy (Giovini, Mora, Niesi, Robbiano and
Traverso, 1991): smallest sugar degree first, ties broken by the lcm's key
under the working order, then by the pair's indices. Inputs are taken in
their given order, reducers are scanned in insertion order, and the reduced
basis is sorted by leading monomial. That fixed tie order makes the engine
deterministic: identical inputs give byte-identical bases.

The final interreduction reduces tails in ascending lead order. A lead that
divides a tail term divides the tail's lcm, so ``_nf`` runs only on an element
where a smaller kept lead that divides that lcm divides a tail term.
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
# key) with one integer add and never calls the order's key function. The pair bookkeeping is packed too:
# see ``_packed_lcm`` and ``_support``.


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


def _merge_sub(a: list, b: list, field) -> list:
    """a - b for descending term lists."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ka, kb = a[i][0], b[j][0]
        if ka > kb:
            out.append(a[i])
            i += 1
        elif kb > ka:
            out.append((kb, b[j][1], field.neg(b[j][2])))
            j += 1
        else:
            c = field.sub(a[i][2], b[j][2])
            if not field.is_zero(c):
                out.append((ka, a[i][1], c))
            i += 1
            j += 1
    out.extend(a[i:])
    for k in range(j, nb):
        out.append((b[k][0], b[k][1], field.neg(b[k][2])))
    return out


def _shift(terms: list, shift: int, delta: int, guard: int) -> list:
    """x^shift * terms for a packed shift whose keys move by delta; order is kept."""
    out = []
    for k, m, c in terms:
        ms = m + shift
        if ms & guard:
            raise packed_overflow(m, shift, guard)
        out.append((k + delta, ms, c))
    return out


def _divides(a, b) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _nf(terms: list, basis: list, leads: list, field, guard: int) -> list:
    """Full normal form of a working term list against (basis, packed leads).

    Terms live in a dict keyed by packed order key, drained through a lazy
    max-heap, so each reduction step costs the reducer's length rather than
    the whole work list.
    """
    if not terms or not basis:
        return list(terms)
    coeffs = {}
    exps_of = {}
    heap = []
    for k, e, c in terms:
        coeffs[k] = c
        exps_of[k] = e
        heap.append(-k)
    heapq.heapify(heap)
    out = []
    is_zero = field.is_zero
    fmul, fadd, fneg = field.mul, field.add, field.neg
    zero = field.zero()
    get = coeffs.get
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


def _minimalize(gens, guard: int) -> tuple:
    """The minimal packed monomials of ``gens``, ascending; a proper divisor is a
    smaller integer, so each is tested only against the minimal ones before it."""
    out: list[int] = []
    for g in sorted(set(gens)):
        gg = g | guard
        if not any((gg - h) & guard == guard for h in out):
            out.append(g)
    return tuple(out)


def _support(m: int, guard: int) -> int:
    """The guard bits of the variables a packed monomial involves; two monomials
    are coprime iff their supports are disjoint."""
    return ((m | guard) - (guard >> 16)) & guard


class ReducedGB:
    """A reduced Groebner basis: monic, mutually reduced, sorted by leading term.

    Its state is ``terms``, the working form under ``order``: one descending
    (key, packed monomial, coeff) list per element, as ``_reduce_basis``
    leaves it. ``basis`` (Polynomials) and ``lead_exponents`` are built from
    it on first read and kept, so a basis that only feeds further engine steps
    never builds a Polynomial. A reduced basis of Polynomials comes from
    ``buchberger`` or ``interreduce``.
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
    def lead_exponents(self) -> tuple:
        if self._leads is None:
            n = self.ring.nvars
            self._leads = tuple(unpack(t[0][1], n) for t in self._terms)
        return self._leads

    def is_unit_ideal(self) -> bool:
        return len(self._terms) == 1 and self._terms[0][0][1] == 0

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
    (descending term list, total degree) pairs, none of them zero."""

    ring: Ring
    gens: list


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
    if isinstance(ideal, _Working):
        gens = ideal.gens
    else:
        gens = [(_internal(g, keyf), g.total_degree()) for g in ideal.nonzero_generators()]
    nvars = ring.nvars
    guard = guard_mask(nvars)
    field = ring.field

    basis: list[list] = []
    packed: list[int] = []  # packed leading monomials
    supports: list[int] = []  # _support of each lead
    degrees: list[int] = []  # total degree of each lead
    sugar: list[int] = []
    active: list[int] = []  # elements that still get new pairs
    # heap of (sugar, lcm key, i, j, packed lcm); every entry is a live pair
    pairs: list[tuple] = []

    def add(terms: list, s: int) -> None:
        """Append ``terms`` made monic and run the Gebauer-Moller update."""
        h = len(basis)
        lh = terms[0][1]
        sh = _support(lh, guard)
        dh = sum(unpack(lh, nvars))
        basis.append(_monic(terms, field))
        packed.append(lh)
        supports.append(sh)
        degrees.append(dh)
        sugar.append(s)
        # new pairs (g, h): criterion M drops a pair whose lcm is a proper
        # multiple of another new lcm; criterion F keeps one pair per lcm,
        # and none when some pair with that lcm is coprime (it reduces to 0)
        by_lcm: dict[int, list] = {}
        for g in active:
            entry = by_lcm.setdefault(_packed_lcm(packed[g], lh, guard), [g, False])
            if not supports[g] & sh:
                entry[1] = True
        fresh = []
        for l in _minimalize(by_lcm, guard):
            g, coprime = by_lcm[l]
            if not coprime:
                el = unpack(l, nvars)
                dl = sum(el)
                fresh.append((max(sugar[g] + dl - degrees[g], s + dl - dh), keyf(el), g, h, l))
        # criterion B: h makes (i, j) redundant when lead(h) divides lcm(i, j)
        # and lcm(i, h), lcm(j, h) are both proper divisors of it
        kept = [
            pr
            for pr in pairs
            if ((pr[4] | guard) - lh) & guard != guard
            or _packed_lcm(packed[pr[2]], lh, guard) == pr[4]
            or _packed_lcm(packed[pr[3]], lh, guard) == pr[4]
        ]
        kept.extend(fresh)
        heapq.heapify(kept)
        pairs[:] = kept
        # elements whose lead h divides stay as reducers but get no new pairs
        active[:] = [g for g in active if ((packed[g] | guard) - lh) & guard != guard]
        active.append(h)

    for terms, d in gens:
        t = _nf(_monic(terms, field), basis, packed, field, guard)
        if t:
            add(t, d)

    while pairs:
        s, kl, i, j, pl = heapq.heappop(pairs)
        a = _shift(basis[i], pl - packed[i], kl - basis[i][0][0], guard)
        b = _shift(basis[j], pl - packed[j], kl - basis[j][0][0], guard)
        r = _nf(_merge_sub(a, b, field), basis, packed, field, guard)
        if r:
            add(r, s)

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
    leads = [g[0][1] for g in basis]
    r = _nf(_internal(f, gb.order.key), basis, leads, gb.ring.field, guard_mask(gb.ring.nvars))
    return _to_poly(gb.ring, gb.order, r)


def ideal_member(f: Polynomial, gb: ReducedGB) -> bool:
    """True iff f lies in the ideal presented by gb."""
    return normal_form(f, gb).is_zero()


def validate_reduced_gb(gb: ReducedGB) -> None:
    """Engine health check: reducedness, monicity, and the S-polynomial certificate."""
    field = gb.ring.field
    for i, g in enumerate(gb.basis):
        if g.leading_term(gb.order)[1] != field.one():
            raise InternalInconsistency(f"basis element {i} is not monic")
        for e, _ in g.terms:
            for j, le in enumerate(gb.lead_exponents):
                if j != i and _divides(le, e):
                    raise InternalInconsistency(
                        f"term of basis element {i} divisible by lead of {j}"
                    )
    for i in range(len(gb.basis)):
        for j in range(i + 1, len(gb.basis)):
            s = s_polynomial(gb.basis[i], gb.basis[j], gb.order)
            if not ideal_member(s, gb):
                raise InternalInconsistency(f"S-polynomial of pair ({i},{j}) does not reduce to 0")
