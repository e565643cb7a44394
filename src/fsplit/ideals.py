"""Ideal-level operations: sums, Frobenius bracket powers, intersections, colons.

Intersections use the classic single-auxiliary-variable elimination
I cap J = (t*I + (1-t)*J) cap S, with t alone in the eliminated block of
elim(1) and grevlex on the other variables. Colon ideals reduce to
intersections with principal ideals followed by exact division, asserted as
a corruption detector. Two facts keep this from repeating work, and both are
exact:

* The t-free elements of the reduced elim(1) basis G of t*I + (1-t)*J, with
  t dropped, are the reduced grevlex basis of I cap J, so ``intersect`` runs
  Buchberger once. By the elimination theorem (Cox, Little and O'Shea,
  *Ideals, Varieties, and Algorithms*, sections 3.1 and 4.3) G cap S is a
  Groebner basis of I cap J. Every t-term precedes every t-free term under
  elim(1), so an element with a t-free lead is t-free, and on t-free
  monomials elim(1) is grevlex. Each kept element is therefore monic under
  grevlex, no term of it is divisible by another kept lead since G is
  reduced, and G already lists them by ascending grevlex lead.
* (I : f) = (I : f + i) for every i in I, since h*f and h*(f + i) differ by
  h*i, which lies in I. So ``colon_ideal`` replaces each generator f of J by
  its normal form modulo the reduced grevlex basis of I, and skips an f that
  reduces to 0, for which (I : f) = S. For the primal colon n^[q] : K this
  drops every term of K with an exponent >= q before any elimination.

The quotients h/f over the reduced grevlex basis of I cap (f) are a Groebner
basis of (I : f): for g in (I : f), lead(f*g) = lead(f)*lead(g) is divisible
by some lead(h) = lead(f)*lead(h/f). So they are only interreduced
(``groebner.interreduce``), with no S-pair formed.
"""

from __future__ import annotations

import heapq

from .errors import InternalInconsistency, RingMismatch, ZeroDivisorColon
from .groebner import ReducedGB, buchberger, interreduce, normal_form
from .poly import (
    GREVLEX,
    RESERVED_VARIABLE,
    IdealPresentation,
    MonomialOrder,
    Polynomial,
    Ring,
    guard_mask,
    pack,
    packed_overflow,
    unpack,
)


def ideal_sum(I: IdealPresentation, J: IdealPresentation) -> IdealPresentation:
    """Concatenate generator lists, I first."""
    if I.ring != J.ring:
        raise RingMismatch("ideal sum across different rings")
    return IdealPresentation(I.ring, I.generators + J.generators)


def frobenius_power(I: IdealPresentation, e: int) -> IdealPresentation:
    """The bracket power I^[q], q = p^e, generated by q-th powers of the generators."""
    if e < 0:
        raise ValueError("e must be nonnegative")
    return IdealPresentation(I.ring, tuple(g.frobenius(e) for g in I.generators))


def _extended_ring(ring: Ring) -> Ring:
    # auxiliary variable sits in the eliminated first block
    return Ring(
        ring.field,
        (RESERVED_VARIABLE,) + ring.variables,
        MonomialOrder.elimination(1),
        _allow_reserved=True,
    )


def intersect(I: IdealPresentation, J: IdealPresentation) -> ReducedGB:
    """Reduced grevlex Groebner basis of I cap J in the original ring.

    The t-free part of the reduced elim(1) basis of t*I + (1 - t)*J, with t
    dropped, is that basis already (see the module docstring).
    """
    if I.ring != J.ring:
        raise RingMismatch("intersection across different rings")
    ring = I.ring
    ext = _extended_ring(ring)
    neg = ring.field.neg
    # under grevlex, t*f, -t*g, g and the projection keep the order of f and
    # g, and every t-term precedes every t-free term under elim(1)
    direct = ring.order == GREVLEX

    def poly(R: Ring, terms) -> Polynomial:
        return Polynomial(R, tuple(terms)) if direct else R.from_terms(dict(terms))

    gens = [poly(ext, [((1,) + e, c) for e, c in f.terms]) for f in I.nonzero_generators()]
    gens += [
        poly(ext, [((1,) + e, neg(c)) for e, c in g.terms] + [((0,) + e, c) for e, c in g.terms])
        for g in J.nonzero_generators()
    ]
    gb = buchberger(IdealPresentation(ext, gens))
    # a t-free lead means a t-free element, since t-terms come first
    kept = [
        poly(ring, [(e[1:], c) for e, c in h.terms]) for h in gb.basis if not h.terms[0][0][0]
    ]
    return ReducedGB(ring, GREVLEX, kept)


def divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g; raises InternalInconsistency when division is not exact.

    Long division with the remainder in a dict keyed by packed order key and
    drained through a max-heap, so each step costs the length of g. Monomials
    are packed as in ``poly.pack``, so the divisibility test, the cofactor and
    each product with its overflow check are integer operations.
    """
    ring = f.ring
    if g.ring != ring:
        raise RingMismatch("exact division across different rings")
    if g.is_zero():
        raise ZeroDivisorColon("division by the zero polynomial")
    field = ring.field
    keyf = ring.order.key
    guard = guard_mask(ring.nvars)
    (eg, cg), tail = g.terms[0], [(keyf(e), pack(e), c) for e, c in g.terms[1:]]
    kg, mg = keyf(eg), pack(eg)
    icg = field.inv(cg)
    rem = {keyf(e): (pack(e), c) for e, c in f.terms}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quo = []
    while heap:
        k = -heapq.heappop(heap)
        er, cr = rem.pop(k)  # later steps only touch smaller monomials
        if field.is_zero(cr):
            continue
        if ((er | guard) - mg) & guard != guard:
            raise InternalInconsistency(f"{f} is not divisible by {g}")
        m = er - mg
        c = field.mul(cr, icg)
        quo.append((m, c))
        factor = field.neg(c)
        delta = k - kg  # keys are affine: key(e + m) = key(e) + key(m) - key(0)
        for kt, et, ct in tail:
            em = et + m
            if em & guard:
                raise packed_overflow(et, m, guard)
            nk = kt + delta
            v = field.mul(ct, factor)
            old = rem.get(nk)
            if old is None:
                rem[nk] = (em, v)
                heapq.heappush(heap, -nk)
            else:
                rem[nk] = (old[0], field.add(old[1], v))
    n = ring.nvars
    # keys were popped in descending order, so the quotient is already sorted
    return Polynomial(ring, tuple((unpack(m, n), c) for m, c in quo))


def colon_ideal(I: IdealPresentation, J: IdealPresentation) -> ReducedGB:
    """Reduced grevlex Groebner basis of (I : J) = {f : f*J in I}."""
    if I.ring != J.ring:
        raise RingMismatch("colon across different rings")
    ring = I.ring
    jgens = J.nonzero_generators()
    if not jgens:
        raise ZeroDivisorColon("colon by the zero ideal")
    gb_I = buchberger(I, GREVLEX)
    result: ReducedGB | None = None
    for f in jgens:
        f = normal_form(f, gb_I)  # (I : f) = (I : f + i) for i in I
        if f.is_zero():
            continue  # f in I, so (I : f) = S
        inter = intersect(I, IdealPresentation(ring, (f,)))
        gb = interreduce(ring, [divide_exact(h, f) for h in inter.basis], GREVLEX)
        if result is None:
            result = gb
        else:
            result = intersect(result.presentation(), gb.presentation())
    if result is None:
        return ReducedGB(ring, GREVLEX, (ring.one(),))
    return result
