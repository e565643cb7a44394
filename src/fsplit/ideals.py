"""Ideal-level operations: sums, Frobenius bracket powers, intersections, colons.

Intersections use the classic single-auxiliary-variable elimination
I cap J = (t*I + (1-t)*J) cap S with the auxiliary in the eliminated block;
colon ideals reduce to intersections with principal ideals followed by exact
division, asserted as a corruption detector.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import InternalInconsistency, RingMismatch, ZeroDivisorColon
from .groebner import ReducedGB, buchberger
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


@dataclass(frozen=True)
class BracketPower:
    """A bracket power I^[q] together with its certified exponent data."""

    base: IdealPresentation
    e: int
    q: int
    presentation: IdealPresentation

    def __post_init__(self):
        p = self.base.ring.field.characteristic
        if self.q != p**self.e:
            raise InternalInconsistency(f"q = {self.q} is not {p}^{self.e}")


def bracket_power(I: IdealPresentation, e: int) -> BracketPower:
    q = I.ring.field.characteristic**e
    return BracketPower(I, e, q, frobenius_power(I, e))


def _extended_ring(ring: Ring) -> Ring:
    # auxiliary variable sits in the eliminated first block
    return Ring(
        ring.field,
        (RESERVED_VARIABLE,) + ring.variables,
        MonomialOrder.elimination(1),
        _allow_reserved=True,
    )


def _lift(f: Polynomial, ext: Ring, aux_exp: int) -> Polynomial:
    return ext.from_terms({(aux_exp,) + e: c for e, c in f.terms})


def _project(f: Polynomial, ring: Ring) -> Polynomial:
    return ring.from_terms({e[1:]: c for e, c in f.terms})


def intersect(I: IdealPresentation, J: IdealPresentation) -> ReducedGB:
    """Groebner basis of I cap J in the original ring (grevlex)."""
    if I.ring != J.ring:
        raise RingMismatch("intersection across different rings")
    ring = I.ring
    ext = _extended_ring(ring)
    aux = ext.var(RESERVED_VARIABLE)
    gens = [aux * _lift(f, ext, 0) for f in I.nonzero_generators()]
    one_minus_aux = ext.one() - aux
    gens += [one_minus_aux * _lift(g, ext, 0) for g in J.nonzero_generators()]
    gb = buchberger(IdealPresentation(ext, gens))
    kept = [_project(g, ring) for g in gb.basis if g.leading_term(gb.order)[0][0] == 0]
    return buchberger(IdealPresentation(ring, kept), GREVLEX)


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
    """Groebner basis of (I : J) = {f : f*J in I}."""
    if I.ring != J.ring:
        raise RingMismatch("colon across different rings")
    ring = I.ring
    jgens = J.nonzero_generators()
    if not jgens:
        raise ZeroDivisorColon("colon by the zero ideal")
    result: ReducedGB | None = None
    for f in jgens:
        inter = intersect(I, IdealPresentation(ring, (f,)))
        quotient = tuple(divide_exact(h, f) for h in inter.basis)
        gb = buchberger(IdealPresentation(ring, quotient), GREVLEX)
        if result is None:
            result = gb
        else:
            result = intersect(result.presentation(), gb.presentation())
    return result
