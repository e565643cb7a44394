"""Ideal-level operations: sums, Frobenius bracket powers, intersections, colons.

Intersections use the classic single-auxiliary-variable elimination
I cap J = (t*I + (t-1)*J) cap S, with t alone in the eliminated block of
elim(1) and grevlex on the other variables. A colon by J = (f_1, ..., f_r)
runs one intersection per generator, each followed by exact division,
asserted as a corruption detector. Two facts keep this from repeating work,
and both are exact:

* The t-free elements of any elim(1) Groebner basis G of t*I + (t-1)*J,
  reduced or not, with t dropped, are a grevlex Groebner basis of I cap J:
  by the elimination theorem (Cox, Little and O'Shea, *Ideals, Varieties,
  and Algorithms*, sections 3.1 and 4.3) G cap S is a Groebner basis of
  I cap J. Every t-term precedes every t-free term under elim(1), so an
  element with a t-free lead is t-free, and on t-free monomials elim(1) is
  grevlex. So ``intersect`` runs Buchberger once, with the key of t^1 as the
  bound of its kept block: only the t-free elements are interreduced, since
  only they can reduce a t-free tail, and the result, with t dropped, is the
  reduced grevlex basis of I cap J.
* (I : f) = (I : f + i) for every i in I, since h*f and h*(f + i) differ by
  h*i, which lies in I. So ``colon_ideal`` replaces each generator f of J by
  its normal form modulo the reduced grevlex basis of I, and skips an f that
  reduces to 0, for which (I : f) = S. An f that reduces to a nonzero
  constant is a unit, so (I : f) = I, which lies in every other (I : g):
  the colon is I, and that basis is returned with no elimination. For the
  primal colon n^[q] : K this drops every term of K with an exponent >= q
  before any elimination, and at e = 0, where K = S, it returns n itself.

The colon is carried from one generator to the next. With
B = (I : (f_1, ..., f_{k-1})), and B = S before the first generator,

  (I : (f_1, ..., f_k)) = {h in B : h*f_k in I} = (I cap f_k*B) / f_k.

An element of I cap f_k*B is f_k*h with h in B and f_k*h in I, and S is a
domain, so each division by f_k is exact and its quotient is h. The first
step is I cap (f_1), the principal colon. The quotients h/f over the reduced
grevlex basis of I cap f*B are a Groebner basis of (I : f) cap B: for g in
it, f*g lies in I cap f*B, so lead(f*g) = lead(f)*lead(g) is divisible by
some lead(h) = lead(f)*lead(h/f). So they are only interreduced, with no
S-pair formed, and a colon by r generators runs r eliminations.

Both operations stay in Buchberger's working form (``groebner``): descending
(key, packed monomial, coeff) lists, which a ``ReducedGB`` holds as its state.
``intersect`` builds t*I + (t-1)*J in it directly: x^m t^a packs to
``(m << 17) | a``, and its elim(1) key is the grevlex key of x^m plus an
offset that depends on a alone, since keys are affine (``MonomialOrder.key``).
The t-free elements of G are those whose lead key lies below the offset of
t^1, the bound it passes to Buchberger; it projects them with ``m >> 17``
and by subtracting the offset of t^0.
``colon_ideal`` does the normal forms, the products f*b, the exact
divisions and the interreduction on these lists too, so a Polynomial is
built only when a caller reads ``ReducedGB.basis``.
"""

from __future__ import annotations

import heapq

from .errors import InternalInconsistency, RingMismatch, ZeroDivisorColon
from .groebner import (
    ReducedGB,
    _internal,
    _monic,
    _nf,
    _reduce_basis,
    _to_poly,
    _Working,
    buchberger,
)
from .poly import (
    _FIELD_BITS,
    GREVLEX,
    IdealPresentation,
    MonomialOrder,
    Ring,
    guard_mask,
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
    # the auxiliary variable sits in the eliminated first block; its name is
    # longer than every name in the ring, so it collides with none
    names = ring.variables + ring.field.transcendentals
    t = "t" + "'" * max(map(len, names), default=0)
    return Ring(ring.field, (t,) + ring.variables, MonomialOrder.elimination(1))


def _generators(I) -> tuple:
    """The nonzero generators of I (a ReducedGB stands for its basis) in grevlex
    working form, in their given order."""
    if isinstance(I, ReducedGB) and I.order == GREVLEX:
        return I._terms
    gens = I.basis if isinstance(I, ReducedGB) else I.nonzero_generators()
    return tuple(_internal(g, GREVLEX.key) for g in gens)


def intersect(I: IdealPresentation | ReducedGB, J: IdealPresentation | ReducedGB) -> ReducedGB:
    """Reduced grevlex Groebner basis of I cap J in the original ring.

    Buchberger on t*I + (t - 1)*J under elim(1) interreduces and returns
    only the t-free block of its basis, which with t dropped is that basis
    (see the module docstring). Either ideal may be a ReducedGB, which
    stands for its basis.
    """
    if I.ring != J.ring:
        raise RingMismatch("intersection across different rings")
    ring = I.ring
    n = ring.nvars
    neg = ring.field.neg
    ext = _extended_ring(ring)
    # t is the first ext variable: x^m t^a packs to (m << 17) | a, and its
    # elim(1) key is t_a + (grevlex key of x^m)
    zero = (0,) * n
    t0, t1 = (ext.order.key((a,) + zero) - GREVLEX.key(zero) for a in (0, 1))
    gens = [
        ([(t1 + k, (m << _FIELD_BITS) | 1, c) for k, m, c in f], 1 + sum(unpack(f[0][1], n)))
        for f in _generators(I)
    ]
    # (t - 1)*g, not (1 - t)*g: it is monic whenever g is
    gens += [
        (
            [(t1 + k, (m << _FIELD_BITS) | 1, c) for k, m, c in g]
            + [(t0 + k, m << _FIELD_BITS, neg(c)) for k, m, c in g],
            1 + sum(unpack(g[0][1], n)),
        )
        for g in _generators(J)
    ]
    # a lead below t1 is t-free, and so is its element, since t-terms come
    # first: buchberger interreduces and returns only that block
    gb = buchberger(_Working(ext, gens, t1))
    kept = [[(k - t0, m >> _FIELD_BITS, c) for k, m, c in h] for h in gb._terms]
    return ReducedGB(ring, GREVLEX, kept)


def _divide(ring: Ring, order: MonomialOrder, f: list, g: list) -> list:
    """Exact quotient f/g of working forms under ``order``, by long division.

    The remainder lives in a dict keyed by order key, drained through a
    max-heap, so each step costs the length of g. Keys are affine:
    key(e + m) = key(e) + key(m) - key(0) (see ``MonomialOrder.key``).
    """
    field = ring.field
    guard = guard_mask(ring.nvars)
    (kg, mg, cg), tail = g[0], g[1:]
    key0 = order.key((0,) * ring.nvars)
    icg = field.inv(cg)
    rem = {k: (m, c) for k, m, c in f}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quo = []
    while heap:
        k = -heapq.heappop(heap)
        er, cr = rem.pop(k)  # later steps only touch smaller monomials
        if field.is_zero(cr):
            continue
        if ((er | guard) - mg) & guard != guard:
            f, g = (_to_poly(ring, order, t) for t in (f, g))
            raise InternalInconsistency(f"{f} is not divisible by {g}")
        m = er - mg
        c = field.mul(cr, icg)
        delta = k - kg
        quo.append((delta + key0, m, c))
        factor = field.neg(c)
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
    # keys were popped in descending order, so the quotient is already sorted
    return quo


def _multiply(ring: Ring, order: MonomialOrder, f: list, g: list) -> list:
    """The product f*g of working forms under ``order``.

    Keys are affine, so the key of a product term is kf + kg - key(0); every
    packed product is checked for a field past 16 bits.
    """
    field = ring.field
    guard = guard_mask(ring.nvars)
    key0 = order.key((0,) * ring.nvars)
    fmul, fadd = field.mul, field.add
    coeffs: dict = {}
    exps_of: dict = {}
    for kf, mf, cf in f:
        shift = kf - key0
        for kg, mg, cg in g:
            m = mf + mg
            if m & guard:
                raise packed_overflow(mf, mg, guard)
            k = kg + shift
            c = fmul(cf, cg)
            old = coeffs.get(k)
            if old is None:
                coeffs[k] = c
                exps_of[k] = m
            else:
                coeffs[k] = fadd(old, c)
    is_zero = field.is_zero
    keys = sorted(coeffs, reverse=True)
    return [(k, exps_of[k], coeffs[k]) for k in keys if not is_zero(coeffs[k])]


def colon_ideal(I: IdealPresentation | ReducedGB, J: IdealPresentation | ReducedGB) -> ReducedGB:
    """Reduced grevlex Groebner basis of (I : J) = {f : f*J in I}.

    Either ideal may be a ReducedGB, which stands for its basis; a reduced
    grevlex basis of I is used as it is, with no Buchberger run. J's
    generators are taken in their given order, and the running colon
    B = (I : (f_1, ..., f_{k-1})) meets the next one f in one elimination:
    (I : (f_1, ..., f_k)) = (I cap f*B) / f, where each division is exact
    because I cap f*B lies in (f) and S is a domain (see the module docstring).
    """
    if I.ring != J.ring:
        raise RingMismatch("colon across different rings")
    ring = I.ring
    field = ring.field
    jgens = _generators(J)
    if not jgens:
        raise ZeroDivisorColon("colon by the zero ideal")
    if isinstance(I, ReducedGB) and I.order == GREVLEX:
        gb = I
    else:
        gb = buchberger(I.presentation() if isinstance(I, ReducedGB) else I, GREVLEX)
    basis, leads = gb._terms, gb.leads
    guard = guard_mask(ring.nvars)
    colon: ReducedGB | None = None  # (I : f_1..f_k) so far; None stands for S
    for f in jgens:
        if basis:
            f = _nf(f, basis, leads, field, guard)  # (I : f) = (I : f + i) for i in I
        if not f:
            continue  # f in I, so (I : f) = S
        if f[0][1] == 0:
            return gb  # f is a unit, so (I : f) = I, inside every other (I : g)
        f = _monic(f, field)
        # f*B, from B's reduced basis: intersect reads it only as generators
        fB = (f,) if colon is None else [_multiply(ring, GREVLEX, f, b) for b in colon._terms]
        inter = intersect(gb, ReducedGB(ring, GREVLEX, fB))
        quotients = [_divide(ring, GREVLEX, h, f) for h in inter._terms]
        colon = _reduce_basis(ring, GREVLEX, quotients)
    if colon is None:  # every f lies in I: the unit ideal, one constant term
        return ReducedGB(ring, GREVLEX, ([(GREVLEX.key((0,) * ring.nvars), 0, field.one())],))
    return colon
