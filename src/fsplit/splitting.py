"""Normalized Frobenius splitting numbers and F-signature estimates.

The splitting length at the origin is computed two independent ways and the
agreement is asserted on every call:

  primal:  lambda(S / (n^[q] : (I^[q] : I)))
  dual:    lambda((((I^[q] : I)) + n^[q]) / n^[q]) = q^n - lambda(S / (K + n^[q]))

with n the ideal of all ring variables, q = p^e, K = (I^[q] : I), and the
zero-ideal convention (0^[q] : 0) = S. The normalized number is
s_e = lambda / q^dim as an exact rational, and a_e = s_e * q^(dim + alpha).

Everything is anchored at the origin: computations happen in the graded
polynomial ring, which for this input class is taken to agree with the
corresponding local computation; that assumption is recorded here rather
than re-derived per call. A proper ideal with a generator that has a nonzero
constant term does not vanish at the origin, so the splitting and socle entry
points reject it with NotContaining. A Gorenstein route through a system of
parameters and a socle generator is provided as an independent cross-check.
The socle work (the bases of A = I + (sop) and of (A : n)) runs once per
call, whether the socle element is computed or supplied.

Both routes see K only through K + n^[q], so K is built modulo n^[q]. For a
principal I = (f), K = (f^(q-1)) (Fedder, "F-purity and rational
singularity", Trans. AMS 1983), and two facts give f^(q-1) modulo n^[q]
exactly without forming f^(q-1):

* in characteristic p, f^(q-1) = prod_{i<e} (f^(p-1))^(p^i), since
  q - 1 = sum_{i<e} (p-1) p^i, and raising g to the p^i multiplies its
  exponents by p^i and applies the field's Frobenius to its coefficients
  (``field.frobenius(c, i)``, the identity on F_p);
* n^[q] is a monomial ideal, so dropping every term with an exponent >= q
  is the ring map S -> S/n^[q], and it may be applied to each factor and
  each partial product.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from .artinian import is_artinian, krull_dimension, length
from .errors import (
    DEFAULT_BUDGET,
    CostGuardExceeded,
    InternalInconsistency,
    InvalidSocle,
    NotArtinian,
    NotContaining,
    NotGorenstein,
)
from .groebner import ReducedGB, buchberger, ideal_member, normal_form
from .ideals import colon_ideal, frobenius_power, ideal_sum
from .poly import (
    EXPONENT_LIMIT,
    GREVLEX,
    IdealPresentation,
    Polynomial,
    Ring,
    guard_mask,
    pack,
    unpack,
)

log = logging.getLogger("fsplit")


@dataclass(frozen=True)
class SplittingReport:
    """One (e, q, lambda, dim, alpha, s_e, a_e) record."""

    e: int
    q: int
    splitting_length: int
    dim: int
    alpha: int
    s_e: Fraction
    a_e: int | None

    def to_json_obj(self) -> dict:
        return {
            "e": self.e,
            "q": self.q,
            "lambda": str(self.splitting_length),
            "dim": self.dim,
            "alpha": self.alpha,
            "s_e": str(self.s_e),
            "a_e": None if self.a_e is None else str(self.a_e),
        }


@dataclass(frozen=True)
class SignatureEstimate:
    """Reports for e = 0..e_max plus tail extrema and a positivity flag."""

    reports: tuple
    tail_max: Fraction | None
    tail_min: Fraction | None
    positive: bool

    def values(self) -> tuple:
        return tuple(r.s_e for r in self.reports)

    def to_json_obj(self) -> dict:
        return {
            "reports": [r.to_json_obj() for r in self.reports],
            "tail_max": None if self.tail_max is None else str(self.tail_max),
            "tail_min": None if self.tail_min is None else str(self.tail_min),
            "positive": self.positive,
        }


def _guard(ring: Ring, e: int, budget: int) -> int:
    q = ring.field.characteristic**e
    if q**ring.nvars > budget:
        raise CostGuardExceeded(
            f"q^n = {q**ring.nvars} exceeds the standard-monomial budget {budget}"
        )
    return q


def _require_origin(I: IdealPresentation) -> None:
    """Reject a proper I that is not inside n, so the origin is not on V(I).

    1 is the smallest monomial under every order, so a generator has a
    constant term iff its last term is constant. The unit ideal passes here
    and fails later as NotArtinian.
    """
    if any(not any(g.terms[-1][0]) for g in I.nonzero_generators()):
        if not buchberger(I, GREVLEX).is_unit_ideal():
            raise NotContaining(f"{I} is not contained in the ideal of the origin")


def _truncated_power(f: Polynomial, e: int) -> Polynomial:
    """f^(q-1) with every term that has an exponent >= q dropped, q = p^e.

    Built as the product over i < e of (f^(p-1))^[p^i], from i = e - 1 down,
    on packed monomials (``poly.pack``). A product m of a monomial truncated
    at q and any monomial is the sum of the packed forms, with every field
    below 2^16 + q, so m has an exponent >= q iff (m + B) & G is nonzero,
    where B = pack((2^16 - q,) * n) and G is the guard mask. A term of
    f^(p-1) enters factor i only if its exponents are below q / p^i, so
    scaling its packed monomial by p^i moves no bit across a field. Needs
    q < 2^16 when n > 0, as n^[q] itself does.
    """
    ring = f.ring
    field = ring.field
    p = field.characteristic
    n = ring.nvars
    q = p**e
    guard = guard_mask(n)

    def below(b: int) -> int:
        return pack((EXPONENT_LIMIT - b,) * n)

    bq = below(q)

    def times(a: dict, b: dict) -> dict:
        acc = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                if (m + bq) & guard:
                    continue
                c = field.mul(ca, cb)
                old = acc.get(m)
                acc[m] = c if old is None else field.add(old, c)
        return {m: c for m, c in acc.items() if not field.is_zero(c)}

    base = {pack(x): c for x, c in f.terms}
    h = {0: field.one()}
    for _ in range(p - 1):
        h = times(h, base)
    out = {0: field.one()}
    for i in reversed(range(e)):
        s, bi = p**i, below(p ** (e - i))
        factor = {m * s: field.frobenius(c, i) for m, c in h.items() if not (m + bi) & guard}
        out = times(out, factor)
    return ring.from_terms({unpack(m, n): c for m, c in out.items()})


def _colon_multiplier(I: IdealPresentation, e: int) -> IdealPresentation:
    """K = (I^[q] : I) modulo n^[q], with (0^[q] : 0) = S for the zero ideal.

    Returns generators of an ideal K' with K' + n^[q] = K + n^[q], since both
    routes only ever see K + n^[q]. For a principal I = (f), S is a domain,
    so K = (f^(q-1)) exactly (Fedder), and K' is generated by f^(q-1) with
    every term that has an exponent >= q dropped (``_truncated_power``). When
    that is zero, f^(q-1) lies in n^[q] and K' is n^[q] itself, so the primal
    colon is S at once and the dual length 0. Any other I goes through
    ``colon_ideal`` and K' = K.
    """
    ring = I.ring
    gens = I.nonzero_generators()
    if not gens:
        return IdealPresentation(ring, (ring.one(),))
    if len(gens) == 1:
        k = _truncated_power(gens[0], e)
        if k.is_zero():
            return frobenius_power(ring.variable_ideal(), e)
        return IdealPresentation(ring, (k,))
    K = colon_ideal(frobenius_power(I, e), I)
    return K.presentation()


def _with_multiplier(I: IdealPresentation, e: int, budget: int):
    if e < 0:
        raise ValueError("e must be nonnegative")
    ring = I.ring
    q = _guard(ring, e, budget)
    _require_origin(I)
    nq = frobenius_power(ring.variable_ideal(), e)
    return ring, q, nq, _colon_multiplier(I, e)


def _primal_gb(nq: IdealPresentation, K: IdealPresentation) -> ReducedGB:
    return colon_ideal(nq, K)


def _dual_length(ring: Ring, q: int, nq: IdealPresentation, K: IdealPresentation) -> int:
    summed = ideal_sum(K, nq)
    codim = length(buchberger(summed, GREVLEX))
    return q**ring.nvars - codim


def splitting_ideal(I: IdealPresentation, e: int, budget: int = DEFAULT_BUDGET) -> ReducedGB:
    """Groebner basis of J = n^[q] : (I^[q] : I), the splitting-length ideal."""
    _, _, nq, K = _with_multiplier(I, e, budget)
    return _primal_gb(nq, K)


def dual_splitting_length(I: IdealPresentation, e: int, budget: int = DEFAULT_BUDGET) -> int:
    """lambda((K + n^[q]) / n^[q]) as q^n minus a staircase count."""
    ring, q, nq, K = _with_multiplier(I, e, budget)
    return _dual_length(ring, q, nq, K)


def normalized_splitting_number(
    I: IdealPresentation, e: int, budget: int = DEFAULT_BUDGET
) -> SplittingReport:
    """SplittingReport at the origin; primal and dual lengths must agree exactly."""
    ring, q, nq, K = _with_multiplier(I, e, budget)
    lam = length(_primal_gb(nq, K))
    dual = _dual_length(ring, q, nq, K)
    if dual != lam:
        raise InternalInconsistency(
            f"primal splitting length {lam} != dual splitting length {dual}"
        )
    d = krull_dimension(buchberger(I, GREVLEX))
    return _make_report(ring, e, lam, d)


def _make_report(ring: Ring, e: int, lam: int, d: int) -> SplittingReport:
    if d < 0:
        raise NotArtinian("the quotient is the zero ring; splitting numbers are undefined")
    q = ring.field.characteristic**e
    a = ring.field.alpha()
    s = Fraction(lam, q**d)
    a_e = s * q ** (d + a)
    if a_e.denominator != 1:
        raise InternalInconsistency(f"a_e = {a_e} is not an integer")
    if s > 1:
        log.warning("noteworthy: s_%d = %s exceeds 1", e, s)
    return SplittingReport(e, q, lam, d, a, s, int(a_e))


def regularity_test(I: IdealPresentation, e: int, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff s_e = 1, for e >= 1; detects regularity at the origin."""
    if e < 1:
        raise ValueError("the regularity criterion needs e >= 1")
    return normalized_splitting_number(I, e, budget).s_e == 1


def hypersurface_is_fpure(f: Polynomial, e: int) -> bool:
    """Fedder-style membership test: f^(q-1) outside n^[q].

    Independent of the colon route; for I = (f) this is equivalent to
    s_e(S/(f)) > 0, and the test suite holds the two routes to agreement.
    """
    if e < 1:
        raise ValueError("F-purity test needs e >= 1")
    ring = f.ring
    q = ring.field.characteristic**e
    nq = buchberger(frobenius_power(ring.variable_ideal(), e), GREVLEX)
    return not ideal_member(f ** (q - 1), nq)


def _socle_bases(I: IdealPresentation, sop: tuple) -> tuple:
    """Reduced bases of A = I + (sop) and of (A : n), with the socle certified.

    Checks that I is at the origin, that sop has as many elements as the
    Krull dimension, that S/A is Artinian and nonzero, and that its socle
    (A : n)/A is one-dimensional.
    """
    ring = I.ring
    _require_origin(I)
    d = krull_dimension(buchberger(I, GREVLEX))
    if len(sop) != d:
        raise NotArtinian(f"sop has {len(sop)} elements but the quotient has dimension {d}")
    A = ideal_sum(I, IdealPresentation(ring, sop))
    GA = buchberger(A, GREVLEX)
    if not is_artinian(GA):
        raise NotArtinian("the parameter ideal does not cut down to dimension zero")
    if GA.is_unit_ideal():
        raise NotArtinian("the parameter ideal is the unit ideal")
    lam_A = length(GA)
    C = colon_ideal(GA.presentation(), ring.variable_ideal())
    socle_dim = lam_A - length(C)
    if socle_dim != 1:
        raise NotGorenstein(f"socle has vector-space dimension {socle_dim}, not 1")
    return GA, C


def socle_generator(I: IdealPresentation, sop) -> Polynomial:
    """A lift of the socle generator of S/(I + (sop)); errors if not Gorenstein.

    ``sop`` must be a system of parameters at the origin: as many elements as
    the Krull dimension, with Artinian quotient. Zero-dimensional rings take
    the empty sop by convention.
    """
    GA, C = _socle_bases(I, tuple(sop))
    candidates = []
    for g in C.basis:
        nf = normal_form(g, GA)
        if not nf.is_zero():
            candidates.append(nf)
    if not candidates:
        raise InternalInconsistency("one-dimensional socle produced no generator")
    keyf = GA.order.key
    return min(candidates, key=lambda h: keyf(h.leading_term(GA.order)[0]))


def gorenstein_splitting_number(
    I: IdealPresentation,
    sop,
    e: int,
    u: Polynomial | None = None,
    budget: int = DEFAULT_BUDGET,
) -> SplittingReport:
    """Splitting report via the Gorenstein route lambda(R u^q + sop^[q] / sop^[q]).

    Computed in the ambient ring as lambda(S / ((I + sop^[q]) : u^q)). The
    default u is the computed socle generator. A supplied u must lie outside
    A = I + (sop) and inside (A : n), against the same certified bases.
    """
    if e < 0:
        raise ValueError("e must be nonnegative")
    ring = I.ring
    sop = tuple(sop)
    _guard(ring, e, budget)
    if u is None:
        u = socle_generator(I, sop)
    else:
        GA, C = _socle_bases(I, sop)
        if normal_form(u, GA).is_zero():
            raise InvalidSocle("supplied socle element lies in the parameter ideal")
        if not ideal_member(u, C):
            raise InvalidSocle("supplied element does not annihilate the maximal ideal")
    B = ideal_sum(I, frobenius_power(IdealPresentation(ring, sop), e))
    uq = u.frobenius(e)
    C = colon_ideal(B, IdealPresentation(ring, (uq,)))
    lam = length(C)
    return _make_report(ring, e, lam, len(sop))


def f_signature_sequence(
    I: IdealPresentation, e_max: int, budget: int = DEFAULT_BUDGET
) -> SignatureEstimate:
    """Reports for e = 0..e_max with tail extrema over e >= 1 and positivity.

    Frobenius is flat on S, so lambda_(e+1) <= p^n * lambda_e; a step that
    breaks the bound raises InternalInconsistency.
    """
    if e_max < 1:
        raise ValueError("e_max must be positive")
    reports = []
    for e in range(e_max + 1):
        try:
            rep = normalized_splitting_number(I, e, budget)
        except CostGuardExceeded as exc:
            raise CostGuardExceeded(
                str(exc), partial=_assemble_estimate(tuple(reports))
            ) from exc
        if reports:
            prev = reports[-1].splitting_length
            bound = I.ring.field.characteristic**I.ring.nvars * prev
            if rep.splitting_length > bound:
                raise InternalInconsistency(
                    f"{I} in {I.ring!r}: lambda_{e} = {rep.splitting_length} exceeds "
                    f"p^n * lambda_{e - 1} = {bound} (lambda_{e - 1} = {prev})"
                )
        reports.append(rep)
    return _assemble_estimate(tuple(reports))


def _assemble_estimate(reports: tuple) -> SignatureEstimate:
    tail = [r.s_e for r in reports if r.e >= 1]
    return SignatureEstimate(
        reports=reports,
        tail_max=max(tail) if tail else None,
        tail_min=min(tail) if tail else None,
        positive=bool(tail) and all(v > 0 for v in tail),
    )


__all__ = [
    "SplittingReport",
    "SignatureEstimate",
    "splitting_ideal",
    "dual_splitting_length",
    "normalized_splitting_number",
    "regularity_test",
    "hypersurface_is_fpure",
    "socle_generator",
    "gorenstein_splitting_number",
    "f_signature_sequence",
    "DEFAULT_BUDGET",
]
