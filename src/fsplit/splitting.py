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
from .ideals import colon_ideal, divide_exact, frobenius_power, ideal_sum
from .poly import GREVLEX, IdealPresentation, Polynomial, Ring

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


def _colon_multiplier(I: IdealPresentation, e: int) -> IdealPresentation:
    """K = (I^[q] : I), with (0^[q] : 0) = S for the zero ideal.

    For a principal I = (f), S is a domain, so (f^q : f) = (f^(q-1)) exactly
    and no elimination is needed.
    """
    ring = I.ring
    gens = I.nonzero_generators()
    if not gens:
        return IdealPresentation(ring, (ring.one(),))
    if len(gens) == 1:
        f = gens[0]
        return IdealPresentation(ring, (divide_exact(f.frobenius(e), f),))
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
    lam = 0 if C.is_unit_ideal() else length(C)
    return _make_report(ring, e, lam, len(sop))


def f_signature_sequence(
    I: IdealPresentation, e_max: int, budget: int = DEFAULT_BUDGET
) -> SignatureEstimate:
    """Reports for e = 0..e_max with tail extrema over e >= 1 and positivity."""
    if e_max < 1:
        raise ValueError("e_max must be positive")
    reports = []
    for e in range(e_max + 1):
        try:
            reports.append(normalized_splitting_number(I, e, budget))
        except CostGuardExceeded as exc:
            raise CostGuardExceeded(
                str(exc), partial=_assemble_estimate(tuple(reports))
            ) from exc
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
