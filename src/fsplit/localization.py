"""Localization at coordinate primes and finite-sample semicontinuity probes.

A coordinate prime is generated by a subset of the ring variables, so
primality is structural. Localizing moves the complement variables into the
coefficient field as fresh transcendentals (the generic fiber), which agrees
with honest localization for the length invariants computed here; the corpus
pins that agreement against hand values. Verdicts in every report are
recomputed from the raw values, never cached independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_BUDGET, FsplitError, MissingFlag, NotContaining
from .fields import PrimeField, RatFunc, RationalFunctionField
from .poly import GREVLEX, IdealPresentation, Ring
from .splitting import SplittingReport, normalized_splitting_number


@dataclass(frozen=True)
class CoordinatePrime:
    """A prime ideal generated by a subset of the ring variables."""

    variables: tuple

    def subset_of(self, other: "CoordinatePrime") -> bool:
        return set(self.variables) <= set(other.variables)

    def __str__(self):
        return "(" + ", ".join(self.variables) + ")" if self.variables else "(0)"


@dataclass(frozen=True)
class PrimeChain:
    """Strictly increasing chain of coordinate primes."""

    primes: tuple

    def __post_init__(self):
        for a, b in zip(self.primes, self.primes[1:]):
            if not (set(a.variables) < set(b.variables)):
                raise FsplitError(f"chain is not strictly increasing at {a} < {b}")


def _verify_containment(I: IdealPresentation, P: CoordinatePrime) -> None:
    names = set(P.variables)
    unknown = names - set(I.ring.variables)
    if unknown:
        raise NotContaining(f"{sorted(unknown)} are not ring variables")
    idx = [i for i, v in enumerate(I.ring.variables) if v in names]
    for g in I.nonzero_generators():
        for exps, _ in g.terms:
            if all(exps[i] == 0 for i in idx):
                raise NotContaining(f"generator {g} does not lie in {P}")


def localize_at_coordinate_prime(I: IdealPresentation, P: CoordinatePrime):
    """Rewrite (S, I) over the field extended by the variables outside P.

    Returns (new ring, new presentation). Generators are normalized to have
    leading coefficient one, so unit factors absorbed into the field drop out.
    """
    _verify_containment(I, P)
    ring = I.ring
    keep = [v for v in ring.variables if v in set(P.variables)]
    complement = [v for v in ring.variables if v not in set(P.variables)]
    if not complement:
        return ring, I
    field = ring.field
    p = field.characteristic
    new_field = RationalFunctionField(p, field.transcendentals + tuple(complement))
    new_ring = Ring(new_field, keep, GREVLEX)
    old_m = len(field.transcendentals)
    pad = len(complement)
    keep_idx = [ring.variables.index(v) for v in keep]
    comp_idx = [ring.variables.index(v) for v in complement]

    def convert_coefficient(c):
        if isinstance(field, PrimeField):
            return new_field.from_int(c)
        num = tuple((e + (0,) * pad, v) for e, v in c.num)
        den = tuple((e + (0,) * pad, v) for e, v in c.den)
        return RatFunc(num, den)

    new_gens = []
    for g in I.generators:
        acc: dict = {}
        for exps, c in g.terms:
            stay = tuple(exps[i] for i in keep_idx)
            moved = (0,) * old_m + tuple(exps[i] for i in comp_idx)
            coeff = new_field.mul(convert_coefficient(c), new_field.monomial(moved))
            if stay in acc:
                acc[stay] = new_field.add(acc[stay], coeff)
            else:
                acc[stay] = coeff
        poly = new_ring.from_terms(acc)
        new_gens.append(poly.monic() if not poly.is_zero() else poly)
    return new_ring, IdealPresentation(new_ring, tuple(new_gens))


def s_e_at_prime(
    I: IdealPresentation, P: CoordinatePrime, e: int, budget: int = DEFAULT_BUDGET
) -> SplittingReport:
    """Splitting report of the localization at P; dim and alpha are local."""
    _, I_p = localize_at_coordinate_prime(I, P)
    return normalized_splitting_number(I_p, e, budget)


@dataclass(frozen=True)
class MonotonicityResult:
    chain: PrimeChain
    reports: tuple
    monotone: bool

    def values(self):
        return tuple(r.s_e for r in self.reports)

    def to_json_obj(self) -> dict:
        return {
            "chain": [list(P.variables) for P in self.chain.primes],
            "values": [str(r.s_e) for r in self.reports],
            "monotone": self.monotone,
        }


def check_localization_monotonicity(
    I: IdealPresentation,
    chain: PrimeChain,
    e: int,
    equidimensional: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> MonotonicityResult:
    """Verify s_e can only drop along the chain (smaller prime, larger value).

    Refuses to run unless the caller asserts the ring is locally
    equidimensional, which the monotonicity statement assumes.
    """
    if not equidimensional:
        raise MissingFlag("monotonicity check needs the equidimensional flag")
    reports = tuple(s_e_at_prime(I, P, e, budget) for P in chain.primes)
    ok = all(a.s_e >= b.s_e for a, b in zip(reports, reports[1:]))
    return MonotonicityResult(chain, reports, ok)


@dataclass(frozen=True)
class KunzResult:
    rows: tuple  # (prime, dim, alpha)
    constant: bool

    def sums(self):
        return tuple(d + a for _, d, a in self.rows)

    def to_json_obj(self) -> dict:
        return {
            "rows": [
                {"prime": list(P.variables), "dim": d, "alpha": a} for P, d, a in self.rows
            ],
            "sums": list(self.sums()),
            "constant": self.constant,
        }


def check_kunz_constancy(
    I: IdealPresentation,
    primes,
    connected: bool = False,
    equidimensional: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> KunzResult:
    """Verify dim(R_P) + alpha(R_P) is one constant across the sampled primes."""
    if not (connected and equidimensional):
        raise MissingFlag("kunz constancy needs the connected and equidimensional flags")
    rows = []
    for P in primes:
        report = s_e_at_prime(I, P, 0, budget)
        rows.append((P, report.dim, report.alpha))
    sums = {d + a for _, d, a in rows}
    return KunzResult(tuple(rows), len(sums) <= 1)


@dataclass(frozen=True)
class ThresholdVerdict:
    threshold: Fraction
    strict_members: tuple  # primes with s_e > r
    weak_members: tuple  # primes with s_e >= r
    strict_closed: bool
    weak_closed: bool

    def to_json_obj(self) -> dict:
        return {
            "r": str(self.threshold),
            "strict": {
                "members": [list(P.variables) for P in self.strict_members],
                "generization_closed": self.strict_closed,
            },
            "weak": {
                "members": [list(P.variables) for P in self.weak_members],
                "generization_closed": self.weak_closed,
            },
        }


@dataclass(frozen=True)
class SemicontinuityReport:
    """Value table plus per-threshold generization-closure verdicts."""

    e: int
    rows: tuple  # (prime, SplittingReport)
    thresholds: tuple  # ThresholdVerdict
    kunz_sums: tuple
    kunz_constant: bool

    @property
    def passed(self) -> bool:
        return all(t.strict_closed and t.weak_closed for t in self.thresholds)

    def to_json_obj(self) -> dict:
        return {
            "e": self.e,
            "values": [
                {"prime": list(P.variables), **r.to_json_obj()} for P, r in self.rows
            ],
            "thresholds": [t.to_json_obj() for t in self.thresholds],
            "kunz": {"sums": list(self.kunz_sums), "constant": self.kunz_constant},
            "passed": self.passed,
        }


def _generization_closed(rows, members) -> bool:
    member_set = {P.variables for P in members}
    for Q in members:
        for P, _ in rows:
            if P.subset_of(Q) and P.variables not in member_set:
                return False
    return True


def semicontinuity_scan(
    I: IdealPresentation,
    primes,
    e: int,
    thresholds,
    budget: int = DEFAULT_BUDGET,
) -> SemicontinuityReport:
    """Check {s_e > r} and {s_e >= r} are closed under generization on the sample."""
    rows = tuple((P, s_e_at_prime(I, P, e, budget)) for P in primes)
    verdicts = []
    for r in thresholds:
        r = Fraction(r)
        strict = tuple(P for P, rep in rows if rep.s_e > r)
        weak = tuple(P for P, rep in rows if rep.s_e >= r)
        verdicts.append(
            ThresholdVerdict(
                r,
                strict,
                weak,
                _generization_closed(rows, strict),
                _generization_closed(rows, weak),
            )
        )
    sums = tuple(rep.dim + rep.alpha for _, rep in rows)
    return SemicontinuityReport(
        e=e,
        rows=rows,
        thresholds=tuple(verdicts),
        kunz_sums=sums,
        kunz_constant=len(set(sums)) <= 1,
    )
